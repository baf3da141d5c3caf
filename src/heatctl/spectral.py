"""Truncated eigensystems of the Laplacian on tori and boxes.

Eigenfunctions are tensor products of 1D trigonometric modes, stored as
cosine atoms (see :mod:`heatctl._trig`), so inner products against box
indicators and cosine potentials are available in closed form.  All heavier
operators (Schrodinger Galerkin matrices, semigroups, fractional powers)
act in this basis.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _trig
from .errors import CapacityError, NumericError, ParameterError

BOUNDARIES = ("periodic", "dirichlet", "neumann")

DEFAULT_N_MAX = 512

# tile side of the in-place symmetrization: three tiles (two read, one
# scratch) stay within a core's L2 cache
_TILE = 128


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned torus or box.

    ``sides`` are the edge lengths per axis (circumference ``2*pi*L`` for a
    torus axis); ``origin`` anchors the box in absolute coordinates, so the
    domain is ``prod_i [origin_i, origin_i + sides_i]``.
    """

    boundary: str
    sides: tuple[float, ...]
    origin: tuple[float, ...] = None

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ParameterError(f"unknown boundary {self.boundary!r}")
        sides = tuple(float(s) for s in self.sides)
        if not sides or len(sides) > 3:
            raise ParameterError("dimension must be 1, 2 or 3")
        if any(s <= 0 for s in sides):
            raise ParameterError("all side lengths must be positive")
        object.__setattr__(self, "sides", sides)
        origin = self.origin
        if origin is None:
            origin = (0.0,) * len(sides)
        origin = tuple(float(o) for o in origin)
        if len(origin) != len(sides):
            raise ParameterError("origin and sides must have equal length")
        object.__setattr__(self, "origin", origin)

    @property
    def dimension(self):
        return len(self.sides)

    @property
    def volume(self):
        return float(np.prod(self.sides))

    def box(self):
        """The domain as a list of (lo, hi) pairs in absolute coordinates."""
        return [(o, o + s) for o, s in zip(self.origin, self.sides)]

    @classmethod
    def interval(cls, a, b, boundary="dirichlet"):
        return cls(boundary, (b - a,), (a,))

    @classmethod
    def torus(cls, *sides):
        return cls("periodic", tuple(sides))


def _axis_modes(boundary, side, e_max):
    """1D mode indices with eigenvalue <= e_max on one axis.

    Periodic axes use signed indices: ``k == 0`` is the constant, ``k > 0``
    the cosine and ``k < 0`` the sine at frequency ``|k|``.
    """
    out = []
    if boundary == "periodic":
        unit = 2.0 * np.pi / side
        out.append((0, 0.0))
        k = 1
        while (k * unit) ** 2 <= e_max:
            lam = (k * unit) ** 2
            out.append((k, lam))
            out.append((-k, lam))
            k += 1
    else:
        unit = np.pi / side
        k0 = 0 if boundary == "neumann" else 1
        k = k0
        while (k * unit) ** 2 <= e_max:
            out.append((k, (k * unit) ** 2))
            k += 1
    return out


def _axis_atom(boundary, side, origin, k):
    """(amp, freq, phase) of the 1D mode ``k`` in absolute coordinates."""
    if boundary == "periodic":
        if k == 0:
            return (1.0 / np.sqrt(side), 0.0, 0.0)
        w = 2.0 * np.pi * abs(k) / side
        phase = -w * origin - (np.pi / 2 if k < 0 else 0.0)
        return (np.sqrt(2.0 / side), w, phase)
    if boundary == "dirichlet":
        w = k * np.pi / side
        return (np.sqrt(2.0 / side), w, -w * origin - np.pi / 2)
    # neumann
    if k == 0:
        return (1.0 / np.sqrt(side), 0.0, 0.0)
    w = k * np.pi / side
    return (np.sqrt(2.0 / side), w, -w * origin)


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal Laplacian eigenbasis truncated at energy ``e_max``."""

    domain: DomainSpec
    modes: tuple
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.modes)

    @cached_property
    def mode_indices(self):
        """The mode indices as an ``(n, d)`` integer array, built once per basis."""
        return np.array(self.modes, dtype=int).reshape(self.n, self.domain.dimension)

    @cached_property
    def axis_indices(self):
        """Per axis ``(distinct, index)``, built once per basis: the distinct
        1D mode indices of the axis, ascending, and ``index[i]`` the position
        of mode ``i``'s among them."""
        return tuple(np.unique(self.mode_indices[:, ax], return_inverse=True)
                     for ax in range(self.domain.dimension))

    @cached_property
    def axis_atoms(self):
        """Per axis ``((amps, freqs, phases), index)``, built once per basis.

        The arrays hold the distinct 1D atoms of the axis, in the order of
        :attr:`axis_indices`; ``index[i]`` is the position of mode ``i``'s
        factor among them.
        """
        dom = self.domain
        axes = []
        for ax, (distinct, index) in enumerate(self.axis_indices):
            atoms = np.array([_axis_atom(dom.boundary, dom.sides[ax], dom.origin[ax], int(k))
                              for k in distinct]).T
            axes.append((tuple(atoms), index))
        return tuple(axes)

    @cached_property
    def sign_classes(self):
        """The modes grouped by the sign pattern of their indices, built once
        per basis: ascending index arrays, one per pattern that occurs, in
        the order of ``sum_ax 2^ax [k_ax < 0]``.  On a torus axis the mode
        ``k < 0`` is the sine and ``k >= 0`` the cosine or constant, so in
        atoms centred at any point ``c`` these are the classes of equal
        parity under the reflections through ``c``.
        """
        return group_modes((self.mode_indices < 0) @ (1 << np.arange(self.domain.dimension)))

    def evaluate(self, points):
        """Values of all modes at ``points`` (shape (npts, d), any other shape
        refused) -> (n, npts)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.dimension:
            raise ParameterError(f"points need shape (npts, {self.domain.dimension}), "
                                 f"not {pts.shape}")
        vals = np.ones((self.n, pts.shape[0]))
        for ax in range(self.domain.dimension):
            (amps, freqs, phases), index = self.axis_atoms[ax]
            vals *= (amps[:, None] * np.cos(freqs[:, None] * pts[:, ax][None, :]
                                            + phases[:, None]))[index]
        return vals


def group_modes(key):
    """The modes grouped by equal integer ``key`` (one per mode): ascending
    index arrays, in the order of the keys.  It groups both
    :attr:`SpectralBasis.sign_classes` and the Bloch classes of
    :func:`heatctl.geometry.mode_classes`."""
    order = np.argsort(key, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(key[order])) + 1))


def build_basis(domain, e_max, n_max=DEFAULT_N_MAX):
    """All Laplacian modes of ``domain`` with eigenvalue <= ``e_max``.

    Modes are sorted by eigenvalue with lexicographic tie-breaking, so
    degenerate eigenspaces have a reproducible order.  Raises
    :class:`CapacityError` when the truncation exceeds ``n_max`` modes.
    """
    if e_max <= 0:
        raise ParameterError("e_max must be positive")
    per_axis = [_axis_modes(domain.boundary, s, e_max) for s in domain.sides]
    modes = [((), 0.0)]
    for axis_list in per_axis:
        modes = [(m + (k,), lam + l1) for (m, lam) in modes for (k, l1) in axis_list
                 if lam + l1 <= e_max]
        if len(modes) > 50 * n_max:
            raise CapacityError(f"mode enumeration exceeded {50 * n_max}")
    modes.sort(key=lambda t: (t[1], t[0]))
    if len(modes) > n_max:
        raise CapacityError(
            f"e_max={e_max} yields {len(modes)} modes, exceeding n_max={n_max}")
    if not modes:
        raise ParameterError("no admissible mode below e_max")
    return SpectralBasis(
        domain=domain,
        modes=tuple(m for m, _ in modes),
        eigenvalues=np.array([lam for _, lam in modes]),
    )


def box_integrals(basis_a, basis_b, boxes):
    """Matrix of ``sum_box int_box phi^a_i phi^b_j`` over absolute boxes.

    Each box is a sequence of ``(lo, hi)`` per axis.  Per axis the cross
    kernel runs on the distinct atoms only, for a stack of boxes at once.
    A stack holds at most ``prod(m_a m_b) / sum(m_a m_b)`` boxes, where
    ``m_a`` and ``m_b`` count an axis's distinct atoms, so its tables hold
    no more than ``prod(m_a m_b)`` entries, the count of pairs of
    distinct-atom tuples, and memory does not grow with the box count: in
    1D, where no atom is shared, each box is its own stack, while every box
    of a 2D set fits in one.
    """
    d = basis_a.domain.dimension
    ends = np.asarray(boxes, dtype=float).reshape(-1, d, 2)
    axes = list(zip(basis_a.axis_atoms, basis_b.axis_atoms))
    sizes = [(len(a[0][0]), len(b[0][0])) for a, b in axes]
    stack = max(1, math.prod(ma * mb for ma, mb in sizes) // sum(ma * mb for ma, mb in sizes))
    out = None
    for first in range(0, len(ends), stack):
        part = ends[first:first + stack]
        tables = [_trig.cross_integrals(a[0], b[0], part[:, ax, 0], part[:, ax, 1])
                  for ax, (a, b) in enumerate(axes)]
        block = _trig.separable_sum(tables, [a[1] for a, _ in axes], [b[1] for _, b in axes])
        if out is None:
            out = block
        else:
            out += block
    return np.zeros((basis_a.n, basis_b.n)) if out is None else out


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded potential given as constant + box indicators + cosine series.

    ``boxes`` holds ``(coeff, box)`` indicator terms, each box one
    ``(lo, hi)`` pair per axis; ``cosines`` holds ``(coeff, kvec)`` terms
    meaning ``coeff * prod_i cos(k_i * u_i * (x_i - o_i))`` in the harmonic
    unit ``u_i`` of the target domain axis, one ``k_i`` per axis.  Every term
    has a closed-form Galerkin block, and ``sup_norm`` and ``inf_value``
    follow from the coefficients.
    """

    constant: float = 0.0
    boxes: tuple = ()
    cosines: tuple = ()

    @property
    def sup_norm(self):
        """Upper bound on ``|V|``: the sum of the absolute coefficients."""
        return float(abs(self.constant) + sum(abs(c) for c, _ in self.boxes)
                     + sum(abs(c) for c, _ in self.cosines))

    @property
    def inf_value(self):
        """Lower bound on ``V``."""
        return float(self.constant + sum(min(c, 0.0) for c, _ in self.boxes)
                     - sum(abs(c) for c, _ in self.cosines))

    @classmethod
    def const(cls, c):
        return cls(constant=float(c))

    @classmethod
    def indicator(cls, box, height=1.0):
        return cls(boxes=((float(height), tuple(tuple(map(float, e)) for e in box)),))

    def evaluate(self, points, domain):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        val = np.full(pts.shape[0], self.constant)
        for coeff, box in self.boxes:
            inside = np.ones(pts.shape[0], dtype=bool)
            for ax, (a, b) in enumerate(box):
                inside &= (pts[:, ax] >= a) & (pts[:, ax] <= b)
            val += coeff * inside
        for coeff, kvec in self.cosines:
            term = np.full(pts.shape[0], coeff)
            for ax, k in enumerate(kvec):
                unit = (2.0 * np.pi if domain.boundary == "periodic" else np.pi)
                w = k * unit / domain.sides[ax]
                term *= np.cos(w * (pts[:, ax] - domain.origin[ax]))
            val += term
        return val


@dataclass(frozen=True)
class OperatorHandle:
    """Eigenpairs of the Galerkin matrix of ``-Laplace + V``.

    A handle without a potential is diagonal: its eigenvectors are the
    basis functions themselves, so it stores its eigenvalues only and
    ``eigvecs`` is ``None``.  A handle with a potential stores its dense
    eigenvectors, whose columns follow ``eigvals``.  Every operator built
    from the handle is read in its eigenbasis (:meth:`project`).
    """

    basis: SpectralBasis
    eigvals: np.ndarray = field(repr=False)
    potential: PotentialSpec = None
    eigvecs: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return self.basis.n

    @property
    def is_diagonal(self):
        return self.potential is None

    def project(self, M, modes=None):
        """``V_k^T M V_k`` of a symmetric ``M`` for the eigenvectors of the
        ascending index array ``modes`` (all of them when it is ``None``),
        exactly symmetric.

        On a dense handle the product is formed anew and symmetrized in
        place, the one place a projected block is symmetrized.  On a
        diagonal handle it is the principal block of ``M``, as exactly
        symmetric as ``M`` is (every Gram is, from its assembler): ``M``
        itself, a view for a contiguous run, a copy otherwise.
        """
        if self.eigvecs is not None:
            V = self.eigvecs if modes is None else self.eigvecs[:, modes]
            return symmetrize(V.T @ M @ V)
        if modes is None:
            return M
        if modes[-1] - modes[0] + 1 == modes.size:
            return M[modes[0]:modes[-1] + 1, modes[0]:modes[-1] + 1]
        return M[np.ix_(modes, modes)]

    def project_diagonal(self, M, modes):
        """The diagonal of ``project(M, modes)``, without the rest of the
        block: ``np.diagonal(M)[modes]`` on a diagonal handle, the column
        sums of ``V_k * (M V_k)`` on a dense one."""
        if self.eigvecs is None:
            return np.diagonal(M)[modes]
        V = self.eigvecs[:, modes]
        return np.einsum("ij,ij->j", V, M @ V)

    def to_eigenbasis(self, u):
        return u if self.eigvecs is None else self.eigvecs.T @ u

    def from_eigenbasis(self, w):
        return w if self.eigvecs is None else self.eigvecs @ w


def symmetrize(M):
    """Overwrite the square matrix ``M`` with ``0.5 * (M + M.T)``, bit for bit.

    One pair of mirrored ``_TILE x _TILE`` tiles at a time, so the scratch
    is one tile instead of two n x n temporaries.  ``M`` must be an array
    the caller owns, with no view of it still read as the unsymmetrized
    matrix.  Returns ``M``.
    """
    n = M.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = M[i:i + _TILE, j:j + _TILE]
            lower = M[j:j + _TILE, i:i + _TILE]
            tile = upper + lower.T
            tile *= 0.5
            upper[...] = tile
            lower[...] = tile.T
    return M


def _cosine_galerkin_block(basis, kvec):
    """``int phi_i phi_j prod_ax cos(w0_ax (x_ax - o_ax))`` over the domain."""
    dom = basis.domain
    unit = (2.0 * np.pi if dom.boundary == "periodic" else np.pi)
    tables, index = [], []
    for ax, (a, b) in enumerate(dom.box()):
        atoms, idx = basis.axis_atoms[ax]
        amps, freqs, phases = atoms
        w0 = kvec[ax] * unit / dom.sides[ax]
        p0 = -w0 * a
        # phi_j cos(w0 x + p0) is the sum of the half-amplitude atoms at w_j -+ w0
        tables.append(sum(_trig.cross_integrals(
            atoms, (0.5 * amps, freqs + s * w0, phases + s * p0), [a], [b])
            for s in (-1.0, 1.0)))
        index.append(idx)
    return _trig.separable_sum(tables, index, index)


@np.errstate(over="ignore", invalid="ignore")
def galerkin_matrix(basis, potential):
    """Symmetrized Galerkin matrix of ``-Laplace + V`` in ``basis``.

    Indicator and cosine terms are integrated in closed form.  A box without
    one ``(lo, hi)`` pair with ``lo < hi`` per axis of the domain, or a
    cosine without one frequency per axis, raises :class:`ParameterError`;
    a matrix whose sums or symmetrization leave double range raises
    :class:`NumericError`, and numpy warns of nothing on the way.
    """
    d = basis.domain.dimension
    M = np.diag(basis.eigenvalues + potential.constant)
    for coeff, box in potential.boxes:
        if len(box) != d or any(len(e) != 2 or not e[0] < e[1] for e in box):
            raise ParameterError(f"box {box} needs a (lo, hi) pair with lo < hi per axis")
        M += coeff * box_integrals(basis, basis, [box])
    for coeff, kvec in potential.cosines:
        if len(kvec) != d:
            raise ParameterError(f"cosine term {kvec} needs one frequency per axis")
        M += coeff * _cosine_galerkin_block(basis, kvec)
    M = symmetrize(M)
    if not np.all(np.isfinite(M)):
        raise NumericError(f"Galerkin matrix is not finite (sup_norm={potential.sup_norm})")
    return M


def galerkin_schrodinger(basis, potential=None):
    """Handle of the eigenpairs of ``-Laplace + V`` in ``basis``.

    With ``potential=None`` the handle is exactly diagonal; otherwise its
    eigenpairs are those of :func:`galerkin_matrix`, which is not kept.
    """
    if basis.n == 0:
        raise ParameterError("basis is empty")
    if potential is None:
        return OperatorHandle(basis=basis, eigvals=basis.eigenvalues.copy())
    M = galerkin_matrix(basis, potential)
    eigvals, eigvecs = np.linalg.eigh(M)
    return OperatorHandle(basis=basis, eigvals=eigvals, potential=potential, eigvecs=eigvecs)


def semigroup_apply(op, t, u):
    """Apply ``exp(-t A)`` to a coefficient vector, exactly per mode."""
    if t < 0:
        raise ParameterError("time must be non-negative")
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != op.n:
        raise ParameterError(f"vector has length {u.shape[-1]}, expected {op.n}")
    w = op.to_eigenbasis(u)
    return op.from_eigenbasis(np.exp(-t * op.eigvals) * w)


def fractional_transform(op, theta):
    """Spectrally map the handle by ``mu -> mu**theta`` (same eigenvectors).

    The level-``lam`` spectral projector of the new handle selects exactly
    the modes the original handle selects at level ``lam**(1/theta)``.
    """
    if theta <= 0:
        raise ParameterError("theta must be positive")
    if np.any(op.eigvals < 0):
        raise ParameterError("fractional powers need a non-negative spectrum")
    if theta == 1.0:
        return op
    return replace(op, eigvals=op.eigvals ** theta)
