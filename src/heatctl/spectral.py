"""Truncated eigensystems of the Laplacian on tori and boxes.

Eigenfunctions are tensor products of 1D trigonometric modes, stored as
cosine atoms (see :mod:`heatctl._trig`), so inner products against box
indicators and cosine potentials are available in closed form.  All heavier
operators (Schrodinger Galerkin matrices, semigroups, fractional powers)
act in this basis.
"""

import itertools
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

    @cached_property
    def axis_partners(self):
        """Per axis, ``partner[i]``, the mode whose index on that axis is that
        of mode ``i`` negated (``i`` itself where it is 0), built once per
        basis; ``None`` when some mode has no partner in the basis, which
        :func:`build_basis` never leaves on a torus."""
        where = {m: i for i, m in enumerate(self.modes)}
        partners = [[where.get(m[:ax] + (-m[ax],) + m[ax + 1:]) for m in self.modes]
                    for ax in range(self.domain.dimension)]
        return None if any(None in p for p in partners) else tuple(map(np.array, partners))

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


def _centred_atoms(side, centre, ks):
    """``(amps, freqs, phases)`` of the atoms of the torus indices ``ks`` on an
    axis of length ``side``, centred at ``centre``: ``cos(w (x - centre))``
    for ``k >= 0`` and ``sin(w (x - centre))`` for ``k < 0``."""
    return np.array([_axis_atom("periodic", side, centre, k) for k in ks]).T


def _gather_block(tables, basis, modes):
    """``prod_ax table_ax[a_i, a_j]`` over the modes ``i, j`` of the index array
    ``modes``, ``a`` their distinct atoms per axis: one flat ``np.take`` from
    each axis's table over the distinct atoms, multiplied in place."""
    block = None
    for table, (_, index) in zip(tables, basis.axis_indices):
        at = index[modes]
        factor = np.take(table, at[:, None] * len(table) + at)
        block = factor if block is None else np.multiply(block, factor, out=block)
    return block


def _cosine_tables(dom, atoms, kvec):
    """Per axis, ``int f_i f_j cos(w0 (x - o))`` over the axis of the domain
    ``dom`` for the atoms ``atoms[ax]``, ``o`` the domain's origin, as a
    ``(1, m, m)`` table."""
    unit = (2.0 * np.pi if dom.boundary == "periodic" else np.pi)
    tables = []
    for ax, (a, b) in enumerate(dom.box()):
        amps, freqs, phases = atoms[ax]
        w0 = kvec[ax] * unit / dom.sides[ax]
        p0 = -w0 * a
        # f_j cos(w0 x + p0) is the sum of the half-amplitude atoms at w_j -+ w0
        tables.append(sum(_trig.cross_integrals(
            atoms[ax], (0.5 * amps, freqs + s * w0, phases + s * p0), [a], [b])
            for s in (-1.0, 1.0)))
    return tables


def _cosine_galerkin_block(basis, kvec):
    """``int phi_i phi_j prod_ax cos(w0_ax (x_ax - o_ax))`` over the domain."""
    index = [idx for _, idx in basis.axis_atoms]
    return _trig.separable_sum(_cosine_tables(basis.domain, [a for a, _ in basis.axis_atoms],
                                              kvec), index, index)


def _check_terms(basis, potential):
    """Refuse a box without one ``(lo, hi)`` pair with ``lo < hi`` per axis of
    the domain of ``basis``, or a cosine without one frequency per axis."""
    d = basis.domain.dimension
    for _, box in potential.boxes:
        if len(box) != d or any(len(e) != 2 or not e[0] < e[1] for e in box):
            raise ParameterError(f"box {box} needs a (lo, hi) pair with lo < hi per axis")
    for _, kvec in potential.cosines:
        if len(kvec) != d:
            raise ParameterError(f"cosine term {kvec} needs one frequency per axis")


@np.errstate(over="ignore", invalid="ignore")
def galerkin_matrix(basis, potential):
    """Symmetrized Galerkin matrix of ``-Laplace + V`` in ``basis``.

    Indicator and cosine terms are integrated in closed form.  A box without
    one ``(lo, hi)`` pair with ``lo < hi`` per axis of the domain, or a
    cosine without one frequency per axis, raises :class:`ParameterError`;
    a matrix whose sums or symmetrization leave double range raises
    :class:`NumericError`, and numpy warns of nothing on the way.
    """
    _check_terms(basis, potential)
    M = np.diag(basis.eigenvalues + potential.constant)
    for coeff, box in potential.boxes:
        M += coeff * box_integrals(basis, basis, [box])
    for coeff, kvec in potential.cosines:
        M += coeff * _cosine_galerkin_block(basis, kvec)
    M = symmetrize(M)
    if not np.all(np.isfinite(M)):
        raise NumericError(f"Galerkin matrix is not finite (sup_norm={potential.sup_norm})")
    return M


def _even_centre(basis, potential):
    """A point ``c`` about which every term of ``potential`` is even on every
    axis of the torus of ``basis``, or ``None``.

    A box is even about its midpoint, a cosine about the domain's origin on
    each axis where its frequency is not 0, and the constant, or a cosine
    axis of frequency 0, about any point.  On a torus the reflection through
    ``c`` is that through ``c + side/2``, so the centres asked for must agree
    modulo ``side/2`` on every axis, to a few ulps of the side, and ``c``
    is taken within ``side/4`` of the origin; an axis that asks for none
    takes the origin itself.  Any other domain, or a basis in which
    some mode has no partner (:attr:`SpectralBasis.axis_partners`), has none.
    """
    dom = basis.domain
    if dom.boundary != "periodic" or basis.axis_partners is None:
        return None
    centre = []
    for ax, (side, origin) in enumerate(zip(dom.sides, dom.origin)):
        points = [0.5 * (box[ax][0] + box[ax][1]) for _, box in potential.boxes]
        points += [origin for _, kvec in potential.cosines if kvec[ax]]
        c = points[0] if points else origin
        if any(abs(math.remainder(p - c, 0.5 * side)) > 4.0 * np.spacing(side) for p in points):
            return None
        centre.append(origin + math.remainder(c - origin, 0.5 * side))
    return centre


@np.errstate(over="ignore", invalid="ignore")
def _eigh_by_sign_class(basis, potential, centre):
    """Eigenpairs of the Galerkin matrix of ``-Laplace + V`` for a ``V`` even
    about ``centre`` (:func:`_even_centre`), one sign class at a time.

    In the atoms centred at ``centre`` the matrix couples no two sign classes
    (:attr:`SpectralBasis.sign_classes`): each class block is gathered from
    per-axis tables over the distinct atoms (symmetrized, so every block is
    exactly symmetric) and solved by its own ``eigh``, and its eigenvectors
    go straight into their columns of the eigenvalue-sorted result.  Back in
    the basis's own atoms, centred at the origin ``o``, the coefficient of a
    mode ``i`` is ``cos(w d) u[i] - sign(k) sin(w d) u[partner]`` per axis,
    ``d = c - o``, ``w`` the mode's frequency and ``partner`` the mode with
    ``k`` negated on that axis; an axis with ``d = 0`` is not touched.  A
    block whose sums leave double range raises :class:`NumericError`.
    """
    dom = basis.domain
    atoms = [_centred_atoms(side, c, distinct)
             for side, c, (distinct, _) in zip(dom.sides, centre, basis.axis_indices)]
    terms = [(coeff, [_trig.cross_integrals(a, a, [lo], [hi])[0]
                      for a, (lo, hi) in zip(atoms, box)])
             for coeff, box in potential.boxes]
    terms += [(coeff, [t[0] for t in _cosine_tables(dom, atoms, kvec)])
              for coeff, kvec in potential.cosines]
    terms = [(coeff, [0.5 * (t + t.T) for t in tables]) for coeff, tables in terms]
    solved = []
    for modes in basis.sign_classes:
        B = np.diag(basis.eigenvalues[modes] + potential.constant)
        for coeff, tables in terms:
            B += coeff * _gather_block(tables, basis, modes)
        if not np.all(np.isfinite(B)):
            raise NumericError(f"Galerkin matrix is not finite (sup_norm={potential.sup_norm})")
        solved.append(np.linalg.eigh(B))
    eigvals = np.concatenate([w for w, _ in solved])
    order = np.argsort(eigvals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    # per rotated axis, the coefficients of a mode and of its partner
    k = basis.mode_indices
    turns = []
    for ax, ((_, freqs, _), index) in enumerate(basis.axis_atoms):
        delta = centre[ax] - dom.origin[ax]
        if delta:
            w = freqs[index] * delta
            turns.append((ax, np.cos(w), -np.sign(k[:, ax]) * np.sin(w)))
    eigvecs = np.zeros((basis.n, basis.n))
    first = 0
    for modes, (_, Y) in zip(basis.sign_classes, solved):
        cols = column[first:first + modes.size]
        first += modes.size
        # the partners across each subset of the rotated axes, from the modes
        # whose index on those axes is not 0
        for flips in itertools.product((False, True), repeat=len(turns)):
            src, dst = np.arange(modes.size), modes
            for flip, (ax, _, _) in zip(flips, turns):
                if flip:
                    keep = k[dst, ax] != 0
                    src, dst = src[keep], basis.axis_partners[ax][dst[keep]]
            block = Y[src]
            for flip, (_, cos, sin) in zip(flips, turns):
                block *= (sin if flip else cos)[dst][:, None]
            eigvecs[np.ix_(dst, cols)] = block
    return eigvals[order], eigvecs


def galerkin_schrodinger(basis, potential=None):
    """Handle of the eigenpairs of ``-Laplace + V`` in ``basis``.

    With ``potential=None`` the handle is exactly diagonal; otherwise its
    eigenpairs are those of :func:`galerkin_matrix`, which is not kept.  On
    a torus where every term of the potential is even about one centre
    (:func:`_even_centre`) they come from one ``eigh`` per sign class
    (:func:`_eigh_by_sign_class`), about ``2^d`` times smaller each; every
    other potential or domain takes one ``eigh`` of the whole matrix.  A
    malformed term is refused before any centre is sought.
    """
    if basis.n == 0:
        raise ParameterError("basis is empty")
    if potential is None:
        return OperatorHandle(basis=basis, eigvals=basis.eigenvalues.copy())
    _check_terms(basis, potential)
    centre = _even_centre(basis, potential)
    if centre is None:
        eigvals, eigvecs = np.linalg.eigh(galerkin_matrix(basis, potential))
    else:
        eigvals, eigvecs = _eigh_by_sign_class(basis, potential, centre)
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
