"""Truncated eigensystems of the Laplacian on tori and boxes.

Eigenfunctions are tensor products of 1D trigonometric modes, stored as
cosine atoms (see :mod:`heatctl._trig`), so inner products against box
indicators and cosine potentials are available in closed form.  All heavier
operators (Schrodinger Galerkin matrices, semigroups, fractional powers)
act in this basis.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _trig
from .errors import CapacityError, NumericError, ParameterError

BOUNDARIES = ("periodic", "dirichlet", "neumann")

DEFAULT_N_MAX = 512


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned torus or box.

    ``sides`` are the edge lengths per axis (circumference ``2*pi*L`` for a
    torus axis); ``origin`` anchors the box in absolute coordinates, so the
    domain is ``prod_i [origin_i, origin_i + sides_i]``.
    """

    boundary: str
    sides: tuple
    origin: tuple = None

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

    def to_json(self):
        return {"boundary": self.boundary, "sides": list(self.sides),
                "origin": list(self.origin)}

    @classmethod
    def from_json(cls, data):
        return cls(data["boundary"], tuple(data["sides"]),
                   tuple(data.get("origin") or (0.0,) * len(data["sides"])))


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
    e_max: float

    @property
    def n(self):
        return len(self.modes)

    @cached_property
    def axis_atoms(self):
        """Per axis ``((amps, freqs, phases), index)``, built once per basis.

        The arrays hold the distinct 1D atoms of the axis; ``index[i]`` is the
        position of mode ``i``'s factor among them.
        """
        dom = self.domain
        ks = np.array(self.modes, dtype=int).reshape(self.n, dom.dimension)
        axes = []
        for ax in range(dom.dimension):
            distinct, index = np.unique(ks[:, ax], return_inverse=True)
            atoms = np.array([_axis_atom(dom.boundary, dom.sides[ax], dom.origin[ax], int(k))
                              for k in distinct]).T
            axes.append((tuple(atoms), index))
        return tuple(axes)

    def evaluate(self, points):
        """Values of all modes at ``points`` (shape (npts, d)) -> (n, npts)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.dimension:
            pts = pts.T
        vals = np.ones((self.n, pts.shape[0]))
        for ax in range(self.domain.dimension):
            (amps, freqs, phases), index = self.axis_atoms[ax]
            vals *= (amps[:, None] * np.cos(freqs[:, None] * pts[:, ax][None, :]
                                            + phases[:, None]))[index]
        return vals

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "modes": [list(m) for m in self.modes],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "e_max": self.e_max,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            DomainSpec.from_json(data["domain"]),
            tuple(tuple(m) for m in data["modes"]),
            np.array(data["eigenvalues"], dtype=float),
            float(data["e_max"]),
        )


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
        e_max=float(e_max),
    )


def box_integrals(basis_a, basis_b, boxes):
    """Matrix of ``sum_box int_box phi^a_i phi^b_j`` over absolute boxes.

    Each box is a sequence of ``(lo, hi)`` per axis.  Per axis the cross
    kernel runs on the distinct atoms only, for a stack of boxes at once.
    A stack's tables hold no more entries than the summed table, so memory
    does not grow with the box count: in 1D, where no atom is shared, each
    box is its own stack, while every box of a 2D set fits in one.
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

    ``boxes`` holds ``(coeff, box)`` indicator terms, ``cosines`` holds
    ``(coeff, kvec)`` terms meaning ``coeff * prod_i cos(k_i * u_i * (x_i - o_i))``
    in the harmonic unit ``u_i`` of the target domain axis.  ``func`` is an
    arbitrary callable evaluated by tensor Gauss-Legendre quadrature.
    """

    constant: float = 0.0
    boxes: tuple = ()
    cosines: tuple = ()
    func: object = None
    sup_norm: float = None
    inf_value: float = None

    def __post_init__(self):
        if self.sup_norm is None:
            bound = abs(self.constant)
            bound += sum(abs(c) for c, _ in self.boxes)
            bound += sum(abs(c) for c, _ in self.cosines)
            if self.func is not None and not (self.boxes or self.cosines or self.constant):
                raise ParameterError("callable potentials need an explicit sup_norm")
            object.__setattr__(self, "sup_norm", float(bound))
        if self.inf_value is None:
            low = self.constant
            low += sum(min(c, 0.0) for c, _ in self.boxes)
            low -= sum(abs(c) for c, _ in self.cosines)
            object.__setattr__(self, "inf_value", float(low))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls(constant=float(c))

    @classmethod
    def indicator(cls, box, height=1.0):
        return cls(boxes=((float(height), tuple(tuple(map(float, e)) for e in box)),))

    @classmethod
    def from_callable(cls, f, sup_norm, inf_value=None):
        return cls(func=f, sup_norm=float(sup_norm),
                   inf_value=float(inf_value) if inf_value is not None else -float(sup_norm),
                   constant=0.0)

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
        if self.func is not None:
            val += self.func(pts)
        return val


@dataclass(frozen=True)
class OperatorHandle:
    """Symmetric Galerkin matrix of ``-Laplace + V`` with its eigensystem."""

    basis: SpectralBasis
    matrix: np.ndarray = field(repr=False)
    eigvals: np.ndarray = field(repr=False)
    eigvecs: np.ndarray = field(repr=False)
    potential: PotentialSpec = None

    @property
    def n(self):
        return self.basis.n

    @property
    def is_diagonal(self):
        return self.potential is None

    @property
    def v_sup_norm(self):
        return 0.0 if self.potential is None else self.potential.sup_norm

    def to_eigenbasis(self, u):
        return u if self.is_diagonal else self.eigvecs.T @ u

    def from_eigenbasis(self, w):
        return w if self.is_diagonal else self.eigvecs @ w


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


def _quadrature_galerkin(basis, f, order=32):
    dom = basis.domain
    x0, w0 = _trig.gauss_legendre(order)
    axes_pts, axes_wts = [], []
    for ax in range(dom.dimension):
        a = dom.origin[ax]
        b = a + dom.sides[ax]
        axes_pts.append(0.5 * (a + b) + 0.5 * (b - a) * x0)
        axes_wts.append(0.5 * (b - a) * w0)
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*axes_wts, indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    vals = f(pts)
    F = basis.evaluate(pts)
    return (F * (wts * vals)) @ F.T


def galerkin_schrodinger(basis, potential=None):
    """Galerkin matrix of ``-Laplace + V`` in ``basis`` with eigensystem.

    With ``potential=None`` the handle is exactly diagonal.  Indicator and
    cosine terms are integrated in closed form; a callable part falls back
    to tensor Gauss-Legendre of order 32 per axis.
    """
    if basis.n == 0:
        raise ParameterError("basis is empty")
    if potential is None:
        lam = basis.eigenvalues.copy()
        return OperatorHandle(basis=basis, matrix=np.diag(lam), eigvals=lam,
                              eigvecs=np.eye(basis.n), potential=None)
    M = np.diag(basis.eigenvalues).astype(float)
    if potential.constant:
        M += potential.constant * np.eye(basis.n)
    for coeff, box in potential.boxes:
        M += coeff * box_integrals(basis, basis, [box])
    for coeff, kvec in potential.cosines:
        M += coeff * _cosine_galerkin_block(basis, kvec)
    if potential.func is not None:
        M += _quadrature_galerkin(basis, potential.func)
    if not np.all(np.isfinite(M)):
        raise NumericError("Galerkin matrix has non-finite entries")
    M = 0.5 * (M + M.T)
    eigvals, eigvecs = np.linalg.eigh(M)
    return OperatorHandle(basis=basis, matrix=M, eigvals=eigvals,
                          eigvecs=eigvecs, potential=potential)


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
    new_vals = op.eigvals ** theta
    if op.is_diagonal:
        matrix = np.diag(new_vals)
    else:
        matrix = (op.eigvecs * new_vals) @ op.eigvecs.T
        matrix = 0.5 * (matrix + matrix.T)
    return OperatorHandle(basis=op.basis, matrix=matrix, eigvals=new_vals,
                          eigvecs=op.eigvecs, potential=op.potential)
