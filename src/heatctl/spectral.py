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
from functools import cached_property, lru_cache

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
    """1D mode indices with eigenvalue <= e_max on one axis, as ``(k, lam)``
    pairs of Python numbers.

    Periodic axes use signed indices: ``k == 0`` is the constant, ``k > 0``
    the cosine and ``k < 0`` the sine at frequency ``|k|``, each positive
    index followed by its negative.
    """
    periodic = boundary == "periodic"
    unit = (2.0 if periodic else 1.0) * np.pi / side
    first = 0 if boundary == "neumann" else 1
    # one past the last candidate; the test below decides, as a scan from
    # ``first`` upwards would
    k = np.arange(first, int(math.sqrt(e_max) / unit) + 2)
    # libm's pow, as ``(k * unit) ** 2`` on Python floats: the correctly
    # rounded square that numpy's ``**`` takes differs from it in the last bit
    # for about one k in a thousand
    lam = np.float_power(k * unit, 2)
    # the squares grow with k, so the admitted modes are a leading run
    k, lam = k[lam <= e_max], lam[lam <= e_max]
    if periodic:
        k = np.concatenate([[0], np.stack([k, -k], axis=1).ravel()])
        lam = np.concatenate([[0.0], np.repeat(lam, 2)])
    return list(zip(k.tolist(), lam.tolist()))


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
        return tuple((_atoms(dom.boundary, side, origin, distinct), index)
                     for side, origin, (distinct, index)
                     in zip(dom.sides, dom.origin, self.axis_indices))

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
    if not e_max > 0:
        raise ParameterError("e_max must be positive")
    # an axis holds about sqrt(e_max) side / pi modes, which the enumeration
    # below would refuse anyway: refused before they are listed
    if math.sqrt(e_max) * max(domain.sides) / math.pi > 50 * n_max + 1:
        raise CapacityError(f"mode enumeration exceeded {50 * n_max}")
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


def _atoms(boundary, side, origin, ks):
    """``(amps, freqs, phases)`` of the 1D modes ``ks`` of a ``boundary`` axis of
    length ``side`` whose phases start at ``origin``: the domain's origin for
    the basis's own atoms, a centre ``c`` of a torus for the atoms
    ``cos(w (x - c))`` (``k >= 0``) and ``sin(w (x - c))`` (``k < 0``).

    The mode ``k`` is ``sqrt(2/side) cos(w (x - origin) - shift)`` at
    ``w = |k| pi / side`` (``2 |k| pi / side`` on a torus), the shift
    ``pi/2`` for a Dirichlet sine or a torus's ``k < 0`` and 0 otherwise;
    ``k == 0`` is the constant ``1/sqrt(side)``."""
    ks = np.asarray(ks)
    periodic = boundary == "periodic"
    freqs = (2.0 if periodic else 1.0) * np.pi * np.abs(ks) / side
    shift = np.where(ks < 0, np.pi / 2, 0.0) if periodic else (
        np.pi / 2 if boundary == "dirichlet" else 0.0)
    constant = ks == 0
    amps = np.where(constant, 1.0 / np.sqrt(side), np.sqrt(2.0 / side))
    phases = np.where(constant, 0.0, -freqs * origin - shift)
    return amps, freqs, phases


@lru_cache(maxsize=64)
def _box_table(boundary, side, origin, lo, hi, ks):
    """Read-only table of ``int_lo^hi f_i f_j`` over the atoms ``f`` of
    :func:`_atoms`, exactly symmetric as the cross kernel forms it; kept for
    the next blocks of the same box, set or potential."""
    atoms = _atoms(boundary, side, origin, ks)
    table = _trig.cross_integrals(atoms, atoms, [lo], [hi])[0]
    table.flags.writeable = False
    return table


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
    ``dom`` for the atoms ``atoms[ax]``, ``o`` the domain's origin,
    symmetrized."""
    unit = (2.0 * np.pi if dom.boundary == "periodic" else np.pi)
    tables = []
    for ax, (a, b) in enumerate(dom.box()):
        amps, freqs, phases = atoms[ax]
        w0 = kvec[ax] * unit / dom.sides[ax]
        p0 = -w0 * a
        # f_j cos(w0 x + p0) is the sum of the half-amplitude atoms at w_j -+ w0
        t = sum(_trig.cross_integrals(atoms[ax], (0.5 * amps, freqs + s * w0, phases + s * p0),
                                      [a], [b])[0] for s in (-1.0, 1.0))
        tables.append(0.5 * (t + t.T))
    return tables


@np.errstate(over="ignore", invalid="ignore")
def term_blocks(basis, terms, classes, diagonal=None, centre=None):
    """Per ascending index array of ``classes``, the block on those modes of
    ``diag(diagonal + c) + sum_box coeff 1_box + sum_cos coeff cos`` for the
    :class:`PotentialSpec` ``terms`` of constant ``c``: the one assembler of
    Galerkin matrices and of the parity blocks of sets.  With no
    ``diagonal`` the constant is not read, and the blocks start from the
    first term, with no zero matrix beneath.

    The atoms are the basis's own, or those centred at ``centre`` on a torus
    (:func:`_even_centre`), in which the terms couple no two sign classes.
    Each block is ``diag + sum coeff * gather``: one gather per axis and term
    (:func:`_gather_block`) from the cached box tables of :func:`_box_table`
    or the symmetrized cosine tables, so every block is exactly symmetric.
    On a box domain each box is clipped to the domain, and a box it misses
    adds nothing; a torus wraps.  A block with a diagonal (a Galerkin matrix
    or a potential's) whose sums leave double range raises
    :class:`NumericError`, and numpy warns of nothing on the way; a set's
    blocks, sums of products of table entries, are not scanned again.
    """
    dom = basis.domain
    origins = dom.origin if centre is None else centre
    distinct = [tuple(d.tolist()) for d, _ in basis.axis_indices]
    tables = []
    for coeff, box in terms.boxes:
        if dom.boundary != "periodic":
            box = [(max(lo, a), min(hi, b)) for (lo, hi), (a, b) in zip(box, dom.box())]
            if any(lo >= hi for lo, hi in box):
                continue
        tables.append((coeff, [_box_table(dom.boundary, side, o, lo, hi, ks)
                               for side, o, (lo, hi), ks in zip(dom.sides, origins, box, distinct)]))
    if terms.cosines:
        atoms = [_atoms(dom.boundary, side, o, ks)
                 for side, o, ks in zip(dom.sides, origins, distinct)]
        tables += [(coeff, _cosine_tables(dom, atoms, kvec)) for coeff, kvec in terms.cosines]
    blocks = []
    for modes in classes:
        B = None if diagonal is None else np.diag(diagonal[modes] + terms.constant)
        for coeff, t in tables:
            term = _gather_block(t, basis, modes)
            if coeff != 1.0:
                term *= coeff
            B = term if B is None else np.add(B, term, out=B)
            # freed before the next gather: at most three blocks' worth live
            del term
        if diagonal is not None and not np.all(np.isfinite(B)):
            raise NumericError(f"Galerkin matrix is not finite (sup_norm={terms.sup_norm})")
        blocks.append(np.zeros((modes.size, modes.size)) if B is None else B)
    return blocks


def _check_terms(basis, potential):
    """Refuse a box without one ``(lo, hi)`` pair with ``lo < hi`` per axis of
    the domain of ``basis``, or a cosine without one integer frequency per
    axis."""
    d = basis.domain.dimension
    for _, box in potential.boxes:
        if len(box) != d or any(len(e) != 2 or not e[0] < e[1] for e in box):
            raise ParameterError(f"box {box} needs a (lo, hi) pair with lo < hi per axis")
    for _, kvec in potential.cosines:
        if len(kvec) != d or not all(float(k).is_integer() for k in kvec):
            raise ParameterError(f"cosine term {kvec} needs one integer frequency per axis")


def galerkin_matrix(basis, potential):
    """Galerkin matrix of ``-Laplace + V`` in ``basis``: the one-class case of
    :func:`term_blocks` in the basis's own atoms, exactly symmetric.

    Indicator and cosine terms are integrated in closed form, each box
    clipped to a box domain.  A box without one ``(lo, hi)`` pair with
    ``lo < hi`` per axis of the domain, or a cosine without one integer
    frequency per axis, raises :class:`ParameterError`; a matrix whose sums
    leave double range raises :class:`NumericError`, and numpy warns of
    nothing on the way.
    """
    _check_terms(basis, potential)
    return term_blocks(basis, potential, (np.arange(basis.n),), basis.eigenvalues)[0]


def _even_centre(dom, boxes, cosines):
    """A point ``c`` about which every box of ``boxes`` and every cosine of the
    frequency vectors ``cosines`` is even on every axis of the torus ``dom``,
    or ``None``: the one rule of reflection parity, for sets and potentials.

    A box is even about its midpoint, a cosine about the domain's origin on
    each axis where its frequency is not 0, and a constant, or a cosine
    axis of frequency 0, about any point.  On a torus the reflection through
    ``c`` is that through ``c + side/2``, so the centres asked for must agree
    modulo ``side/2`` on every axis, to a few ulps of the side, and ``c``
    is taken within ``side/4`` of the origin; an axis that asks for none
    takes the origin itself.  Any other domain has none.
    """
    if dom.boundary != "periodic":
        return None
    centre = []
    for ax, (side, origin) in enumerate(zip(dom.sides, dom.origin)):
        points = [0.5 * (box[ax][0] + box[ax][1]) for box in boxes]
        points += [origin for kvec in cosines if kvec[ax]]
        c = points[0] if points else origin
        if any(abs(math.remainder(p - c, 0.5 * side)) > 4.0 * np.spacing(side) for p in points):
            return None
        centre.append(origin + math.remainder(c - origin, 0.5 * side))
    return centre


def _rotated(basis, solved, centre):
    """Eigenvalues and eigenvectors in the basis's own atoms of the eigenpairs
    ``solved`` of the sign-class blocks in the atoms centred at ``centre``.

    Each class's eigenvectors go straight into their columns of the
    eigenvalue-sorted result.  Back in the basis's own atoms, centred at the
    origin ``o``, the coefficient of a mode ``i`` is
    ``cos(w d) u[i] - sign(k) sin(w d) u[partner]`` per axis, ``d = c - o``,
    ``w`` the mode's frequency and ``partner`` the mode with ``k`` negated on
    that axis (:attr:`SpectralBasis.axis_partners`); an axis with ``d = 0``
    is not touched.
    """
    eigvals = np.concatenate([w for w, _ in solved])
    order = np.argsort(eigvals, kind="stable")
    # each eigenvalue's column in the sorted result: the inverse permutation
    column = np.argsort(order)
    # per rotated axis, the coefficients of a mode and of its partner
    k = basis.mode_indices
    turns = []
    for ax, ((_, freqs, _), index) in enumerate(basis.axis_atoms):
        delta = centre[ax] - basis.domain.origin[ax]
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

    With ``potential=None`` the handle is exactly diagonal.  Otherwise a
    malformed term is refused (as by :func:`galerkin_matrix`) before any
    centre is sought, and the blocks of :func:`term_blocks` are solved by one
    ``eigh`` each.  On a torus where every term is even about one centre
    (:func:`_even_centre`) and every mode has its partners
    (:attr:`SpectralBasis.axis_partners`), which the rotation back reads,
    the blocks are the ``2^d`` sign classes in the atoms centred there, about
    ``2^d`` times smaller each, and the eigenvectors are rotated back
    (:func:`_rotated`).  Any other potential or domain solves the one class
    of all modes, the Galerkin matrix itself, which is not kept.  A block
    whose sums leave double range raises :class:`NumericError`.
    """
    if basis.n == 0:
        raise ParameterError("basis is empty")
    if potential is None:
        return OperatorHandle(basis=basis, eigvals=basis.eigenvalues.copy())
    _check_terms(basis, potential)
    centre = _even_centre(basis.domain, [box for _, box in potential.boxes],
                          [kvec for _, kvec in potential.cosines])
    if centre is not None and basis.axis_partners is None:
        centre = None
    classes = (np.arange(basis.n),) if centre is None else basis.sign_classes
    solved = [np.linalg.eigh(B)
              for B in term_blocks(basis, potential, classes, basis.eigenvalues, centre)]
    eigvals, eigvecs = solved[0] if centre is None else _rotated(basis, solved, centre)
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
