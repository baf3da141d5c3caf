"""Observability sets and their geometric parameters.

Sets are unions of axis-aligned boxes, either tiled periodically by a cell
or stored as a finite family (equidistributed ball substitutes).  Keeping
everything box-shaped makes measures, window densities and Gram matrices
against a :class:`~heatctl.spectral.SpectralBasis` available in closed form.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from ._trig import cross_integrals, separable_sum
from .errors import ParameterError
from .spectral import _centred_atoms, _gather_block, box_integrals, group_modes, symmetrize

_EPS = 1e-12


def check_gamma(gamma):
    """``gamma`` as a float; refused unless it is a density in (0, 1]."""
    gamma = float(gamma)
    if not (0 < gamma <= 1):
        raise ParameterError("gamma must be in (0, 1]")
    return gamma


def check_ratio(G, delta):
    """``(G, delta)`` as floats; refused unless ``0 < delta < G/2``."""
    G, delta = float(G), float(delta)
    if not (0 < delta < G / 2):
        raise ParameterError("delta must lie in (0, G/2)")
    return G, delta


@dataclass(frozen=True)
class ThickParams:
    """Density ``gamma`` over windows of edge lengths ``a``."""

    gamma: float
    a: tuple[float, ...]

    def __post_init__(self):
        check_gamma(self.gamma)
        a = tuple(float(x) for x in self.a)
        if any(x <= 0 for x in a):
            raise ParameterError("window lengths must be positive")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class EquidistributedSpec:
    """One ball of radius ``delta`` in every cube cell of side ``G``."""

    G: float
    delta: float
    seed: int = None
    mode: str = "uniform"
    centers: tuple = None

    def __post_init__(self):
        if self.G <= 0:
            raise ParameterError("G must be positive")
        check_ratio(self.G, self.delta)
        if self.mode not in ("uniform", "centered"):
            raise ParameterError("mode must be 'uniform' or 'centered'")


def _merge_intervals(intervals):
    ivs = sorted((float(a), float(b)) for a, b in intervals if b - a > _EPS)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1] + _EPS:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _canonicalize_boxes(boxes, cell):
    """Wrap boxes into [0, cell) per axis and decompose their union into the
    disjoint boxes of :func:`_disjoint_boxes`, in any dimension."""
    d = len(cell)
    pieces = []
    for box in boxes:
        if len(box) != d:
            raise ParameterError("box dimension does not match cell")
        axis_parts = []
        for (a, b), c in zip(box, cell):
            if b <= a:
                raise ParameterError("box has non-positive extent")
            if b - a >= c - _EPS:
                axis_parts.append([(0.0, c)])
                continue
            a_mod = a % c
            b_mod = a_mod + (b - a)
            if b_mod <= c + _EPS:
                axis_parts.append([(a_mod, min(b_mod, c))])
            else:
                axis_parts.append([(a_mod, c), (0.0, b_mod - c)])
        for combo in itertools.product(*axis_parts):
            pieces.append(tuple(combo))
    return _disjoint_boxes(pieces)


def _disjoint_boxes(pieces):
    """Disjoint boxes covering the union of the boxes ``pieces``, each a tuple of
    ``(lo, hi)`` edges, one per axis.

    The first axis is cut into slabs at the distinct edges, each slab's
    cross-section (the pieces that cover its midpoint, less their first axis)
    is decomposed by this same function, and slabs that touch and share a
    cross-section box merge into one box.  The boxes come sorted by their
    cross-section box, then by their first edge; in one dimension they are the
    merged intervals of :func:`_merge_intervals`.  Up to edges within ``_EPS``
    of each other, the result depends on the union alone, not on how
    ``pieces`` cut it, so decomposing it again returns it.
    """
    if not pieces or len(pieces[0]) == 1:
        return tuple((iv,) for iv in _merge_intervals(p[0] for p in pieces))
    xs = sorted({e for p in pieces for e in p[0]})
    slabs = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        if x1 - x0 <= _EPS:
            continue
        mid = 0.5 * (x0 + x1)
        cross = _disjoint_boxes([p[1:] for p in pieces if p[0][0] <= mid <= p[0][1]])
        slabs.extend((box, (x0, x1)) for box in cross)
    merged = []
    for cross, (x0, x1) in sorted(slabs):
        if merged and merged[-1][1:] == cross and abs(merged[-1][0][1] - x0) <= _EPS:
            merged[-1] = ((merged[-1][0][0], x1),) + cross
        else:
            merged.append(((x0, x1),) + cross)
    return tuple(merged)


@dataclass(frozen=True)
class ObservabilitySet:
    """Union of boxes, periodic under ``cell`` or a finite family.

    ``kind`` is one of ``full``, ``empty``, ``periodic_boxes``,
    ``equidistributed_balls``.  Periodic boxes are stored reduced modulo the
    cell and pairwise disjoint; equidistributed families store the inscribed
    boxes in absolute coordinates together with their generating data.
    """

    kind: str
    cell: tuple = None
    boxes: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("full", "empty", "periodic_boxes", "equidistributed_balls"):
            raise ParameterError(f"unknown set kind {self.kind!r}")
        if self.kind == "periodic_boxes":
            try:
                cell = tuple(float(c) for c in self.cell)
            except (TypeError, ValueError) as exc:
                raise ParameterError("a periodic_boxes set needs a cell, a list of side "
                                     f"lengths, not {self.cell!r}") from exc
            if not cell or any(c <= 0 for c in cell):
                raise ParameterError(f"cell lengths must be positive, one or more, "
                                     f"not {list(cell)}")
            object.__setattr__(self, "cell", cell)
            object.__setattr__(self, "boxes", _canonicalize_boxes(self.boxes, cell))

    @property
    def dimension(self):
        if self.kind == "periodic_boxes":
            return len(self.cell)
        if self.boxes:
            return len(self.boxes[0])
        return None

    @classmethod
    def full(cls):
        return cls(kind="full")

    @classmethod
    def empty(cls):
        return cls(kind="empty")

    @classmethod
    def periodic(cls, cell, boxes):
        return cls(kind="periodic_boxes", cell=cell,
                   boxes=tuple(tuple(tuple(e) for e in b) for b in boxes))

    def union(self, other):
        if self.kind != "periodic_boxes" or other.kind != "periodic_boxes":
            raise ParameterError("union is defined for periodic box sets")
        if self.cell != other.cell:
            raise ParameterError("union requires matching cells")
        return ObservabilitySet.periodic(self.cell, self.boxes + other.boxes)

    def measure_per_cell(self):
        if self.kind != "periodic_boxes":
            raise ParameterError("per-cell measure needs a periodic set")
        return float(sum(np.prod([b - a for a, b in box]) for box in self.boxes))

    def density(self):
        if self.kind == "full":
            return 1.0
        if self.kind == "empty":
            return 0.0
        if self.kind == "periodic_boxes":
            return self.measure_per_cell() / float(np.prod(self.cell))
        raise ParameterError("density needs a periodic set")

    def boxes_in_region(self, region):
        """Disjoint absolute boxes covering ``S`` intersected with ``region``."""
        region = [(float(a), float(b)) for a, b in region]
        if self.kind == "empty":
            return []
        if self.kind == "full":
            return [tuple(region)]
        if self.kind == "equidistributed_balls":
            return _clip_boxes(self.boxes, region)
        out = []
        ranges = []
        for (lo, hi), c in zip(region, self.cell):
            ranges.append(range(int(np.floor(lo / c)), int(np.ceil(hi / c))))
        for j in itertools.product(*ranges):
            shift = [jj * c for jj, c in zip(j, self.cell)]
            shifted = [tuple((a + s, b + s) for (a, b), s in zip(box, shift))
                       for box in self.boxes]
            out.extend(_clip_boxes(shifted, region))
        return out

    def to_json(self):
        data = {"schema": "heatctl-set/1", "kind": self.kind}
        if self.kind == "periodic_boxes":
            data["cell"] = list(self.cell)
            data["boxes"] = [[list(e) for e in b] for b in self.boxes]
        if self.kind == "equidistributed_balls":
            data["boxes"] = [[list(e) for e in b] for b in self.boxes]
            data["meta"] = {k: v for k, v in sorted(self.meta.items())}
        return data

    @classmethod
    def from_json(cls, data):
        kind = data["kind"]
        if kind in ("full", "empty"):
            return cls(kind=kind)
        if kind == "periodic_boxes":
            return cls.periodic(data["cell"], data["boxes"])
        return cls(kind=kind,
                   boxes=tuple(tuple(tuple(e) for e in b) for b in data["boxes"]),
                   meta=dict(data.get("meta", {})))

    def descriptor_hash(self):
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _clip_boxes(boxes, region):
    out = []
    for box in boxes:
        clipped = []
        ok = True
        for (a, b), (lo, hi) in zip(box, region):
            a2, b2 = max(a, lo), min(b, hi)
            if b2 - a2 <= _EPS:
                ok = False
                break
            clipped.append((a2, b2))
        if ok:
            out.append(tuple(clipped))
    return out


def gram_matrix(basis, S):
    """Matrix of ``int_{S ∩ domain} phi_i phi_j`` for the basis modes.

    Entries come from closed-form trigonometric antiderivatives (see
    :func:`heatctl.spectral.box_integrals`), so the result is exact up to
    rounding; eigenvalues lie in [0, 1].
    """
    if S.kind == "full":
        return np.eye(basis.n)
    if S.kind == "empty":
        return np.zeros((basis.n, basis.n))
    return symmetrize(box_integrals(basis, basis, region_boxes(basis.domain, S)))


def region_boxes(dom, S):
    """Disjoint absolute boxes covering ``S`` intersected with the domain
    ``dom``, in the order of :meth:`ObservabilitySet.boxes_in_region`, after
    :func:`_torus_cells` has checked how the set meets the domain."""
    _torus_cells(dom, S)
    return S.boxes_in_region(dom.box())


def _torus_cells(dom, S):
    """How the set ``S`` meets the domain ``dom``, decided here alone: per axis
    the whole number ``q = side / cell`` of a periodic set's cells along a
    torus, or ``None`` for any other set or domain.  Refused when the set's
    dimension is not the domain's (``full`` and ``empty`` have none and are
    never refused) or when its cells do not tile the torus."""
    if S.kind in ("full", "empty"):
        return None
    if S.dimension != dom.dimension:
        raise ParameterError("set dimension does not match the domain")
    if S.kind != "periodic_boxes" or dom.boundary != "periodic":
        return None
    q = [round(side / c) for side, c in zip(dom.sides, S.cell)]
    if any(abs(side / c - qi) > 1e-9 for side, c, qi in zip(dom.sides, S.cell, q)):
        raise ParameterError("set period does not tile the torus")
    return q


def mode_classes(op, S):
    """Bloch-Floquet classes of the modes of handle ``op`` on a torus tiled by ``S``.

    On a torus of ``q`` cells per axis the set's indicator has harmonics in
    ``q Z`` only, so the modes ``k`` and ``k'`` meet in its Gram matrix only
    when ``|k| = +-|k'| (mod q)`` on every axis, that is when their residues
    ``r = min(|k| mod q, q - |k| mod q)`` agree per axis (Egidi & Veselic,
    Arch. Math. 2018; Kuchment, Floquet Theory for PDEs, 1993).  The Gram
    matrix, and every Gramian of a diagonal handle, is then block diagonal
    over the classes of equal residue tuple, grouped by
    :func:`heatctl.spectral.group_modes`.  Every class is an ascending index
    array, so with the modes sorted by eigenvalue the modes of a class up to
    any energy are a leading run of it, and the classes come in the
    lexicographic order of their tuples.  ``q`` comes from
    :func:`_torus_cells`, which refuses a set of the wrong dimension on any
    domain.  A set that is not ``periodic_boxes``, a domain that is not a
    torus, a handle with a potential (whose eigenvectors mix the classes) or
    a single cell per axis give the one class of all modes,
    ``(np.arange(n),)``, sized without reading the modes.
    :func:`set_blocks` reads these classes, and splits a set that meets a
    torus in one box by parity instead.
    """
    basis = op.basis
    q = None if S is None else _torus_cells(basis.domain, S)
    if not op.is_diagonal or q is None or all(qi == 1 for qi in q):
        return (np.arange(basis.eigenvalues.size),)
    r = np.abs(basis.mode_indices) % q
    return group_modes(np.ravel_multi_index(np.minimum(r, q - r).T, [qi // 2 + 1 for qi in q]))


def class_block(op, M, modes):
    """``(modes, eigenvalues, block)`` of the ascending index array ``modes``:
    their eigenvalues under handle ``op`` and ``op.project(M, modes)``."""
    return modes, op.eigvals[modes], op.project(M, modes)


def _single_box(dom, S):
    """The box in which ``S`` meets the torus ``dom`` when that is one box,
    else ``None``.

    Only a periodic set with one cell per axis (as :func:`_torus_cells`
    counts them) or a finite family that stores one box can qualify, so a
    tiled set or a family of several boxes is turned away without building
    its boxes, even a family whose other boxes all miss the domain.
    """
    if S is None or S.kind not in ("periodic_boxes", "equidistributed_balls") or len(S.boxes) != 1:
        return None
    if any(q != 1 for q in _torus_cells(dom, S) or ()):
        return None
    boxes = S.boxes_in_region(dom.box())
    return boxes[0] if len(boxes) == 1 else None


@functools.lru_cache(maxsize=64)
def _centred_table(side, lo, hi, ks):
    """Read-only table of ``int_lo^hi f_i f_j`` over the atoms ``f`` of the
    torus indices ``ks`` on an axis of length ``side``, centred at the
    midpoint of ``(lo, hi)``; kept for the next blocks of the same box."""
    atoms = _centred_atoms(side, 0.5 * (lo + hi), ks)
    table = cross_integrals(atoms, atoms, [lo], [hi])[0]
    table.flags.writeable = False
    return table


def set_blocks(op, S, E, gram=None):
    """Per class of the set ``S`` that holds a mode of eigenvalue <= ``E``
    under handle ``op``, ``(modes, eigenvalues, block)``: those modes as an
    ascending index array, their eigenvalues, and the block of the set Gram
    on them in the eigenbasis, which couples no two classes.

    The modes of a class are sorted by eigenvalue, so the block at a lower
    energy is the leading block of this one.  A set that meets the torus of
    a diagonal handle in one box is symmetric under the reflection of every
    axis through the box's midpoint ``c``.  In the atoms ``cos(w (x - c))``
    and ``sin(w (x - c))``, which span the same eigenspaces, its Gram splits
    into ``2^d`` parity blocks, the sign classes of the mode indices
    (:attr:`heatctl.spectral.SpectralBasis.sign_classes`).  Each block is
    then gathered by one flat ``np.take`` per axis from a cached table over
    the axis's distinct atoms, and ``gram`` is not read.  Tiled sets keep
    their Bloch classes alone: splitting those by parity as well leaves so
    many tiny blocks that the calls cost more than the smaller blocks save.
    Every other set takes the blocks of ``gram`` (assembled when ``None``)
    over :func:`mode_classes`, each by :func:`class_block`.
    """
    basis = op.basis
    dom = basis.domain
    box = op.is_diagonal and dom.boundary == "periodic" and _single_box(dom, S)
    classes = basis.sign_classes if box else mode_classes(op, S)
    kept = [modes for modes in (c[op.eigvals[c] <= E] for c in classes) if modes.size]
    if not box:
        M = gram_matrix(basis, S) if gram is None else gram
        return [class_block(op, M, modes) for modes in kept]
    tables = [_centred_table(side, lo, hi, tuple(distinct.tolist()))
              for side, (lo, hi), (distinct, _) in zip(dom.sides, box, basis.axis_indices)]
    return [(modes, op.eigvals[modes], _gather_block(tables, basis, modes)) for modes in kept]


def _axis_offsets(S, a_len, axis, grid):
    """Candidate window offsets along one axis: uniform grid + kink points."""
    c = S.cell[axis]
    pts = set(np.linspace(0.0, c, grid, endpoint=False))
    for box in S.boxes:
        for e in box[axis]:
            pts.add(e % c)
            pts.add((e - a_len) % c)
    return sorted(pts)


def _shifts(c, w_lo, w_hi):
    # multiples of c that move a box in [0, c] onto some x + [w_lo, w_hi], x in [0, c]
    return c * np.arange(np.floor(w_lo / c), np.ceil(w_hi / c) + 1)


def _window_measures(S, offsets, w_lo, w_hi):
    """``|S ∩ prod_i [x_i + w_lo_i, x_i + w_hi_i]|`` over the grid of ``offsets``.

    Per axis, the overlap length of every window with every box, summed over
    the box's translates by the cell (a periodic set) or taken alone (a finite
    family), is a ``(boxes, offsets, 1)`` table; the measures over the whole
    offset grid are then one box sum, the one that assembles Grams.  Overlaps
    of at most ``_EPS`` count as empty, as in :meth:`boxes_in_region`.
    """
    tables = []
    for i, xs in enumerate(offsets):
        edges = np.array([box[i] for box in S.boxes])[:, :, None, None]
        if S.kind == "periodic_boxes":
            edges = edges + _shifts(S.cell[i], w_lo[i], w_hi[i])
        xs = np.asarray(xs, dtype=float)[:, None]
        ov = np.minimum(edges[:, 1], xs + w_hi[i]) - np.maximum(edges[:, 0], xs + w_lo[i])
        tables.append(np.where(ov > _EPS, ov, 0.0).sum(axis=2, keepdims=True))
    index = np.indices([len(xs) for xs in offsets]).reshape(len(offsets), -1)
    return separable_sum(tables, index, np.zeros_like(index[:, :1]))[:, 0]


def thickness_estimate(S, a, grid=64):
    """Infimum over window translates of ``|S ∩ (x + [0,a])| / prod(a)``.

    For periodic box sets the window measure is piecewise multilinear in the
    offset, so scanning the uniform grid together with all box-edge
    breakpoints gives the exact infimum.  Finite (non-periodic) families are
    scanned over their bounding extent only; the result is then a heuristic
    upper estimate.
    """
    a = [float(x) for x in np.atleast_1d(a)]
    if any(x <= 0 for x in a) or len(a) != (S.dimension or len(a)):
        raise ParameterError("window lengths must be positive, one per axis")
    if S.kind == "full":
        return 1.0
    if S.kind == "empty":
        return 0.0
    if S.kind == "periodic_boxes":
        axes = [_axis_offsets(S, a[i], i, grid) for i in range(len(S.cell))]
    else:  # finite family: slide inside the bounding extent
        lo, hi = np.min(S.boxes, axis=0)[:, 0], np.max(S.boxes, axis=0)[:, 1]
        axes = [np.linspace(l, max(h - ai, l), grid) for l, h, ai in zip(lo, hi, a)]
    return float(np.min(_window_measures(S, axes, [0.0] * len(axes), a)) / np.prod(a))


def _disk_corner_area(x, y, r):
    """Area of ``{u <= x, v <= y} ∩ disk(0, r)``; broadcasting, branch-free.

    Every half-chord is ``h(u) = sqrt((r - u)(r + u))`` and the antiderivative
    of ``h`` goes through ``arctan2(u, h)``: next to a tangent ``r*r - u*u``
    loses half the digits, and ``arcsin(u/r)`` turns a rounding of ``u/r``
    into an error of its square root.
    """
    def H(u):
        # antiderivative of h, odd in u
        h = np.sqrt((r - u) * (r + u))
        return 0.5 * (u * h + r * r * np.arctan2(u, h))

    x = np.clip(x, -r, r)
    y = np.clip(y, -r, r)
    ys = np.sqrt((r - y) * (r + y))  # the chord at height y spans |u| <= ys
    p = np.clip(x, -ys, ys)
    # inside the chord the section below y runs from -h(u) up to y
    area = y * (p + ys) + H(p) + H(ys)
    # outside it, sections lie wholly below y (y > 0) or wholly above it
    outside = 2.0 * ((H(np.minimum(x, -ys)) - H(-r)) + (H(np.maximum(x, ys)) - H(ys)))
    return area + np.where(y > 0, outside, 0.0)


def disk_box_area(center, r, box):
    """Exact area of ``disk(center, r) ∩ box`` in 2D; array arguments broadcast."""
    (x1, x2), (y1, y2) = box
    x1, x2, y1, y2 = x1 - center[0], x2 - center[0], y1 - center[1], y2 - center[1]
    return (_disk_corner_area(x2, y2, r) - _disk_corner_area(x1, y2, r)
            - _disk_corner_area(x2, y1, r) + _disk_corner_area(x1, y1, r))


def beta_complement(S, radii, grid=64):
    """Per radius, ``sup_x |S^c ∩ B(x, r)| / |B(x, r)|`` over a center grid.

    The 1D case takes interval measures from the window scan; the 2D case
    sums closed-form disk/box areas over every translate of every box, one
    row of centers at a time so that memory stays at one row.  Those areas
    are planar, so a set of three or more dimensions is refused.  Returns a
    list of ``(r, beta_est)`` pairs in the order given.
    """
    radii = [float(r) for r in np.atleast_1d(radii)]
    if any(r <= 0 for r in radii):
        raise ParameterError("radii must be positive")
    if sorted(radii) != radii:
        raise ParameterError("radii must be increasing")
    if S.kind == "full":
        return [(r, 0.0) for r in radii]
    if S.kind == "empty":
        return [(r, 1.0) for r in radii]
    if S.kind != "periodic_boxes":
        raise ParameterError("complement density needs a periodic set")
    if S.dimension > 2:
        raise ParameterError(f"complement density covers 1D and 2D sets, not {S.dimension}D ones")
    centers = [np.linspace(0.0, c, grid, endpoint=False) for c in S.cell]
    out = []
    for r in radii:
        if len(S.cell) == 1:
            ball_measure = 2.0 * r
            inter = _window_measures(S, centers, [-r], [r])
        else:
            ball_measure = np.pi * r * r
            # every translate of every box that some disk of the grid can meet
            b = np.array(S.boxes)[:, None, None]
            sx, sy = (_shifts(c, -r, r) for c in S.cell)
            x, y = np.broadcast_arrays(b[..., 0, :] + sx[:, None, None], b[..., 1, :] + sy[:, None])
            box = (x.reshape(-1, 2).T, y.reshape(-1, 2).T)
            inter = np.concatenate([disk_box_area((cx, centers[1][:, None]), r, box).sum(axis=1)
                                    for cx in centers[0]])
        out.append((r, float(max(0.0, np.max((ball_measure - inter) / ball_measure)))))
    return out


def make_equidistributed(spec, extent):
    """Materialize the ball family of ``spec`` over ``extent`` as boxes.

    Cells are ``[jG, (j+1)G)^d``, in any dimension ``d``.  Each ball is
    replaced by its inscribed axis-aligned cube of half-width
    ``delta/sqrt(d)``, itself an equidistributed family, and the substitution
    is recorded in the metadata: the exact interval in 1D, the inscribed
    square in 2D, the inscribed cube beyond.  Centers are deterministic given
    the seed.  An extent with no axis, or with an axis of no width in units of
    ``G`` (``hi / G <= lo / G``), is refused: its cells would hold balls
    outside it, or there would be none.
    """
    extent = [[float(a), float(b)] for a, b in extent]
    if not extent:
        raise ParameterError("an extent needs at least one axis")
    d = len(extent)
    G, delta = spec.G, spec.delta
    for axis, (lo, hi) in enumerate(extent):
        if not lo / G < hi / G:
            raise ParameterError(f"extent {extent} has no width on axis {axis}")
    ranges = [range(int(np.floor(lo / G)), int(np.ceil(hi / G))) for lo, hi in extent]
    cells = sorted(itertools.product(*ranges))
    if spec.centers is not None:
        centers = [tuple(map(float, z)) for z in spec.centers]
        if len(centers) != len(cells):
            raise ParameterError(f"expected {len(cells)} centers, got {len(centers)}")
        for j, z in zip(cells, centers):
            for ji, zi in zip(j, z):
                if not (ji * G + delta - _EPS <= zi <= (ji + 1) * G - delta + _EPS):
                    raise ParameterError("a center violates ball-in-cell containment")
    elif spec.mode == "centered":
        centers = [tuple((ji + 0.5) * G for ji in j) for j in cells]
    else:
        rng = np.random.default_rng(spec.seed)
        centers = [tuple(rng.uniform(ji * G + delta, (ji + 1) * G - delta)
                         for ji in j) for j in cells]
    half = delta / np.sqrt(d)
    boxes = tuple(tuple((zi - half, zi + half) for zi in z) for z in centers)
    meta = {
        "G": G,
        "delta": delta,
        "seed": spec.seed,
        "mode": spec.mode,
        "centers": [list(z) for z in centers],
        "substitution": {1: "exact interval", 2: "inscribed square, half-width delta/sqrt(2)"}.get(
            d, f"inscribed cube, half-width delta/sqrt({d})"),
    }
    return ObservabilitySet(kind="equidistributed_balls", boxes=boxes, meta=meta)


def periodic_band(period: float, gamma: float, d: int = 1):
    """Periodic product set of density ``gamma``: one centered band per cell.

    Per axis the band has width ``gamma**(1/d) * period``, so the set is
    ``(gamma, (period,...))``-thick.
    """
    if not (0 < gamma < 1):
        raise ParameterError("gamma must be in (0, 1)")
    if period <= 0:
        raise ParameterError("period must be positive")
    eps = gamma ** (1.0 / d)
    band = (period * (1 - eps) / 2, period * (1 + eps) / 2)
    return ObservabilitySet.periodic((period,) * d, [tuple(band for _ in range(d))])


def _centered_bands(eps: float, d: int = 1):
    """Product of bands of width ``eps`` centered in each unit cell (density ``eps**d``)."""
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    return periodic_band(1.0, eps ** int(d), int(d))


def _corner_interval(gamma: float):
    """The set with cell trace ``[0, gamma]``."""
    if not (0 < gamma < 1):
        raise ParameterError("gamma must be in (0, 1)")
    return ObservabilitySet.periodic((1.0,), [((0.0, gamma),)])


def _edge_bands(gamma: float, d: int = 1):
    """Edge bands of width ``gamma/2`` of the centered unit cell, times full axes."""
    if not (0 < gamma < 1):
        raise ParameterError("gamma must be in (0, 1)")
    # edge bands of the centered cell wrap to one centered band mod [0,1)
    band = ((1 - gamma) / 2, (1 + gamma) / 2)
    return ObservabilitySet.periodic((1.0,) * int(d), [(band,) + ((0.0, 1.0),) * (int(d) - 1)])


EXAMPLE_SETS = {"centered_bands": _centered_bands, "corner_interval": _corner_interval,
                "edge_bands": _edge_bands}


def example_constructor(name):
    """The constructor of an ``EXAMPLE_SETS`` entry; ``-`` reads as ``_``."""
    key = str(name).replace("-", "_")
    if key not in EXAMPLE_SETS:
        raise ParameterError(f"unknown example set {name!r}")
    return EXAMPLE_SETS[key]


def example_set(name, **params):
    """The reference 1-periodic set ``name`` of ``EXAMPLE_SETS`` built from ``params``."""
    return example_constructor(name)(**params)
