import itertools
import math
import tracemalloc

import numpy as np
import pytest

from heatctl import (ControlProblem, DomainSpec, EquidistributedSpec, ObservabilitySet,
                     ParameterError, PotentialSpec, ThickParams, beta_complement, build_basis,
                     example_set, galerkin_schrodinger, gram_matrix, make_equidistributed,
                     periodic_band, thickness_estimate)
from heatctl import _trig
from heatctl.geometry import disk_box_area, mode_classes, region_boxes, set_blocks
from oracles import (beta_2d_mp, disk_box_area_mp, grid_measure_periodic, quad_gram,
                     set_indicator, window_measure)

# a 2D periodic set of six disjoint boxes per unit cell
SIX_BOXES = [((0.05, 0.3), (0.1, 0.45)), ((0.4, 0.55), (0.6, 0.95)), ((0.6, 0.9), (0.05, 0.2)),
             ((0.1, 0.2), (0.6, 0.8)), ((0.7, 0.95), (0.5, 0.7)), ((0.35, 0.5), (0.25, 0.4))]


def test_thick_params_validation():
    ThickParams(0.5, (1.0,))
    with pytest.raises(ParameterError):
        ThickParams(0.0, (1.0,))
    with pytest.raises(ParameterError):
        ThickParams(0.5, (0.0,))


def test_gram_full_and_empty(dirichlet_op):
    basis = dirichlet_op.basis
    assert np.array_equal(gram_matrix(basis, ObservabilitySet.full()), np.eye(basis.n))
    assert np.array_equal(gram_matrix(basis, ObservabilitySet.empty()),
                          np.zeros((basis.n, basis.n)))


def test_gram_half_interval_closed_form(half_interval_set):
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 4.0)
    M = gram_matrix(basis, half_interval_set)
    off = 4.0 / (3.0 * math.pi)
    assert np.allclose(M, [[0.5, off], [off, 0.5]], atol=1e-14)
    Mq = quad_gram(basis, half_interval_set.boxes_in_region(basis.domain.box()))
    assert np.max(np.abs(M - Mq)) < 1e-12


def test_gram_eigenvalues_between_zero_and_one(dirichlet_op):
    S = ObservabilitySet.periodic((math.pi,), [((0.2, 0.9),), ((1.5, 2.0),)])
    M = gram_matrix(dirichlet_op.basis, S)
    w = np.linalg.eigvalsh(M)
    assert w[0] > -1e-10 and w[-1] < 1 + 1e-10


def test_gram_quadrature_oracle_2d():
    dom = DomainSpec.torus(2.0, 2.0)
    basis = build_basis(dom, 30.0)
    S = periodic_band(1.0, 0.3, d=2)
    M = gram_matrix(basis, S)
    Mq = quad_gram(basis, S.boxes_in_region(dom.box()), order=48)
    assert np.max(np.abs(M - Mq)) < 1e-10


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_gram_quadrature_oracle_2d_box_with_origin(boundary):
    dom = DomainSpec(boundary, (2.0, 3.0), (-0.5, 1.25))
    basis = build_basis(dom, 60.0)
    # the second box wraps in x, so the cells cut it into two pieces
    S = ObservabilitySet.periodic((1.0, 1.5), [((0.1, 0.6), (0.2, 0.9)),
                                               ((0.7, 1.2), (1.0, 1.4))])
    boxes = S.boxes_in_region(dom.box())
    assert len(boxes) > 8 and basis.n > 20
    Mq = quad_gram(basis, boxes, order=48)
    assert np.max(np.abs(gram_matrix(basis, S) - Mq)) < 1e-10


def test_gram_quadrature_oracle_equidistributed_straddling_edges():
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    basis = build_basis(dom, 40.0)
    # cells of side 1.1 do not tile the torus: the squares of the last cell
    # on each axis straddle its edge 2*pi and are clipped there
    S = make_equidistributed(EquidistributedSpec(G=1.1, delta=0.45, seed=3),
                             [(0.0, 2 * math.pi), (0.0, 2 * math.pi)])
    boxes = S.boxes_in_region(dom.box())
    assert len(boxes) == len(S.boxes) == 36
    assert sum(lo < 2 * math.pi < hi for box in S.boxes for lo, hi in box) == 12
    Mq = quad_gram(basis, boxes, order=48)
    assert np.max(np.abs(gram_matrix(basis, S) - Mq)) < 1e-10


def test_gram_cost_scales_with_distinct_atoms(monkeypatch):
    """Sixteen boxes at n=481: the kernel runs on per-axis atom tables only."""
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    basis = build_basis(dom, 150.0)
    S = ObservabilitySet.periodic((math.pi / 2,) * 2, [((0.2, 1.0), (0.3, 1.2))])
    boxes = S.boxes_in_region(dom.box())
    assert len(boxes) == 16 and basis.n == 481
    evaluated = []
    kernel = _trig._cos_primitive_diff

    def counting(w, p, a, b):
        evaluated.append(np.broadcast(w, p, a, b).size)
        return kernel(w, p, a, b)

    monkeypatch.setattr(_trig, "_cos_primitive_diff", counting)
    M = gram_matrix(basis, S)
    m = [len(basis.axis_atoms[ax][0][0]) for ax in range(2)]
    assert evaluated
    assert sum(evaluated) <= 4 * len(boxes) * sum(k * k for k in m)
    assert 4 * len(boxes) * sum(k * k for k in m) < len(boxes) * basis.n ** 2
    Mq = quad_gram(basis, boxes, order=32)
    assert np.max(np.abs(M - Mq)) < 1e-10


def test_gram_memory_does_not_grow_with_box_count():
    """In 1D no atom is shared, so the boxes are integrated one at a time."""
    dom = DomainSpec.interval(0.0, 20.0, "dirichlet")
    basis = build_basis(dom, (200 * math.pi / 20.0) ** 2)
    S = periodic_band(1.0, 0.5)
    assert len(S.boxes_in_region(dom.box())) == 20
    tracemalloc.start()
    try:
        gram_matrix(basis, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * basis.n ** 2 * 8


def test_gram_additivity(dirichlet_op):
    S1 = ObservabilitySet.periodic((math.pi,), [((0.0, 0.5),)])
    S2 = ObservabilitySet.periodic((math.pi,), [((1.0, 1.8),)])
    both = S1.union(S2)
    M = gram_matrix(dirichlet_op.basis, both)
    M1 = gram_matrix(dirichlet_op.basis, S1)
    M2 = gram_matrix(dirichlet_op.basis, S2)
    assert np.max(np.abs(M - M1 - M2)) < 1e-12


def test_gram_rejects_mismatched_torus_period():
    basis = build_basis(DomainSpec.torus(2 * math.pi), 5.0)
    S = periodic_band(1.0, 0.5)  # 1 does not divide 2*pi
    with pytest.raises(ParameterError):
        gram_matrix(basis, S)


def test_boxes_canonicalized_and_merged():
    S = ObservabilitySet.periodic((1.0,), [((0.1, 0.4),), ((0.3, 0.5),)])
    assert S.boxes == (((0.1, 0.5),),)
    wrap = ObservabilitySet.periodic((1.0,), [((0.9, 1.2),)])
    assert np.allclose(wrap.boxes, [((0.0, 0.2),), ((0.9, 1.0),)], atol=1e-12)
    assert abs(wrap.measure_per_cell() - 0.3) < 1e-12


def test_thickness_translate_invariant_density():
    S = ObservabilitySet.periodic((1.0,), [((0.0, 0.3),)])
    assert abs(thickness_estimate(S, [1.0]) - 0.3) < 1e-6
    assert thickness_estimate(ObservabilitySet.full(), [2.0]) == 1.0


def test_thickness_example_band_set():
    S = example_set("edge_bands", gamma=0.25)
    assert abs(thickness_estimate(S, [1.0]) - 0.25) < 1e-6


def test_thickness_small_window_exact():
    # window shorter than the gap: infimum is 0, attained between boxes
    S = ObservabilitySet.periodic((1.0,), [((0.0, 0.3),)])
    assert thickness_estimate(S, [0.5]) < 1e-12
    # window + box geometry with kinks off the uniform grid
    S2 = ObservabilitySet.periodic((1.0,), [((0.05, 0.45),)])
    est = thickness_estimate(S2, [0.6])
    assert abs(est - grid_inf(S2, 0.6)) < 1e-9


def grid_inf(S, a, n=20000):
    member = set_indicator(S)
    xs = np.linspace(0.0, S.cell[0], n, endpoint=False)
    best = np.inf
    for x in xs:
        best = min(best, grid_measure_periodic(member, (x, x + a), 4001) / a)
    return best


def test_thickness_window_needs_one_length_per_axis():
    family = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.35, seed=4),
                                  [(0.0, 4.0), (0.0, 3.0)])
    for S in (periodic_band(1.0, 0.25, d=2), family):
        with pytest.raises(ParameterError):
            thickness_estimate(S, [1.3])
    assert thickness_estimate(ObservabilitySet.full(), [2.0, 2.0]) == 1.0


def test_thickness_2d_product_set():
    S = periodic_band(1.0, 0.25, d=2)
    est = thickness_estimate(S, [1.0, 1.0], grid=16)
    assert abs(est - 0.25) < 1e-9


def test_beta_full_empty():
    assert beta_complement(ObservabilitySet.full(), [1.0, 2.0]) == [(1.0, 0.0), (2.0, 0.0)]
    assert beta_complement(ObservabilitySet.empty(), [1.0]) == [(1.0, 1.0)]


def test_beta_periodic_interval():
    S = ObservabilitySet.periodic((1.0,), [((0.0, 0.3),)])
    (r, beta), = beta_complement(S, [5.0])
    assert 0.68 <= beta <= 0.72
    member = set_indicator(S)
    brute = 1.0 - grid_measure_periodic(member, (-5.0, 5.0)) / 10.0
    assert abs(beta - brute) < 1e-4


def test_beta_monotone_trend_for_thick_set():
    S = ObservabilitySet.periodic((1.0,), [((0.0, 0.3),)])
    vals = beta_complement(S, [0.5, 1.0, 2.0, 4.0, 8.0])
    # trend toward the density 0.7, staying away from 1
    assert all(b < 0.95 for _, b in vals)
    assert abs(vals[-1][1] - 0.7) < 0.05


def test_thickness_beta_duality_family():
    # gamma > 0 at some window <=> beta bounded away from 1 for large radii
    thick = [periodic_band(1.0, g) for g in (0.1, 0.3, 0.6)]
    for S in thick:
        gamma = thickness_estimate(S, [1.0])
        assert gamma > 0
        (_, beta), = beta_complement(S, [8.0])
        assert beta <= 1 - gamma + 1e-6


def test_disk_box_area_against_grid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(-1, 1, size=2)
        r = rng.uniform(0.2, 1.5)
        box = np.sort(rng.uniform(-2, 2, size=2)), np.sort(rng.uniform(-2, 2, size=2))
        box = (tuple(box[0]), tuple(box[1]))
        area = disk_box_area(c, r, box)
        n = 400
        xs = np.linspace(box[0][0], box[0][1], n)
        ys = np.linspace(box[1][0], box[1][1], n)
        X, Y = np.meshgrid(xs, ys)
        inside = (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= r * r
        cellarea = (box[0][1] - box[0][0]) * (box[1][1] - box[1][0]) / n ** 2
        approx = inside.sum() * cellarea
        assert abs(area - approx) < 30 * max(r, 1) * cellarea * n ** 0.5 + 1e-12
        assert -1e-12 <= area <= math.pi * r * r + 1e-12


def test_disk_box_area_bounding_square():
    # the box edges touch the disk, where r*r - u*u and arcsin(u/r) lose digits
    rng = np.random.default_rng(7)
    for _ in range(2000):
        c = rng.uniform(-10, 10, size=2)
        r = 10.0 ** rng.uniform(-3, 3)
        area = disk_box_area(c, r, ((c[0] - r, c[0] + r), (c[1] - r, c[1] + r)))
        assert abs(area / (math.pi * r * r) - 1.0) <= 1e-14


def test_disk_box_area_matches_mpmath_oracle():
    rng = np.random.default_rng(11)
    boxes = []
    for k in range(120):
        c = rng.uniform(-1, 1, size=2)
        r = rng.uniform(0.2, 1.5)
        box = [np.sort(rng.uniform(-2, 2, size=2)) for _ in range(2)]
        if k % 3 == 0:  # one edge on a tangent of the disk
            box[k % 2][1] = c[k % 2] + r
        boxes.append(box)
        area = disk_box_area(c, r, box)
        assert abs(area - float(disk_box_area_mp(c, r, box))) <= 1e-13 * math.pi * r * r
    # arrays broadcast: the last disk against every box at once
    (x1, x2), (y1, y2) = np.array(boxes).transpose(1, 2, 0)
    together = disk_box_area(c, r, ((x1, x2), (y1, y2)))
    assert np.array_equal(together, [disk_box_area(c, r, b) for b in boxes])


@pytest.mark.parametrize("r", [0.85, 0.9])
def test_beta_2d_matches_mpmath_oracle(r):
    # at these radii boxes cross the bounding square of the emptiest disk,
    # where area formulas that are sensitive next to a tangent lose digits
    S = ObservabilitySet.periodic((1.0, 1.0), SIX_BOXES)
    (_, beta), = beta_complement(S, [r], grid=3)
    assert abs(beta - float(beta_2d_mp(S, r, 3))) <= 1e-13


def test_beta_2d_memory_stays_at_one_row_of_centers():
    S = ObservabilitySet.periodic((1.0, 1.0), SIX_BOXES)
    tracemalloc.start()
    try:
        (_, beta), = beta_complement(S, [8.0], grid=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 1024 centers at once against the 6 * 17**2 translated boxes would
    # hold 14 MB in every temporary
    assert peak <= 8e6
    assert 1.0 - S.density() - 0.05 < beta < 1.0


def test_thickness_2d_multi_box_matches_brute_force_windows():
    S = ObservabilitySet.periodic((1.0, 1.2), SIX_BOXES)
    a = (0.7, 0.8)
    # the window measure is bilinear between breakpoints, where one window
    # edge passes one box edge: the infimum is attained on their grid
    axes = [sorted({e % c for box in S.boxes for e in (box[i][0], box[i][1],
                                                    box[i][0] - a[i], box[i][1] - a[i])}
                   | set(np.linspace(0.0, c, 30, endpoint=False)))
            for i, c in enumerate(S.cell)]
    brute = {x: window_measure(S, [(xi, xi + ai) for xi, ai in zip(x, a)]) / np.prod(a)
             for x in itertools.product(*axes)}
    est = thickness_estimate(S, list(a), grid=4)
    assert abs(est - min(brute.values())) < 1e-12
    assert est > 0.1


def test_thickness_2d_equidistributed_matches_brute_force_windows():
    spec = EquidistributedSpec(G=1.0, delta=0.35, seed=4)
    S = make_equidistributed(spec, [(0.0, 4.0), (0.0, 3.0)])
    a = [1.3, 0.9]
    lo, hi = np.min(S.boxes, axis=0)[:, 0], np.max(S.boxes, axis=0)[:, 1]
    axes = [np.linspace(l, h - ai, 17) for l, h, ai in zip(lo, hi, a)]
    brute = min(window_measure(S, [(xi, xi + ai) for xi, ai in zip(x, a)])
                for x in itertools.product(*axes)) / np.prod(a)
    assert abs(thickness_estimate(S, a, grid=17) - brute) < 1e-12
    assert brute > 0.0


def test_beta_2d_exact_density_at_integer_radius_cover():
    S = periodic_band(1.0, 0.25, d=2)
    (_, beta), = beta_complement(S, [6.0], grid=8)
    assert 0.7 < beta < 0.8  # density of the complement is 0.75


def test_equidistributed_centered_example():
    spec = EquidistributedSpec(G=1.0, delta=0.25, mode="centered")
    S = make_equidistributed(spec, [(0.0, 4.0)])
    expect = (((0.25, 0.75),), ((1.25, 1.75),), ((2.25, 2.75),), ((3.25, 3.75),))
    assert S.boxes == expect
    assert abs(sum(b[0][1] - b[0][0] for b in S.boxes) - 2.0) < 1e-12


def test_equidistributed_deterministic_and_contained():
    spec = EquidistributedSpec(G=1.0, delta=0.25, seed=42)
    S1 = make_equidistributed(spec, [(0.0, 4.0)])
    S2 = make_equidistributed(spec, [(0.0, 4.0)])
    assert S1.boxes == S2.boxes
    for j, box in enumerate(S1.boxes):
        lo, hi = box[0]
        z = 0.5 * (lo + hi)
        assert j * 1.0 + 0.25 <= z <= (j + 1) * 1.0 - 0.25  # ball inside its cell


def test_equidistributed_tangent_limit():
    spec = EquidistributedSpec(G=1.0, delta=0.5 - 1e-12, mode="centered")
    S = make_equidistributed(spec, [(0.0, 2.0)])
    for j, box in enumerate(S.boxes):
        lo, hi = box[0]
        assert lo >= j - 1e-9 and hi <= j + 1 + 1e-9


def test_equidistributed_2d_inscribed_square():
    spec = EquidistributedSpec(G=1.0, delta=0.3, seed=5)
    for extent, label in (([(0.0, 2.0), (0.0, 1.0)], "inscribed square, half-width delta/sqrt(2)"),
                          ([(0.0, 2.0), (0.0, 1.0), (0.0, 2.0)],
                           "inscribed cube, half-width delta/sqrt(3)")):
        S = make_equidistributed(spec, extent)
        d = len(extent)
        assert len(S.boxes) == 2 * 2 ** (d - 2) and S.dimension == d
        half = 0.3 / math.sqrt(d)
        # inscribed square (cube) inside the ball: centred on it, its corners
        # on the sphere
        assert half * math.sqrt(d) <= 0.3 + 1e-12
        for box, z in zip(S.boxes, S.meta["centers"]):
            assert math.dist([b for b, _ in box], z) <= 0.3 + 1e-12
            assert math.dist([b for _, b in box], z) <= 0.3 + 1e-12
            for ax in range(d):
                assert box[ax] == pytest.approx((z[ax] - half, z[ax] + half), abs=1e-12)
                # the ball, and so the box, inside the cell
                assert z[ax] - 0.3 >= math.floor(z[ax]) - 1e-9
                assert z[ax] + 0.3 <= math.floor(z[ax]) + 1 + 1e-9
                assert math.floor(z[ax]) - 1e-9 <= box[ax][0]
                assert box[ax][1] <= math.floor(z[ax]) + 1 + 1e-9
        assert S.meta["substitution"] == label


def test_equidistributed_rejects_large_delta():
    with pytest.raises(ParameterError):
        EquidistributedSpec(G=1.0, delta=0.5)


def test_example_sets():
    S = example_set("centered_bands", eps=0.2, d=1)
    assert S.boxes == (((0.4, 0.6),),)
    assert abs(thickness_estimate(S, [1.0]) - 0.2) < 1e-9

    S2 = example_set("corner_interval", gamma=0.1)
    assert S2.boxes == (((0.0, 0.1),),)

    S3 = example_set("edge_bands", gamma=0.1)
    member = set_indicator(S3)
    # same subset of R as the two edge bands of the centered unit cell
    assert member(np.array([-0.49]))[0] and member(np.array([0.47]))[0]
    assert not member(np.array([0.3]))[0]
    assert abs(S3.measure_per_cell() - 0.1) < 1e-12

    with pytest.raises(ParameterError):
        example_set("centered_bands", eps=1.5)
    with pytest.raises(ParameterError):
        example_set("nonsense")


def test_set_json_roundtrip_and_hash():
    S = periodic_band(0.5, 0.3)
    again = ObservabilitySet.from_json(S.to_json())
    assert again == S
    assert S.descriptor_hash() == again.descriptor_hash()
    assert S.descriptor_hash() != periodic_band(0.5, 0.4).descriptor_hash()


def test_equidistributed_with_explicit_centers():
    extent = [(0.0, 2.0), (-1.0, 1.0)]
    centers = [(0.5, -0.5), (0.4, 0.7), (1.6, -0.3), (1.5, 0.5)]  # cells in sorted order
    S = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.3, centers=centers), extent)
    h = 0.3 / math.sqrt(2.0)
    assert S.kind == "equidistributed_balls"
    assert S.meta["centers"] == [list(z) for z in centers]
    assert np.allclose(S.boxes, [((x - h, x + h), (y - h, y + h)) for x, y in centers],
                       rtol=0.0, atol=1e-15)
    line = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.3, centers=[[0.3], [1.7]]),
                                [(0.0, 2.0)])
    assert line.boxes == (((0.0, 0.6),), ((1.4, 2.0),))
    with pytest.raises(ParameterError, match="expected 4 centers, got 3"):
        make_equidistributed(EquidistributedSpec(G=1.0, delta=0.3, centers=centers[:3]), extent)
    # a ball of radius 0.3 about 0.25 leaves its cell [0, 1]
    leaving = [(0.25, -0.5)] + centers[1:]
    with pytest.raises(ParameterError, match="containment"):
        make_equidistributed(EquidistributedSpec(G=1.0, delta=0.3, centers=leaving), extent)


@pytest.mark.parametrize("S", [
    ObservabilitySet.full(), ObservabilitySet.empty(),
    make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=4), [(0.0, 2.0), (0.0, 1.0)]),
], ids=["full", "empty", "equidistributed"])
def test_json_roundtrip_of_non_periodic_kinds_keeps_the_hash(S):
    back = ObservabilitySet.from_json(S.to_json())
    assert back == S
    assert back.descriptor_hash() == S.descriptor_hash()


def test_full_and_empty_sets_answer_without_boxes():
    full, empty = ObservabilitySet.full(), ObservabilitySet.empty()
    region = [(0.0, 2.0), (-1.0, 1.0)]
    assert full.density() == 1.0 and empty.density() == 0.0
    assert full.boxes_in_region(region) == [((0.0, 2.0), (-1.0, 1.0))]
    assert empty.boxes_in_region(region) == []
    assert thickness_estimate(full, [0.5, 0.5]) == 1.0
    assert thickness_estimate(empty, [0.5]) == 0.0


def _wrong_dimension_cases():
    """(handle, set) pairs whose set has the other dimension than the domain:
    on a torus and on a box, with and without a potential."""
    torus = build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 6.0)
    box = build_basis(DomainSpec("dirichlet", (2.0, 3.0)), 8.0)
    line = ObservabilitySet.periodic((math.pi,), [((0.0, 1.0),)])
    plane = periodic_band(1.0, 0.3, d=2)
    family = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), [(0.0, 2.0)])
    handles = [galerkin_schrodinger(b, p) for b in (torus, box)
               for p in (None, PotentialSpec(constant=0.5))]
    line_handle = galerkin_schrodinger(build_basis(DomainSpec.torus(2 * math.pi), 6.0))
    return ([(op, S) for op in handles for S in (line, family)]
            + [(line_handle, plane)])


@pytest.mark.parametrize("case", range(9))
def test_set_of_the_wrong_dimension_is_refused_everywhere(case):
    op, S = _wrong_dimension_cases()[case]
    calls = [lambda: gram_matrix(op.basis, S), lambda: mode_classes(op, S),
             lambda: set_blocks(op, S, 4.0), lambda: set_blocks(op, S, 4.0, np.eye(op.n)),
             lambda: ControlProblem.from_set(op, S, 1.0),
             lambda: region_boxes(op.basis.domain, S)]
    for call in calls:
        with pytest.raises(ParameterError, match="^set dimension does not match the domain$"):
            call()


def test_set_records_refuse_unknown_kinds_and_non_positive_cells():
    with pytest.raises(ParameterError, match="unknown set kind 'balls'"):
        ObservabilitySet(kind="balls")
    with pytest.raises(ParameterError, match="cell lengths must be positive"):
        ObservabilitySet.periodic((1.0, 0.0), [((0.1, 0.2), (0.1, 0.2))])
    with pytest.raises(ParameterError,
                       match=r"^cell lengths must be positive, one or more, not \[\]$"):
        ObservabilitySet.periodic((), [])
    # a 3D box set is taken as it is
    assert ObservabilitySet.periodic((1.0,) * 3, [((0.1, 0.2),) * 3]).boxes == (((0.1, 0.2),) * 3,)


def test_union_measure_and_density_need_periodic_sets_of_one_cell():
    band = periodic_band(1.0, 0.5)
    family = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), [(0.0, 2.0)])
    for a, b in ((band, family), (family, band), (band, ObservabilitySet.full())):
        with pytest.raises(ParameterError, match="union is defined for periodic box sets"):
            a.union(b)
    with pytest.raises(ParameterError, match="union requires matching cells"):
        band.union(periodic_band(2.0, 0.5))
    with pytest.raises(ParameterError, match="per-cell measure needs a periodic set"):
        family.measure_per_cell()
    with pytest.raises(ParameterError, match="density needs a periodic set"):
        family.density()


def test_beta_complement_refuses_bad_radii_and_finite_families():
    band = periodic_band(1.0, 0.5)
    for radii in ([0.0], [-0.5, 0.5]):
        with pytest.raises(ParameterError, match="radii must be positive"):
            beta_complement(band, radii)
    with pytest.raises(ParameterError, match="radii must be increasing"):
        beta_complement(band, [0.5, 0.2])
    family = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), [(0.0, 2.0)])
    with pytest.raises(ParameterError, match="complement density needs a periodic set"):
        beta_complement(family, [0.5])
    # its disk areas are planar
    with pytest.raises(ParameterError,
                       match="^complement density covers 1D and 2D sets, not 3D ones$"):
        beta_complement(periodic_band(1.0, 0.5, d=3), [0.25])


def test_equidistributed_spec_and_family_refusals():
    with pytest.raises(ParameterError, match="G must be positive"):
        EquidistributedSpec(G=0.0, delta=0.1)
    with pytest.raises(ParameterError, match="G must be positive"):
        EquidistributedSpec(G=-1.0, delta=0.1)
    with pytest.raises(ParameterError, match="mode must be 'uniform' or 'centered'"):
        EquidistributedSpec(G=1.0, delta=0.2, mode="random")
    with pytest.raises(ParameterError, match="^an extent needs at least one axis$"):
        make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), [])
    # a 3D family is made, one inscribed cube per cell
    cube = make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), [(0.0, 1.0)] * 3)
    assert len(cube.boxes) == 1 and cube.dimension == 3
    # an axis of no width holds no cell, or, inside a cell, one whose ball lies
    # outside the extent
    for extent, axis in (([(1.0, 1.0)], 0), ([(2.0, 1.0)], 0), ([(0.0, 2.0), (3.0, 3.0)], 1),
                         ([(1.5, 1.5)], 0), ([(0.0, 2.0), (1.5, 1.5)], 1)):
        with pytest.raises(ParameterError) as err:
            make_equidistributed(EquidistributedSpec(G=1.0, delta=0.2, seed=1), extent)
        assert str(err.value) == (f"extent {[list(e) for e in extent]} has no width "
                                  f"on axis {axis}")


@pytest.mark.parametrize("build, message", [
    (lambda: periodic_band(1.0, 1.0), "gamma must be in"),
    (lambda: periodic_band(1.0, 0.0), "gamma must be in"),
    (lambda: periodic_band(0.0, 0.5), "period must be positive"),
    (lambda: example_set("corner_interval", gamma=1.0), "gamma must be in"),
    (lambda: example_set("edge_bands", gamma=0.0), "gamma must be in"),
    (lambda: example_set("edge_bands", gamma=1.5, d=2), "gamma must be in"),
])
def test_example_sets_refuse_densities_outside_the_open_unit_interval(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_slab_thinner_than_the_tolerance_is_dropped():
    # the second box starts 5e-13 after the first ends: the x-edges 0.5 and
    # 0.5 + 5e-13 bound a slab that no box is counted in
    gap = 5e-13
    S = ObservabilitySet.periodic((1.0, 1.0), [((0.1, 0.5), (0.1, 0.4)),
                                               ((0.5 + gap, 0.8), (0.2, 0.6))])
    assert S.boxes == (((0.1, 0.5), (0.1, 0.4)), ((0.5 + gap, 0.8), (0.2, 0.6)))
    assert all(x1 - x0 > 1e-12 for (x0, x1), _ in S.boxes)
    assert abs(S.measure_per_cell() - (0.4 * 0.3 + 0.3 * 0.4)) < 1e-12


def _translate_products(dom, S):
    """Per cell box, the Cartesian product of its per-axis translates by the
    cell clipped to ``dom``, keeping those longer than the tolerance, in the
    order of ``boxes_in_region``: cell translates outer, boxes inner."""
    ranges = [range(math.floor(lo / c), math.ceil(hi / c)) for (lo, hi), c in zip(dom.box(), S.cell)]
    kept = []  # per box, per axis: translate index -> clipped interval
    for box in S.boxes:
        kept.append([{j: (max(a + j * c, lo), min(b + j * c, hi)) for j in rng
                      if min(b + j * c, hi) - max(a + j * c, lo) > 1e-12}
                     for (a, b), (lo, hi), c, rng in zip(box, dom.box(), S.cell, ranges)])
    products = [list(itertools.product(*(list(axis.values()) for axis in axes))) for axes in kept]
    ordered = [tuple(axis[jj] for axis, jj in zip(axes, j))
               for j in itertools.product(*ranges) for axes in kept
               if all(jj in axis for axis, jj in zip(axes, j))]
    return products, ordered


@pytest.mark.parametrize("dom, S, count", [
    (DomainSpec.torus(2 * math.pi, 2 * math.pi),
     ObservabilitySet.periodic((2 * math.pi / 3,) * 2, [((0.3, 1.7), (0.2, 1.9))]), 9),
    # cells cut by the edges x = 0.35, x = 3.75 and y = 2.4
    (DomainSpec("dirichlet", (3.4, 2.8), (0.35, -0.4)),
     ObservabilitySet.periodic((1.0, 1.0), [((0.1, 0.5), (0.2, 0.6)), ((0.6, 0.9), (0.7, 0.95))]),
     24),
], ids=["torus_3x3", "box_partial_cells"])
def test_region_boxes_are_products_of_per_axis_translates(dom, S, count):
    boxes = region_boxes(dom, S)
    products, ordered = _translate_products(dom, S)
    assert boxes == ordered and len(boxes) == count
    assert sorted(boxes) == sorted(b for product in products for b in product)
    for product in products:
        assert set(product) <= set(boxes)


def _random_union(rng, cell):
    """Up to five boxes over ``cell``: most start anywhere in two cells either
    side of the origin, so that they wrap, and some span a whole cell."""
    boxes = []
    for _ in range(rng.integers(0, 6)):
        lo = rng.uniform(-2.0, 2.0, len(cell)) * cell
        part = rng.uniform(0.01, 0.9, len(cell)) * cell
        width = np.where(rng.random(len(cell)) < 0.15, cell, part)
        boxes.append(tuple(zip(lo.tolist(), (lo + width).tolist())))
    return boxes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonical_boxes_are_disjoint_cover_the_wrapped_union_and_are_fixed(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(60):
        cell = rng.uniform(0.5, 3.0, d)
        boxes = _random_union(rng, cell)
        S = ObservabilitySet.periodic(cell.tolist(), boxes)
        canon = np.array(S.boxes).reshape(-1, d, 2)
        lo, hi = canon[..., 0], canon[..., 1]
        for i, j in itertools.combinations(range(len(canon)), 2):
            # disjoint: apart along some axis
            assert np.any((hi[i] <= lo[j] + 1e-12) | (hi[j] <= lo[i] + 1e-12))
        pts = rng.uniform(0.0, 1.0, (4000, d)) * cell
        count = np.all((lo[:, None] <= pts) & (pts <= hi[:, None]), axis=2).sum(axis=0)
        # a point is in the wrapped union when, read from some box's lower
        # corner modulo the cell, it lies within that box's widths
        inside = np.zeros(len(pts), dtype=bool)
        for box in boxes:
            a, b = np.array(box).T
            inside |= np.all((pts - a) % cell <= b - a, axis=1)
        assert np.array_equal(count, inside.astype(int))
        assert ObservabilitySet.periodic(cell.tolist(), S.boxes).boxes == S.boxes


def test_3d_product_set_gram_is_the_kronecker_product_of_1d_grams():
    box = ((0.0, math.pi / 2), (0.0, math.pi / 3), (math.pi / 4, math.pi))
    basis = build_basis(DomainSpec("dirichlet", (math.pi,) * 3), 30.0)
    assert basis.n == 60
    M = gram_matrix(basis, ObservabilitySet.periodic((math.pi,) * 3, [box]))
    K = np.ones_like(M)
    for ax, edge in enumerate(box):
        k = basis.mode_indices[:, ax]
        line = build_basis(DomainSpec.interval(0.0, math.pi), float(k.max()) ** 2)
        G = gram_matrix(line, ObservabilitySet.periodic((math.pi,), [(edge,)]))
        # the Dirichlet modes of the line are k = 1, 2, ... in order
        K *= G[np.ix_(k - 1, k - 1)]
    assert np.max(np.abs(M - K)) <= 1e-15
