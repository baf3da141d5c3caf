"""The class blocks of ``geometry.set_blocks`` and the constants read from them.

A set that meets a torus in one box is symmetric under the reflection of
every axis through the box's midpoint, so in the atoms centred there its
Gram splits into ``2^d`` blocks by the sign pattern of the mode indices.
The constants of these blocks are checked against the dense path, the sets
that must keep the classes of ``mode_classes`` are checked to keep them, a
sweep is checked to form its blocks once and read leading blocks of them,
and the bad operands of ``spectral_ineq_constant`` are checked to be
refused.
"""

import math

import numpy as np
import pytest

from heatctl import (ControlProblem, DomainSpec, EquidistributedSpec, ObservabilitySet,
                     ParameterError, PotentialSpec, build_basis, galerkin_schrodinger,
                     gram_matrix, make_equidistributed, spectral_ineq_constant,
                     spectral_ineq_sweep)
from heatctl import geometry, uncertainty
from heatctl.geometry import mode_classes, set_blocks
from heatctl.spectral import OperatorHandle, galerkin_matrix

TWO_PI = 2.0 * math.pi
E_GRID = (0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 40.0)


def _op(sides, e_max, potential=None):
    return galerkin_schrodinger(build_basis(DomainSpec.torus(*sides), e_max), potential)


def _dense_constant(op, M, E):
    """The smallest eigenvalue of the whole projected Gram, one dense block."""
    k = np.flatnonzero(op.eigvals <= E)
    return float(np.linalg.eigvalsh(op.project(M, k))[0])


def _block_modes(op, S, E):
    return [modes for modes, _, _ in set_blocks(op, S, E)]


def _same_classes(got, expect):
    return len(got) == len(expect) and all(map(np.array_equal, got, expect))


def _random_box(rng, sides):
    box = []
    for side in sides:
        lo = rng.uniform(0.0, 0.8 * side)
        box.append((lo, lo + rng.uniform(0.05, 1.0) * (side - lo)))
    return tuple(box)


def _one_box_sets():
    """name: (torus sides, set) of sets that meet their torus in one box."""
    rng = np.random.default_rng(20)
    sets = {}
    for sides in ((TWO_PI,), (4.0,), (TWO_PI, TWO_PI), (4.0, 4.0), (TWO_PI, 4.0)):
        for i in range(3):
            sets[f"random_{len(sides)}d_{sides[0]:.2f}_{sides[-1]:.2f}_{i}"] = (
                sides, ObservabilitySet.periodic(sides, [_random_box(rng, sides)]))
    sets["touching_0"] = ((TWO_PI, TWO_PI),
                          ObservabilitySet.periodic((TWO_PI,) * 2, [((0.0, 1.3), (0.7, 2.9))]))
    sets["touching_L"] = ((4.0, 4.0),
                          ObservabilitySet.periodic((4.0, 4.0), [((2.5, 4.0), (1.0, 4.0))]))
    sets["full_axis"] = ((TWO_PI, TWO_PI),
                         ObservabilitySet.periodic((TWO_PI,) * 2, [((0.0, TWO_PI), (1.0, 2.5))]))
    sets["full_axis_1d"] = ((4.0,), ObservabilitySet.periodic((4.0,), [((0.0, 4.0),)]))
    # one square of a finite family, clipped at the edges of the torus [0, 4)^2
    sets["family_clipped"] = ((4.0, 4.0), ObservabilitySet(
        kind="equidistributed_balls", boxes=(((3.2, 4.7), (-0.5, 1.0)),)))
    sets["family_clipped_1d"] = ((4.0,), ObservabilitySet(
        kind="equidistributed_balls", boxes=(((3.2, 4.7),),)))
    spec = EquidistributedSpec(G=4.0, delta=1.0, centers=((3.0, 2.5),))
    sets["family_inside"] = ((4.0, 4.0), make_equidistributed(spec, [(0.0, 4.0), (0.0, 4.0)]))
    return sets


ONE_BOX = _one_box_sets()


@pytest.mark.parametrize("name", sorted(ONE_BOX))
def test_one_box_constants_match_the_dense_path(name, monkeypatch):
    sides, S = ONE_BOX[name]
    op = _op(sides, 40.0)
    assert len(S.boxes_in_region(op.basis.domain.box())) == 1
    M = gram_matrix(op.basis, S)
    # at the top of the basis the blocks are the sign classes, whole
    assert _same_classes(_block_modes(op, S, 40.0), op.basis.sign_classes)
    dense = [_dense_constant(op, M, E) for E in E_GRID]
    # the sweep builds no Gram at all
    monkeypatch.setattr(geometry, "gram_matrix", None)
    split = [c for _, c in spectral_ineq_sweep(op, S, E_GRID)]
    assert [spectral_ineq_constant(op, S, E, gram=M) for E in E_GRID] == split
    assert max(abs(a - b) for a, b in zip(split, dense)) <= 1e-14
    # a gram is not read on this path
    assert spectral_ineq_constant(op, S, 9.0, gram=np.zeros_like(M)) == split[4]


@pytest.mark.parametrize("name", ["two_boxes", "wrapped", "tiled_2x2", "potential",
                                  "dirichlet"])
def test_other_sets_keep_the_dense_path(name):
    torus = (TWO_PI, TWO_PI)
    box = ((0.4, 2.3), (0.2, 2.0))
    S = ObservabilitySet.periodic(torus, [box])
    if name == "two_boxes":
        op, S = _op(torus, 20.0), ObservabilitySet.periodic(torus, [box, ((3.0, 4.0),) * 2])
    elif name == "wrapped":
        op, S = _op(torus, 20.0), ObservabilitySet.periodic(torus, [((5.5, 7.0), (1.0, 2.0))])
        assert len(S.boxes) == 2
    elif name == "tiled_2x2":
        op, S = _op(torus, 20.0), ObservabilitySet.periodic((math.pi, math.pi), [box])
    elif name == "potential":
        op = _op(torus, 20.0, PotentialSpec(constant=0.5, cosines=((0.4, (1, 2)),)))
    else:
        op = galerkin_schrodinger(build_basis(DomainSpec.interval(0.0, math.pi), 100.0))
        S = ObservabilitySet.periodic((math.pi,), [((0.3, 1.9),)])
    assert _same_classes(_block_modes(op, S, op.eigvals[-1]), mode_classes(op, S))
    M = gram_matrix(op.basis, S)
    for E in (1.0, 4.0, 16.0):
        assert spectral_ineq_constant(op, S, E) == spectral_ineq_constant(op, S, E, gram=M)
        assert abs(spectral_ineq_constant(op, S, E) - _dense_constant(op, M, E)) <= 1e-14


@pytest.mark.parametrize("kind, value", [("full", 1.0), ("empty", 0.0)])
def test_full_and_empty_sets_give_their_constant_exactly(kind, value, monkeypatch):
    op = _op((TWO_PI, TWO_PI), 20.0)
    S = ObservabilitySet(kind=kind)
    # neither a Gram nor an eigenvalue is formed
    monkeypatch.setattr(geometry, "gram_matrix", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert spectral_ineq_constant(op, S, 20.0) == value
    assert spectral_ineq_constant(op, S, 1.0, gram=np.eye(op.n)) == value
    assert spectral_ineq_sweep(op, S, [0.0, 4.0, 20.0]) == [(0.0, value), (4.0, value),
                                                            (20.0, value)]
    with pytest.raises(ParameterError, match="no eigenvalue below E=-1.0"):
        spectral_ineq_constant(op, S, -1.0)
    with pytest.raises(ParameterError, match="no eigenvalue below E=-1.0"):
        spectral_ineq_sweep(op, S, [4.0, -1.0])


def test_single_box_at_n481_takes_four_small_blocks_per_energy(monkeypatch):
    op = _op((TWO_PI, TWO_PI), 150.0)
    S = ObservabilitySet.periodic((TWO_PI,) * 2, [((0.7, 1.9), (2.2, 3.1))])
    assert op.n == 481
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def record(B):
        sizes.append(B.shape)
        return eigvalsh(B)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    grid = (4.0, 64.0, 150.0)
    spectral_ineq_sweep(op, S, grid)
    assert len(sizes) == 4 * len(grid)
    assert all(m == k for m, k in sizes)
    assert max(m for m, _ in sizes) <= 140
    # at the top energy the blocks hold every mode once
    assert sum(m for m, _ in sizes[-4:]) == op.n


def _count(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(owner, name, counted)


def test_sweep_gathers_each_parity_block_once_at_its_largest_energy(monkeypatch):
    op = _op((4.0, 4.0), 40.0)
    S = ObservabilitySet.periodic((4.0, 4.0), [((0.3, 1.1), (2.0, 3.5))])
    expect = [c for _, c in spectral_ineq_sweep(op, S, E_GRID)]
    tables, gathers = [], []
    _count(monkeypatch, geometry, "_centred_table", tables)
    _count(monkeypatch, np, "take", gathers)
    pairs = spectral_ineq_sweep(op, S, E_GRID)
    assert [c for _, c in pairs] == expect
    # one table per axis, one gather per axis and sign class, sized at the top
    assert len(tables) == 2
    top = [c[op.eigvals[c] <= E_GRID[-1]] for c in op.basis.sign_classes]
    assert sorted(g.shape for g in gathers) == sorted((c.size, c.size) for c in top for _ in "xy")
    # one energy gathers the modes up to it alone, as a sweep of one
    gathers.clear()
    assert spectral_ineq_constant(op, S, 9.0) == expect[4]
    low = [c[op.eigvals[c] <= 9.0] for c in op.basis.sign_classes]
    assert sorted(g.shape for g in gathers) == sorted((c.size, c.size) for c in low for _ in "xy")


@pytest.mark.parametrize("potential", [None, PotentialSpec(constant=0.5,
                                                           cosines=((0.4, (1, 2)),))])
def test_sweep_projects_each_class_once_at_its_largest_energy(potential, monkeypatch):
    op = _op((TWO_PI, TWO_PI), 30.0, potential)
    S = ObservabilitySet.periodic((math.pi, math.pi), [((0.4, 2.3), (0.2, 2.0))])
    single = [spectral_ineq_constant(op, S, E) for E in E_GRID]
    grams, projections = [], []
    _count(monkeypatch, geometry, "gram_matrix", grams)
    _count(monkeypatch, uncertainty, "gram_matrix", grams)
    _count(monkeypatch, OperatorHandle, "project", projections)
    swept = [c for _, c in spectral_ineq_sweep(op, S, E_GRID)]
    assert len(grams) == 1
    classes = mode_classes(op, S)
    assert len(classes) == (1 if potential else 4)
    if potential is None:
        expect = [(c[op.eigvals[c] <= E_GRID[-1]].size,) * 2 for c in classes]
    else:
        # the top energy covers the basis: its constant comes from the blocks
        # of the diagonal handle, with no projection, and the one class is
        # projected up to the next energy only
        assert E_GRID[-1] >= op.eigvals[-1] > E_GRID[-2]
        expect = [(np.count_nonzero(op.eigvals <= E_GRID[-2]),) * 2]
        expect += [(c.size,) * 2 for c in mode_classes(galerkin_schrodinger(op.basis), S)]
    assert sorted(B.shape for B in projections) == sorted(expect)
    if potential is None:
        # principal blocks of principal blocks: the same bits
        assert swept == single
    else:
        assert max(abs(a - b) for a, b in zip(swept, single)) <= 1e-15


def test_leading_blocks_are_the_blocks_at_lower_energies():
    op = _op((TWO_PI, TWO_PI), 40.0)
    for S in (ObservabilitySet.periodic((TWO_PI,) * 2, [((0.7, 1.9), (2.2, 3.1))]),
              ObservabilitySet.periodic((math.pi, math.pi), [((0.4, 2.3), (0.2, 2.0))])):
        top = set_blocks(op, S, 40.0)
        for E in (2.0, 9.0, 25.0):
            low = set_blocks(op, S, E)
            for (modes, mu, B), (m, mu_low, B_low) in zip(top, low):
                k = m.size
                assert np.array_equal(modes[:k], m) and np.array_equal(mu[:k], mu_low)
                assert np.array_equal(B[:k, :k], B_low)


def test_control_problem_blocks_are_the_set_blocks():
    op = _op((TWO_PI, TWO_PI), 30.0)
    S = ObservabilitySet.periodic((math.pi, math.pi), [((0.4, 2.3), (0.2, 2.0))])
    problem = ControlProblem.from_set(op, S, 0.5)
    for (c, mu, B), (modes, mu_s, B_s) in zip(problem.class_blocks,
                                              set_blocks(op, S, op.eigvals[-1])):
        assert np.array_equal(c, modes) and np.array_equal(mu, mu_s)
        assert np.array_equal(B, B_s)


def test_sign_classes_split_the_centred_gram():
    """In the atoms centred at the box's midpoint the Gram vanishes between
    sign classes to rounding, and within them it is the gathered block."""
    op = _op((4.0, 4.0), 30.0)
    box = ((0.9, 2.2), (1.5, 3.8))
    S = ObservabilitySet.periodic((4.0, 4.0), [box])
    basis = op.basis
    centred = build_basis(DomainSpec("periodic", (4.0, 4.0),
                                     tuple(0.5 * (lo + hi) for lo, hi in box)), 30.0)
    assert centred.modes == basis.modes
    M = gram_matrix(centred, S)
    classes = basis.sign_classes
    assert len(classes) == 4
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(op.n))
    label = np.empty(op.n, dtype=int)
    for i, c in enumerate(classes):
        label[c] = i
    assert np.max(np.abs(M[label[:, None] != label[None, :]])) <= 1e-15
    blocks = set_blocks(op, S, 30.0)
    for c, (modes, mu, B) in zip(classes, blocks):
        assert np.array_equal(modes, c) and np.array_equal(mu, op.eigvals[c])
        assert np.max(np.abs(B - M[np.ix_(c, c)])) <= 1e-14


def test_constant_refuses_missing_set_and_malformed_gram(dirichlet_op, half_interval_set):
    n = dirichlet_op.n
    with pytest.raises(ParameterError, match=rf"set or its \({n}, {n}\) gram"):
        spectral_ineq_constant(dirichlet_op, None, 4.0)
    with pytest.raises(ParameterError, match=rf"gram must be an \({n}, {n}\) array, not list"):
        spectral_ineq_constant(dirichlet_op, half_interval_set, 4.0, gram=[[1.0]])
    with pytest.raises(ParameterError, match=r"not shape \(2, 2\)"):
        spectral_ineq_constant(dirichlet_op, None, 4.0, gram=np.eye(2))
    with pytest.raises(ParameterError, match="needs a set"):
        spectral_ineq_sweep(dirichlet_op, None, [4.0])


@pytest.mark.parametrize("potential", [None, PotentialSpec(constant=0.5,
                                                           cosines=((0.4, (1, 2)),))])
def test_project_diagonal_matches_the_former_branches(potential):
    op = _op((TWO_PI, TWO_PI), 30.0, potential)
    M = galerkin_matrix(op.basis, PotentialSpec.indicator([(0.5, 2.0), (1.0, 3.0)]))
    idx = np.flatnonzero(op.eigvals <= 12.0)
    if op.is_diagonal:
        expect = np.diagonal(M)[idx]
    else:
        V = op.eigvecs[:, idx]
        expect = np.einsum("ij,ij->j", V, M @ V)
    assert np.array_equal(op.project_diagonal(M, idx), expect)
    assert np.allclose(op.project_diagonal(M, idx), np.diagonal(op.project(M, idx)),
                       rtol=0.0, atol=1e-13)


def test_single_box_turns_tiled_sets_and_families_away_without_building_boxes(monkeypatch):
    dom = DomainSpec.torus(TWO_PI, TWO_PI)
    box = ((0.4, 2.3), (0.2, 2.0))
    one_cell = ObservabilitySet.periodic((TWO_PI, TWO_PI), [box])
    tiled = ObservabilitySet.periodic((math.pi, math.pi), [box])
    family = ObservabilitySet(kind="equidistributed_balls", boxes=(box, ((3.0, 3.5),) * 2))
    assert geometry._single_box(dom, one_cell) == box
    monkeypatch.setattr(ObservabilitySet, "boxes_in_region", None)
    for S in (tiled, family, ObservabilitySet.full(), None):
        assert geometry._single_box(dom, S) is None
    # a cell that does not tile the torus is refused before any box is built
    with pytest.raises(ParameterError, match="^set period does not tile the torus$"):
        geometry._single_box(dom, ObservabilitySet.periodic((2.5, 2.5), [box]))
