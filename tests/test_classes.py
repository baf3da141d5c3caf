"""Bloch-Floquet mode classes of tori tiled by a periodic set.

A set of cell ``c`` on a torus of ``q`` cells per axis couples the modes
``k`` and ``k'`` only when ``|k| = +-|k'| (mod q)`` on every axis.  The set
Gram is checked to vanish off the classes, and every quantity computed class
by class is checked against the same problem run on one dense class.
"""

import dataclasses
import math

import numpy as np
import pytest

from heatctl import (ControlProblem, DomainSpec, ObservabilitySet, PotentialSpec,
                     active_passive_synthesize, build_basis, duhamel_solve, empirical_cost,
                     fit_uncertainty_form, galerkin_schrodinger, gram_matrix, gramian,
                     gramian_condition, make_equidistributed, EquidistributedSpec,
                     min_norm_control, spectral_ineq_constant, spectral_ineq_sweep,
                     worst_initial_state)
from heatctl.control import control_norm_at
from heatctl.geometry import mode_classes

TWO_PI = 2.0 * math.pi

# name: (torus sides, cell, box of the cell, e_max, number of classes)
TILINGS = {
    "1d_q4": ((8.0,), (2.0,), ((0.3, 1.4),), 60.0, 3),
    "2d_q2x2": ((TWO_PI, TWO_PI), (math.pi, math.pi), ((0.4, 2.3), (0.2, 2.0)), 20.0, 4),
    "2d_q2x3": ((4.0, 6.0), (2.0, 2.0), ((0.2, 1.5), (0.5, 1.8)), 14.0, 4),
    "2d_q5x5": ((TWO_PI, TWO_PI), (TWO_PI / 5,) * 2, ((0.1, 0.95), (0.2, 1.0)), 20.0, 9),
}


def _tiled(name):
    sides, cell, box, e_max, _ = TILINGS[name]
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(*sides), e_max))
    return op, ObservabilitySet.periodic(cell, [box])


def _problems(name, T=1.0):
    """The problem of a tiling, run on its classes and on one dense class."""
    op, S = _tiled(name)
    blocks = ControlProblem.from_set(op, S, T)
    dense = dataclasses.replace(blocks, classes=(np.arange(op.n),))
    return blocks, dense


def _fit(name):
    """The uncertainty fit that drives a tiling's active/passive synthesis."""
    op, S = _tiled(name)
    pairs = spectral_ineq_sweep(op, S, [1.0, 4.0, 16.0, 64.0])
    return fit_uncertainty_form([p for p in pairs if p[0] >= op.eigvals[0]], 0.5)


def _random_state(n):
    u0 = np.random.default_rng(7).standard_normal(n)
    return u0 / np.linalg.norm(u0)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _is_one_class(classes, n):
    """Exactly one class, holding every mode in ascending order."""
    return len(classes) == 1 and np.array_equal(classes[0], np.arange(n))


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_classes_partition_the_modes_by_residue(name):
    op, S = _tiled(name)
    classes = mode_classes(op, S)
    assert len(classes) == TILINGS[name][4]
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(op.n))
    q = np.array([round(s / c) for s, c in zip(TILINGS[name][0], S.cell)])
    r = np.abs(op.basis.mode_indices) % q
    r = np.minimum(r, q - r)
    for c in classes:
        assert np.all(np.diff(c) > 0)
        assert np.all(r[c] == r[c[0]])


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_gram_vanishes_off_the_classes(name):
    op, S = _tiled(name)
    M = gram_matrix(op.basis, S)
    off = np.ones_like(M, dtype=bool)
    for c in mode_classes(op, S):
        off[np.ix_(c, c)] = False
        assert np.any(M[np.ix_(c, c)])
    assert np.max(np.abs(M[off])) <= 1e-14


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_block_spectra_match_the_dense_spectra(name):
    blocks, dense = _problems(name)
    for M in (blocks.control_gram, gramian(blocks)):
        per_class = np.sort(np.concatenate([np.linalg.eigvalsh(M[np.ix_(c, c)])
                                            for c in blocks.classes]))
        full = np.linalg.eigvalsh(M)
        assert np.max(np.abs(per_class - full)) <= 1e-14 * full[-1]
    assert _rel(gramian_condition(blocks), gramian_condition(dense)) <= 1e-10
    for E in (1.0, 4.0, 9.0, TILINGS[name][3]):
        assert abs(spectral_ineq_constant(blocks.op, None, E, gram=blocks.control_gram)
                   - spectral_ineq_constant(blocks.op, _tiled(name)[1], E)) <= 1e-14


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_costs_match_the_dense_path(name):
    blocks, dense = _problems(name)
    assert len(blocks.classes) > 1
    c_T = empirical_cost(blocks)
    assert _rel(c_T, empirical_cost(dense)) <= 1e-12
    # the worst state lives in one class and costs C_T on both paths
    u0 = worst_initial_state(blocks)
    assert abs(np.linalg.norm(u0) - 1.0) <= 1e-12
    assert sum(bool(np.any(u0[c])) for c in blocks.classes) == 1
    blocks.u0 = dense.u0 = u0
    _, cost = min_norm_control(blocks)
    _, dense_cost = min_norm_control(dense)
    assert _rel(cost, dense_cost) <= 1e-12
    assert _rel(cost, c_T) <= 1e-10


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_active_passive_norms_match_the_dense_path(name):
    blocks, dense = _problems(name)
    fit = _fit(name)
    blocks.u0 = dense.u0 = _random_state(blocks.op.n)
    signal, report = active_passive_synthesize(blocks, fit)
    dense_signal, dense_report = active_passive_synthesize(dense, fit)
    assert _rel(signal.norm, dense_signal.norm) <= 1e-12
    for ph, dense_ph in zip(signal.phases, dense_signal.phases):
        assert abs(ph.norm_sq - dense_ph.norm_sq) <= 1e-12 * dense_signal.norm ** 2
    assert report.diagnostics["final_residual"] <= 1e-10


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_control_norm_is_the_dense_quadratic_form(name):
    problem, _ = _problems(name)
    problem.u0 = _random_state(problem.op.n)
    mu, mtil = problem.op.eigvals, problem.mtil()
    signals = (min_norm_control(problem)[0], active_passive_synthesize(problem, _fit(name))[0])
    passive = []
    for signal in signals:
        for ph in signal.phases:
            for s in np.linspace(ph.t_start, ph.t_end, 5):
                w = np.exp(-(ph.t_end - s) * mu) * ph.v
                exact = math.sqrt(max(float(w @ mtil @ w), 0.0))
                assert abs(control_norm_at(problem, signal, s) - exact) <= 1e-12 * exact
        ends = [ph.t_end for ph in signal.phases]
        starts = [ph.t_start for ph in signal.phases[1:]] + [problem.T]
        gaps = [0.5 * (a + b) for a, b in zip(ends, starts) if a < b]
        assert all(control_norm_at(problem, signal, s) == 0.0 for s in gaps)
        passive += gaps
    assert passive


def test_class_blocks_are_formed_once_per_problem_family(monkeypatch):
    problem, _ = _problems("2d_q2x2")
    formed = problem.class_blocks()
    assert len(formed) == len(problem.classes) > 1
    later = problem.with_time(0.5)
    assert later.class_blocks() is formed
    # a copy with other classes forms its own; the one class is a full view
    # of the dense Gram, sharing its memory
    dense = dataclasses.replace(later, classes=(np.arange(later.op.n),))
    (_, _, M), = dense.class_blocks()
    assert M.base is dense.control_gram and M.shape == dense.control_gram.shape
    assert np.array_equal(M, dense.control_gram)
    later.u0 = _random_state(later.op.n)
    signals = (min_norm_control(later)[0], active_passive_synthesize(later, _fit("2d_q2x2"))[0])
    calls = []
    ix_, mtil = np.ix_, ControlProblem.mtil
    monkeypatch.setattr(np, "ix_", lambda *a: calls.append(a) or ix_(*a))
    monkeypatch.setattr(ControlProblem, "mtil", lambda self: calls.append(self) or mtil(self))
    empirical_cost(later)
    for signal in signals:
        for t in duhamel_solve(later, signal, np.linspace(0.0, later.T, 33)).times:
            control_norm_at(later, signal, t)
    assert calls == []


def test_sets_that_do_not_tile_give_one_class():
    op, S = _tiled("2d_q2x2")
    extent = [(0.0, TWO_PI), (0.0, TWO_PI)]
    balls = make_equidistributed(EquidistributedSpec(G=math.pi, delta=0.5, seed=3), extent)
    whole_cell = ObservabilitySet.periodic((TWO_PI, TWO_PI), [((0.4, 2.3), (0.2, 2.0))])
    schrodinger = galerkin_schrodinger(op.basis, PotentialSpec.const(1.0))
    assert _is_one_class(mode_classes(op, balls), op.n)
    assert _is_one_class(mode_classes(op, whole_cell), op.n)
    assert _is_one_class(mode_classes(op, ObservabilitySet.full()), op.n)
    assert _is_one_class(mode_classes(schrodinger, S), op.n)
    # the one-class cases are decided before the modes are read
    no_modes = dataclasses.replace(op.basis, modes=None)
    for handle, T in ((op, balls), (op, whole_cell), (schrodinger, S)):
        assert _is_one_class(mode_classes(dataclasses.replace(handle, basis=no_modes), T), op.n)
    dirichlet = galerkin_schrodinger(build_basis(DomainSpec("dirichlet", (TWO_PI, TWO_PI)), 20.0))
    no_modes = dataclasses.replace(dirichlet.basis, modes=None)
    assert _is_one_class(mode_classes(dataclasses.replace(dirichlet, basis=no_modes), S),
                         dirichlet.n)


def test_potentials_and_direct_construction_give_one_class():
    op, S = _tiled("2d_q2x2")
    schrodinger = galerkin_schrodinger(op.basis, PotentialSpec.indicator(
        [(0.0, 1.0), (0.0, 1.0)], height=2.0))
    assert _is_one_class(ControlProblem.from_set(schrodinger, S, 1.0).classes, op.n)
    assert _is_one_class(ControlProblem.scalar(op, 1.0, 1.0).classes, op.n)
    assert _is_one_class(ControlProblem(op, gram_matrix(op.basis, S), 1.0).classes, op.n)
    tiled = ControlProblem.from_set(op, S, 1.0)
    assert tiled.with_time(2.0).classes is tiled.classes


def test_set_that_does_not_tile_the_torus_is_refused():
    op, _ = _tiled("2d_q2x2")
    S = ObservabilitySet.periodic((2.5, 2.5), [((0.1, 1.0), (0.1, 1.0))])
    with pytest.raises(ValueError, match="tile"):
        mode_classes(op, S)
