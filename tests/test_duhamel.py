"""Exact time stepping of Duhamel trajectories inside control phases.

States are checked against a 50-digit per-mode closed form
(``oracles.duhamel_mp``); the kernel count against the distinct step
lengths; and the rows at 0, at phase boundaries and at T against the direct
closed form bit for bit.
"""

import math

import numpy as np
import pytest

from heatctl import (ControlProblem, ControlSignal, DomainSpec, ObservabilitySet,
                     ParameterError, PotentialSpec, active_passive_schedule,
                     active_passive_synthesize, build_basis, duhamel_solve,
                     fit_uncertainty_form, galerkin_schrodinger, min_norm_control,
                     spectral_ineq_constant, worst_initial_state)
from heatctl import control
from heatctl.control import Phase
from oracles import duhamel_mp

TWO_PI = 2.0 * math.pi
HALF_INTERVAL = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
TORUS_SET = ObservabilitySet.periodic((math.pi, math.pi), [((0.3, 1.9), (0.5, 2.0))])


def _problem(handle, e_max=None):
    """A problem on [0, 1] with its worst initial state: ``interval``
    (Dirichlet, n=6), ``torus`` (2D, n=21) or ``schrodinger`` (Dirichlet
    interval with an indicator potential, a non-diagonal handle, n=5)."""
    if handle == "torus":
        op = galerkin_schrodinger(build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 5.0))
        S = TORUS_SET
    else:
        schrodinger = handle == "schrodinger"
        basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"),
                            e_max or (25.0 if schrodinger else 36.0))
        potential = PotentialSpec.indicator([(0.0, 1.0)], height=3.0) if schrodinger else None
        op = galerkin_schrodinger(basis, potential)
        S = HALF_INTERVAL
    problem = ControlProblem.from_set(op, S, 1.0)
    problem.u0 = worst_initial_state(problem)
    return problem


def _signal(problem, kind):
    if kind == "min-norm":
        return min_norm_control(problem)[0]
    op = problem.op
    sched = active_passive_schedule(problem.T, max(float(op.eigvals[-1]), 1.0))
    pairs = [(E, spectral_ineq_constant(op, None, E, gram=problem.control_gram))
             for E in sched.E_j if E >= op.eigvals[0]]
    return active_passive_synthesize(problem, fit_uncertainty_form(pairs, 0.5))[0]


def _with_edges(problem, signal, points):
    edges = [t for ph in signal.phases for t in (ph.t_start, ph.t_end)]
    return np.unique(np.concatenate([np.linspace(0.0, problem.T, points), edges]))


def _assert_matches_oracle(problem, signal, times):
    traj = duhamel_solve(problem, signal, times)
    u0 = problem.op.to_eigenbasis(problem.u0)
    exact = duhamel_mp(problem.op.eigvals, problem.mtil(), u0,
                       [(ph.t_start, ph.t_end, ph.v) for ph in signal.phases], traj.times)
    err = np.max(np.abs(traj.states - exact))
    assert err <= 1e-13 * np.linalg.norm(u0), err
    return traj


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
@pytest.mark.parametrize("handle", ["interval", "torus", "schrodinger"])
def test_stepped_states_match_mpmath_oracle(handle, kind):
    problem = _problem(handle)
    signal = _signal(problem, kind)
    _assert_matches_oracle(problem, signal, _with_edges(problem, signal, 129 if
                                                        handle != "torus" else 65))


def test_irregular_first_steps_match_oracle():
    problem = _problem("interval")
    signal = _signal(problem, "active-passive")
    times = [ph.t_start + d for ph in signal.phases for d in (0.0137, 0.02, 0.0213)]
    times = np.concatenate([times, np.linspace(0.05, problem.T, 40)])
    _assert_matches_oracle(problem, signal, times)


def test_random_grid_of_distinct_steps_matches_oracle():
    problem = _problem("torus")
    signal = _signal(problem, "min-norm")
    times = np.sort(np.random.default_rng(3).uniform(0.0, problem.T, 60))
    assert np.unique(np.diff(times)).size == times.size - 1
    _assert_matches_oracle(problem, signal, times)


def _two_phases(problem, overlap):
    """Phases on [0, 0.4] and [0.4 - overlap, T] carrying unit-size vectors."""
    rng = np.random.default_rng(5)
    v1, v2 = rng.standard_normal((2, problem.op.n))
    mask = problem.op.eigvals <= 10.0
    return ControlSignal(phases=(Phase(0.0, 0.4, v1, None, 0.0),
                                 Phase(0.4 - overlap, problem.T, np.where(mask, v2, 0.0),
                                       mask, 0.0)))


@pytest.mark.parametrize("overlap", [0.0, 1e-13], ids=["touching", "overlap_1e-13"])
def test_adjacent_phases_match_oracle(overlap):
    problem = _problem("interval")
    signal = _two_phases(problem, overlap)
    offsets = [-1e-13, -3e-14, -1e-14, -1e-15, -1e-16, 0.0, 1e-16, 1e-15, 1e-14, 3e-14,
               1e-13]
    times = np.concatenate([np.linspace(0.0, problem.T, 97), 0.4 + np.array(offsets)])
    _assert_matches_oracle(problem, signal, times)


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_grid_points_just_off_phase_boundaries_match_oracle(kind):
    # a min-norm phase ends at T; active/passive phases end inside (0, T)
    problem = _problem("interval")
    signal = _signal(problem, kind)
    offsets = np.array([1e-16, 1e-15, 4e-15, 1e-14, 1e-13])
    edges = np.array([t for ph in signal.phases for t in (ph.t_start, ph.t_end)])
    near = (edges[:, None] + np.concatenate([-offsets, offsets])).ravel()
    times = np.concatenate([np.linspace(0.0, problem.T, 33), edges,
                            near[(near >= 0.0) & (near <= problem.T)]])
    _assert_matches_oracle(problem, signal, times)


@pytest.mark.parametrize("handle,e_max", [("interval", 100.0), ("schrodinger", 36.0)])
def test_stepping_stays_within_the_closed_form_floor(handle, e_max):
    """Active/passive phase vectors reach 1e4-1e5 here, so the forcing sums
    cancel and the closed form itself is 1e-13 to 4e-13 off the exact states
    at the bit-kept phase boundaries; the steps add nothing to that."""
    problem = _problem(handle, e_max)
    signal = _signal(problem, "active-passive")
    times = _with_edges(problem, signal, 65)
    traj = duhamel_solve(problem, signal, times)
    u0 = problem.op.to_eigenbasis(problem.u0)
    exact = duhamel_mp(problem.op.eigvals, problem.mtil(), u0,
                       [(ph.t_start, ph.t_end, ph.v) for ph in signal.phases], times)
    err = np.max(np.abs(traj.states - exact), axis=1)
    edges = np.isin(times, [t for ph in signal.phases for t in (ph.t_start, ph.t_end)])
    assert max(np.max(np.abs(ph.v)) for ph in signal.phases) > 1e4
    assert np.max(err[~edges]) <= max(np.max(err[edges]), 1e-13)


def _bench_like_problem(tiled=False):
    """2D torus, n=113, four boxes: the shape of a ``control-mix`` synthesis.

    ``tiled`` gives the boxes as one box per (pi, pi) cell, whose four mode
    classes run apart; otherwise they are the four boxes of the one
    (2 pi, 2 pi) cell, which couples every mode with every other.
    """
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 36.0))
    box = ((0.4, 2.1), (0.2, 1.8))
    if tiled:
        S = ObservabilitySet.periodic((math.pi, math.pi), [box])
    else:
        S = ObservabilitySet.periodic((TWO_PI, TWO_PI), [
            tuple((a + i * math.pi, b + i * math.pi) for (a, b), i in zip(box, shift))
            for shift in ((0, 0), (0, 1), (1, 0), (1, 1))])
    problem = ControlProblem.from_set(op, S, 0.8)
    assert len(problem.classes) == (4 if tiled else 1)
    problem.u0 = worst_initial_state(problem)
    return problem


def _phase_rows(traj, signal):
    """Per phase, the grid times strictly inside it (the stepped rows)."""
    t = traj.times
    return [t[(t > ph.t_start) & (t + 1e-15 < ph.t_end)] for ph in signal.phases]


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_one_kernel_per_distinct_step_length(monkeypatch, kind):
    problem = _bench_like_problem()
    signal = _signal(problem, kind)
    times = _with_edges(problem, signal, 65)
    calls = []
    phi = control._phi

    def counting(alpha, s):
        calls.append((alpha, np.shape(s)))
        return phi(alpha, s)

    monkeypatch.setattr(control, "_phi", counting)
    traj = duhamel_solve(problem, signal, times)
    n, phases = problem.op.n, signal.phases
    anchors, stepped = calls[:len(phases)], calls[len(phases):]
    assert anchors == [(ph.t_end - ph.t_start, (n, n)) for ph in phases]
    expected = []
    for ph, inside in zip(phases, _phase_rows(traj, signal)):
        steps = np.unique(np.diff(inside, prepend=ph.t_start))
        cols = n if ph.mode_mask is None else int(ph.mode_mask.sum())
        expected += [(float(h), (n, cols)) for h in steps]
    # one kernel per exact step length, on the phase's masked columns only
    assert sorted((float(a), shape) for a, shape in stepped) == sorted(expected)
    # fewer kernels than grid times inside the phases
    per_time = sum(inside.size for inside in _phase_rows(traj, signal))
    assert len(calls) <= len(phases) + len(expected) < len(phases) + per_time
    if kind == "active-passive":
        assert any(shape[1] < n for _, shape in stepped)


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_one_kernel_per_class_and_distinct_step_length(monkeypatch, kind):
    problem = _bench_like_problem(tiled=True)
    signal = _signal(problem, kind)
    times = _with_edges(problem, signal, 65)
    calls = []
    phi = control._phi

    def counting(alpha, s):
        calls.append((alpha, np.shape(s)))
        return phi(alpha, s)

    monkeypatch.setattr(control, "_phi", counting)
    traj = duhamel_solve(problem, signal, times)
    sizes = [len(c) for c in problem.classes]
    phases = signal.phases
    # every phase end: one kernel per class, rows and columns the class
    anchors, stepped = calls[:len(phases) * len(sizes)], calls[len(phases) * len(sizes):]
    assert anchors == [(ph.t_end - ph.t_start, (k, k)) for ph in phases for k in sizes]
    expected = []
    for ph, inside in zip(phases, _phase_rows(traj, signal)):
        steps = np.unique(np.diff(inside, prepend=ph.t_start))
        for c in problem.classes:
            cols = len(c) if ph.mode_mask is None else int(ph.mode_mask[c].sum())
            expected += [(float(h), (len(c), cols)) for h in steps if cols]
    # one kernel per class and exact step length, on the class's masked columns
    assert sorted((float(a), shape) for a, shape in stepped) == sorted(expected)
    assert max(shape[0] for _, shape in calls) < problem.op.n
    if kind == "active-passive":
        assert any(shape[1] < shape[0] for _, shape in stepped)


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_rows_at_phase_edges_keep_the_closed_form_bits_per_class(kind):
    problem = _bench_like_problem(tiled=True)
    signal = _signal(problem, kind)
    traj = duhamel_solve(problem, signal, _with_edges(problem, signal, 65))
    mu, mtil = problem.op.eigvals, problem.mtil()
    u = problem.op.to_eigenbasis(problem.u0)
    expected = {0.0: u}
    t_prev = 0.0
    for ph in signal.phases:
        u = np.exp(-(ph.t_start - t_prev) * mu) * u
        expected[ph.t_start] = u
        beta = ph.t_end - ph.t_start
        u = u.copy()
        for c in problem.classes:
            kernel = mtil[np.ix_(c, c)] * control._phi(beta, mu[c][:, None] + mu[c][None, :])
            u[c] = np.exp(-beta * mu[c]) * u[c] - kernel @ ph.v[c]
        expected[ph.t_end] = u
        t_prev = ph.t_end
    if problem.T not in expected:
        expected[problem.T] = np.exp(-(problem.T - t_prev) * mu) * u
    rows = {float(t): s for t, s in zip(traj.times, traj.states)}
    for t, state in expected.items():
        assert np.array_equal(rows[t], state), t


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_rows_at_zero_boundaries_and_horizon_keep_the_closed_form_bits(kind):
    problem = _bench_like_problem()
    signal = _signal(problem, kind)
    traj = duhamel_solve(problem, signal, _with_edges(problem, signal, 65))
    mu, mtil = problem.op.eigvals, problem.mtil()
    u = problem.op.to_eigenbasis(problem.u0)
    expected = {0.0: u}
    t_prev = 0.0
    for ph in signal.phases:
        u = np.exp(-(ph.t_start - t_prev) * mu) * u
        expected[ph.t_start] = u
        beta = ph.t_end - ph.t_start
        u = np.exp(-beta * mu) * u - (mtil * control._phi(beta, mu[:, None] + mu[None, :])) @ ph.v
        expected[ph.t_end] = u
        t_prev = ph.t_end
    if problem.T not in expected:
        expected[problem.T] = np.exp(-(problem.T - t_prev) * mu) * u
    rows = {float(t): s for t, s in zip(traj.times, traj.states)}
    for t, state in expected.items():
        assert np.array_equal(rows[t], state), t


@pytest.mark.parametrize("grid", [[], [0.1, math.nan], [math.inf], [[0.1, 0.2]]],
                         ids=["empty", "nan", "inf", "nested"])
def test_time_grid_must_be_finite_and_non_empty(grid):
    problem = _problem("interval")
    signal = _signal(problem, "min-norm")
    with pytest.raises(ParameterError, match="time grid"):
        duhamel_solve(problem, signal, grid)


def test_phase_vector_must_vanish_outside_its_mask():
    mask = np.array([True, False])
    Phase(0.0, 1.0, np.array([1.0, 0.0]), mask, 0.0)
    with pytest.raises(ParameterError, match="mask"):
        Phase(0.0, 1.0, np.array([1.0, 1e-300]), mask, 0.0)
