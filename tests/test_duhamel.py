"""Exact time stepping of Duhamel trajectories inside control phases.

States are checked against a 50-digit per-mode closed form
(``oracles.duhamel_mp``); the kernels against one per class and merged step
length, on the columns each phase steers; and the rows at 0, at phase
boundaries and at T against the direct closed form on those columns, bit for
bit.
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


def _merged(h, t_end):
    """The step lengths of ``h`` as the stepping merges them: each group
    stands for the steps within ``4 * np.spacing(t_end)`` of its smallest."""
    lead = []
    for step in np.unique(h):
        if not lead or step - lead[-1] > 4.0 * np.spacing(t_end):
            lead.append(float(step))
    return lead


def _steered_cols(ph, c):
    return len(c) if ph.mode_mask is None else int(ph.mode_mask[c].sum())


def _counted_kernels(monkeypatch, problem, signal, times):
    """``(trajectory, [(h, shape)] of every kernel formed by duhamel_solve)``."""
    calls = []
    phi = control._phi

    def counting(alpha, s):
        calls.append((float(alpha), np.shape(s)))
        return phi(alpha, s)

    monkeypatch.setattr(control, "_phi", counting)
    return duhamel_solve(problem, signal, times), calls


def _expected_kernels(problem, signal, traj):
    """The kernels of the phase ends, then of the merged steps: per class, on
    its rows and the columns the phase steers; an unmasked phase of length T
    reuses the cached Q_T kernels and forms no phase-end kernel."""
    anchors, stepped = [], []
    for ph, inside in zip(signal.phases, _phase_rows(traj, signal)):
        h = ph.t_end - ph.t_start
        if ph.mode_mask is not None or h != problem.T:
            anchors += [(h, (len(c), _steered_cols(ph, c))) for c in problem.classes]
        for step in _merged(np.diff(inside, prepend=ph.t_start), ph.t_end):
            stepped += [(step, (len(c), _steered_cols(ph, c))) for c in problem.classes]
    return anchors, stepped


@pytest.mark.parametrize("tiled", [False, True], ids=["one_class", "four_classes"])
@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_one_kernel_per_class_and_merged_step_length(monkeypatch, kind, tiled):
    problem = _bench_like_problem(tiled)
    signal = _signal(problem, kind)
    traj, calls = _counted_kernels(monkeypatch, problem, signal,
                                   _with_edges(problem, signal, 65))
    anchors, stepped = _expected_kernels(problem, signal, traj)
    assert calls == anchors + stepped
    merged = [_merged(np.diff(inside, prepend=ph.t_start), ph.t_end)
              for ph, inside in zip(signal.phases, _phase_rows(traj, signal))]
    if kind == "min-norm":
        # the uniform grid walks the one full-horizon phase with one kernel
        # per class, and its end is the cached Q_T kernels
        assert anchors == [] and len(merged) == 1 and len(merged[0]) == 1
        assert len(calls) == len(problem.classes)
    else:
        # a phase's first step and its uniform steps: at most two lengths
        assert all(1 <= len(steps) <= 2 for steps in merged)
        assert any(cols < rows for _, (rows, cols) in calls)
    if tiled:
        assert max(rows for _, (rows, _) in calls) < problem.op.n


def test_steps_jittered_by_ulps_share_one_kernel_per_class(monkeypatch):
    problem = _problem("torus")
    signal = _signal(problem, "min-norm")
    rng = np.random.default_rng(7)
    steps = np.diff(np.linspace(0.0, problem.T, 65))
    for i, (count, sign) in enumerate(zip(rng.integers(1, 4, steps.size),
                                          rng.choice([-1.0, 1.0], steps.size))):
        for _ in range(count):
            steps[i] = np.nextafter(steps[i], sign * math.inf)
    times = np.concatenate([[0.0], np.cumsum(steps)[:-1], [problem.T]])
    h = np.diff(times[:-1])
    assert np.unique(h).size > 1
    traj, calls = _counted_kernels(monkeypatch, problem, signal, times)
    assert len(problem.classes) == 4
    assert calls == [(h.min(), (len(c), len(c))) for c in problem.classes]
    monkeypatch.undo()
    _assert_matches_oracle(problem, signal, times)


def test_steps_1e12_apart_keep_separate_kernels(monkeypatch):
    problem = _problem("torus")
    signal = _signal(problem, "min-norm")
    h = problem.T / 64
    steps = np.tile([h, h + 1e-12], 32)[:-1]
    times = np.concatenate([[0.0], np.cumsum(steps), [problem.T]])
    traj, calls = _counted_kernels(monkeypatch, problem, signal, times)
    assert sorted({a for a, _ in calls}) == _merged(np.diff(times[:-1]), problem.T)
    assert len(calls) == 2 * len(problem.classes)
    monkeypatch.undo()
    _assert_matches_oracle(problem, signal, times)


def test_merged_steps_do_not_chain():
    tol = 4.0 * np.spacing(1.0)
    h = np.array([0.5, 0.5 + 0.6 * tol, 0.5 + 1.2 * tol, 0.5 + 0.6 * tol, 0.5])
    steps, group = control._merged_steps(h, tol)
    assert steps.tolist() == [0.5, 0.5 + 1.2 * tol]
    assert group.tolist() == [0, 0, 1, 0, 0]


def test_phase_with_a_mask_that_is_no_leading_run(monkeypatch):
    """A user-built phase may steer any modes: its kernels gather the columns
    it steers, and its states and control norms match the closed forms."""
    problem = _problem("interval")
    mtil, mu = problem.mtil(), problem.op.eigvals
    mask = np.arange(problem.op.n) % 2 == 0
    assert not mask[1] and mask[2]
    v = np.where(mask, np.random.default_rng(9).standard_normal(problem.op.n), 0.0)
    signal = ControlSignal(phases=(Phase(0.1, 0.7, v, mask, 0.0),))
    times = np.linspace(0.0, problem.T, 49)
    traj, calls = _counted_kernels(monkeypatch, problem, signal, times)
    assert {shape for _, shape in calls} == {(problem.op.n, int(mask.sum()))}
    monkeypatch.undo()
    _assert_matches_oracle(problem, signal, times)
    for s in (0.1, 0.4, 0.7):
        w = np.exp(-(0.7 - s) * mu) * v
        assert math.isclose(control.control_norm_at(problem, signal, s),
                            math.sqrt(w @ mtil @ w), rel_tol=1e-14)
    assert control.control_norm_at(problem, signal, 0.8) == 0.0


def _phase_end_closed_form(problem, u, ph):
    """The state at ``ph.t_end`` from ``u`` at its start, per class, with the
    kernel on the columns the phase steers."""
    mu, mtil = problem.op.eigvals, problem.mtil()
    beta = ph.t_end - ph.t_start
    u = u.copy()
    for c in problem.classes:
        cols = c if ph.mode_mask is None else c[ph.mode_mask[c]]
        kernel = mtil[np.ix_(c, cols)] * control._phi(beta, mu[c][:, None] + mu[cols][None, :])
        u[c] = np.exp(-beta * mu[c]) * u[c] - kernel @ ph.v[cols]
    return u


def _assert_edge_rows_keep_the_closed_form_bits(problem, kind):
    signal = _signal(problem, kind)
    traj = duhamel_solve(problem, signal, _with_edges(problem, signal, 65))
    mu = problem.op.eigvals
    u = problem.op.to_eigenbasis(problem.u0)
    expected = {0.0: u}
    t_prev = 0.0
    for ph in signal.phases:
        u = np.exp(-(ph.t_start - t_prev) * mu) * u
        expected[ph.t_start] = u
        u = _phase_end_closed_form(problem, u, ph)
        expected[ph.t_end] = u
        t_prev = ph.t_end
    if problem.T not in expected:
        expected[problem.T] = np.exp(-(problem.T - t_prev) * mu) * u
    rows = {float(t): s for t, s in zip(traj.times, traj.states)}
    for t, state in expected.items():
        assert np.array_equal(rows[t], state), t


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_rows_at_phase_edges_keep_the_closed_form_bits_per_class(kind):
    _assert_edge_rows_keep_the_closed_form_bits(_bench_like_problem(tiled=True), kind)


@pytest.mark.parametrize("kind", ["min-norm", "active-passive"])
def test_rows_at_zero_boundaries_and_horizon_keep_the_closed_form_bits(kind):
    _assert_edge_rows_keep_the_closed_form_bits(_bench_like_problem(), kind)


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
