import math

import numpy as np
import pytest

from heatctl import (CapacityError, ConditioningError, ControlProblem, ControlSignal,
                     DomainSpec, ObservabilitySet, ParameterError,
                     active_passive_schedule, active_passive_synthesize,
                     build_basis, douglas_factorize, duhamel_solve,
                     empirical_cost, fit_uncertainty_form, galerkin_schrodinger,
                     gramian, gramian_condition, min_norm_control, PotentialSpec,
                     spectral_ineq_constant, spectral_ineq_sweep,
                     worst_initial_state)
from heatctl.control import Phase
from oracles import control_cost_mp, douglas_sup_ratio, quad_gram


def scalar_op(boundary="neumann", e_max=0.5):
    basis = build_basis(DomainSpec.interval(0.0, math.pi, boundary), e_max)
    return galerkin_schrodinger(basis)


def single_heat_mode_op():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 1.0)
    return galerkin_schrodinger(basis)


def test_gramian_kernel_mode_full_control():
    op = scalar_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 3.0)
    assert np.allclose(gramian(prob), [[3.0]], rtol=1e-15)


def test_gramian_single_mode():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0)
    assert abs(gramian(prob)[0, 0] - (1 - math.exp(-2)) / 2) < 1e-15


def test_gramian_empty_set():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.empty(), 1.0)
    assert np.array_equal(gramian(prob), [[0.0]])
    assert gramian_condition(prob) == math.inf
    with pytest.raises(ConditioningError):
        empirical_cost(prob)


def test_min_norm_scalar_system():
    # A = 0, B = multiplication by c, T = 4: cost is 1/(2|c|)
    for c in (1.0, 0.5, 2.0):
        prob = ControlProblem.scalar(scalar_op(), c, 4.0, u0=np.array([1.0]))
        _, cost = min_norm_control(prob)
        assert abs(cost - 1.0 / (2 * abs(c))) < 1e-12


def test_min_norm_single_heat_mode():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0,
                                   u0=np.array([1.0]))
    signal, cost = min_norm_control(prob)
    expect = math.exp(-1.0) / math.sqrt((1 - math.exp(-2)) / 2)
    assert abs(cost - expect) < 1e-12
    traj = duhamel_solve(prob, signal, [0.0, 0.5, 1.0])
    assert traj.final_norm() <= 1e-12


def test_min_norm_zero_state():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0,
                                   u0=np.array([0.0]))
    signal, cost = min_norm_control(prob)
    assert cost == 0.0 and signal.phases == ()


def test_empirical_cost_scalar_exact():
    op = scalar_op()
    for T in (0.25, 1.0, 4.0):
        prob = ControlProblem.from_set(op, ObservabilitySet.full(), T)
        assert abs(empirical_cost(prob) - 1.0 / math.sqrt(T)) < 1e-12


def test_empirical_cost_weighted_kernel_mode():
    op = scalar_op()
    g = 0.35
    S = ObservabilitySet.periodic((math.pi,), [((0.0, g * math.pi),)])
    prob = ControlProblem.from_set(op, S, 2.0)
    assert abs(empirical_cost(prob) - 1.0 / math.sqrt(g * 2.0)) < 1e-10


def test_empirical_cost_matches_min_norm_sup(dirichlet_op, half_interval_set):
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0)
    c_emp = empirical_cost(prob)
    prob.u0 = worst_initial_state(prob)
    _, cost = min_norm_control(prob)
    assert abs(cost - c_emp) < 1e-8 * c_emp
    rng = np.random.default_rng(11)
    for _ in range(20):
        u0 = rng.standard_normal(dirichlet_op.n)
        prob.u0 = u0 / np.linalg.norm(u0)
        _, cost = min_norm_control(prob)
        assert cost <= c_emp * (1 + 1e-10)


def test_duality_identity_on_random_states(dirichlet_op, half_interval_set):
    # ratio ||e^{-TA}u0||^2 / int ||B* e^{-tA}u0||^2 never exceeds C_T^2 and a
    # maximizing eigenvector attains it (generalized eigensolver oracle)
    import scipy.linalg
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0)
    c2 = empirical_cost(prob) ** 2
    Q = gramian(prob)
    mu = dirichlet_op.eigvals
    E2 = np.diag(np.exp(-2 * prob.T * mu))
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.standard_normal(dirichlet_op.n)
        ratio = (z @ E2 @ z) / (z @ Q @ z)
        assert ratio <= c2 * (1 + 1e-10)
    lam, vecs = scipy.linalg.eigh(E2, Q)
    assert abs(lam[-1] - c2) < 1e-6 * c2
    z = vecs[:, -1]
    attained = (z @ E2 @ z) / (z @ Q @ z)
    assert abs(attained - c2) < 1e-6 * c2


def test_small_time_cost_matches_quadrature_oracle():
    # problem and grid of acceptance criterion 10: Dirichlet (0, pi), e_max 49,
    # S = (0, pi - 1/2); the Gram comes from quadrature, the eigenvalues k^2
    # and the Gramian M_ij (1 - e^{-(mu_i + mu_j) T}) / (mu_i + mu_j) from
    # closed forms, and C_T^2 = lambda_max(e^{-TA} Q_T^{-1} e^{-TA})
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 49.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi - 0.5),)])
    prob = ControlProblem.from_set(op, S, 1.0)
    M = quad_gram(basis, [((0.0, math.pi - 0.5),)])
    mu = np.array([float(k) ** 2 for (k,) in basis.modes])
    s = mu[:, None] + mu[None, :]
    t_min = math.log(1e3) / 49.0
    for T in np.geomspace(t_min, 4 * t_min, 8):
        Q = M * (1.0 - np.exp(-s * T)) / s
        E = np.diag(np.exp(-T * mu))
        A = E @ np.linalg.solve(Q, E)
        oracle = math.sqrt(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
        got = empirical_cost(prob.with_time(T))
        assert abs(got - oracle) <= 1e-12 * oracle


def test_cost_monotone_in_time(dirichlet_op, half_interval_set):
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0)
    costs = [empirical_cost(prob.with_time(T)) for T in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(costs[:-1], costs[1:]))


def test_large_time_kernel_mode_limit():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "neumann"), 25.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((math.pi / 4, 3 * math.pi / 4),)])
    g = np.diag(np.eye(op.n))  # placeholder to document g below
    from heatctl import gram_matrix
    g = gram_matrix(basis, S)[0, 0]
    prob = ControlProblem.from_set(op, S, 1.0)
    v50 = empirical_cost(prob.with_time(50.0)) * math.sqrt(50.0)
    v100 = empirical_cost(prob.with_time(100.0)) * math.sqrt(100.0)
    assert abs(v50 - v100) / v100 < 0.01
    assert abs(v100 - 1.0 / math.sqrt(g)) / (1.0 / math.sqrt(g)) < 0.01


def test_large_time_spectral_gap_decay(dirichlet_op, half_interval_set):
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0)
    kappa = dirichlet_op.eigvals[0]
    c1 = empirical_cost(prob.with_time(1.0))
    for T in (2.0, 5.0, 10.0):
        cT = empirical_cost(prob.with_time(T))
        assert cT <= math.exp(-kappa * (T - 1.0)) * c1 * (1 + 1e-9)


def test_duhamel_free_evolution(dirichlet_op):
    prob = ControlProblem.from_set(dirichlet_op, ObservabilitySet.full(), 1.0,
                                   u0=np.ones(dirichlet_op.n))
    traj = duhamel_solve(prob, ControlSignal.zero(), [0.0, 0.3, 1.0])
    expect = np.exp(-1.0 * dirichlet_op.eigvals)
    assert np.allclose(traj.states[-1], expect, rtol=1e-14)


def test_duhamel_constant_forcing_kernel_mode():
    op = scalar_op()
    c0 = 0.8
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 2.0,
                                   u0=np.array([1.0]))
    signal = ControlSignal(phases=(Phase(0.0, 2.0, np.array([-c0]), None, 0.0),))
    traj = duhamel_solve(prob, signal, [0.0, 1.0, 2.0])
    assert abs(traj.states[-1][0] - (1.0 + c0 * 2.0)) < 1e-12


def test_duhamel_continuity_at_phase_boundaries(dirichlet_op, half_interval_set):
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0,
                                   u0=np.eye(dirichlet_op.n)[0])
    pairs = spectral_ineq_sweep(dirichlet_op, half_interval_set,
                                [1.0, 4.0, 16.0, 64.0, 256.0])
    fit = fit_uncertainty_form(pairs, 0.5)
    signal, _ = active_passive_synthesize(prob, fit)
    eps = 1e-9
    for ph in signal.phases:
        for edge in (ph.t_start, ph.t_end):
            if edge - eps < 0 or edge + eps > prob.T:
                continue
            traj = duhamel_solve(prob, signal, [edge - eps, edge, edge + eps])
            jumps = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
            assert np.all(jumps < 1e-6)  # continuous up to O(eps * mu * state)


def test_schedule_values():
    sched = active_passive_schedule(1.0, 1.0)
    assert abs(sched.K - (1 - 2 ** -0.5) / 2) < 1e-15
    assert abs(sched.a[1] - 2 * sched.K) < 1e-15
    sched2 = active_passive_schedule(2.0, 1.0)
    assert abs(sched2.K - 2 * sched.K) < 1e-15
    assert np.allclose(np.array(sched2.a), 2 * np.array(sched.a))


@pytest.mark.parametrize("T, e_cap, error, message", [
    (0.0, 16.0, ParameterError, "T must be positive"),
    (-1.0, 16.0, ParameterError, "T must be positive"),
    (1.0, 0.0, ParameterError, "e_cap must be positive"),
    (1.0, 1e40, CapacityError, "schedule exceeds 60 dyadic levels"),
])
def test_schedule_refusals(T, e_cap, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        active_passive_schedule(T, e_cap)


def test_schedule_cap():
    sched = active_passive_schedule(1.0, 16.0)
    assert sched.J == 2
    assert sched.E_j == (1.0, 4.0, 16.0)
    assert sched.a[-2] + sched.T_j[-1] < 1.0  # a_J + T_J strictly below T


def test_synthesize_single_phase_degenerate():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0,
                                   u0=np.array([1.0]))
    fit = fit_uncertainty_form([(1.0, 1.0), (4.0, 1.0), (16.0, 1.0)], 0.5)
    signal, report = active_passive_synthesize(prob, fit)
    assert len(signal.phases) == 1
    assert report.diagnostics["final_residual"] <= 1e-10
    # state vanishes right after the single active phase
    t_end = signal.phases[0].t_end
    traj = duhamel_solve(prob, signal, [t_end, 0.7, 1.0])
    assert np.all(traj.norms < 1e-10)


def test_synthesize_full_problem(dirichlet_op_16=None):
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 16.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
    u0 = np.zeros(op.n)
    u0[0] = 1.0
    prob = ControlProblem.from_set(op, S, 1.0, u0=u0)
    sched = active_passive_schedule(1.0, op.eigvals[-1])
    pairs = spectral_ineq_sweep(op, S, sched.E_j)
    fit = fit_uncertainty_form(pairs, 0.5)
    signal, report = active_passive_synthesize(prob, fit)
    assert report.diagnostics["final_residual"] <= 1e-8
    for row in report.diagnostics["phases"]:
        assert row["low_mode_residual"] <= 1e-8
        assert row["bound_ok"]
        assert row["decay_ratio"] <= row["decay_bound"] * (1 + 1e-9)
    _, min_cost = min_norm_control(prob)
    assert report.diagnostics["total_norm"] >= min_cost


def test_conditioning_error_reported():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 400.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, 0.2),)])
    prob = ControlProblem.from_set(op, S, 0.01, u0=np.eye(op.n)[0])
    cond = gramian_condition(prob)
    assert cond > 1e12
    # every capped call refuses on its own, from the one shared factorization
    for call in (worst_initial_state, min_norm_control, empirical_cost):
        with pytest.raises(ConditioningError) as err:
            call(prob)
        assert err.value.condition_number == cond
    assert gramian_condition(prob) == cond


def _record_decompositions(monkeypatch, names=("eigh", "eigvalsh")):
    """Copies of every matrix handed to the ``np.linalg`` functions ``names``
    (the first argument of ``solve``)."""
    seen = []
    for name in names:
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kw):
            seen.append(np.array(a))
            return _original(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def _count(seen, M):
    return sum(1 for A in seen if A.shape == M.shape and np.array_equal(A, M))


def _decompositions_of_gramian(seen, prob):
    Q = gramian(prob)
    return _count(seen, 0.5 * (Q + Q.T))


def test_gramian_decomposed_once_per_problem(dirichlet_op, half_interval_set,
                                             monkeypatch):
    prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 0.5)
    seen = _record_decompositions(monkeypatch)
    prob.u0 = worst_initial_state(prob)
    _, cost = min_norm_control(prob)
    c_T = empirical_cost(prob)
    cond = gramian_condition(prob)
    assert _decompositions_of_gramian(seen, prob) == 1
    # the other two decompose exp(-TA) Q_T^{-1} exp(-TA), once each
    assert len(seen) == 3
    assert abs(cost - c_T) <= 1e-10 * c_T
    assert 1.0 < cond < 1e12

    later = prob.with_time(1.0)
    seen.clear()
    empirical_cost(later)
    assert gramian_condition(later) != cond
    min_norm_control(later)
    assert _decompositions_of_gramian(seen, later) == 1
    assert len(seen) == 2


@pytest.mark.parametrize("classes", [1, 4])
def test_gramian_blocks_are_factored_once_and_never_reach_eigh(
        classes, dirichlet_op, half_interval_set, monkeypatch):
    if classes == 1:
        prob = ControlProblem.from_set(dirichlet_op, half_interval_set, 1.0)
    else:
        op = galerkin_schrodinger(build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 20.0))
        S = ObservabilitySet.periodic((math.pi, math.pi), [((0.3, 2.0), (0.5, 2.4))])
        prob = ControlProblem.from_set(op, S, 1.0)
    eighs = _record_decompositions(monkeypatch, ("eigh",))
    eigvalshs = _record_decompositions(monkeypatch, ("eigvalsh",))
    choleskys = _record_decompositions(monkeypatch, ("cholesky",))
    solves = _record_decompositions(monkeypatch, ("solve",))
    prob.u0 = worst_initial_state(prob)
    min_norm_control(prob)
    empirical_cost(prob)
    gramian_condition(prob)
    blocks = prob.gramian_factor.blocks
    assert len(blocks) == len(prob.classes) == classes
    assert len(choleskys) == len(blocks)
    for Q in blocks:
        assert _count(eighs, Q) == 0
        assert _count(eigvalshs, Q) == 1
        assert _count(choleskys, np.ascontiguousarray(Q[::-1, ::-1])) == 1
        assert _count(solves, Q) == 1  # the steering of min_norm_control
    # a later horizon factors its own Gramian: nothing cached carries over
    assert empirical_cost(prob.with_time(2.0 * prob.T)) < empirical_cost(prob)

    # an active/passive synthesis steers every phase by LU solves alone
    choleskys.clear()
    fit = fit_uncertainty_form([(1.0, 0.1), (4.0, 0.05), (16.0, 0.02)], 0.5)
    active_passive_synthesize(prob, fit)
    assert choleskys == []


@pytest.mark.parametrize("N,T,tol", [(10, 1.0, 1e-12), (10, 0.2, 1e-12), (10, 0.1, 2e-12),
                                     (20, 1.0, 1e-9)])
def test_control_cost_matches_mpmath_oracle(half_interval_set, N, T, tol):
    # Dirichlet (0, pi) with the set (0, pi/2) on the first N modes; the
    # Gramian's condition number grows from 1.8e5 (N=10, T=1) to 1.5e10
    # (N=20, T=1)
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), float(N * N))
    prob = ControlProblem.from_set(galerkin_schrodinger(basis), half_interval_set, T)
    assert prob.op.n == N
    oracle = control_cost_mp(N, T, math.pi / 2, 60)
    assert abs(empirical_cost(prob) - oracle) <= tol * oracle


def test_synthesize_cutoff_below_lowest_eigenvalue():
    # a constant potential 2 lifts the spectrum above the first cutoff E_0 = 1
    two_pi = 2 * math.pi
    basis = build_basis(DomainSpec.torus(two_pi, two_pi), 20.0)
    op = galerkin_schrodinger(basis, PotentialSpec(constant=2.0))
    h = two_pi / 4
    S = ObservabilitySet.periodic(
        (two_pi, two_pi), [((i * h, (i + 0.6) * h),) * 2 for i in range(4)])
    prob = ControlProblem.from_set(op, S, 1.0)
    assert op.n == 69 and op.eigvals[0] > 1.0
    prob.u0 = worst_initial_state(prob)
    sched = active_passive_schedule(prob.T, op.eigvals[-1])
    pairs = [(E, spectral_ineq_constant(op, None, E, gram=prob.control_gram))
             for E in sched.E_j if E >= op.eigvals[0]]
    fit = fit_uncertainty_form(pairs, 0.5)
    signal, report = active_passive_synthesize(prob, fit)
    rows = report.diagnostics["phases"]
    assert len(rows) == len(sched.E_j)
    assert not signal.phases[0].mode_mask.any()
    assert not np.any(signal.phases[0].v)
    assert rows[0]["norm_sq"] == 0.0 and rows[0]["low_mode_residual"] == 0.0
    for row in rows[1:]:
        assert row["low_mode_residual"] <= 1e-8
    assert report.diagnostics["final_residual"] <= 1e-10


def test_douglas_identity_cases():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((4, 4))
    res = douglas_factorize(Y, Y)
    assert res.range_inclusion and abs(res.c_min - 1.0) < 1e-10
    assert np.allclose(res.z_min, np.eye(4), atol=1e-10)
    res2 = douglas_factorize(2 * Y, Y)
    assert abs(res2.c_min - 2.0) < 1e-10


def test_douglas_refuses_maps_into_different_spaces():
    with pytest.raises(ParameterError, match="^X and Y must map into the same space$"):
        douglas_factorize(np.eye(3), np.eye(2))


def test_douglas_with_zero_y_includes_only_zero_x():
    Y = np.zeros((3, 2))
    res = douglas_factorize(np.zeros((3, 4)), Y)
    assert res.range_inclusion and res.c_min == 0.0 and res.rank == 0
    assert np.array_equal(res.z_min, np.zeros((2, 4)))
    X = np.array([[3.0], [4.0], [0.0]])
    res = douglas_factorize(X, Y)
    assert not res.range_inclusion and res.z_min is None and res.rank == 0
    assert res.residual == 5.0

def test_douglas_rank_deficient_example():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    Y = np.array([[2.0, 0.0], [0.0, 1.0]])
    res = douglas_factorize(X, Y)
    assert res.range_inclusion
    assert abs(res.c_min - 0.5) < 1e-12
    assert np.allclose(res.z_min, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)
    assert abs(douglas_sup_ratio(X, Y) - 0.5) < 1e-12


def test_douglas_random_inclusions_and_violations():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n, m, k = rng.integers(2, 7, size=3)
        r = int(rng.integers(1, min(n, m) + 1))
        Y = (rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))
        Z = rng.standard_normal((m, k))
        X = Y @ Z
        res = douglas_factorize(X, Y, tol=1e-10)
        assert res.range_inclusion
        assert np.max(np.abs(Y @ res.z_min - X)) < 1e-10
        assert abs(res.c_min - douglas_sup_ratio(X, Y)) < 1e-8 * max(res.c_min, 1)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        r = n - 1
        Y = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        U, s, Vt = np.linalg.svd(Y)
        outside = U[:, -1:]  # direction orthogonal to Ran Y
        X = Y @ rng.standard_normal((n, 2))
        X[:, :1] += outside * (1.0 + rng.random())
        res = douglas_factorize(X, Y, tol=1e-10)
        assert not res.range_inclusion
        assert res.residual > 0.5


# Douglas's lemma with X = exp(-TA) and Y = Q_T^{1/2}: Ran X lies in Ran Y, and
# c_min = ||Y^+ X|| is the best c in ||exp(-TA) z|| <= c ||Q_T^{1/2} z||, the
# final-state observability constant C_T.  Y comes from the dense Gramian, so
# on the torus the class-by-class cost is checked against a dense route.
DOUGLAS_CASES = {
    # name: (domain, e_max, (cell, boxes), horizons, number of classes)
    "interval": (DomainSpec.interval(0.0, math.pi, "dirichlet"), 49.0,
                 ((math.pi,), [((0.0, math.pi / 2),)]), (0.3,), 1),
    "torus_2x2": (DomainSpec.torus(2 * math.pi, 2 * math.pi), 20.0,
                  ((math.pi, math.pi), [((0.3, 2.0), (0.5, 2.4))]), (0.5, 1.0, 2.0), 4),
}


@pytest.mark.parametrize("case", sorted(DOUGLAS_CASES))
def test_douglas_factor_gives_the_control_cost(case):
    domain, e_max, (cell, boxes), horizons, n_classes = DOUGLAS_CASES[case]
    op = galerkin_schrodinger(build_basis(domain, e_max))
    prob = ControlProblem.from_set(op, ObservabilitySet.periodic(cell, boxes), 1.0)
    assert len(prob.classes) == n_classes
    for T in horizons:
        p = prob.with_time(T)
        w, V = np.linalg.eigh(gramian(p))
        res = douglas_factorize(np.diag(np.exp(-T * op.eigvals)), (V * np.sqrt(w)) @ V.T)
        assert res.range_inclusion
        assert abs(res.c_min - empirical_cost(p)) <= 1e-13 * res.c_min


def test_signal_phase_validation():
    with pytest.raises(ParameterError):
        ControlSignal(phases=(Phase(0.5, 0.2, np.array([1.0]), None, 0.0),))
    # a signal's norm is the root of its phases' norm_sq, so a phase carries one
    with pytest.raises(ParameterError, match="^phase needs norm_sq, the squared norm of its"):
        Phase(0.0, 1.0, np.array([1.0]))
    v = np.array([1.0])
    assert ControlSignal((Phase(0.0, 0.5, v, None, 4.0), Phase(0.5, 1.0, v, None, 5.0))).norm == 3.0


FLAT_FIT = fit_uncertainty_form([(1.0, 1.0), (4.0, 1.0), (16.0, 1.0)], 0.5)


@pytest.mark.parametrize("read", [
    min_norm_control,
    lambda problem: duhamel_solve(problem, ControlSignal.zero(), [0.0, 1.0]),
    lambda problem: active_passive_synthesize(problem, FLAT_FIT),
], ids=["min_norm_control", "duhamel_solve", "active_passive_synthesize"])
def test_initial_state_is_checked_where_it_is_read(read):
    op = single_heat_mode_op()
    with pytest.raises(ParameterError, match="^problem has no initial state$"):
        read(ControlProblem.from_set(op, ObservabilitySet.full(), 1.0))
    # a wrong length given at construction or assigned later is refused alike
    given = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0, u0=np.ones(2))
    assigned = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0)
    assigned.u0 = [1.0, 0.0]
    for problem in (given, assigned):
        with pytest.raises(ParameterError,
                           match=r"^u0 has wrong length: shape \(2,\), expected \(1,\)$"):
            read(problem)
    assigned.u0 = [1.0]
    read(assigned)


def test_control_gram_of_the_wrong_shape_is_refused():
    op = single_heat_mode_op()
    with pytest.raises(ParameterError, match="^control Gram has wrong shape$"):
        ControlProblem(op, np.eye(2), 1.0)


def test_duhamel_refuses_phases_and_times_outside_the_horizon():
    op = single_heat_mode_op()
    prob = ControlProblem.from_set(op, ObservabilitySet.full(), 1.0, u0=np.array([1.0]))
    late = ControlSignal((Phase(0.5, 1.5, np.array([1.0]), None, 1.0),))
    with pytest.raises(ParameterError, match=r"^signal phases must lie within \[0, T\]$"):
        duhamel_solve(prob, late, [0.0, 1.0])
    for t_grid in ([0.0, 1.5], [-0.5, 1.0]):
        with pytest.raises(ParameterError, match=r"^time grid must lie within \[0, T\]$"):
            duhamel_solve(prob, ControlSignal.zero(), t_grid)


def _ivp_oracle(problem, signal, t_end):
    """Independent route: integrate u' = -A u - M w(t) with an ODE solver."""
    from scipy.integrate import solve_ivp
    mu = problem.op.eigvals
    mtil = problem.mtil()

    def forcing(t):
        for ph in signal.phases:
            if ph.t_start <= t <= ph.t_end:
                return mtil @ (np.exp(-(ph.t_end - t) * mu) * ph.v)
        return np.zeros_like(mu)

    def rhs(t, u):
        return -mu * u - forcing(t)

    u0 = problem.op.to_eigenbasis(problem.u0)
    sol = solve_ivp(rhs, (0.0, t_end), u0, rtol=1e-11, atol=1e-13,
                    max_step=0.01, dense_output=False)
    return sol.y[:, -1]


def test_duhamel_matches_ode_integrator():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 16.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
    u0 = np.array([1.0, -0.4, 0.2, 0.1])
    prob = ControlProblem.from_set(op, S, 1.0, u0=u0)
    signal, _ = min_norm_control(prob)
    for t in (0.3, 0.7, 1.0):
        closed = duhamel_solve(prob, signal, [t]).states[0]
        stepped = _ivp_oracle(prob, signal, t)
        assert np.max(np.abs(closed - stepped)) < 1e-8


def test_multiphase_duhamel_matches_ode_integrator():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 16.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
    u0 = np.eye(op.n)[0]
    prob = ControlProblem.from_set(op, S, 1.0, u0=u0)
    pairs = spectral_ineq_sweep(op, S, [1.0, 4.0, 16.0])
    fit = fit_uncertainty_form(pairs, 0.5)
    signal, _ = active_passive_synthesize(prob, fit)
    for t in (0.25, 0.6, 1.0):
        closed = duhamel_solve(prob, signal, [t]).states[0]
        stepped = _ivp_oracle(prob, signal, t)
        assert np.max(np.abs(closed - stepped)) < 1e-7


def test_control_with_schrodinger_operator():
    # non-diagonal generator: the whole chain must run through the eigenbasis
    from heatctl import PotentialSpec
    import scipy.linalg
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 25.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.0, 1.0)], height=3.0))
    assert not op.is_diagonal
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
    prob = ControlProblem.from_set(op, S, 1.0)
    c_emp = empirical_cost(prob)
    prob.u0 = worst_initial_state(prob)
    signal, cost = min_norm_control(prob)
    assert abs(cost - c_emp) < 1e-8 * c_emp
    assert duhamel_solve(prob, signal, [1.0]).final_norm() <= 1e-8
    # duality oracle in the eigenbasis
    Q = gramian(prob)
    E2 = np.diag(np.exp(-2.0 * op.eigvals))
    lam = scipy.linalg.eigh(E2, Q, eigvals_only=True)
    assert abs(math.sqrt(lam[-1]) - c_emp) < 1e-8 * c_emp
    # and against the stepped integrator
    stepped = _ivp_oracle(prob, signal, 1.0)
    assert np.max(np.abs(stepped)) < 1e-7


def test_per_phase_projections_via_trajectory():
    # re-derive the post-phase states through the trajectory path and check
    # the low-mode projections vanish at each active-phase end
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 16.0)
    op = galerkin_schrodinger(basis)
    S = ObservabilitySet.periodic((math.pi,), [((0.0, math.pi / 2),)])
    prob = ControlProblem.from_set(op, S, 1.0, u0=np.eye(op.n)[0])
    pairs = spectral_ineq_sweep(op, S, [1.0, 4.0, 16.0])
    fit = fit_uncertainty_form(pairs, 0.5)
    signal, _ = active_passive_synthesize(prob, fit)
    ends = [ph.t_end for ph in signal.phases]
    traj = duhamel_solve(prob, signal, ends)
    for ph, state in zip(signal.phases, traj.states):
        assert np.linalg.norm(state[ph.mode_mask]) <= 1e-8
