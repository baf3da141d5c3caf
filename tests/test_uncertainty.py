import math
import os
import subprocess
import sys

import numpy as np
import pytest

from heatctl import (DegenerateSetError, DomainSpec, ObservabilitySet,
                     ParameterError, PotentialSpec, build_basis,
                     calibrate_spectral_cube, eigenvalue_lifting_check,
                     fit_uncertainty_form, fractional_transform,
                     galerkin_schrodinger, gram_matrix, periodic_band,
                     sharpness_example_sparse, sharpness_example_torus,
                     spectral_ineq_constant, spectral_ineq_sweep, ucp_bound,
                     UniversalConstants)
from heatctl import uncertainty
from heatctl.spectral import galerkin_matrix
from heatctl.uncertainty import _shifted_ucp_exponent, _sin_power_integral
from oracles import gl_integral, quad_gram


def test_full_set_gives_one(dirichlet_op):
    for E in (1.0, 10.0, 100.0):
        assert spectral_ineq_constant(dirichlet_op, ObservabilitySet.full(), E) == 1.0


def test_half_interval_single_mode(dirichlet_op, half_interval_set):
    c = spectral_ineq_constant(dirichlet_op, half_interval_set, 1.0)
    assert abs(c - 0.5) < 1e-12


def test_half_interval_two_modes(dirichlet_op, half_interval_set):
    c = spectral_ineq_constant(dirichlet_op, half_interval_set, 4.0)
    expect = 0.5 - 4.0 / (3.0 * math.pi)
    assert abs(c - expect) < 1e-12
    # brute-force oracle: quadrature Gram + dense eigensolver
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 4.0)
    Mq = quad_gram(basis, half_interval_set.boxes_in_region(basis.domain.box()))
    assert abs(c - np.linalg.eigvalsh(Mq)[0]) < 1e-10


def test_empty_subspace_rejected(dirichlet_op, half_interval_set):
    with pytest.raises(ParameterError):
        spectral_ineq_constant(dirichlet_op, half_interval_set, 0.5)


def test_monotone_in_energy_and_set(dirichlet_op, half_interval_set):
    sweep = spectral_ineq_sweep(dirichlet_op, half_interval_set,
                                [1.0, 4.0, 9.0, 25.0, 64.0, 100.0])
    vals = [c for _, c in sweep]
    assert all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))
    bigger = ObservabilitySet.periodic((math.pi,), [((0.0, 2.0),)])
    c_small = spectral_ineq_constant(dirichlet_op, half_interval_set, 25.0)
    c_big = spectral_ineq_constant(dirichlet_op, bigger, 25.0)
    assert c_small <= c_big + 1e-12


def test_invariant_under_degenerate_rebase():
    # 2D torus has degenerate eigenspaces; rotating a degenerate pair must not
    # change the projected smallest eigenvalue
    dom = DomainSpec.torus(2.0, 2.0)
    basis = build_basis(dom, 30.0)
    op = galerkin_schrodinger(basis)
    S = periodic_band(1.0, 0.4, d=2)
    M = gram_matrix(basis, S)
    E = 12.0
    idx = np.flatnonzero(op.eigvals <= E)
    sub = M[np.ix_(idx, idx)]
    base = np.linalg.eigvalsh(sub)[0]
    # rotate inside one degenerate block
    lam = basis.eigenvalues[idx]
    block = np.flatnonzero(np.abs(lam - lam[1]) < 1e-9)
    R = np.eye(idx.size)
    th = 0.7
    i, j = block[0], block[1]
    R[i, i] = R[j, j] = math.cos(th)
    R[i, j], R[j, i] = math.sin(th), -math.sin(th)
    rotated = np.linalg.eigvalsh(R.T @ sub @ R)[0]
    assert abs(base - rotated) < 1e-12


def test_fractional_subspace_identity(dirichlet_op, half_interval_set):
    op2 = fractional_transform(dirichlet_op, 2.0)
    for lam in (2.0, 10.0, 50.0, 300.0):
        c_frac = spectral_ineq_constant(op2, half_interval_set, lam)
        c_orig = spectral_ineq_constant(dirichlet_op, half_interval_set, math.sqrt(lam))
        assert c_frac == c_orig


def test_fit_flat_data():
    fit = fit_uncertainty_form([(1.0, 0.25), (4.0, 0.25), (9.0, 0.25)], 0.5)
    assert abs(fit.d1) < 1e-14
    assert abs(fit.d0 - 4.0) < 1e-12


def test_fit_exact_model_recovery():
    Es = [1.0, 4.0, 9.0, 16.0, 25.0]
    pairs = [(E, math.exp(-2.0 * math.sqrt(E)) / 3.0) for E in Es]
    fit = fit_uncertainty_form(pairs, 0.5)
    assert abs(fit.d0 - 3.0) < 1e-9
    assert abs(fit.d1 - 2.0) < 1e-9
    assert fit.residual < 1e-12


def test_fit_envelope_property(dirichlet_op, half_interval_set):
    pairs = spectral_ineq_sweep(dirichlet_op, half_interval_set,
                                [1.0, 4.0, 9.0, 16.0, 25.0])
    fit = fit_uncertainty_form(pairs, 0.5)
    for E, c in pairs:
        assert c >= 1.0 / fit.c_ur(E) - 1e-12
    # residual of the linear fit stays below 10% of the data range
    ys = [-math.log(c) for _, c in pairs]
    assert fit.residual < 0.1 * (max(ys) - min(ys))


def test_fit_and_cube_calibration_refuse_a_constant_that_is_not_positive():
    pairs = [(1.0, 0.5), (4.0, 0.0), (9.0, -1e-17)]
    for refuse in (lambda: fit_uncertainty_form(pairs, 0.5),
                   lambda: calibrate_spectral_cube(pairs, 0.5, [1.0], 1)):
        with pytest.raises(DegenerateSetError,
                           match=r"^C_emp vanishes on the fit grid at E=4\.0: C_emp=0\.0$"):
            refuse()


def test_fit_rejects_degenerate():
    with pytest.raises(DegenerateSetError):
        fit_uncertainty_form([(1.0, 0.5), (4.0, 0.0), (9.0, 0.1)], 0.5)
    with pytest.raises(ParameterError, match="^need at least three"):
        fit_uncertainty_form([(1.0, 0.5), (4.0, 0.25)], 0.5)
    for s in (0.0, 1.0):
        with pytest.raises(ParameterError, match=r"^s must be in \(0, 1\)$"):
            fit_uncertainty_form([(1.0, 0.5), (4.0, 0.25), (9.0, 0.1)], s)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_universal_constants_refuse_non_positive_fields(value):
    with pytest.raises(ParameterError, match="^constant D4 must be a positive number$"):
        UniversalConstants(D4=value)


def test_ucp_bound_spot_values():
    c = UniversalConstants()
    v = ucp_bound("spectral_cube", c, gamma=0.5, a=[1.0], d=1, E=4.0)
    assert abs(v - 0.5 ** 5.5) < 1e-12
    v = ucp_bound("spectral_projector", c, G=1.0, delta=0.25, E=4.0, v_norm=0.0)
    assert abs(v - 0.25 ** 3) < 1e-15
    v = ucp_bound("spectral_fullspace", c, gamma=0.5, a=[1.0], d=1, E=4.0)
    assert abs(v - 0.5 ** 5) < 1e-15
    v = ucp_bound("kovrijkine", c, gamma=0.5, a=[1.0], b=[2.0], d=1)
    assert abs(v - 0.5 ** 3) < 1e-15
    v = ucp_bound("eigenfunction", c, G=1.0, delta=0.25, v_minus_e_norm=8.0)
    assert abs(v - 0.25 ** 5) < 1e-15
    v = ucp_bound("klein_gamma", c, G=1.0, delta=0.25, E=0.0, v_norm=0.0)
    assert abs(v - 0.5 * 0.25) < 1e-15
    # n-parallelepiped variants: exponent (K^d/gamma)^n a.b + n - (p-1)/p
    v = ucp_bound("kovrijkine_multi", c, gamma=0.5, a=[1.0], b=[1.0], d=1, n=2, p=2.0)
    assert abs(v - 0.5 ** (4.0 + 2.0 - 0.5)) < 1e-15
    v = ucp_bound("ls_torus", c, gamma=0.5, a=[1.0], b=[2.0], d=1, p=2.0)
    assert abs(v - 0.5 ** (2.0 + 3.5)) < 1e-15
    v = ucp_bound("ls_torus_multi", c, gamma=0.5, a=[1.0], b=[1.0], d=1, n=1, p=1.0)
    assert abs(v - 0.5 ** (2.0 + 1.0)) < 1e-15


def test_spectral_projector_shifted_optimum_at_zero_shift():
    v = ucp_bound("spectral_projector_shifted", G=1.0, delta=0.25, E=4.0, v_lo=0.0, v_hi=0.0)
    # oracle: dense grid minimization of the exponent
    lams = np.linspace(-4.0, 4.0, 400001)
    expo = [_shifted_ucp_exponent(l, 1.0, 4.0, 0.0, 0.0) for l in lams]
    oracle = 0.25 ** min(expo)
    assert abs(v - 0.25 ** 3) < 1e-4 * 0.25 ** 3
    assert abs(v - oracle) < 1e-4 * oracle


def test_spectral_projector_shifted_shift_beats_spectral_projector_for_large_potential():
    # constant V = 10 with E = 4: shifting to lambda = 10 empties the exponent
    v_s = ucp_bound("spectral_projector_shifted", G=1.0, delta=0.25, E=4.0, v_lo=10.0, v_hi=10.0)
    v_p = ucp_bound("spectral_projector", G=1.0, delta=0.25, E=4.0, v_norm=10.0)
    assert v_s > v_p
    assert abs(v_s - 0.25) < 1e-6  # exponent collapses to K = 1


def test_ucp_bound_parameter_errors():
    with pytest.raises(ParameterError):
        ucp_bound("spectral_cube", gamma=1.5, a=[1.0], d=1, E=1.0)
    with pytest.raises(ParameterError):
        ucp_bound("spectral_projector", G=1.0, delta=0.7, E=1.0, v_norm=0.0)
    with pytest.raises(ParameterError):
        ucp_bound("spectral_cube", gamma=0.5, a=[1.0], d=1)  # missing E
    with pytest.raises(ParameterError):
        ucp_bound("no_such_bound", gamma=0.5)


def _shifted_exponent_grid(lams, G, E, v_lo, v_hi):
    """The shifted exponent on an array of shifts, coded independently."""
    dist = np.maximum(v_hi - lams, lams - v_lo)
    return 1.0 + G ** (4.0 / 3.0) * dist ** (2.0 / 3.0) + G * np.sqrt(np.maximum(E - lams, 0.0))


def _shifted_cases():
    rng = np.random.default_rng(2018)
    cases = [(4.3, 0.0, -38.9, 20.9)]
    for _ in range(24):
        v_lo, v_hi = np.sort(rng.uniform(-40.0, 40.0, 2))
        cases.append((rng.uniform(0.2, 5.0), rng.uniform(-10.0, 60.0), v_lo, v_hi))
    return cases


@pytest.mark.parametrize("G, E, v_lo, v_hi", _shifted_cases(),
                         ids=["G4.3"] + [f"random{i}" for i in range(24)])
def test_spectral_projector_shifted_matches_dense_grid(G, E, v_lo, v_hi):
    # bound = (1/4)^exponent, so no shift on the grid may give a smaller
    # exponent than the closed form, and the closed form sits within the
    # grid's resolution of the grid minimum
    v = ucp_bound("spectral_projector_shifted", G=G, delta=G / 4, E=E, v_lo=v_lo, v_hi=v_hi)
    expo = math.log(v) / math.log(0.25)
    lams = np.linspace(min(v_lo, E) - 1.0, max(v_hi, E) + 1.0, 10 ** 6 + 1)
    grid_min = float(np.min(_shifted_exponent_grid(lams, G, E, v_lo, v_hi)))
    assert expo <= grid_min * (1.0 + 1e-12)
    assert expo >= grid_min * (1.0 - 1e-3)


def test_spectral_projector_shifted_constant_potential_is_exact():
    # V = 10 above E = 4: the shift lambda = 10 leaves the exponent K = 1
    assert ucp_bound("spectral_projector_shifted", G=1.0, delta=0.25, E=4.0,
                     v_lo=10.0, v_hi=10.0) == 0.25


@pytest.mark.parametrize("name, params", [
    ("klein_gamma", {"G": 1.0, "delta": 0.25, "E": 4.0, "v_norm": -1.0}),
    ("klein_gamma", {"G": 1.0, "delta": 0.25, "E": -3.0, "v_norm": 1.0}),
    ("eigenfunction", {"G": 1.0, "delta": 0.25, "v_minus_e_norm": -1.0}),
    ("spectral_projector", {"G": 1.0, "delta": 0.25, "E": 4.0, "v_norm": -1.0}),
    ("spectral_projector", {"G": 1.0, "delta": 0.25, "E": -1.0, "v_norm": 0.0}),
    ("spectral_fullspace", {"gamma": 0.5, "a": [1.0], "d": 1, "E": -1.0}),
    ("spectral_cube", {"gamma": 0.5, "a": [1.0], "d": 1, "E": None}),
    ("kovrijkine", {"gamma": None, "a": [1.0], "b": [2.0], "d": 1}),
    ("spectral_projector_shifted", {"G": 1.0, "delta": 0.25, "E": 4.0, "v_lo": 2.0, "v_hi": 1.0}),
], ids=["klein-norm", "klein-2v+E", "eigenfunction-norm", "projector-norm",
        "projector-E", "fullspace-E", "cube-E-None", "kovrijkine-gamma-None",
        "shifted-v_hi-below-v_lo"])
def test_ucp_bound_refuses_inputs_outside_the_formula(name, params):
    with pytest.raises(ParameterError, match=name):
        ucp_bound(name, **params)


def test_sharpness_torus_values():
    ratio, upper = sharpness_example_torus(0.1, 8 * math.pi, p=2)
    assert abs(upper - 0.1 / (2 / math.pi ** 2)) < 1e-12
    assert ratio <= upper
    # quadrature oracle
    num = gl_integral(lambda x: np.sin(2 * np.pi * x) ** 4, 0.45, 0.55, order=96)
    den = gl_integral(lambda x: np.sin(2 * np.pi * x) ** 4, 0.0, 1.0, order=96,
                      panels=4)
    assert abs(ratio - math.sqrt(num / den)) < 1e-9

    ratio2, upper2 = sharpness_example_torus(0.05, 16 * math.pi, p=2)
    assert abs(upper2 - (0.05 * math.pi ** 2 / 2) ** 3) < 1e-12
    assert ratio2 <= upper2


def _abs_sin_power_oracle(power, lo, hi):
    """40-digit ``int_lo^hi |sin(2 pi x)|^power dx``, broken at the quarter points."""
    import mpmath

    with mpmath.workdps(40):
        pts = [lo] + [q for q in (0.25, 0.5, 0.75) if lo < q < hi] + [hi]
        pts = [mpmath.mpf(x) for x in pts]
        return mpmath.quad(lambda x: abs(mpmath.sin(2 * mpmath.pi * x)) ** power, pts)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0])
def test_sharpness_torus_matches_mpmath_oracle(p):
    worst = 0.0
    for b in (8 * math.pi, 12 * math.pi, 16 * math.pi, 32 * math.pi):
        power = p * math.floor(b / (4 * math.pi))
        den = _abs_sin_power_oracle(power, 0.0, 1.0)
        for eps in (0.05, 0.1, 0.15, 0.5, 0.75, 0.999):
            ratio, _ = sharpness_example_torus(eps, b, p)
            num = _abs_sin_power_oracle(power, 0.5 - eps / 2, 0.5 + eps / 2)
            worst = max(worst, abs(ratio - float((num / den) ** (1 / p))))
    assert worst <= 1e-12


@pytest.mark.parametrize("power", [0.5, 1.5, 2.5, 24.0])
def test_sin_power_integral_fractional_endpoint(power):
    import mpmath

    for x in (0.1, 1.0, math.pi / 2):
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda t: mpmath.sin(t) ** power, [0, mpmath.mpf(x)])
        assert abs(_sin_power_integral(power, x) / float(exact) - 1.0) <= 1e-13


def test_import_leaves_scipy_out():
    code = "import sys, heatctl, heatctl.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_sharpness_torus_band_covering_peak():
    ratio, upper = sharpness_example_torus(0.999, 8 * math.pi, p=2)
    assert ratio <= 1.0 and upper >= 1.0


@pytest.mark.parametrize("example, message", [
    (lambda: sharpness_example_torus(0.1, 2 * math.pi), r"b must be at least 8\*pi"),
    (lambda: sharpness_example_torus(0.0, 40.0), r"eps must be in \(0, 1\)"),
    (lambda: sharpness_example_torus(1.0, 40.0), r"eps must be in \(0, 1\)"),
    (lambda: sharpness_example_torus(0.1, 40.0, p=0.5), "p must be >= 1"),
    (lambda: sharpness_example_sparse(0, 0.5), "b must be a positive integer"),
], ids=["torus-b", "torus-eps-0", "torus-eps-1", "torus-p", "sparse-b"])
def test_sharpness_examples_refuse_inputs_outside_their_range(example, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        example()


def test_sharpness_sparse_values():
    ratio, bound = sharpness_example_sparse(4, 0.1)
    expect = ((1 - math.cos(0.8 * math.pi)) / (8 * math.pi)) / (2 / math.pi)
    assert abs(ratio - expect) < 1e-12
    assert abs(bound - (math.pi ** 2 / 2) * 4 * 0.01) < 1e-12
    assert ratio <= bound

    ratio, bound = sharpness_example_sparse(1, 0.5)
    assert abs(ratio - 0.5) < 1e-12
    assert bound >= ratio

    ratio, bound = sharpness_example_sparse(3, 1.0)
    assert abs(ratio - 1.0) < 1e-12


def test_lifting_identity_perturbation(dirichlet_op):
    report = eigenvalue_lifting_check(dirichlet_op, PotentialSpec.const(1.0), 25.0,
                                      support=ObservabilitySet.full())
    assert all(abs(d - 1.0) < 1e-12 for d in report.derivatives)
    assert report.all_above_reference


def test_lifting_half_interval(dirichlet_op, half_interval_set):
    report = eigenvalue_lifting_check(dirichlet_op, half_interval_set, 4.0)
    assert len(report.derivatives) == 2
    assert all(abs(d - 0.5) < 1e-12 for d in report.derivatives)
    c_emp = spectral_ineq_constant(dirichlet_op, half_interval_set, 4.0)
    assert all(d >= c_emp - 1e-8 for d in report.derivatives)
    assert report.all_above_reference


def _seed_lifting(op, W, E, support=None):
    """Derivatives and reference constant of ``W`` by the path the
    check took before it shared the Galerkin assembly and the Gram: the
    Galerkin matrix of a potential less the Laplacian, as an eigensolved
    handle once stored it, and the diagonal of the projection by columns."""
    if isinstance(W, ObservabilitySet):
        Mw = gram_matrix(op.basis, W)
        support = W if support is None else support
    else:
        Mw = galerkin_matrix(op.basis, W) - np.diag(op.basis.eigenvalues)
    idx = np.flatnonzero(op.eigvals <= E)
    if op.is_diagonal:
        derivs = np.diagonal(Mw)[idx]
    else:
        V = op.eigvecs[:, idx]
        derivs = np.einsum("ij,ij->j", V, Mw @ V)
    ref = spectral_ineq_constant(op, support, E) if support is not None else 0.0
    return tuple(float(d) for d in derivs), float(ref)


_TORUS = DomainSpec.torus(2 * math.pi, 2 * math.pi)
_TORUS_SET = ObservabilitySet.periodic((math.pi, math.pi), [((0.2, 1.4), (0.5, 2.5))])
_BUMPS = PotentialSpec(constant=0.5, boxes=((1.5, ((0.5, 2.0), (1.0, 3.0))),),
                       cosines=((0.4, (1, 2)),))


@pytest.mark.parametrize("potential, W, support", [
    (None, _BUMPS, _TORUS_SET),
    (None, PotentialSpec.indicator([(0.5, 2.0), (1.0, 3.0)], 2.0), None),
    (None, _TORUS_SET, None),
    (_BUMPS, _TORUS_SET, None),
    (_BUMPS, PotentialSpec.indicator([(0.5, 2.0), (1.0, 3.0)], 2.0), _TORUS_SET),
])
def test_lifting_check_matches_the_eigensolved_path(potential, W, support):
    op = galerkin_schrodinger(build_basis(_TORUS, 40.0), potential)
    derivs, ref = _seed_lifting(op, W, 12.0, support)
    report = eigenvalue_lifting_check(op, W, 12.0, support)
    # the potential's matrix no longer adds the Laplacian (eigenvalues up to
    # 40, ulp 7e-15) and subtracts it again, and a dense handle's diagonal
    # comes from its projected block
    assert len(report.derivatives) == len(derivs)
    assert max(abs(a - b) for a, b in zip(report.derivatives, derivs)) <= 1e-14
    assert report.reference_constant == ref
    assert report.eigenvalues == tuple(float(op.eigvals[i]) for i in report.indices)


def test_lifting_check_of_a_potential_runs_no_eigensolver(monkeypatch):
    op = galerkin_schrodinger(build_basis(_TORUS, 40.0))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = eigenvalue_lifting_check(op, _BUMPS, 12.0)
    assert report.reference_constant == 0.0 and len(report.derivatives) == 37


def test_lifting_rejects_negative_perturbation(dirichlet_op):
    with pytest.raises(ParameterError):
        eigenvalue_lifting_check(dirichlet_op, PotentialSpec.const(-1.0), 25.0)
    with pytest.raises(ParameterError, match="^W must be a set indicator or a PotentialSpec$"):
        eigenvalue_lifting_check(dirichlet_op, np.eye(dirichlet_op.n), 25.0)


def test_calibrated_k5_is_envelope(dirichlet_op, half_interval_set):
    pairs = spectral_ineq_sweep(dirichlet_op, half_interval_set,
                                [1.0, 4.0, 9.0, 16.0, 25.0])
    gamma = 0.5
    cal = calibrate_spectral_cube(pairs, gamma, [math.pi], 1)
    for E, c_emp in pairs:
        bound = ucp_bound("spectral_cube", cal, gamma=gamma, a=[math.pi], d=1, E=E)
        assert bound <= c_emp * (1 + 1e-9)


@pytest.mark.parametrize("with_set", [True, False], ids=["set", "gram_only"])
def test_sweep_with_a_gram_forms_its_blocks_once(monkeypatch, with_set):
    # a tiled set reads its Gram class by class; without the set (the
    # control_scale path of synthesize) the Gram is one class
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 20.0))
    S = ObservabilitySet.periodic((math.pi, math.pi), [((0.4, 2.3), (0.2, 2.0))])
    M = gram_matrix(op.basis, S)
    S = S if with_set else None
    grid = [1.0, 4.0, 9.0, 16.0]
    per_energy = [spectral_ineq_constant(op, S, E, gram=M) for E in grid]
    formed = []
    set_blocks = uncertainty.set_blocks
    monkeypatch.setattr(uncertainty, "set_blocks",
                        lambda *args: formed.append(args) or set_blocks(*args))
    assert spectral_ineq_sweep(op, S, grid, gram=M) == list(zip(grid, per_energy))
    assert len(formed) == 1 and formed[0][3] is M
