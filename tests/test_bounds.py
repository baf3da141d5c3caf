import inspect
import math

import numpy as np
import pytest

from heatctl import (ParameterError, UniversalConstants, bound_validity,
                     calibrate_spectral_cube, calibrate_thick1, calibrate_prefactor,
                     cost_bound, miller_cstar, regime_table, tenenbaum_threshold,
                     thick2_exponent, ucp_bound)
from heatctl.bounds import _REGISTRY, equidistributed_exponent, miller_root_map
from heatctl.uncertainty import _UCP_FORMS


def test_thick1_spot_value():
    v = cost_bound("thick1", gamma=0.5, a=[1.0], d=1, T=1.0)
    assert abs(v - 2.0 * math.e ** 2) < 1e-9 * v


def test_thick2_spot_value():
    v = cost_bound("thick2", gamma=0.5, a=[1.0], T=1.0)
    assert abs(v - 2.0 * math.exp(math.log(0.5) ** 2)) < 1e-9 * v


def test_abstract_observability_spot_value():
    v = cost_bound("abstract_observability", d0=1.0, d1=1.0, s=0.5, beta=0.0, B_norm=1.0,
                   T=1.0)
    assert abs(v - 3.0 * math.e) < 1e-9 * v


def test_tenenbaum_and_beauchard_forms():
    v = cost_bound("tenenbaum_form", s=0.5, T=4.0)
    assert abs(v - 0.5 * math.exp(0.25)) < 1e-12
    v2 = cost_bound("beauchard_form", T=2.0)
    assert abs(v2 - math.exp(0.5)) < 1e-12


def test_fractional_form():
    v = cost_bound("fractional", gamma=0.5, a=[1.0], theta=1.0, T=1.0)
    expect = 2.0 * math.exp(math.log(2.0) ** 2)
    assert abs(v - expect) < 1e-12
    with pytest.raises(ParameterError):
        cost_bound("fractional", gamma=0.5, a=[1.0], theta=0.4, T=1.0)


def test_equidistributed_form():
    v = cost_bound("equidistributed", G=1.0, delta=0.25, v_norm=0.0, T=1.0)
    expect = 4.0 * math.exp(math.log(0.25) ** 2)
    assert abs(v - expect) < 1e-12


def test_equidistributed_small_time_form_and_validity():
    v = cost_bound("equidistributed_small_time", G=1.0, delta=0.25, v_norm=0.0, T=1.0)
    expect = 2.0 * 4.0 * math.exp(math.log(0.25) ** 2 * (1 + 4 / math.log(2)) ** 2)
    assert abs(v - expect) < 1e-9 * v
    assert bound_validity("equidistributed_small_time") == "small_T_only"
    assert bound_validity("thick2") == "all_T"


@pytest.mark.parametrize("name,params", [
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1}),
    ("thick2", {"gamma": 0.5, "a": [1.0]}),
    ("equidistributed", {"G": 1.0, "delta": 0.25, "v_norm": 1.0}),
    ("equidistributed_small_time", {"G": 1.0, "delta": 0.25, "v_norm": 1.0}),
    ("tenenbaum_form", {"s": 0.5}),
    ("beauchard_form", {}),
    ("fractional", {"gamma": 0.5, "a": [1.0], "theta": 0.8}),
    ("abstract_observability", {"d0": 1.0, "d1": 1.0, "s": 0.5, "beta": -1.0, "B_norm": 1.0}),
])
def test_monotone_decreasing_in_T(name, params):
    ts = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [cost_bound(name, params, T=T) for T in ts]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


@pytest.mark.parametrize("name", ["thick1", "thick2", "fractional"])
def test_monotone_decreasing_in_gamma(name):
    params = {"a": [1.0], "d": 1, "T": 1.0, "theta": 0.8}
    gammas = [0.1, 0.2, 0.4, 0.8]
    vals = [cost_bound(name, params, gamma=g) for g in gammas]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_thick2_exponent_quadratic_in_a():
    c = UniversalConstants()
    e1 = thick2_exponent({"gamma": 0.3, "a": [0.7]}, c)
    e2 = thick2_exponent({"gamma": 0.3, "a": [1.4]}, c)
    assert e2 == 4.0 * e1


def test_equidistributed_exponent_quadratic_in_G():
    c = UniversalConstants()
    e1 = equidistributed_exponent({"G": 0.5, "delta": 0.125}, c)
    e2 = equidistributed_exponent({"G": 1.0, "delta": 0.25}, c)
    assert e2 == 4.0 * e1  # fixed delta/G, doubled G


def test_missing_parameter_named():
    with pytest.raises(ParameterError) as err:
        cost_bound("thick2", gamma=0.5, T=1.0)
    assert "'a'" in str(err.value)


@pytest.mark.parametrize("name", ["equidistributed", "equidistributed_small_time"])
def test_negative_potential_norm_refused(name):
    # a negative norm made (G/delta)^(... v^(2/3)) complex
    with pytest.raises(ParameterError, match="v_norm"):
        cost_bound(name, G=1.0, delta=0.25, v_norm=-1.0, T=1.0)


def test_miller_quadratic_case():
    s, c_star = miller_cstar(1.0, 1.0, 0.0, 1.0)
    assert abs(s - (math.sqrt(3.0) - 1.0)) < 1e-12
    assert abs(c_star - 4.0 / s ** 4) < 1e-9
    s2, _ = miller_cstar(1.0, 16.0, 0.0, 1.0)
    assert abs(s2 - 2.0) < 1e-11


def test_miller_residual_on_random_grid():
    rng = np.random.default_rng(9)
    for _ in range(50):
        beta = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.1, 20.0))
        am = float(rng.uniform(0.1, 10.0))
        s, _ = miller_cstar(beta, b, 0.0, am)
        rhs = (beta + 1) * beta ** (beta ** 2 / (beta + 1)) * b ** (1 / (beta + 1)) / am
        assert abs(miller_root_map(s, beta) - rhs) <= 1e-10 * rhs


def _miller_oracle(beta, b, a, m):
    """Root and cost constant of ``miller_cstar`` at 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        beta, b, am = mpmath.mpf(beta), mpmath.mpf(b), mpmath.mpf(a) + mpmath.mpf(m)
        rhs = (beta + 1) * beta ** (beta ** 2 / (beta + 1)) * b ** (1 / (beta + 1)) / am
        s = mpmath.findroot(lambda x: x * (x + beta + 1) ** beta - rhs, (0, 2 + rhs),
                            solver="anderson")
        c_star = ((beta + 1) * b / am) ** ((beta + 1) / beta) * beta ** beta \
            / s ** ((beta + 1) ** 2 / beta)
        return float(s), float(c_star)


@pytest.mark.parametrize("beta, b, a, m", [(1.0, 1e-12, 0.0, 1.0), (0.5, 1e-4, 0.0, 1e3),
                                           (2.0, 1e-8, 0.0, 10.0), (0.01, 1e-12, 0.0, 1.0),
                                           (1e-3, 1e-12, 0.0, 1.0)])
def test_miller_small_roots_match_mpmath(beta, b, a, m):
    # roots far below 1: the bisection must stop at a relative width; for
    # small beta, s^((beta+1)^2/beta) underflows, so c* must not contain it
    s, c_star = miller_cstar(beta, b, a, m)
    s_ref, c_ref = _miller_oracle(beta, b, a, m)
    assert s_ref < 1e-2
    assert abs(s - s_ref) <= 1e-14 * s_ref
    assert abs(c_star - c_ref) <= 1e-14 * c_ref


def test_miller_shipped_case_matches_closed_forms():
    # beta = b = a + m = 1: s (s + 2) = 2, so s = sqrt(3) - 1 and c* = 4 / s^4 = 7 + 4 sqrt(3)
    s, c_star = miller_cstar(1.0, 1.0, 0.0, 1.0)
    assert abs(s - (math.sqrt(3.0) - 1.0)) <= 1e-14 * s
    assert abs(c_star - (7.0 + 4.0 * math.sqrt(3.0))) <= 1e-14 * c_star


def test_miller_underflowing_rhs_refused():
    # rhs = 2 sqrt(b) / (a + m) = 2e-450 is 0 in double: no root to bracket
    with pytest.raises(ParameterError, match="underflows"):
        miller_cstar(1.0, 1e-300, 0.0, 1e300)


def test_miller_cstar_beyond_double_range_refused():
    # c* = (1e100 * 4^4 / 4)^4 / 3^9 ~ 1e407
    with pytest.raises(ParameterError, match="c\\* is beyond double range"):
        miller_cstar(3.0, 1.0, 0.0, 1e100)


def test_miller_monotone_in_am():
    vals = [miller_cstar(1.0, 1.0, 0.0, am) for am in (0.5, 1.0, 2.0, 4.0)]
    roots = [v[0] for v in vals]
    cstars = [v[1] for v in vals]
    assert all(b < a for a, b in zip(roots[:-1], roots[1:]))
    assert all(b > a for a, b in zip(cstars[:-1], cstars[1:]))


def test_tenenbaum_threshold_values():
    assert abs(tenenbaum_threshold(0.5, 1.0) - 4.0) < 1e-12
    assert tenenbaum_threshold(0.3, 0.0) == 0.0
    assert abs(tenenbaum_threshold(0.5, 3.0) - 36.0) < 1e-12


def test_regime_table_consistency():
    params = {"gamma": 0.5, "a": [1.0], "d": 1}
    rows, classifiers = regime_table(["thick1", "thick2"], params,
                                     [0.5, 1.0, 2.0])
    for row in rows:
        direct = cost_bound(row["name"], params, T=row["T"])
        assert row["value"] == direct
    # small-T coefficient of the exponential-in-1/T bound equals C1/2
    c1 = (1.0 / 0.5) ** 2
    rows2, cls2 = regime_table(["thick1"], params,
                               [0.05, 0.1, 0.2])
    assert abs(cls2["thick1"]["small_t_coefficient"] - c1 / 2) < 1e-6 * c1


def test_regime_table_homogenization_limit():
    # a -> 0 with gamma fixed: large-T rows approach D1 gamma^{-D2} / sqrt(T)
    params = {"gamma": 0.5, "a": [1e-6]}
    rows, classifiers = regime_table(["thick2"], params, [10.0, 20.0, 40.0])
    for row in rows:
        assert abs(row["value"] - 2.0 / math.sqrt(row["T"])) < 1e-9
    assert abs(classifiers["thick2"]["large_t_exponent"]) < 1e-9


def test_calibrations_are_envelopes():
    pairs = [(0.5, 3.0), (1.0, 2.0), (2.0, 1.4), (4.0, 1.0)]
    params = {"gamma": 0.5, "a": [1.0], "d": 1}
    cal = calibrate_thick1(pairs, params)
    for T, ce in pairs:
        assert cost_bound("thick1", params, cal, T=T) >= ce * (1 - 1e-9)
    cal2 = calibrate_prefactor("thick2", pairs, params)
    for T, ce in pairs:
        assert cost_bound("thick2", params, cal2, T=T) >= ce * (1 - 1e-9)


# every closed-form bound, by its evaluator, and each wrong-typed value of each
# parameter its formula reads by annotation: a fraction for an integer, True
# or a string for a number
FORMS = {**{name: (ucp_bound, form) for name, form in _UCP_FORMS.items()},
         **{name: (lambda n, **p: cost_bound(n, p), form)
            for name, (form, _) in _REGISTRY.items()}}
WRONG_TYPED = [(name, key, bad) for name, (_, form) in sorted(FORMS.items())
               for key, param in list(inspect.signature(form).parameters.items())[1:]
               for bad in {int: (1.5,), float: (True, "x")}.get(param.annotation, ())]


@pytest.mark.parametrize("name,key,bad", WRONG_TYPED, ids=str)
def test_wrong_typed_bound_parameter_refused_naming_bound_and_key(name, key, bad):
    evaluate, form = FORMS[name]
    params = {k: 1.0 for k in list(inspect.signature(form).parameters)[1:]}
    with pytest.raises(ParameterError) as err:
        evaluate(name, **{**params, key: bad})
    assert str(err.value).startswith(f"{name}: ") and f"{key} must be" in str(err.value)


def test_numpy_scalar_bound_parameters_read_as_numbers():
    v = cost_bound("thick1", gamma=np.float32(0.5), a=[1.0], d=np.int64(1), T=np.float64(1.0))
    assert v == cost_bound("thick1", gamma=0.5, a=[1.0], d=1, T=1.0)


def test_calibrations_refuse_empty_pairs():
    params = {"gamma": 0.5, "a": [1.0], "d": 1}
    for calibrate in (lambda: calibrate_thick1([], params),
                      lambda: calibrate_prefactor("thick2", [], params),
                      lambda: calibrate_spectral_cube([], 0.5, [1.0], 1)):
        with pytest.raises(ParameterError, match="at least one"):
            calibrate()
