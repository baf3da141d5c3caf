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


def test_miller_root_near_the_top_of_double_range_matches_mpmath():
    # the root is about 1e305, above every power of two below 1e300: the
    # bracket is clipped to the right side, which the root never exceeds
    s, c_star = miller_cstar(1e-10, 1e305, 1.0)
    s_ref, c_ref = _miller_oracle(1e-10, 1e305, 1.0, 0.0)
    assert s <= 1e305
    # b ** (1 / (beta + 1)) rounds to within about |ln b| = 702 ulps, and s
    # and c* follow the right side to first order
    tol = 4.0 * (1.0 + math.log(1e305)) * np.finfo(float).eps
    assert abs(s - s_ref) <= tol * s_ref
    assert abs(c_star - c_ref) <= tol * c_ref


def test_calibration_with_no_passing_constant_is_refused():
    # at E = 0 the spectral_cube bound is (gamma / K5)^3.5 for d = 1, about
    # 4e-44 at the search's cap K5 = 2^40: no K5 puts it below 1e-50
    with pytest.raises(ParameterError, match="no passing value up to 1099511627776"):
        calibrate_spectral_cube([(0.0, 1e-50)], 0.5, [1.0], 1)


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


THICK1 = {"gamma": 0.5, "a": [1.0], "d": 1}
ABSTRACT = {"T": 1.0, "s": 0.5, "d0": 1.0, "d1": 0.0, "B_norm": 0.0}


@pytest.mark.parametrize("evaluate, message", [
    (lambda: cost_bound("thick1", THICK1, T=0.0), "thick1: T must be positive"),
    (lambda: cost_bound("abstract_observability", ABSTRACT, beta=0.5),
     "abstract_observability: beta must be <= 0"),
    (lambda: cost_bound("abstract_observability", {**ABSTRACT, "d0": 0.0}),
     "abstract_observability: d0 must be positive, d1 and B_norm non-negative"),
    (lambda: cost_bound("abstract_observability", {**ABSTRACT, "B_norm": -1.0}),
     "abstract_observability: d0 must be positive, d1 and B_norm non-negative"),
    (lambda: cost_bound("fractional", {"gamma": 0.5, "theta": 1.0, "a": [1.0]},
                        UniversalConstants(D4=0.5), T=1.0),
     "fractional: fractional bound needs D4 > gamma"),
    (lambda: miller_cstar(0.0, 1.0, 0.0, 1.0), "beta and b must be positive"),
    (lambda: miller_cstar(1.0, 0.0, 0.0, 1.0), "beta and b must be positive"),
    (lambda: miller_cstar(1.0, 1.0, 0.0, 0.0), "a and m must be non-negative with a \\+ m > 0"),
    (lambda: miller_cstar(1.0, 1.0, -1.0, 2.0), "a and m must be non-negative with a \\+ m > 0"),
    (lambda: tenenbaum_threshold(0.5, -1.0), "d1 must be non-negative"),
    (lambda: regime_table(["thick1"], THICK1, []), "T grid is empty"),
    (lambda: calibrate_prefactor("thick1", [(1.0, 1.0)], THICK1),
     "thick1 has no prefactor calibration"),
    (lambda: cost_bound("thick1", THICK1, T=10 ** 400),
     f"thick1: params: T must be finite, not {10 ** 400}"),
], ids=["T", "beta", "d0", "B_norm", "D4", "miller-beta", "miller-b", "miller-a+m",
        "miller-a", "tenenbaum-d1", "regime-grid", "prefactor-name", "T-beyond-double-range"])
def test_bounds_refuse_inputs_outside_their_formulas(evaluate, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        evaluate()


def test_calibrations_refuse_empty_pairs():
    params = {"gamma": 0.5, "a": [1.0], "d": 1}
    for calibrate in (lambda: calibrate_thick1([], params),
                      lambda: calibrate_prefactor("thick2", [], params),
                      lambda: calibrate_spectral_cube([], 0.5, [1.0], 1)):
        with pytest.raises(ParameterError, match="at least one"):
            calibrate()


# every closed form at one input or more, the cost bounds at those of
# configs/bounds_catalog.json, with the bits of the value that the code gave
# before a bound beyond double range saturated (recorded on x86-64 Linux)
FORM_VALUES = [
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 1.0}, "0x1.d8e64b8d4ddaep+3"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "T": 1.0}, "0x1.9de70ac53b8a9p+1"),
    ("equidistributed", {"G": 1.0, "delta": 0.25, "v_norm": 0.0, "T": 1.0}, "0x1.b55545cdfea8cp+4"),
    ("fractional", {"gamma": 0.5, "a": [1.0], "theta": 1.0, "T": 1.0}, "0x1.9de70ac53b8a9p+1"),
    ("abstract_observability", {"d0": 1.0, "d1": 1.0, "s": 0.5, "beta": 0.0, "B_norm": 1.0,
                                "T": 1.0}, "0x1.04f47e84f418fp+3"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.125}, "0x1.0f2ebd0a80020p+24"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.25}, "0x1.749ea7d470c6ep+12"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.5}, "0x1.b4c902e273a58p+6"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 1.0}, "0x1.d8e64b8d4ddaep+3"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 2.0}, "0x1.5bf0a8b145769p+2"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 4.0}, "0x1.a61298e1e069cp+1"),
    ("thick1", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 8.0}, "0x1.48b5e3c3e8186p+1"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.125}, "0x1.0824b4918441fp+8"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.25}, "0x1.b55545cdfea8cp+4"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 0.5}, "0x1.d932335a5ad9cp+2"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 1.0}, "0x1.9de70ac53b8a9p+1"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 2.0}, "0x1.cc587a255c232p+0"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 4.0}, "0x1.20ac00abf1244p+0"),
    ("thick2", {"gamma": 0.5, "a": [1.0], "d": 1, "T": 8.0}, "0x1.80729a0373847p-1"),
    ("equidistributed_small_time", {"G": 1.0, "delta": 0.25, "v_norm": 1.0, "T": 1.0},
     "0x1.7639e1d76ac8fp+133"),
    ("tenenbaum_form", {"s": 0.5, "T": 0.3}, "0x1.996d97231d573p+5"),
    ("beauchard_form", {"T": 0.3}, "0x1.c081891afbaaep+4"),
    ("kovrijkine", {"gamma": 0.3, "a": [3.141592653589793], "b": [2.0], "d": 1},
     "0x1.46246d000de63p-13"),
    ("kovrijkine_multi", {"gamma": 0.3, "a": [1.0], "b": [1.5], "d": 1, "n": 2, "p": 2.0},
     "0x1.5c86d089d1c0fp-32"),
    ("ls_torus", {"gamma": 0.3, "a": [1.0], "b": [2.0], "d": 1, "p": 2.0}, "0x1.5ce79a95e7ba8p-10"),
    ("ls_torus_multi", {"gamma": 0.3, "a": [1.0], "b": [1.0], "d": 1, "n": 1, "p": 1.5},
     "0x1.096bb98c7e27dp-7"),
    ("spectral_cube", {"gamma": 0.5, "a": [3.141592653589793], "d": 1, "E": 9.0},
     "0x1.0db3b1bb4d803p-13"),
    ("spectral_fullspace", {"gamma": 0.5, "a": [3.141592653589793], "d": 1, "E": 9.0},
     "0x1.1c2321a5a8324p-20"),
    ("eigenfunction", {"G": 1.0, "delta": 0.3, "v_minus_e_norm": 8.0}, "0x1.3e81450efdc9bp-9"),
    ("klein_gamma", {"G": 1.0, "delta": 0.3, "E": 2.0, "v_norm": 1.0}, "0x1.d92687f1b2c7dp-8"),
    ("spectral_projector", {"G": 1.0, "delta": 0.3, "E": 4.0, "v_norm": 1.0},
     "0x1.096bb98c7e282p-7"),
    ("spectral_projector_shifted", {"G": 1.0, "delta": 0.3, "E": 4.0, "v_lo": -1.0, "v_hi": 3.0},
     "0x1.22d8cf818d9cbp-7"),
]


def test_form_values_cover_every_form():
    assert {name for name, _, _ in FORM_VALUES} == set(_REGISTRY) | set(_UCP_FORMS)


@pytest.mark.parametrize("name,params,bits", FORM_VALUES,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(FORM_VALUES)])
def test_finite_bound_keeps_its_bits(name, params, bits):
    value = ucp_bound(name, **params) if name in _UCP_FORMS else cost_bound(name, params)
    assert value == float.fromhex(bits)


# closed forms whose float arithmetic leaves double range: an upper bound (or
# the 1/T coefficient of one) saturates to inf, a lower bound to 0
SATURATING = [
    (lambda: cost_bound("thick1", T=1.0, gamma=1e-300, d=1, a=[1.0]), math.inf),
    (lambda: cost_bound("thick2", T=1.0, gamma=1e-300, a=[1.0]), math.inf),
    (lambda: cost_bound("tenenbaum_form", T=1e-300, s=0.99), math.inf),
    (lambda: cost_bound("fractional", {"T": 1.0, "gamma": 0.5, "theta": 0.5000001, "a": [100.0]},
                        UniversalConstants(D4=2.0)), math.inf),
    (lambda: cost_bound("thick1", {"T": 1e-3, "gamma": 0.5, "a": [1.0], "d": 1},
                        UniversalConstants(K=1000.0)), math.inf),
    (lambda: thick2_exponent({"gamma": 0.5, "a": [1e200]}, UniversalConstants()), math.inf),
    (lambda: equidistributed_exponent({"G": 1e300, "delta": 1.0}, UniversalConstants()),
     math.inf),
    (lambda: ucp_bound("kovrijkine_multi", gamma=1e-300, d=1, n=2, p=2, a=[1.0], b=[1.0]), 0.0),
    (lambda: ucp_bound("eigenfunction", G=1e300, delta=1.0, v_minus_e_norm=1.0), 0.0),
]


@pytest.mark.parametrize("evaluate,trivial", SATURATING, ids=[
    "thick1", "thick2", "tenenbaum_form", "fractional", "thick1_large_K", "thick2_exponent",
    "equidistributed_exponent", "kovrijkine_multi", "eigenfunction"])
def test_bound_beyond_double_range_saturates_to_its_trivial_side(evaluate, trivial):
    assert evaluate() == trivial


def _ucp(name, params):
    return ucp_bound(name, **params)


# every form that sums over ``a``: ||a||_1 or a . b beyond double range is refused,
# naming ``a``, where numpy only warned of the overflow
A_SUMS = [
    (cost_bound, "thick1", {"T": 1.0, "gamma": 0.5, "d": 2}, "||a||_1"),
    (cost_bound, "thick2", {"T": 1.0, "gamma": 0.5}, "||a||_1"),
    (cost_bound, "fractional", {"T": 1.0, "gamma": 0.5, "theta": 1.0}, "||a||_1"),
    (_ucp, "spectral_cube", {"gamma": 0.5, "d": 2, "E": 1.0}, "||a||_1"),
    (_ucp, "spectral_fullspace", {"gamma": 0.5, "d": 2, "E": 1.0}, "||a||_1"),
    (_ucp, "kovrijkine", {"gamma": 0.5, "d": 2, "b": [1.0, 1.0]}, "a . b"),
    (_ucp, "kovrijkine_multi", {"gamma": 0.5, "d": 2, "n": 1, "p": 2.0, "b": [1.0, 1.0]},
     "a . b"),
    (_ucp, "ls_torus", {"gamma": 0.5, "d": 2, "p": 2.0, "b": [1.0, 1.0]}, "a . b"),
]


@pytest.mark.parametrize("evaluate,name,params,term", A_SUMS, ids=[c[1] for c in A_SUMS])
def test_a_sum_beyond_double_range_is_refused_naming_a(evaluate, name, params, term):
    with pytest.raises(ParameterError) as err:
        evaluate(name, {**params, "a": [1e308, 1e308]})
    assert str(err.value) == f"{name}: {term} is not finite (inf) for a = [1e+308, 1e+308]"


def test_calibrations_keep_monotone_predicates_past_double_range():
    # thick1 overflows already at K = 1, so K = 1 covers every pair
    pairs = [(0.5, 3.0), (1.0, 2.0)]
    assert calibrate_thick1(pairs, {"gamma": 1e-300, "a": [1.0], "d": 1}).K == 1.0


def test_miller_right_side_beyond_double_range_refused():
    with pytest.raises(ParameterError,
                       match="^the right side of the root equation is beyond double range$"):
        miller_cstar(0.01, 1e308, 1e-300)
