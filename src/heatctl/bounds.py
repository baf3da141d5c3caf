"""Closed-form control-cost bounds and auxiliary constants.

Evaluators are exact arithmetic in the supplied parameters; unspecified
universal constants come from :class:`~heatctl.uncertainty.UniversalConstants`
(default 1) and are surfaced in every table.  Bounds that are only proved
for small times carry a ``small_T_only`` validity flag rather than a guessed
cutoff.
"""

import math

import numpy as np

from .errors import ParameterError
from .uncertainty import UniversalConstants, _line_fit, _smallest_passing


def _exp(x):
    """``exp`` saturating to inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _get(params, name, key):
    if key not in params or params[key] is None:
        raise ParameterError(f"{name} needs parameter {key!r}")
    return params[key]


def _a_norm1(params, name):
    a = _get(params, name, "a")
    return float(np.sum(np.abs(np.atleast_1d(a))))


def _check_T(params, name):
    T = float(_get(params, name, "T"))
    if T <= 0:
        raise ParameterError("T must be positive")
    return T


def _check_gamma(params, name):
    gamma = float(_get(params, name, "gamma"))
    if not (0 < gamma <= 1):
        raise ParameterError("gamma must be in (0, 1]")
    return gamma


def _check_ratio(params, name):
    G = float(_get(params, name, "G"))
    delta = float(_get(params, name, "delta"))
    if not (0 < delta < G / 2):
        raise ParameterError("delta must lie in (0, G/2)")
    return G, delta


def thick1_c1(params, c):
    gamma = _check_gamma(params, "thick1")
    d = int(_get(params, "thick1", "d"))
    a1 = _a_norm1(params, "thick1")
    return (c.K ** d / gamma) ** (c.K * (d + a1))


def _thick1(params, c):
    T = _check_T(params, "thick1")
    c1 = thick1_c1(params, c)
    return math.sqrt(c1) * _exp(c1 / (2.0 * T))


def thick2_exponent(params, c):
    """1/T coefficient of the thick-set bound; scales as ``||a||_1**2``."""
    gamma = _check_gamma(params, "thick2")
    a1 = _a_norm1(params, "thick2")
    return c.D3 * a1 ** 2 * math.log(c.D4 * gamma) ** 2


def _thick2(params, c):
    T = _check_T(params, "thick2")
    gamma = _check_gamma(params, "thick2")
    return c.D1 / (gamma ** c.D2 * math.sqrt(T)) * _exp(thick2_exponent(params, c) / T)


def _equidistributed_small_time(params, c):
    T = _check_T(params, "equidistributed_small_time")
    G, delta = _check_ratio(params, "equidistributed_small_time")
    v = float(_get(params, "equidistributed_small_time", "v_norm"))
    lead = 2.0 * (G / delta) ** (c.K * (1.0 + G ** (4.0 / 3.0) * v ** (2.0 / 3.0)))
    expo = v + math.log(delta / G) ** 2 * (c.K * G + 4.0 / math.log(2.0)) ** 2 / T
    return lead * _exp(expo)


def equidistributed_exponent(params, c):
    """1/T coefficient of the equidistributed bound; scales as ``G**2``."""
    G, delta = _check_ratio(params, "equidistributed")
    return c.D3 * G ** 2 * math.log(delta / G) ** 2


def _equidistributed(params, c):
    T = _check_T(params, "equidistributed")
    G, delta = _check_ratio(params, "equidistributed")
    v = float(params.get("v_norm", 0.0))
    lead = c.D1 / math.sqrt(T) * (G / delta) ** (c.D2 * (1.0 + G ** (4.0 / 3.0) * v ** (2.0 / 3.0)))
    return lead * _exp(equidistributed_exponent(params, c) / T)


def _abstract_observability(params, c):
    """Squared observability constant of the abstract cost estimate."""
    T = _check_T(params, "abstract_observability")
    s = float(_get(params, "abstract_observability", "s"))
    if not (0 < s < 1):
        raise ParameterError("s must be in (0, 1)")
    d0 = float(_get(params, "abstract_observability", "d0"))
    d1 = float(_get(params, "abstract_observability", "d1"))
    beta = float(params.get("beta", 0.0))
    if beta > 0:
        raise ParameterError("beta must be <= 0")
    b_norm = float(_get(params, "abstract_observability", "B_norm"))
    if d0 <= 0 or d1 < 0 or b_norm < 0:
        raise ParameterError("d0 must be positive, d1 and B_norm non-negative")
    K = 2.0 * d0 * math.exp(-beta) * b_norm + 1.0
    inner = (d1 + (-beta) ** c.C4) / T ** s
    return (c.C1 * d0 / T) * K ** c.C2 * _exp(c.C3 * inner ** (1.0 / (1.0 - s)))


def _tenenbaum_form(params, c):
    T = _check_T(params, "tenenbaum_form")
    s = float(_get(params, "tenenbaum_form", "s"))
    if not (0 < s < 1):
        raise ParameterError("s must be in (0, 1)")
    return c.C1 / math.sqrt(T) * _exp(c.C2 / T ** (s / (1.0 - s)))


def _beauchard_form(params, c):
    T = _check_T(params, "beauchard_form")
    return c.C1 * _exp(c.C1 / T)


def _fractional(params, c):
    T = _check_T(params, "fractional")
    gamma = _check_gamma(params, "fractional")
    theta = float(_get(params, "fractional", "theta"))
    if theta <= 0.5:
        raise ParameterError("theta must exceed 1/2")
    a1 = _a_norm1(params, "fractional")
    log_term = math.log(c.D4 / gamma)
    if log_term <= 0:
        raise ParameterError("fractional bound needs D4 > gamma")
    p = 2.0 * theta / (2.0 * theta - 1.0)
    expo = c.D3 * (a1 * log_term) ** p / T ** (1.0 / (2.0 * theta - 1.0))
    return c.D1 / (gamma ** c.D2 * math.sqrt(T)) * _exp(expo)


_REGISTRY = {
    "thick1": (_thick1, "all_T"),
    "thick2": (_thick2, "all_T"),
    "equidistributed_small_time": (_equidistributed_small_time, "small_T_only"),
    "equidistributed": (_equidistributed, "all_T"),
    "abstract_observability": (_abstract_observability, "all_T"),
    "tenenbaum_form": (_tenenbaum_form, "all_T"),
    "beauchard_form": (_beauchard_form, "all_T"),
    "fractional": (_fractional, "all_T"),
}

BOUND_NAMES = tuple(sorted(_REGISTRY))


def bound_validity(name):
    key = name.replace("-", "_")
    if key not in _REGISTRY:
        raise ParameterError(f"unknown bound name {name!r}")
    return _REGISTRY[key][1]


def cost_bound(name, params=None, constants=None, **kw):
    """Evaluate one cost bound by name.

    ``params`` may be a dict; extra keyword arguments override it.  Missing
    or out-of-range fields raise :class:`ParameterError` naming the field.
    Note ``abstract_observability`` returns the squared observability constant,
    the quantity the underlying estimate controls.
    """
    key = name.replace("-", "_")
    if key not in _REGISTRY:
        raise ParameterError(f"unknown bound name {name!r}")
    merged = dict(params or {})
    merged.update(kw)
    fn, _ = _REGISTRY[key]
    return fn(merged, constants or UniversalConstants())


def miller_root_map(s, beta):
    return s * (s + beta + 1.0) ** beta


def miller_cstar(beta, b, a=0.0, m=0.0):
    """Root of ``s (s + beta + 1)^beta = rhs`` and the implied cost constant.

    The left side is strictly increasing in ``s``, so the root is found by
    doubling a bracket and bisecting to 1e-12 relative accuracy.  Returns
    ``(s_root, c_star)``.
    """
    if beta <= 0 or b <= 0:
        raise ParameterError("beta and b must be positive")
    if a < 0 or m < 0 or a + m <= 0:
        raise ParameterError("a and m must be non-negative with a + m > 0")
    rhs = (beta + 1.0) * beta ** (beta ** 2 / (beta + 1.0)) * b ** (1.0 / (beta + 1.0)) / (a + m)
    hi = 1.0
    while miller_root_map(hi, beta) < rhs:
        hi *= 2.0
        if hi > 1e300:
            raise ParameterError("root bracket diverged")
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if miller_root_map(mid, beta) < rhs:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    c_star = ((beta + 1.0) * b / (a + m)) ** ((beta + 1.0) / beta) \
        * beta ** beta / s ** ((beta + 1.0) ** 2 / beta)
    return s, c_star


def tenenbaum_threshold(s, d1):
    """Admissible-coefficient threshold ``h^{gh} g^{-g^2} d1^h``."""
    if not (0 < s < 1):
        raise ParameterError("s must be in (0, 1)")
    if d1 < 0:
        raise ParameterError("d1 must be non-negative")
    g = s / (1.0 - s)
    h = 1.0 / (1.0 - s)
    return h ** (g * h) * g ** (-g * g) * d1 ** h


def regime_table(names, params, t_grid, constants=None):
    """Tabulate bounds over a T grid with asymptotic classifiers.

    Returns ``(rows, classifiers)``: one row per (name, T) with the value
    and validity flag plus the best bound per T; per name, the small-T
    coefficient (slope of ``ln value`` against ``1/T`` on the three smallest
    grid points, the limit of ``T ln value``) and the large-T exponent
    (slope of ``ln(sqrt(T) value)`` against ``ln T`` on the three largest).
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ParameterError("T grid is empty")
    c = constants or UniversalConstants()
    rows = []
    values = {}
    for name in names:
        vals = [cost_bound(name, params, c, T=T) for T in t_grid]
        values[name] = vals
        for T, v in zip(t_grid, vals):
            rows.append({"name": name, "T": T, "value": v,
                         "validity": bound_validity(name)})
    for i, T in enumerate(t_grid):
        best = min(names, key=lambda n: values[n][i])
        for row in rows:
            if row["T"] == T:
                row["best"] = best
    classifiers = {}
    for name in names:
        vals = np.array(values[name])
        k = min(3, len(t_grid))
        small, _ = _line_fit([1.0 / t for t in t_grid[:k]], np.log(vals[:k]))
        large, _ = _line_fit(np.log(t_grid[-k:]),
                             np.log(np.sqrt(t_grid[-k:]) * vals[-k:]))
        classifiers[name] = {"small_t_coefficient": float(small[1]),
                             "large_t_exponent": float(large[1])}
    return rows, classifiers


def calibrate_thick1(pairs, params, constants=None):
    """Smallest ``K >= 1`` making the bound an upper envelope of the data."""
    c = constants or UniversalConstants()

    def ok(K):
        cc = c.updated(K=K)
        return all(cost_bound("thick1", params, cc, T=T) >= ce * (1 - 1e-12)
                   for T, ce in pairs)

    return c.updated(K=_smallest_passing(ok, 2.0 ** 20))


def calibrate_prefactor(name, pairs, params, constants=None):
    """Scale ``D1`` so the named bound upper-envelopes the empirical pairs."""
    key = name.replace("-", "_")
    if key not in ("thick2", "equidistributed", "fractional"):
        raise ParameterError(f"{name} has no prefactor calibration")
    c = constants or UniversalConstants()
    base = c.updated(D1=1.0)
    ratios = [ce / cost_bound(key, params, base, T=T) for T, ce in pairs]
    return c.updated(D1=max(max(ratios), 1e-300))
