"""Closed-form control-cost bounds and auxiliary constants.

Evaluators are exact arithmetic in the supplied parameters; unspecified
universal constants come from :class:`~heatctl.uncertainty.UniversalConstants`
(default 1) and are surfaced in every table.  Bounds that are only proved
for small times carry a ``small_T_only`` validity flag rather than a guessed
cutoff.
"""

import math
from dataclasses import replace

import numpy as np

from .errors import ParameterError
from .geometry import check_gamma, check_ratio
from .uncertainty import (DEFAULT_CONSTANTS, _a_term, _check_s, _evaluate, _line_fit, _lookup,
                          _nonnegative, _saturating, _smallest_passing, _ucp_exponent)


def _positive_time(T):
    """``T``; refused unless it is positive."""
    if T <= 0:
        raise ParameterError("T must be positive")
    return T


def _thick1(c, T: float, gamma: float, d: int, a):
    T, gamma = _positive_time(T), check_gamma(gamma)
    c1 = (c.K ** d / gamma) ** (c.K * (d + _a_term(a)))
    return math.sqrt(c1) * math.exp(c1 / (2.0 * T))


def _thick2_exponent(c, gamma: float, a):
    return c.D3 * _a_term(a) ** 2 * math.log(c.D4 * check_gamma(gamma)) ** 2


def thick2_exponent(params, c):
    """1/T coefficient of the thick-set bound; scales as ``||a||_1**2``."""
    return _evaluate(_thick2_exponent, "thick2", params, c, math.inf)


def _thick2(c, T: float, gamma: float, a):
    T, gamma = _positive_time(T), check_gamma(gamma)
    return c.D1 / (gamma ** c.D2 * math.sqrt(T)) * math.exp(_thick2_exponent(c, gamma, a) / T)


def _equidistributed_small_time(c, T: float, G: float, delta: float, v_norm: float):
    T, (G, delta), v = _positive_time(T), check_ratio(G, delta), _nonnegative("v_norm", v_norm)
    lead = 2.0 * (G / delta) ** (c.K * _ucp_exponent(G, v))
    expo = v + math.log(delta / G) ** 2 * (c.K * G + 4.0 / math.log(2.0)) ** 2 / T
    return lead * math.exp(expo)


def _equidistributed_exponent(c, G: float, delta: float):
    G, delta = check_ratio(G, delta)
    return c.D3 * G ** 2 * math.log(delta / G) ** 2


def equidistributed_exponent(params, c):
    """1/T coefficient of the equidistributed bound; scales as ``G**2``."""
    return _evaluate(_equidistributed_exponent, "equidistributed", params, c, math.inf)


def _equidistributed(c, T: float, G: float, delta: float, v_norm: float = 0.0):
    T, (G, delta), v = _positive_time(T), check_ratio(G, delta), _nonnegative("v_norm", v_norm)
    lead = c.D1 / math.sqrt(T) * (G / delta) ** (c.D2 * _ucp_exponent(G, v))
    return lead * math.exp(_equidistributed_exponent(c, G, delta) / T)


def _abstract_observability(c, T: float, s: float, d0: float, d1: float, B_norm: float,
                            beta: float = 0.0):
    """Squared observability constant of the abstract cost estimate."""
    T, s = _positive_time(T), _check_s(s)
    if beta > 0:
        raise ParameterError("beta must be <= 0")
    if d0 <= 0 or d1 < 0 or B_norm < 0:
        raise ParameterError("d0 must be positive, d1 and B_norm non-negative")
    K = 2.0 * d0 * math.exp(-beta) * B_norm + 1.0
    inner = (d1 + (-beta) ** c.C4) / T ** s
    return (c.C1 * d0 / T) * K ** c.C2 * math.exp(c.C3 * inner ** (1.0 / (1.0 - s)))


def _tenenbaum_form(c, T: float, s: float):
    T, s = _positive_time(T), _check_s(s)
    return c.C1 / math.sqrt(T) * math.exp(c.C2 / T ** (s / (1.0 - s)))


def _beauchard_form(c, T: float):
    T = _positive_time(T)
    return c.C1 * math.exp(c.C1 / T)


def _fractional(c, T: float, gamma: float, theta: float, a):
    T, gamma = _positive_time(T), check_gamma(gamma)
    if theta <= 0.5:
        raise ParameterError("theta must exceed 1/2")
    a1 = _a_term(a)
    log_term = math.log(c.D4 / gamma)
    if log_term <= 0:
        raise ParameterError("fractional bound needs D4 > gamma")
    p = 2.0 * theta / (2.0 * theta - 1.0)
    expo = c.D3 * (a1 * log_term) ** p / T ** (1.0 / (2.0 * theta - 1.0))
    return c.D1 / (gamma ** c.D2 * math.sqrt(T)) * math.exp(expo)


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
    return _lookup(_REGISTRY, name)[1]


def cost_bound(name, params=None, constants=None, **kw):
    """Evaluate one cost bound by name.

    ``params`` may be a dict; extra keyword arguments override it.  The
    bound's formula takes the entries of the same name as its keyword
    parameters (``a`` a number or a list of numbers, ``d`` an integer, every
    other one a number) and ignores the rest.  Missing (or ``None``) fields,
    fields of the wrong type (a string or ``True`` for a number, a fraction
    for an integer) and out-of-range fields, negative norms included, raise
    :class:`ParameterError` naming the bound and the field.
    Note ``abstract_observability`` returns the squared observability constant,
    the quantity the underlying estimate controls.  Every bound is an upper
    bound, so a value beyond double range saturates to ``inf``, which is
    trivially one.
    """
    fn, _ = _lookup(_REGISTRY, name)
    return _evaluate(fn, name, {**(params or {}), **kw}, constants, math.inf)


def miller_root_map(s, beta):
    return s * (s + beta + 1.0) ** beta


def miller_cstar(beta: float, b: float, a: float = 0.0, m: float = 0.0):
    """Root of ``s (s + beta + 1)^beta = rhs`` and the implied cost constant.

    The left side is strictly increasing in ``s``, vanishes at 0 and is at
    least ``s``, so the root lies in ``(0, rhs]``: it is bracketed between
    powers of two, the last one clipped to ``rhs``, and bisected to the
    smallest double where the left side reaches the right, for every finite
    right side.  With ``b`` taken from the
    root equation, ``c* = [(a+m)(s+beta+1)^(beta+1)/(beta+1)]^(beta+1) /
    beta^(beta^2)`` holds no power of ``s`` that could underflow.  Returns
    ``(s_root, c_star)``; a right side or a ``c*`` beyond double range is
    refused.
    """
    if beta <= 0 or b <= 0:
        raise ParameterError("beta and b must be positive")
    if a < 0 or m < 0 or a + m <= 0:
        raise ParameterError("a and m must be non-negative with a + m > 0")
    rhs = _saturating(math.inf, lambda: (beta + 1.0) * beta ** (beta ** 2 / (beta + 1.0))
                      * b ** (1.0 / (beta + 1.0)) / (a + m))
    if not 0 < rhs < math.inf:
        side = "underflows" if rhs == 0 else "is beyond double range"
        raise ParameterError(f"the right side of the root equation {side}")
    s = _smallest_passing(lambda s: miller_root_map(s, beta) >= rhs, 0.0, rhs)
    c_star = _saturating(math.inf, lambda: ((a + m) * (s + beta + 1.0) ** (beta + 1.0)
                                            / (beta + 1.0)) ** (beta + 1.0) / beta ** (beta ** 2))
    if not 0 < c_star < math.inf:
        raise ParameterError(f"the cost constant c* is beyond double range (beta={beta})")
    return s, c_star


def tenenbaum_threshold(s: float, d1: float):
    """Admissible-coefficient threshold ``h^{gh} g^{-g^2} d1^h`` with
    ``g = s/(1-s)`` and ``h = 1/(1-s)``; a threshold beyond double range is
    refused."""
    s = _check_s(s)
    if d1 < 0:
        raise ParameterError("d1 must be non-negative")
    g = s / (1.0 - s)
    h = 1.0 / (1.0 - s)
    value = _saturating(math.inf, lambda: h ** (g * h) * g ** (-g * g) * d1 ** h)
    if not value < math.inf:
        raise ParameterError(f"the threshold is beyond double range (s={s}, d1={d1})")
    return value


def regime_table(names, params, t_grid, constants=None):
    """Tabulate bounds over a T grid with asymptotic classifiers.

    Returns ``(rows, classifiers)``: one row per (name, T) with the value
    and validity flag plus the best bound per T; per name, the small-T
    coefficient (slope of ``ln value`` against ``1/T`` on the three smallest
    grid points, the limit of ``T ln value``) and the large-T exponent
    (slope of ``ln(sqrt(T) value)`` against ``ln T`` on the three largest).
    The first value that is not finite, in the order of ``names`` and then
    of ``T``, is refused with :class:`ParameterError` before any fit.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ParameterError("T grid is empty")
    c = constants or DEFAULT_CONSTANTS
    rows = []
    values = {}
    for name in names:
        vals = [cost_bound(name, params, c, T=T) for T in t_grid]
        values[name] = vals
        for T, v in zip(t_grid, vals):
            if not math.isfinite(v):
                raise ParameterError(f"bound {name} at T={T} is {v}, not a finite number")
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
    if not pairs:
        raise ParameterError("need at least one (T, C_emp) pair")
    c = constants or DEFAULT_CONSTANTS

    def ok(K):
        cc = replace(c, K=K)
        return all(cost_bound("thick1", params, cc, T=T) >= ce * (1 - 1e-12)
                   for T, ce in pairs)

    return replace(c, K=_smallest_passing(ok, 1.0, 2.0 ** 20))


def calibrate_prefactor(name, pairs, params, constants=None):
    """Scale ``D1`` so the named bound upper-envelopes the empirical pairs."""
    key = name.replace("-", "_")
    if key not in ("thick2", "equidistributed", "fractional"):
        raise ParameterError(f"{name} has no prefactor calibration")
    if not pairs:
        raise ParameterError("need at least one (T, C_emp) pair")
    c = constants or DEFAULT_CONSTANTS
    base = replace(c, D1=1.0)
    ratios = [ce / cost_bound(key, params, base, T=T) for T, ce in pairs]
    return replace(c, D1=max(max(ratios), 1e-300))
