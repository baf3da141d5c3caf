"""Empirical spectral-inequality constants and their closed-form counterparts.

``spectral_ineq_constant`` measures the optimal constant on a truncated
spectral subspace (smallest eigenvalue of the projected set Gram), and the
``ucp_bound`` evaluators give the matching closed-form lower bounds, whose
unspecified universal constants live in :class:`UniversalConstants`.
"""

import math
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import _trig
from .errors import DegenerateSetError, ParameterError
from .geometry import gram_matrix

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class UniversalConstants:
    """The positive constants the theory leaves unspecified (default 1).

    They are configuration, not results: every closed-form bound surfaces
    the constants it used, and calibration routines may replace them with
    envelope fits against empirical data.
    """

    K1: float = 1.0
    K2: float = 1.0
    K3: float = 1.0
    K4: float = 1.0
    K5: float = 1.0
    K: float = 1.0
    D1: float = 1.0
    D2: float = 1.0
    D3: float = 1.0
    D4: float = 1.0
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    N1: float = 1.0
    N2: float = 1.0
    N3: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ParameterError(f"constant {f.name} must be positive")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown constants: {sorted(unknown)}")
        return cls(**data)

    def updated(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class UncertaintyFit:
    """Envelope fit ``C_ur(E) = d0 * exp(d1 * E_+^s)`` of ``1/C_emp``."""

    d0: float
    d1: float
    s: float
    residual: float
    e_grid: tuple

    def c_ur(self, E):
        return self.d0 * np.exp(self.d1 * np.maximum(E, 0.0) ** self.s)


def _line_fit(x, y):
    """Least-squares line ``y ~ coef[0] + coef[1] x``; returns ``(coef, A)``.

    ``A`` is the design matrix, so callers form fitted values as ``A @ c``.
    """
    x = np.asarray(x, dtype=float)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(y, dtype=float), rcond=None)
    return coef, A


def _smallest_passing(ok, k_max):
    """Smallest ``k >= 1`` with ``ok(k)``, for ``ok`` monotone in ``k``.

    Returns 1 when it passes; otherwise doubles up to ``k_max``, halves the
    last bracket 80 times and returns its passing end.
    """
    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > k_max:
            raise ParameterError("calibration did not converge")
    if hi == 1.0:
        return hi
    lo = hi / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def subspace_indices(op, E):
    idx = np.flatnonzero(op.eigvals <= E)
    if idx.size == 0:
        raise ParameterError(f"no eigenvalue below E={E}")
    return idx


def spectral_ineq_constant(op, S, E, gram=None):
    """Optimal constant of the truncated spectral inequality.

    Smallest eigenvalue of the set Gram projected onto the span of
    eigenvectors with eigenvalue <= E.  Lies in [0, 1] and is
    non-increasing in E by subspace nesting.
    """
    idx = subspace_indices(op, E)
    M = gram_matrix(op.basis, S) if gram is None else gram
    if op.is_diagonal:
        sub = M[np.ix_(idx, idx)]
    else:
        V = op.eigvecs[:, idx]
        sub = V.T @ M @ V
    return float(np.linalg.eigvalsh(sub)[0])


def spectral_ineq_sweep(op, S, e_grid):
    """(E, C_emp) pairs over a grid, reusing one Gram assembly."""
    M = gram_matrix(op.basis, S)
    return [(float(E), spectral_ineq_constant(op, S, E, gram=M)) for E in e_grid]


def fit_uncertainty_form(pairs, s):
    """Least-squares fit of ``-ln C_emp ~ ln d0 + d1 E^s``, then envelope.

    ``d0`` is inflated so that ``C_emp >= 1/(d0 exp(d1 E^s))`` holds at every
    fitted point; ``d1`` is clamped at zero.
    """
    if not (0 < s < 1):
        raise ParameterError("s must be in (0, 1)")
    pairs = [(float(E), float(c)) for E, c in pairs]
    if len(pairs) < 3:
        raise ParameterError("need at least three (E, C_emp) pairs")
    if any(c <= 0 for _, c in pairs):
        raise DegenerateSetError("C_emp vanishes on the fit grid")
    E = np.array([p[0] for p in pairs])
    y = -np.log([p[1] for p in pairs])
    coef, A = _line_fit(np.maximum(E, 0.0) ** s, y)
    d1 = max(float(coef[1]), 0.0)
    d0 = math.exp(float(coef[0]))
    resid = float(np.sqrt(np.mean((A @ np.array([math.log(d0), d1]) - y) ** 2)))
    envelope = max(1.0 / (c * math.exp(d1 * max(Ei, 0.0) ** s)) for Ei, c in pairs)
    d0 = max(d0, envelope)
    return UncertaintyFit(d0=d0, d1=d1, s=float(s), residual=resid,
                          e_grid=tuple(float(p[0]) for p in pairs))


def _golden_min(f, lo, hi, tol=1e-8):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _shifted_ucp_exponent(lam, G, E, v_lo, v_hi):
    v_dist = max(v_hi - lam, lam - v_lo)
    return 1.0 + G ** (4.0 / 3.0) * v_dist ** (2.0 / 3.0) + G * math.sqrt(max(E - lam, 0.0))


def ucp_bound(name, constants=None, **p):
    """Closed-form spectral-inequality constants, by bound name.

    Names and required parameters:

    ``kovrijkine``: gamma, a, b, d -- ``(gamma/K1^d)^(K1 (a.b + d))``
    ``kovrijkine_multi``: gamma, a, b, d, n, p -- the n-parallelepiped variant
    ``ls_torus`` / ``ls_torus_multi``: torus band-limited variants (K3 / K4)
    ``spectral_cube``: gamma, a, d, E -- ``(gamma/K5^d)^(K5 sqrt(E)||a||_1 + (6d+1)/2)``
    ``spectral_fullspace``: gamma, a, d, E -- ``(gamma/K1^d)^(K1 (2 sqrt(E)||a||_1 + d))``
    ``eigenfunction``: G, delta, v_minus_e_norm -- ``(delta/G)^(K (1 + G^{4/3} ||V-E||^{2/3}))``
    ``klein_gamma``: G, delta, E, v_norm -- returns the norm lower-bound
    constant ``G^4 gamma^2 = (delta/G)^(K(1+G^{4/3}(2||V||+E)^{2/3})) / 2``
    ``spectral_projector``: G, delta, E, v_norm -- ``(delta/G)^(K(1+G^{4/3}||V||^{2/3}+G sqrt(E)))``
    ``spectral_projector_shifted``: G, delta, E, v_lo, v_hi -- ``sup_lambda`` of the shifted spectral_projector
    exponent, solved by a 256-point grid scan plus golden-section refinement.
    """
    c = constants or UniversalConstants()
    key = name.replace("-", "_")

    def need(*keys):
        missing = [k for k in keys if k not in p]
        if missing:
            raise ParameterError(f"{name} needs parameters {missing}")

    def thick():
        gamma = p["gamma"]
        if not (0 < gamma <= 1):
            raise ParameterError("gamma must be in (0, 1]")
        return gamma

    if key == "kovrijkine":
        need("gamma", "a", "b", "d")
        gamma, d = thick(), int(p["d"])
        ab = float(np.dot(p["a"], p["b"]))
        return (gamma / c.K1 ** d) ** (c.K1 * (ab + d))
    if key == "kovrijkine_multi":
        need("gamma", "a", "b", "d", "n", "p")
        gamma, d, n, pp = thick(), int(p["d"]), int(p["n"]), float(p["p"])
        ab = float(np.dot(p["a"], p["b"]))
        expo = (c.K2 ** d / gamma) ** n * ab + n - (pp - 1.0) / pp
        return (gamma / c.K2 ** d) ** expo
    if key == "ls_torus":
        need("gamma", "a", "b", "d", "p")
        gamma, d, pp = thick(), int(p["d"]), float(p["p"])
        ab = float(np.dot(p["a"], p["b"]))
        return (gamma / c.K3 ** d) ** (c.K3 * ab + (6.0 * d + 1.0) / pp)
    if key == "ls_torus_multi":
        need("gamma", "a", "b", "d", "n", "p")
        gamma, d, n, pp = thick(), int(p["d"]), int(p["n"]), float(p["p"])
        ab = float(np.dot(p["a"], p["b"]))
        expo = (c.K4 ** d / gamma) ** n * ab + n - (pp - 1.0) / pp
        return (gamma / c.K4 ** d) ** expo
    if key == "spectral_cube":
        need("gamma", "a", "d", "E")
        gamma, d, E = thick(), int(p["d"]), float(p["E"])
        if E < 0:
            raise ParameterError("E must be non-negative")
        a1 = float(np.sum(np.abs(p["a"])))
        return (gamma / c.K5 ** d) ** (c.K5 * math.sqrt(E) * a1 + (6.0 * d + 1.0) / 2.0)
    if key == "spectral_fullspace":
        need("gamma", "a", "d", "E")
        gamma, d, E = thick(), int(p["d"]), float(p["E"])
        a1 = float(np.sum(np.abs(p["a"])))
        return (gamma / c.K1 ** d) ** (c.K1 * (2.0 * math.sqrt(E) * a1 + d))

    if key in ("eigenfunction", "klein_gamma", "spectral_projector", "spectral_projector_shifted"):
        need("G", "delta")
        G, delta = float(p["G"]), float(p["delta"])
        if not (0 < delta < G / 2):
            raise ParameterError("delta must lie in (0, G/2)")
        ratio = delta / G
        if key == "eigenfunction":
            need("v_minus_e_norm")
            return ratio ** (c.K * (1.0 + G ** (4.0 / 3.0) * p["v_minus_e_norm"] ** (2.0 / 3.0)))
        if key == "klein_gamma":
            need("E", "v_norm")
            expo = c.K * (1.0 + G ** (4.0 / 3.0) * (2.0 * p["v_norm"] + p["E"]) ** (2.0 / 3.0))
            return 0.5 * ratio ** expo
        if key == "spectral_projector":
            need("E", "v_norm")
            E = float(p["E"])
            if E < 0:
                raise ParameterError("E must be non-negative")
            expo = c.K * (1.0 + G ** (4.0 / 3.0) * p["v_norm"] ** (2.0 / 3.0)
                          + G * math.sqrt(E))
            return ratio ** expo
        # spectral_projector_shifted: best shift of the potential/energy pair
        need("E", "v_lo", "v_hi")
        E, v_lo, v_hi = float(p["E"]), float(p["v_lo"]), float(p["v_hi"])
        if v_hi < v_lo:
            raise ParameterError("v_hi must be >= v_lo")
        v_norm = max(abs(v_lo), abs(v_hi))
        lo = -v_norm - max(E, 0.0)
        hi = max(E, v_hi)
        if hi - lo < 1e-12:
            lam_star = lo
        else:
            grid = np.linspace(lo, hi, 256)
            vals = [_shifted_ucp_exponent(l, G, E, v_lo, v_hi) for l in grid]
            i = int(np.argmin(vals))
            a = grid[max(i - 1, 0)]
            b = grid[min(i + 1, 255)]
            lam_star = _golden_min(lambda l: _shifted_ucp_exponent(l, G, E, v_lo, v_hi), a, b)
        return ratio ** (c.K * _shifted_ucp_exponent(lam_star, G, E, v_lo, v_hi))

    raise ParameterError(f"unknown bound name {name!r}")


def _sin_power_integral(power, x):
    """``int_0^x sin(t)^power dt`` for ``0 <= x <= pi/2``.

    The integrand vanishes like ``t^power`` at 0, which spoils Gauss-Legendre
    on a panel touching 0 when the power is fractional.  In ``t = x 2^-u``
    equal panels in ``u`` shrink geometrically toward ``t = 0`` and the
    integrand is smooth; the cut at ``u = 40`` drops a share of about
    ``2^-(40 (power + 1))``.
    """
    def integrand(u):
        t = x * 2.0 ** -u
        return np.sin(t) ** power * t

    return math.log(2.0) * _trig.quad_interval(integrand, 0.0, 40.0, panels=20)


def sharpness_example_torus(eps, b, p=2.0):
    """Band-limited sharpness ratio on the unit torus vs its stated bound.

    Measures ``||f||_{L^p(band)} / ||f||_{L^p([0,1])}`` for
    ``f = sin(2 pi x)^alpha`` with ``alpha = floor(b / 4 pi)`` and the
    centered band of width ``eps``; returns ``(ratio, upper)`` where
    ``upper = (eps / (2/pi^2))^(b/(4 pi) - 1)``.
    """
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    if p < 1:
        raise ParameterError("p must be >= 1")
    if b < 8 * math.pi:
        raise ParameterError("b must be at least 8*pi")
    alpha = math.floor(b / (4 * math.pi))
    if alpha < 1:
        raise ParameterError("b/(4 pi) must be at least 1")
    power = p * alpha
    # in t = 2 pi |x - 1/2| the band folds onto [0, pi eps] and [0, 1] onto
    # [0, pi]; sin^power is symmetric about pi/2, and its quarter integral
    # int_0^{pi/2} sin^power has the Wallis closed form below
    quarter = math.sqrt(math.pi) / 2.0 * math.exp(
        math.lgamma((power + 1.0) / 2.0) - math.lgamma(power / 2.0 + 1.0))
    if eps <= 0.5:
        band = _sin_power_integral(power, math.pi * eps)
    else:
        band = 2.0 * quarter - _sin_power_integral(power, math.pi * (1.0 - eps))
    ratio = (band / (2.0 * quarter)) ** (1.0 / p)
    upper = (eps / (2.0 / math.pi ** 2)) ** (b / (4 * math.pi) - 1.0)
    return ratio, upper


def sharpness_example_sparse(b, gamma):
    """L1 mass of ``sin(2 b pi x)`` on ``[0, gamma]`` vs the quadratic bound.

    Closed-form antiderivatives; returns ``(ratio, (pi^2/2) b gamma^2)``.
    """
    b = int(b)
    if b < 1:
        raise ParameterError("b must be a positive integer")
    if not (0 < gamma <= 1):
        raise ParameterError("gamma must be in (0, 1]")
    w = 2 * b * math.pi
    half = 1.0 / (2 * b)        # half-period of |sin|
    m = int(math.floor(gamma / half))
    rem = gamma - m * half
    integral = m * (2.0 / w) + (1.0 - math.cos(w * rem)) / w
    total = 2 * b * (2.0 / w)   # = 2/pi
    ratio = integral / total
    bound = (math.pi ** 2 / 2.0) * b * gamma ** 2
    return ratio, bound


@dataclass(frozen=True)
class LiftingReport:
    """First-order eigenvalue responses to a non-negative perturbation."""

    indices: tuple
    eigenvalues: tuple
    derivatives: tuple
    reference_constant: float

    @property
    def all_above_reference(self):
        return all(d >= self.reference_constant - 1e-8 for d in self.derivatives)


def eigenvalue_lifting_check(op, W, E, support=None):
    """Hellmann-Feynman derivatives ``<psi_k, W psi_k>`` for eigenvalues <= E.

    ``W`` is an :class:`~heatctl.geometry.ObservabilitySet` (indicator) or a
    non-negative :class:`~heatctl.spectral.PotentialSpec`.  When a support
    set is known (``W`` itself, or ``support``), the derivatives are compared
    against the empirical spectral-inequality constant of that set.
    """
    from .geometry import ObservabilitySet
    from .spectral import PotentialSpec, galerkin_schrodinger

    if isinstance(W, ObservabilitySet):
        Mw = gram_matrix(op.basis, W)
        support = W if support is None else support
    elif isinstance(W, PotentialSpec):
        if W.inf_value < 0:
            raise ParameterError("perturbation must be non-negative")
        zero_op = galerkin_schrodinger(op.basis, W)
        Mw = zero_op.matrix - np.diag(op.basis.eigenvalues)
    else:
        raise ParameterError("W must be a set indicator or a PotentialSpec")
    idx = subspace_indices(op, E)
    V = op.eigvecs[:, idx]
    derivs = np.einsum("ij,ij->j", V, Mw @ V)
    ref = spectral_ineq_constant(op, support, E) if support is not None else 0.0
    return LiftingReport(
        indices=tuple(int(i) for i in idx),
        eigenvalues=tuple(float(op.eigvals[i]) for i in idx),
        derivatives=tuple(float(d) for d in derivs),
        reference_constant=float(ref),
    )


def calibrate_spectral_cube(pairs, gamma, a, d, constants=None):
    """Smallest ``K5 >= 1`` whose bound stays below every empirical pair.

    The ``spectral_cube`` value is strictly decreasing in ``K5`` for
    ``gamma <= 1``, so the envelope constant is found by bisection.
    """
    c = constants or UniversalConstants()

    def ok(k5):
        cc = c.updated(K5=k5)
        return all(ucp_bound("spectral_cube", cc, gamma=gamma, a=a, d=d, E=E) <= ce
                   for E, ce in pairs)

    return c.updated(K5=_smallest_passing(ok, 2.0 ** 40))
