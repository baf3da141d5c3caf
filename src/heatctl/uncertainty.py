"""Empirical spectral-inequality constants and their closed-form counterparts.

``spectral_ineq_constant`` measures the optimal constant on a truncated
spectral subspace (smallest eigenvalue of the projected set Gram), and the
``ucp_bound`` evaluators give the matching closed-form lower bounds, whose
unspecified universal constants live in :class:`UniversalConstants`.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _trig, runio
from .errors import DegenerateSetError, ParameterError
from .geometry import ObservabilitySet, check_gamma, check_ratio, gram_matrix, set_blocks
from .spectral import PotentialSpec, galerkin_matrix, galerkin_schrodinger


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
                raise ParameterError(f"constant {f.name} must be a positive number")


# frozen, so one instance serves every evaluation that names no constants
DEFAULT_CONSTANTS = UniversalConstants()


@dataclass(frozen=True)
class UncertaintyFit:
    """Envelope fit ``C_ur(E) = d0 * exp(d1 * E_+^s)`` of ``1/C_emp``."""

    d0: float
    d1: float
    s: float
    residual: float

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


def _smallest_passing(ok, k_min, k_max):
    """Smallest ``k`` in ``[k_min, k_max]`` with ``ok(k)``, for ``ok`` false
    below a threshold and true above it, and ``k_min`` 0 or a power of two
    at most 1.

    Brackets the threshold from ``k = 1``: halving while ``ok`` passes, and
    returning ``k_min`` when the halving reaches it, or doubling while it
    fails, the last step clipped to ``k_max``; then halves the bracket 80
    times and returns its passing end.  Raises :class:`ParameterError` when
    ``ok(k_max)`` fails too.
    """
    hi = 1.0
    if ok(hi):
        while hi > k_min and ok(hi / 2.0):
            hi /= 2.0
        if hi <= k_min:
            return hi
        lo = hi / 2.0
    else:
        while True:
            lo, hi = hi, min(2.0 * hi, k_max)
            if ok(hi):
                break
            if hi >= k_max:
                raise ParameterError(f"monotone search found no passing value up to {k_max}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _check_s(s):
    """The decay exponent ``s`` as a float; refused unless it lies in (0, 1)."""
    s = float(s)
    if not (0 < s < 1):
        raise ParameterError("s must be in (0, 1)")
    return s


def subspace_indices(op, E):
    idx = np.flatnonzero(op.eigvals <= E)
    if idx.size == 0:
        raise ParameterError(f"no eigenvalue below E={E}")
    return idx


def _check_operands(op, S, gram):
    """Refuse a constant with neither a set nor its Gram, or with a ``gram``
    that is not an ``(n, n)`` array."""
    n = op.n
    if S is None and gram is None:
        raise ParameterError(f"a spectral constant needs a set or its ({n}, {n}) gram")
    if gram is not None and not (isinstance(gram, np.ndarray) and gram.shape == (n, n)):
        got = f"shape {gram.shape}" if isinstance(gram, np.ndarray) else type(gram).__name__
        raise ParameterError(f"gram must be an ({n}, {n}) array, not {got}")


def _constants(op, S, grid, gram):
    """The constant at each energy of ``grid``, from the leading blocks of
    one :func:`heatctl.geometry.set_blocks` at the largest of them.

    On a dense handle an energy at or above its top eigenvalue keeps every
    mode, and the eigenbasis is an orthogonal change of basis, so there the
    constant is the smallest eigenvalue of the set Gram itself: the smallest
    over the blocks of the diagonal handle on the same basis, with no
    projection.  The blocks below it are formed at the largest energy below
    it, and both read one assembled Gram."""
    _check_operands(op, S, gram)
    for E in grid:
        subspace_indices(op, E)  # refuses an E below the spectrum
    if S is not None and S.kind in ("full", "empty"):
        return [float(S.kind == "full") for _ in grid]
    top = math.inf if op.is_diagonal else op.eigvals[-1]
    below = [E for E in grid if E < top]
    whole = None
    if len(below) < len(grid):
        if below and gram is None:
            gram = gram_matrix(op.basis, S)
        whole = min(float(np.linalg.eigvalsh(B)[0]) for _, _, B in
                    set_blocks(galerkin_schrodinger(op.basis), S, math.inf, gram))
    blocks = set_blocks(op, S, max(below), gram) if below else []
    out = []
    for E in grid:
        leading = [B[:k, :k] for _, mu, B in blocks if (k := np.count_nonzero(mu <= E))]
        out.append(min(float(np.linalg.eigvalsh(B)[0]) for B in leading) if E < top else whole)
    return out


def spectral_ineq_constant(op, S, E, gram=None):
    """Optimal constant of the truncated spectral inequality.

    Smallest eigenvalue of the set Gram projected onto the span of
    eigenvectors with eigenvalue <= E.  Lies in [0, 1] and is
    non-increasing in E by subspace nesting.  It is the smallest over the
    classes of ``S`` that the Gram never couples, whose blocks
    :func:`heatctl.geometry.set_blocks` chooses and forms: parity blocks of
    a set that meets a torus in one box, Bloch classes of a tiled one, or
    the one class of all modes.  ``gram``, the set Gram if the caller holds
    it, must be an ``(n, n)`` array; without a set (``S=None``) it is
    required, and the parity blocks do not read it.  On a handle with a
    potential an ``E`` at or above its top eigenvalue keeps every mode, so
    the constant is the smallest eigenvalue of the set Gram itself, read
    from the blocks of the set on the handle's basis (as without a
    potential) with no projection.  An ``E`` below the
    spectrum is refused; the ``full`` set gives exactly 1 and the ``empty``
    set exactly 0.  The library keeps no basis cutoff to check ``E``
    against: above the ``e_max`` the basis was built to, the result is the
    constant of the whole truncated basis, not of the spectral subspace.
    The CLI runners refuse such an ``E``.
    """
    return _constants(op, S, [E], gram)[0]


def spectral_ineq_sweep(op, S, e_grid, gram=None):
    """(E, C_emp) pairs over a grid, as :func:`spectral_ineq_constant` gives
    them for the same ``S`` and ``gram``.  The blocks are formed once, at
    the largest energy, and the constant at each energy is read from their
    leading blocks up to it."""
    grid = [float(E) for E in e_grid]
    return list(zip(grid, _constants(op, S, grid, gram)))


def _check_positive(pairs):
    """Refuse ``(E, C_emp)`` pairs with a ``C_emp`` that is not positive, naming
    the first such ``E``: no closed form fits a vanishing constant."""
    for E, c in pairs:
        if not c > 0:
            raise DegenerateSetError(f"C_emp vanishes on the fit grid at E={E}: C_emp={c}")


def fit_uncertainty_form(pairs, s):
    """Least-squares fit of ``-ln C_emp ~ ln d0 + d1 E^s``, then envelope.

    ``d0`` is inflated so that ``C_emp >= 1/(d0 exp(d1 E^s))`` holds at every
    fitted point; ``d1`` is clamped at zero.
    """
    s = _check_s(s)
    pairs = [(float(E), float(c)) for E, c in pairs]
    if len(pairs) < 3:
        raise ParameterError("need at least three (E, C_emp) pairs")
    _check_positive(pairs)
    E = np.array([p[0] for p in pairs])
    y = -np.log([p[1] for p in pairs])
    coef, A = _line_fit(np.maximum(E, 0.0) ** s, y)
    d1 = max(float(coef[1]), 0.0)
    d0 = math.exp(float(coef[0]))
    resid = float(np.sqrt(np.mean((A @ np.array([math.log(d0), d1]) - y) ** 2)))
    envelope = max(1.0 / (c * math.exp(d1 * max(Ei, 0.0) ** s)) for Ei, c in pairs)
    d0 = max(d0, envelope)
    return UncertaintyFit(d0=d0, d1=d1, s=float(s), residual=resid)


def _lookup(registry, name):
    """Registry entry of a bound name; ``-`` reads as ``_``."""
    key = name.replace("-", "_")
    if key not in registry:
        raise ParameterError(f"unknown bound name {name!r}")
    return registry[key]


def _saturating(trivial, fn, *args, **kw):
    """``fn(*args, **kw)``, or ``trivial`` where its float arithmetic leaves double
    range: a power or ``math.exp`` that overflows, or a divisor that underflows to 0."""
    try:
        return fn(*args, **kw)
    except (OverflowError, ZeroDivisionError):
        return trivial


def _evaluate(form, name, params, constants, trivial):
    """``form(constants, **params)`` on the entries of ``params`` that ``form`` takes,
    a ``None`` one counting as missing, each read by the annotation of its parameter
    (see :func:`heatctl.runio.call`); a refusal names the bound and the key.  A value
    beyond double range saturates to ``trivial``, the side on which the form's
    statement holds for any value: ``inf`` for an upper bound, ``0.0`` for a lower one."""
    taken = list(runio.signature_of(form).parameters)[1:]
    given = {key: params[key] for key in taken if params.get(key) is not None}
    try:
        return _saturating(trivial, runio.call, form, given, "params",
                           c=constants or DEFAULT_CONSTANTS)
    except ParameterError as exc:
        raise ParameterError(f"{name}: {exc}") from exc


def _nonnegative(key, value):
    """``value``; refused naming ``key`` unless it is non-negative."""
    if value < 0:
        raise ParameterError(f"{key} must be non-negative")
    return value


def _ucp_exponent(G, v, e=0.0):
    """``1 + G^{4/3} v^{2/3} + G sqrt(e)``, the exponent of the (G, delta) forms."""
    return 1.0 + G ** (4.0 / 3.0) * v ** (2.0 / 3.0) + G * math.sqrt(e)


def _a_term(a, b=None):
    """``||a||_1``, or ``a . b`` when ``b`` is given, as a float.  numpy only warns
    when the sum leaves double range, so that is refused here, naming ``a``, as
    is a ``b`` whose shape is not that of ``a``."""
    if b is not None and np.shape(a) != np.shape(b):
        raise ParameterError(f"a and b must be of equal length, not a = {a} and b = {b}")
    with np.errstate(over="ignore"):
        value = float(np.sum(np.abs(a)) if b is None else np.dot(a, b))
    if not math.isfinite(value):
        raise ParameterError(f"{'||a||_1' if b is None else 'a . b'} is not finite ({value}) "
                             f"for a = {a}")
    return value


def _kovrijkine(c, gamma: float, d: int, a, b):
    gamma = check_gamma(gamma)
    return (gamma / c.K1 ** d) ** (c.K1 * (_a_term(a, b) + d))


def _parallelepiped(K, gamma, d, n, p, a, b):
    """n-parallelepiped form ``(gamma/K^d)^((K^d/gamma)^n a.b + n - (p-1)/p)``."""
    gamma = check_gamma(gamma)
    return (gamma / K ** d) ** ((K ** d / gamma) ** n * _a_term(a, b) + n - (p - 1.0) / p)


def _kovrijkine_multi(c, gamma: float, d: int, n: int, p: float, a, b):
    return _parallelepiped(c.K2, gamma, d, n, p, a, b)


def _ls_torus(c, gamma: float, d: int, p: float, a, b):
    gamma = check_gamma(gamma)
    return (gamma / c.K3 ** d) ** (c.K3 * _a_term(a, b) + (6.0 * d + 1.0) / p)


def _ls_torus_multi(c, gamma: float, d: int, n: int, p: float, a, b):
    return _parallelepiped(c.K4, gamma, d, n, p, a, b)


def _spectral_cube(c, gamma: float, d: int, E: float, a):
    gamma, E = check_gamma(gamma), _nonnegative("E", E)
    return (gamma / c.K5 ** d) ** (c.K5 * math.sqrt(E) * _a_term(a) + (6.0 * d + 1.0) / 2.0)


def _spectral_fullspace(c, gamma: float, d: int, E: float, a):
    gamma, E = check_gamma(gamma), _nonnegative("E", E)
    return (gamma / c.K1 ** d) ** (c.K1 * (2.0 * math.sqrt(E) * _a_term(a) + d))


def _eigenfunction(c, G: float, delta: float, v_minus_e_norm: float):
    G, delta = check_ratio(G, delta)
    v = _nonnegative("v_minus_e_norm", v_minus_e_norm)
    return (delta / G) ** (c.K * _ucp_exponent(G, v))


def _klein_gamma(c, G: float, delta: float, v_norm: float, E: float):
    G, delta = check_ratio(G, delta)
    v = _nonnegative("v_norm", v_norm)
    if 2.0 * v + E < 0:
        raise ParameterError("2 v_norm + E must be non-negative")
    return 0.5 * (delta / G) ** (c.K * _ucp_exponent(G, 2.0 * v + E))


def _spectral_projector(c, G: float, delta: float, v_norm: float, E: float):
    G, delta = check_ratio(G, delta)
    v, E = _nonnegative("v_norm", v_norm), _nonnegative("E", E)
    return (delta / G) ** (c.K * _ucp_exponent(G, v, E))


def _shifted_ucp_exponent(lam, G, E, v_lo, v_hi):
    return _ucp_exponent(G, max(v_hi - lam, lam - v_lo), max(E - lam, 0.0))


def _spectral_projector_shifted(c, G: float, delta: float, E: float, v_lo: float,
                                v_hi: float):
    """``spectral_projector`` at the best shift ``lambda`` of ``V`` and ``E``.

    The exponent is non-increasing up to the midpoint ``m`` of
    ``[v_lo, v_hi]``, concave on ``[m, E]`` (a sum of two concave terms) and
    increasing beyond ``max(E, m)``, so its minimum is at ``m`` or at
    ``max(E, m)``.
    """
    G, delta = check_ratio(G, delta)
    if v_hi < v_lo:
        raise ParameterError("v_hi must be >= v_lo")
    m = 0.5 * (v_lo + v_hi)
    expo = min(_shifted_ucp_exponent(lam, G, E, v_lo, v_hi) for lam in (m, max(E, m)))
    return (delta / G) ** (c.K * expo)


_UCP_FORMS = {
    "kovrijkine": _kovrijkine,
    "kovrijkine_multi": _kovrijkine_multi,
    "ls_torus": _ls_torus,
    "ls_torus_multi": _ls_torus_multi,
    "spectral_cube": _spectral_cube,
    "spectral_fullspace": _spectral_fullspace,
    "eigenfunction": _eigenfunction,
    "klein_gamma": _klein_gamma,
    "spectral_projector": _spectral_projector,
    "spectral_projector_shifted": _spectral_projector_shifted,
}


def ucp_bound(name, constants=None, **p):
    """Closed-form spectral-inequality constants, by bound name.

    Names and parameters, each the keyword parameter of the same name of the
    bound's formula:

    ``kovrijkine``: gamma, a, b, d -- ``(gamma/K1^d)^(K1 (a.b + d))``
    ``kovrijkine_multi``: gamma, a, b, d, n, p -- the n-parallelepiped variant
    ``ls_torus`` / ``ls_torus_multi``: torus band-limited variants (K3 / K4)
    ``spectral_cube``: gamma, a, d, E -- ``(gamma/K5^d)^(K5 sqrt(E)||a||_1 + (6d+1)/2)``
    ``spectral_fullspace``: gamma, a, d, E -- ``(gamma/K1^d)^(K1 (2 sqrt(E)||a||_1 + d))``
    ``eigenfunction``: G, delta, v_minus_e_norm -- ``(delta/G)^(K (1 + G^{4/3} ||V-E||^{2/3}))``
    ``klein_gamma``: G, delta, E, v_norm -- returns the norm lower-bound
    constant ``G^4 gamma^2 = (delta/G)^(K(1+G^{4/3}(2||V||+E)^{2/3})) / 2``
    ``spectral_projector``: G, delta, E, v_norm -- ``(delta/G)^(K(1+G^{4/3}||V||^{2/3}+G sqrt(E)))``
    ``spectral_projector_shifted``: G, delta, E, v_lo, v_hi -- the
    ``spectral_projector`` exponent minimized over shifts, in closed form.

    ``a`` and ``b`` are a number or a list of numbers, ``d`` and ``n``
    integers and every other parameter a number; a parameter the bound does
    not take is ignored.  A parameter that is missing or ``None``, of the
    wrong type (a string or ``True`` for a number, a fraction such as 1.5
    for an integer), or outside its formula's domain (``gamma`` in (0, 1],
    ``delta`` in (0, G/2), norms and ``E`` under a square root non-negative,
    ``2 v_norm + E >= 0``) raises :class:`ParameterError` that names the
    bound and the parameter, as :func:`heatctl.bounds.cost_bound` does.
    Every form is a lower bound, so a value beyond double range saturates to
    ``0.0``, which is trivially one.
    """
    return _evaluate(_lookup(_UCP_FORMS, name), name, p, constants, 0.0)


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
    check_gamma(gamma)
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
    if isinstance(W, ObservabilitySet):
        Mw = gram_matrix(op.basis, W)
        support = W if support is None else support
    elif isinstance(W, PotentialSpec):
        if W.inf_value < 0:
            raise ParameterError("perturbation must be non-negative")
        Mw = galerkin_matrix(op.basis, W) - np.diag(op.basis.eigenvalues)
    else:
        raise ParameterError("W must be a set indicator or a PotentialSpec")
    idx = subspace_indices(op, E)
    derivs = op.project_diagonal(Mw, idx)
    if support is None:
        ref = 0.0
    else:
        ref = spectral_ineq_constant(op, support, E, gram=Mw if support is W else None)
    return LiftingReport(
        indices=tuple(int(i) for i in idx),
        eigenvalues=tuple(float(op.eigvals[i]) for i in idx),
        derivatives=tuple(float(d) for d in derivs),
        reference_constant=float(ref),
    )


def calibrate_spectral_cube(pairs, gamma, a, d, constants=None):
    """Smallest ``K5 >= 1`` whose bound stays below every empirical pair.

    The ``spectral_cube`` value is strictly decreasing in ``K5`` for
    ``gamma <= 1``, so the envelope constant is found by bisection.  A pair
    whose ``C_emp`` is not positive is refused, as :func:`fit_uncertainty_form`
    refuses it: no positive bound lies below it.
    """
    if not pairs:
        raise ParameterError("need at least one (E, C_emp) pair")
    _check_positive(pairs)
    c = constants or DEFAULT_CONSTANTS

    def ok(k5):
        cc = replace(c, K5=k5)
        return all(ucp_bound("spectral_cube", cc, gamma=gamma, a=a, d=d, E=E) <= ce
                   for E, ce in pairs)

    return replace(c, K5=_smallest_passing(ok, 1.0, 2.0 ** 40))
