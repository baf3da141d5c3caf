"""Null-control synthesis for the truncated controlled heat equation.

Everything acts in the eigenbasis of the generator handle: the control
operator enters only through its Gram matrix conjugated into that basis,
which is exact for the truncated Galerkin system.  Controls are closed-form
``f(s) = -B* exp(-(t_end - s) A) v`` phases, so trajectories and norms are
integrated analytically rather than time-stepped.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConditioningError, ParameterError
from .geometry import gram_matrix

COND_CAP = 1e12
EIG_FLOOR = 1e-14


def _phi(alpha, s):
    """``int_0^alpha exp(-s t) dt`` elementwise, continuous at s = 0."""
    s = np.asarray(s, dtype=float)
    safe = np.where(s == 0.0, 1.0, s)
    return np.where(s == 0.0, alpha, -np.expm1(-safe * alpha) / safe)


@dataclass
class ControlProblem:
    """Generator handle + control Gram + horizon (+ optional initial state).

    ``control_gram`` is the matrix of ``B B*`` in the handle's function
    basis; for interior control on a set it is the set's Gram matrix, for a
    scalar system ``B = c`` it is ``[[c**2]]``.
    """

    op: object
    control_gram: np.ndarray
    T: float
    u0: np.ndarray = None
    set_hash: str = None
    _mtil: np.ndarray = field(default=None, repr=False)
    _factor: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ParameterError("horizon T must be positive")
        self.control_gram = np.asarray(self.control_gram, dtype=float)
        if self.control_gram.shape != (self.op.n, self.op.n):
            raise ParameterError("control Gram has wrong shape")
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=float)
            if self.u0.shape != (self.op.n,):
                raise ParameterError("u0 has wrong length")

    @classmethod
    def from_set(cls, op, S, T, u0=None):
        return cls(op=op, control_gram=gram_matrix(op.basis, S), T=T, u0=u0,
                   set_hash=S.descriptor_hash())

    @classmethod
    def scalar(cls, op, scale, T, u0=None):
        return cls(op=op, control_gram=scale ** 2 * np.eye(op.n), T=T, u0=u0)

    def mtil(self):
        """Control Gram conjugated into the eigenbasis of the handle."""
        if self._mtil is None:
            if self.op.is_diagonal:
                self._mtil = self.control_gram
            else:
                V = self.op.eigvecs
                self._mtil = V.T @ self.control_gram @ V
        return self._mtil

    def gramian_factor(self):
        """``(floored inverse, condition number)`` of ``Q_T``, decomposed once.

        The inverse is ``None`` when ``Q_T`` has no positive eigenvalue.
        """
        if self._factor is None:
            self._factor = _floored_inverse(gramian(self))
        return self._factor

    def with_time(self, T):
        return ControlProblem(op=self.op, control_gram=self.control_gram, T=T,
                              u0=self.u0, set_hash=self.set_hash, _mtil=self._mtil)


@dataclass(frozen=True)
class Phase:
    """One active window carrying ``f(s) = -B* exp(-(t_end-s) A) v``."""

    t_start: float
    t_end: float
    v: np.ndarray
    mode_mask: np.ndarray = None
    norm_sq: float = None


@dataclass(frozen=True)
class ControlSignal:
    phases: tuple

    def __post_init__(self):
        prev = -np.inf
        for ph in self.phases:
            if ph.t_end <= ph.t_start or ph.t_start < prev - 1e-12:
                raise ParameterError("phases must be ordered and non-overlapping")
            prev = ph.t_end

    @property
    def norm(self):
        return math.sqrt(sum(ph.norm_sq for ph in self.phases))

    @classmethod
    def zero(cls):
        return cls(phases=())


def gramian(problem):
    """Controllability Gramian ``Q_T`` in the eigenbasis of the handle."""
    mu = problem.op.eigvals
    s = mu[:, None] + mu[None, :]
    return problem.mtil() * _phi(problem.T, s)


def _floored_inverse(Q):
    """Eigenvalue-floored inverse of the symmetrized ``Q`` and its condition number.

    Returns ``(None, inf)`` when ``Q`` has no positive eigenvalue.
    """
    Q = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(Q)
    w_max = float(w[-1])
    if w_max <= 0:
        return None, math.inf
    cond = math.inf if w[0] <= 0 else w_max / float(w[0])
    w_floored = np.maximum(w, EIG_FLOOR * w_max)
    return (V / w_floored) @ V.T, cond


def _checked_inverse(factor, cond_cap):
    """``factor`` as ``(Qinv, cond)`` once its inverse exists and passes the cap."""
    Qinv, cond = factor
    if Qinv is None:
        raise ConditioningError("Gramian is not positive", math.inf)
    if cond_cap is not None and cond > cond_cap:
        raise ConditioningError("Gramian inversion refused", cond)
    return factor


def min_norm_control(problem, cond_cap=COND_CAP):
    """Minimal-norm null-control via Gramian inversion.

    Returns ``(signal, cost)`` with ``cost**2 = <Q_T^{-1} y, y>`` for
    ``y = exp(-T A) u0``; the Duhamel solution driven by the signal reaches
    zero at ``T`` up to the inversion accuracy.
    """
    if problem.u0 is None:
        raise ParameterError("problem has no initial state")
    mu = problem.op.eigvals
    u0e = problem.op.to_eigenbasis(problem.u0)
    if not np.any(u0e):
        return ControlSignal.zero(), 0.0
    Qinv, _ = _checked_inverse(problem.gramian_factor(), cond_cap)
    y = np.exp(-problem.T * mu) * u0e
    v = Qinv @ y
    cost_sq = max(float(v @ y), 0.0)
    phase = Phase(0.0, problem.T, v, None, cost_sq)
    return ControlSignal(phases=(phase,)), math.sqrt(cost_sq)


def _cost_operator(problem, cond_cap):
    """``exp(-TA) Q_T^{-1} exp(-TA)``, symmetrized."""
    Qinv, _ = _checked_inverse(problem.gramian_factor(), cond_cap)
    e = np.exp(-problem.T * problem.op.eigvals)
    A = (e[:, None] * Qinv) * e[None, :]
    return 0.5 * (A + A.T)


def empirical_cost(problem, cond_cap=COND_CAP):
    """Control cost ``C_T``: worst minimal control norm over unit states.

    Equals ``sqrt(lambda_max(exp(-TA) Q_T^{-1} exp(-TA)))``, i.e. the optimal
    constant of the final-state observability inequality for the truncated
    system.
    """
    lam = float(np.linalg.eigvalsh(_cost_operator(problem, cond_cap))[-1])
    return math.sqrt(max(lam, 0.0))


def worst_initial_state(problem, cond_cap=COND_CAP):
    """Unit initial state attaining the control cost (in the function basis)."""
    w, V = np.linalg.eigh(_cost_operator(problem, cond_cap))
    return problem.op.from_eigenbasis(V[:, -1])


def gramian_condition(problem):
    """Condition number of ``Q_T``; ``inf`` when it is singular.  Never raises."""
    return problem.gramian_factor()[1]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # rows: states in the eigenbasis of the handle

    @property
    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def final_norm(self):
        return float(np.linalg.norm(self.states[-1]))


def _evolve_through_phase(mu, mtil, state, phase, t):
    """State at time ``t`` inside ``phase``, starting from ``state`` at t_start."""
    alpha = t - phase.t_start
    beta = phase.t_end - phase.t_start
    K = np.exp(-(beta - alpha) * mu)[None, :] * _phi(alpha, mu[:, None] + mu[None, :])
    return np.exp(-alpha * mu) * state - (mtil * K) @ phase.v


def duhamel_solve(problem, signal, t_grid):
    """Mild solution under a phase signal, exactly integrated per mode."""
    if problem.u0 is None:
        raise ParameterError("problem has no initial state")
    mu = problem.op.eigvals
    mtil = problem.mtil()
    for ph in signal.phases:
        if ph.t_start < -1e-12 or ph.t_end > problem.T + 1e-12:
            raise ParameterError("signal phases must lie within [0, T]")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] < 0 or t_grid[-1] > problem.T + 1e-12:
        raise ParameterError("time grid must lie within [0, T]")

    # anchor states at 0 and at every phase boundary
    anchors = [(0.0, problem.op.to_eigenbasis(problem.u0))]
    for ph in signal.phases:
        t_prev, u_prev = anchors[-1]
        u_start = np.exp(-(ph.t_start - t_prev) * mu) * u_prev
        anchors.append((ph.t_start, u_start))
        anchors.append((ph.t_end, _evolve_through_phase(mu, mtil, u_start, ph, ph.t_end)))

    # each time continues from the last anchor at or before it; phases may
    # overlap by up to 1e-12, so the anchor times need not be sorted
    reached = np.array([ta for ta, _ in anchors]) <= t_grid[:, None] + 1e-15
    last = len(anchors) - 1 - np.argmax(reached[:, ::-1], axis=1)
    states = np.empty((t_grid.size, mu.size))
    for i, (t, k) in enumerate(zip(t_grid, last)):
        ta, ua = anchors[k]
        if k % 2 and t > ta:  # odd anchors start phases
            states[i] = _evolve_through_phase(mu, mtil, ua, signal.phases[k // 2], t)
        else:
            states[i] = np.exp(-(t - ta) * mu) * ua
    return Trajectory(times=t_grid, states=states)


def control_norm_at(problem, signal, s):
    """Pointwise control norm ``||f(s)||_U`` (zero on passive stretches)."""
    mu = problem.op.eigvals
    mtil = problem.mtil()
    for ph in signal.phases:
        if ph.t_start - 1e-15 <= s <= ph.t_end + 1e-15:
            w = np.exp(-(ph.t_end - s) * mu) * ph.v
            return math.sqrt(max(float(w @ (mtil @ w)), 0.0))
    return 0.0


@dataclass(frozen=True)
class PhaseSchedule:
    """Dyadic active/passive partition of [0, T]."""

    T: float
    K: float
    J: int
    a: tuple        # phase start times a_0 .. a_{J+1}
    T_j: tuple      # active-phase lengths
    E_j: tuple      # energy cutoffs 4**j

    def to_json(self):
        return {"T": self.T, "K": self.K, "J": self.J, "a": list(self.a),
                "T_j": list(self.T_j), "E_j": list(self.E_j)}


def active_passive_schedule(T, e_cap):
    """Schedule with ``T_j = K 2^{-j/2}``, ``E_j = 4^j``, ``2 sum T_j = T``.

    Terminates at the first ``J`` with ``E_J >= e_cap``; the start of the
    tail ``a_J + T_J`` is strictly below ``T``.
    """
    if T <= 0:
        raise ParameterError("T must be positive")
    if e_cap <= 0:
        raise ParameterError("e_cap must be positive")
    K = T * (1.0 - 2.0 ** -0.5) / 2.0
    J = 0
    while 4.0 ** J < e_cap:
        J += 1
        if J > 60:
            raise CapacityError("schedule exceeds 60 dyadic levels")
    T_j = tuple(K * 2.0 ** (-j / 2.0) for j in range(J + 1))
    a = [0.0]
    for tj in T_j:
        a.append(a[-1] + 2.0 * tj)
    return PhaseSchedule(T=float(T), K=K, J=J, a=tuple(a), T_j=T_j,
                         E_j=tuple(4.0 ** j for j in range(J + 1)))


@dataclass
class CostReport:
    """Everything a cost experiment reports for one (problem, T)."""

    T: float
    c_emp: float = None
    condition_number: float = None
    bounds: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    schedule: dict = None
    set_hash: str = None
    constants: dict = None

    def to_json(self):
        return {
            "T": self.T,
            "c_emp": self.c_emp,
            "condition_number": self.condition_number,
            "bounds": dict(sorted(self.bounds.items())),
            "diagnostics": self.diagnostics,
            "schedule": self.schedule,
            "set_hash": self.set_hash,
            "constants": self.constants,
        }


def active_passive_synthesize(problem, fit, cond_cap=COND_CAP):
    """Iterative null-control: truncated Gramian controls + free decay.

    In every active phase the modes below ``E_j`` are steered to zero by a
    minimal-norm control of the truncated system; the following passive
    phase damps what the forcing pushed above ``E_j``.  The per-phase norm
    is checked against ``fit.c_ur(E_j)/T_j * ||u(a_j)||^2``.  Termination:
    the first cutoff covering the whole basis empties the state exactly.
    """
    if problem.u0 is None:
        raise ParameterError("problem has no initial state")
    mu = problem.op.eigvals
    e_cap = float(mu[-1])
    sched = active_passive_schedule(problem.T, max(e_cap, 1.0))
    if sched.E_j[-1] < e_cap:
        raise CapacityError("schedule does not cover the basis")
    mtil = problem.mtil()
    state = problem.op.to_eigenbasis(problem.u0).copy()
    u0_norm = float(np.linalg.norm(state))
    phases = []
    rows = []
    total_sq = 0.0
    worst_cond = 0.0
    for j, (E_j, T_j) in enumerate(zip(sched.E_j, sched.T_j)):
        a_j = sched.a[j]
        mask = mu <= E_j
        norm_in = float(np.linalg.norm(state))
        v = np.zeros_like(state)
        norm_sq = 0.0
        # a cutoff below the lowest eigenvalue has no modes to steer: the
        # phase carries the zero control and only the free decay acts
        if mask.any():
            y = (np.exp(-T_j * mu) * state)[mask]
            mu_m = mu[mask]
            Qj = mtil[np.ix_(mask, mask)] * _phi(T_j, mu_m[:, None] + mu_m[None, :])
            Qinv, cond = _checked_inverse(_floored_inverse(Qj), cond_cap)
            worst_cond = max(worst_cond, cond)
            v[mask] = Qinv @ y
            norm_sq = max(float(v[mask] @ y), 0.0)
        phase = Phase(a_j, a_j + T_j, v, mask.copy(), norm_sq)
        phases.append(phase)
        total_sq += norm_sq
        # end of active phase
        state = _evolve_through_phase(mu, mtil, state, phase, phase.t_end)
        low_residual = float(np.linalg.norm(state[mask]))
        norm_mid = float(np.linalg.norm(state))
        # passive phase [a_j + T_j, a_{j+1}]
        state = np.exp(-T_j * mu) * state
        norm_out = float(np.linalg.norm(state))
        bound = float(fit.c_ur(E_j)) / T_j * norm_in ** 2
        # a numerically null state has no meaningful decay ratio
        null_already = norm_mid <= 1e-12 * max(u0_norm, 1e-300)
        rows.append({
            "j": j,
            "E_j": E_j,
            "T_j": T_j,
            "a_j": a_j,
            "norm_sq": norm_sq,
            "norm_bound": bound,
            "bound_ok": bool(norm_sq <= bound),
            "low_mode_residual": low_residual,
            "decay_ratio": 0.0 if null_already else norm_out / norm_mid,
            "decay_bound": math.exp(-E_j * T_j),
            "state_norm_after": norm_out,
        })
    # free decay over the remaining tail
    tail = problem.T - sched.a[-1]
    if tail > 0:
        state = np.exp(-tail * mu) * state
    final = float(np.linalg.norm(state))
    report = CostReport(
        T=problem.T,
        condition_number=worst_cond,
        diagnostics={
            "phases": rows,
            "total_norm": math.sqrt(total_sq),
            "final_residual": final,
            "u0_norm": u0_norm,
        },
        schedule=sched.to_json(),
        set_hash=problem.set_hash,
    )
    return ControlSignal(phases=tuple(phases)), report


@dataclass(frozen=True)
class DouglasResult:
    range_inclusion: bool
    c_min: float = None
    z_min: np.ndarray = None
    residual: float = 0.0
    rank: int = 0


def douglas_factorize(X, Y, tol=1e-10):
    """Range-inclusion test with the minimal-norm factor ``Z = Y^+ X``.

    ``Ran X ⊆ Ran Y`` is decided by the projection residual
    ``||(I - P_RanY) X||``; on success the factor ``Z_min`` satisfies
    ``Y Z_min = X`` and ``c_min = ||Z_min||`` equals the best constant in
    ``||X* z|| <= c ||Y* z||``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ParameterError("X and Y must map into the same space")
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    x_scale = float(np.linalg.norm(X, 2)) if X.size else 0.0
    if s.size == 0 or s[0] <= 0:
        residual = x_scale
        if residual <= tol:
            return DouglasResult(True, 0.0, np.zeros((Y.shape[1], X.shape[1])), residual, 0)
        return DouglasResult(False, residual=residual, rank=0)
    r = int(np.sum(s > tol * s[0]))
    Ur = U[:, :r]
    residual = float(np.linalg.norm(X - Ur @ (Ur.T @ X), 2))
    if residual > tol * max(x_scale, 1.0):
        return DouglasResult(False, residual=residual, rank=r)
    Z = (Vt[:r].T / s[:r]) @ (Ur.T @ X)
    return DouglasResult(True, float(np.linalg.norm(Z, 2)), Z, residual, r)
