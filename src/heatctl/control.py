"""Null-control synthesis for the truncated controlled heat equation.

Everything acts in the eigenbasis of the generator handle: the control
operator enters only through its Gram matrix conjugated into that basis,
which is exact for the truncated Galerkin system.  Controls are closed-form
``f(s) = -B* exp(-(t_end - s) A) v`` phases, so norms are integrated
analytically.  One kernel ``M o Phi_h`` and one phase end
``exp(-h A) u - (M o Phi_h) v`` serve every Gramian, every exact time step
of a trajectory, every active/passive phase and the exhaustion replay.
Inside a problem, :func:`_phase_kernels` alone forms the kernels, one per
class and phase length on the class's rows and only the columns the phase
steers; an unmasked phase of length ``T`` reuses the cached ``Q_T``
kernels, the trajectory of an active/passive signal takes its phase ends
from its synthesis, and the steps of a trajectory whose lengths differ by a
few ulps share one kernel.

On a torus tiled by a periodic set, a diagonal handle splits the modes into
Bloch-Floquet classes (:func:`heatctl.geometry.mode_classes`) that the
control Gram never couples.  Every Gramian, cost operator, phase end, step
kernel and control norm is then block diagonal, and each is formed,
decomposed and applied one class at a time: ``C_T`` is the largest of the
classes' costs and the condition number that of the whole.  Any other
problem has the one class of all modes.  A :class:`ControlProblem` forms
what it derives once, as cached properties: each class's block of the
control Gram (:attr:`ControlProblem.class_blocks`, by
:func:`heatctl.geometry.class_block`, the projection that forms the blocks
of a spectral constant), the Gramian factor and the cost blocks.  Those
blocks, every kernel on all of a class's columns and the leading square of
every kernel on a leading run of them are exactly symmetric, so nothing
here symmetrizes or writes them.  Its initial state is read only through
:meth:`ControlProblem.initial_state`.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConditioningError, ParameterError
from .geometry import class_block, gram_matrix, mode_classes

COND_CAP = 1e12


def _phi(alpha, s):
    """``int_0^alpha exp(-s t) dt`` elementwise for an array ``s``, continuous
    at s = 0; formed in place in one new array."""
    s = np.asarray(s, dtype=float)
    out = np.multiply(s, -alpha)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    zero = s == 0.0
    np.divide(out, s, out=out, where=~zero)
    out[zero] = alpha
    return out


def _kernel(M, mu_rows, mu_cols, h):
    """``M o Phi_h``: ``M_ij int_0^h exp(-(mu_rows_i + mu_cols_j) t) dt``."""
    K = _phi(h, np.add.outer(mu_rows, mu_cols))
    K *= M
    return K


def _forced_end(M, mu_rows, mu_cols, u, v, h):
    """``exp(-h mu_rows) u - (M o Phi_h) v``: the end of a phase of length ``h``
    that starts at ``u`` and carries ``f(s) = -B* exp(-(h - s) A) v``."""
    return np.exp(-h * mu_rows) * u - _kernel(M, mu_rows, mu_cols, h) @ v


@dataclass
class ControlProblem:
    """Generator handle + control Gram + horizon (+ optional initial state).

    ``control_gram`` is the matrix of ``B B*`` in the handle's function
    basis; for interior control on a set it is the set's Gram matrix, for a
    scalar system ``B = c`` it is ``[[c**2]]``.  ``classes`` are the mode
    classes that ``control_gram`` never couples, ascending index arrays (the
    one class of all modes unless the problem comes from a set that tiles a
    torus).  ``u0``, in the function basis, may be given or assigned at any
    time; it is checked when it is read (:meth:`initial_state`).
    """

    op: object
    control_gram: np.ndarray
    T: float
    u0: np.ndarray = None
    set_hash: str = None
    classes: tuple = field(default=None, repr=False)
    # the signal that active_passive_synthesize last returned here and one
    # array of the initial state it started from and the state it reached at
    # each phase's end, for duhamel_solve
    _signal_ends: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ParameterError("horizon T must be positive")
        self.control_gram = np.asarray(self.control_gram, dtype=float)
        if self.control_gram.shape != (self.op.n, self.op.n):
            raise ParameterError("control Gram has wrong shape")
        if self.classes is None:
            self.classes = (np.arange(self.op.n),)

    @classmethod
    def from_set(cls, op, S, T, u0=None):
        return cls(op=op, control_gram=gram_matrix(op.basis, S), T=T, u0=u0,
                   set_hash=S.descriptor_hash(),
                   classes=mode_classes(op, S))

    @classmethod
    def scalar(cls, op, scale, T, u0=None):
        return cls(op=op, control_gram=scale ** 2 * np.eye(op.n), T=T, u0=u0)

    def mtil(self):
        """Control Gram conjugated into the eigenbasis of the handle."""
        return self.op.project(self.control_gram)

    def initial_state(self):
        """``u0`` in the eigenbasis of the handle; refused when it is missing
        or its length is not the mode count."""
        if self.u0 is None:
            raise ParameterError("problem has no initial state")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.op.n,):
            raise ParameterError(f"u0 has wrong length: shape {u0.shape}, expected ({self.op.n},)")
        return self.op.to_eigenbasis(u0)

    @cached_property
    def class_blocks(self):
        """Per class ``(modes, eigenvalues, block of mtil)``, formed once per
        problem family by :func:`heatctl.geometry.class_block`, as the blocks
        of a spectral constant are, and shared by :meth:`with_time`.

        Every block is exactly symmetric, and so is every square kernel
        ``M o Phi_h`` built from one: a dense handle's projection symmetrizes
        it, and a diagonal handle's is a principal block of the control
        Gram, which is refused with :class:`ParameterError` unless it is
        exactly symmetric.  On a diagonal handle the one class of all modes
        takes a view of the whole control Gram.
        """
        if not np.array_equal(self.control_gram, self.control_gram.T):
            raise ParameterError("control Gram is not exactly symmetric")
        return tuple(class_block(self.op, self.control_gram, c) for c in self.classes)

    @cached_property
    def gramian_factor(self):
        """The :class:`_Factor` of ``Q_T``, measured once per problem (see
        :func:`_factor_blocks`); its blocks are the ``Q_T`` kernels that
        :func:`_phase_kernels` hands every later unmasked phase of length
        ``T``."""
        return _factor_blocks([K for _, K in _phase_kernels(self, self.T)])

    @cached_property
    def cost_blocks(self):
        """The kept blocks of the cost operator, factored once per problem
        (see :func:`_cost_operator`)."""
        return _cost_operator(self)

    def with_time(self, T):
        """The same problem at horizon ``T``, sharing these class blocks."""
        later = replace(self, T=T)
        later.class_blocks = self.class_blocks
        return later


@dataclass(frozen=True)
class Phase:
    """One active window carrying ``f(s) = -B* exp(-(t_end-s) A) v``.

    ``v`` vanishes outside ``mode_mask``, the modes the phase steers (all
    modes when it is ``None``).  ``norm_sq``, the squared norm of the
    control, is required: a signal's norm is read from its phases'.
    """

    t_start: float
    t_end: float
    v: np.ndarray
    mode_mask: np.ndarray = None
    norm_sq: float = None

    def __post_init__(self):
        if self.norm_sq is None:
            raise ParameterError("phase needs norm_sq, the squared norm of its control")
        if self.mode_mask is not None and np.any(self.v[~self.mode_mask]):
            raise ParameterError("phase vector must vanish outside its mode mask")


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
    """Controllability Gramian ``Q_T`` in the eigenbasis of the handle, dense."""
    mu = problem.op.eigvals
    return _kernel(problem.mtil(), mu, mu, problem.T)


class _Factor(NamedTuple):
    """A Gramian measured block by block: its diagonal blocks as it was
    handed them, its condition number and its smallest eigenvalue."""

    blocks: tuple
    cond: float
    w_min: float


def _factor_blocks(blocks):
    """The :class:`_Factor` of the Gramian with these diagonal blocks, which
    it reads and never writes: each is a kernel of a class block or a view
    of one, exactly symmetric as those are (see
    :attr:`ControlProblem.class_blocks`).  ``cond = lambda_max /
    lambda_min`` over all blocks from their eigenvalues alone, ``inf``
    unless every eigenvalue is positive."""
    eigs = [np.linalg.eigvalsh(Q) for Q in blocks]
    w_min = min(float(w[0]) for w in eigs)
    w_max = max(float(w[-1]) for w in eigs)
    return _Factor(tuple(blocks), w_max / w_min if w_min > 0 else math.inf, w_min)


def _checked(factor, what="Gramian"):
    """The blocks of ``factor``; refused past ``COND_CAP``."""
    if factor.cond > COND_CAP:
        reason = "is not positive definite" if factor.cond == math.inf else "inversion refused"
        raise ConditioningError(f"{what} {reason}", factor.cond)
    return factor.blocks


def _steer(blocks, modes, y):
    """Minimal-norm steering of ``y`` per block: ``v = Q^{-1} y`` by an LU
    solve (zero outside the blocks) and ``max(<v, y>, 0)``."""
    v = np.zeros_like(y)
    cost_sq = 0.0
    for m, Q in zip(modes, blocks):
        v[m] = np.linalg.solve(Q, y[m])
        cost_sq += float(v[m] @ y[m])
    return v, max(cost_sq, 0.0)


def _steered(mask, c):
    """The columns of class ``c`` that a phase with mode mask ``mask`` steers:
    all of them without a mask, the slice of its first ``k`` modes when the
    mask keeps a leading run of the class (as every energy cutoff does, the
    modes of a class being sorted by eigenvalue), else their indices."""
    if mask is None:
        return slice(None)
    m = mask[c]
    k = int(np.count_nonzero(m))
    return slice(0, k) if m[:k].all() else np.flatnonzero(m)


def _phase_kernels(problem, h, mask=None):
    """Per class ``(cols, K)``: the columns ``cols`` of the class that a phase
    of length ``h`` with mode mask ``mask`` steers (see :func:`_steered`),
    and ``K = M o Phi_h`` on the class's rows and those columns only.

    An unmasked phase of length ``T`` takes the ``Q_T`` kernels of the
    problem's Gramian factor once that is formed; a leading run of columns
    takes a view ``M[:, :k]`` of the class block, any other mask a gather."""
    if mask is None and h == problem.T and "gramian_factor" in vars(problem):
        return [(slice(None), Q) for Q in problem.gramian_factor.blocks]
    kernels = []
    for c, mu, M in problem.class_blocks:
        cols = _steered(mask, c)
        kernels.append((cols, _kernel(M[:, cols], mu, mu[cols], h)))
    return kernels


def _kept_ends(problem, signal, u0):
    """The state at the end of each phase of ``signal`` from the initial state
    ``u0``, as :func:`active_passive_synthesize` found them, when it returned
    ``signal`` for this problem last and started from ``u0``; else ``None``."""
    kept = problem._signal_ends
    if kept is not None and kept[0] is signal and np.array_equal(kept[1][0], u0):
        return kept[1][1:]
    return None


def _phase_end(problem, u, v, h, kernels):
    """``_forced_end`` of a phase of length ``h`` in ``problem``, class by
    class, given the classes' kernels of :func:`_phase_kernels`."""
    end = np.empty_like(u)
    for (c, mu, _), (cols, K) in zip(problem.class_blocks, kernels):
        end[c] = np.exp(-h * mu) * u[c] - K @ v[c][cols]
    return end


def min_norm_control(problem):
    """Minimal-norm null-control via Gramian inversion.

    Returns ``(signal, cost)`` with ``cost**2 = <Q_T^{-1} y, y>`` for
    ``y = exp(-T A) u0``; the Duhamel solution driven by the signal reaches
    zero at ``T`` up to the inversion accuracy.
    """
    mu = problem.op.eigvals
    u0e = problem.initial_state()
    if not np.any(u0e):
        return ControlSignal.zero(), 0.0
    y = np.exp(-problem.T * mu) * u0e
    v, cost_sq = _steer(_checked(problem.gramian_factor), problem.classes, y)
    phase = Phase(0.0, problem.T, v, None, cost_sq)
    return ControlSignal(phases=(phase,)), math.sqrt(cost_sq)


def _tril_inverse(L):
    """The inverse of the lower-triangular ``L``, exactly lower triangular, by
    the 2 x 2 block recursion ``[[A, 0], [B, C]]^{-1} = [[A^{-1}, 0],
    [-C^{-1} B A^{-1}, C^{-1}]]``: GEMMs, with ``np.linalg.inv`` and
    ``np.tril`` on leaves of at most 64 rows."""
    n = L.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(L))
    m = n // 2
    inv = np.zeros_like(L)
    inv[:m, :m] = _tril_inverse(L[:m, :m])
    inv[m:, m:] = _tril_inverse(L[m:, m:])
    inv[m:, :m] = -inv[m:, m:] @ (L[m:, :m] @ inv[:m, :m])
    return inv


def _cost_operator(problem):
    """Per class, its leading modes that carry ``C_T``, last first, and the
    block of ``A = exp(-TA) Q_T^{-1} exp(-TA)`` on them in that order;
    classes that keep no mode are left out.

    One Cholesky factor per class, ``L L^T`` of the block with its modes
    reversed, serves every cut: the trailing k x k block ``L_22`` factors
    the Schur complement on the class's first k modes, so the block of
    ``Q_T^{-1}`` on them is ``L_22^{-T} L_22^{-1}`` and that of ``A`` is
    ``X^T X`` with ``X = L_22^{-1} E_k``: the columns of the triangular
    inverse (:func:`_tril_inverse`) scaled by ``e``.

    With ``e = exp(-T mu)``, ``e_0 = max e``, ``lambda_min`` the smallest
    eigenvalue of ``Q_T`` and ``lam_hat`` the largest over the classes of
    ``e_c0**2 (Q_T^{-1})_c0c0 = e_c0**2 / L[-1, -1]**2`` at each class's
    first mode ``c0`` (a diagonal entry of ``A``, so ``lam_hat <=
    lambda_max(A)``), a class keeps its modes up to the last one with
    ``e_k (2 e_0 + e_k) / lambda_min >= eps * lam_hat``.  The part of ``A``
    outside the kept blocks has norm below ``e_d (2 e_0 + e_d) / lambda_min``,
    ``e_d`` the largest dropped ``e``, so by Cauchy interlacing and Weyl's
    inequality the kept blocks' largest eigenvalue is at most
    ``eps * lambda_max(A)`` below that of ``A``: under the rounding of the
    factor.  The mode attaining ``lam_hat`` is always kept, and when every
    ``e_c0**2`` underflows (``lam_hat = 0``) every mode is.

    A Cholesky factor that breaks down is refused with the measured
    condition number.
    """
    factor = problem.gramian_factor
    e = np.exp(-problem.T * problem.op.eigvals)
    try:
        chols = [np.linalg.cholesky(Q[::-1, ::-1]) for Q in _checked(factor)]
    except np.linalg.LinAlgError:
        raise ConditioningError("Gramian has no Cholesky factor", factor.cond) from None
    lam_hat = max(float(e[c[0]] ** 2 / L[-1, -1] ** 2)
                  for c, L in zip(problem.classes, chols))
    e_0 = e.max()
    blocks = []
    for c, L in zip(problem.classes, chols):
        e_c = e[c]
        kept = np.flatnonzero(e_c * (2.0 * e_0 + e_c) / factor.w_min
                              >= np.finfo(float).eps * lam_hat)
        if kept.size:
            k = kept[-1] + 1
            X = _tril_inverse(L[-k:, -k:]) * e_c[k - 1::-1]
            blocks.append((c[k - 1::-1], X.T @ X))
    return blocks


def empirical_cost(problem):
    """Control cost ``C_T``: worst minimal control norm over unit states.

    Equals ``sqrt(lambda_max(exp(-TA) Q_T^{-1} exp(-TA)))``, i.e. the optimal
    constant of the final-state observability inequality for the truncated
    system; the largest eigenvalue is the largest over the classes, each
    taken on the modes that carry it (see :func:`_cost_operator`).
    """
    lam = max(float(np.linalg.eigvalsh(A)[-1]) for _, A in problem.cost_blocks)
    return math.sqrt(max(lam, 0.0))


def worst_initial_state(problem):
    """Unit initial state attaining the control cost (in the function basis).

    It lives on the kept modes of the class whose cost operator has the
    largest top eigenvalue, the first such class on a tie, and vanishes on
    every other mode (see :func:`_cost_operator`).
    """
    tops = [(np.linalg.eigh(A), modes) for modes, A in problem.cost_blocks]
    (_, V), modes = tops[int(np.argmax([lam[-1] for (lam, _), _ in tops]))]
    w = np.zeros(problem.op.n)
    w[modes] = V[:, -1]
    return problem.op.from_eigenbasis(w)


def gramian_condition(problem):
    """Condition number of ``Q_T``; ``inf`` when it is singular.  Never raises."""
    return problem.gramian_factor.cond


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # rows: states in the eigenbasis of the handle

    @property
    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def final_norm(self):
        return float(np.linalg.norm(self.states[-1]))


def _merged_steps(h, tol):
    """The step lengths of ``h`` merged into groups, with the index of its
    group per step: each group holds the steps within ``tol`` of its
    smallest, which stands for the group, and the next group starts at the
    first step beyond that (no chaining)."""
    steps, where = np.unique(h, return_inverse=True)
    lead = [steps[0]]
    for step in steps[1:]:
        if step - lead[-1] > tol:
            lead.append(step)
    lead = np.array(lead)
    return lead, (np.searchsorted(lead, steps, side="right") - 1)[where]


def _step_through_phase(problem, state, phase, times):
    """States at the ascending ``times`` inside ``phase``, from ``state`` at t_start.

    The exact step from ``t`` to ``t + h`` subtracts
    ``(mtil o Phi_h) exp(-(t_end - t - h) A) v`` from the decayed state; its
    kernel depends on ``h`` alone.  Step lengths within
    ``4 * np.spacing(t_end)`` of their group's smallest merge into that
    smallest (:func:`_merged_steps`), a move of a few ulps of ``t_end``, the
    order of the rounding that ``np.diff`` of the grid times carries, so a
    uniform grid takes one kernel per class: rows the class, columns its
    modes that the phase steers (:func:`_phase_kernels`), applied to all its
    steps by one GEMM.
    """
    mu = problem.op.eigvals
    steps, group = _merged_steps(np.diff(times, prepend=phase.t_start),
                                 4.0 * np.spacing(phase.t_end))
    forced = np.empty((mu.size, times.size))
    for g, step in enumerate(steps):
        at = np.flatnonzero(group == g)
        for (c, mu_c, _), (cols, K) in zip(problem.class_blocks,
                                           _phase_kernels(problem, step, phase.mode_mask)):
            rhs = np.exp(-(phase.t_end - times[at]) * mu_c[cols][:, None]) * phase.v[c][cols][:, None]
            forced[c[:, None], at] = K @ rhs
    decay = np.exp(-steps[:, None] * mu[None, :])
    states = np.empty((times.size, mu.size))
    w = np.zeros_like(mu)
    for k, t in enumerate(times):
        w = decay[group[k]] * w + forced[:, k]
        states[k] = np.exp(-(t - phase.t_start) * mu) * state - w
    return states


def duhamel_solve(problem, signal, t_grid):
    """Mild solution under a phase signal, stepped exactly in time per mode.

    States at 0 and at every phase boundary come from each phase's closed
    form, on the kernels of :func:`_phase_kernels`: the problem's cached
    ``Q_T`` kernels for an unmasked phase of length ``T``, else one kernel
    per class on the columns the phase steers.  The signal that
    :func:`active_passive_synthesize` returned last, from the same initial
    state, takes the phase-end states it found (:func:`_kept_ends`), the
    same bits, with no kernel.  Inside a phase the grid is
    walked by exact steps, with one kernel per class and merged step length
    (:func:`_step_through_phase`).
    """
    mu = problem.op.eigvals
    for ph in signal.phases:
        if ph.t_start < -1e-12 or ph.t_end > problem.T + 1e-12:
            raise ParameterError("signal phases must lie within [0, T]")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)):
        raise ParameterError("time grid must be a non-empty list of finite times")
    t_grid = np.sort(t_grid)
    if t_grid[0] < 0 or t_grid[-1] > problem.T + 1e-12:
        raise ParameterError("time grid must lie within [0, T]")

    # anchor states at 0 and at every phase boundary
    anchors = [(0.0, problem.initial_state())]
    ends = _kept_ends(problem, signal, anchors[0][1])
    for j, ph in enumerate(signal.phases):
        t_prev, u_prev = anchors[-1]
        u_start = np.exp(-(ph.t_start - t_prev) * mu) * u_prev
        anchors.append((ph.t_start, u_start))
        if ends is None:
            h = ph.t_end - ph.t_start
            u_end = _phase_end(problem, u_start, ph.v, h, _phase_kernels(problem, h, ph.mode_mask))
        else:
            u_end = ends[j]
        anchors.append((ph.t_end, u_end))

    # each time continues from the last anchor at or before it; phases may
    # overlap by up to 1e-12, so the anchor times need not be sorted, but the
    # times continuing from one anchor are consecutive in the sorted grid
    anchor_times = np.array([ta for ta, _ in anchors])
    reached = anchor_times <= t_grid[:, None] + 1e-15
    last = len(anchors) - 1 - np.argmax(reached[:, ::-1], axis=1)
    inside = (last % 2 == 1) & (t_grid > anchor_times[last])  # odd anchors start phases
    states = np.empty((t_grid.size, mu.size))
    for i in np.flatnonzero(~inside):
        ta, ua = anchors[last[i]]
        states[i] = np.exp(-(t_grid[i] - ta) * mu) * ua
    for k in np.unique(last[inside]):
        rows = inside & (last == k)
        states[rows] = _step_through_phase(problem, anchors[k][1], signal.phases[k // 2],
                                           t_grid[rows])
    return Trajectory(times=t_grid, states=states)


def control_norm_at(problem, signal, s):
    """Pointwise control norm ``||f(s)||_U`` (zero on passive stretches), from
    each class block on the columns the phase steers only."""
    for ph in signal.phases:
        if ph.t_start - 1e-15 <= s <= ph.t_end + 1e-15:
            w = np.exp(-(ph.t_end - s) * problem.op.eigvals) * ph.v
            norm_sq = 0.0
            for c, _, M in problem.class_blocks:
                cols = _steered(ph.mode_mask, c)
                w_c = w[c][cols]
                norm_sq += float(w_c @ (M[cols][:, cols] @ w_c))
            return math.sqrt(max(norm_sq, 0.0))
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


def active_passive_synthesize(problem, fit):
    """Iterative null-control: truncated Gramian controls + free decay.

    In every active phase the modes below ``E_j`` are steered to zero by a
    minimal-norm control of the truncated system; the following passive
    phase damps what the forcing pushed above ``E_j``.  The per-phase norm
    is checked against ``fit.c_ur(E_j)/T_j * ||u(a_j)||^2``.  Termination:
    the first cutoff covering the whole basis empties the state exactly.

    The report's ``final_residual`` is the norm at ``T`` of the state this
    loop propagates in double, phase end by phase end.  That is not the
    exact end state of the returned signal, and it can sit below it: on the
    shipped active/passive config it reads 3.2e-14, where a 50-digit
    Duhamel evaluation of the signal ends at 8.7e-14.  The problem keeps
    the initial state and the phase-end states for the returned signal, so
    :func:`duhamel_solve` forms no phase-end kernel of it again.
    """
    state = problem.initial_state().copy()
    mu = problem.op.eigvals
    sched = active_passive_schedule(problem.T, max(float(mu[-1]), 1.0))
    u0_norm = float(np.linalg.norm(state))
    first = state
    phases = []
    ends = []
    rows = []
    worst_cond = 0.0
    for j, (E_j, T_j) in enumerate(zip(sched.E_j, sched.T_j)):
        a_j, t_end = sched.a[j], sched.a[j] + T_j
        # the active and passive stretches last t_end - a_j and a_{j+1} - t_end,
        # as in the trajectory of the signal; either may miss T_j by an ulp
        h = t_end - a_j
        mask = mu <= E_j
        norm_in = float(np.linalg.norm(state))
        v = np.zeros_like(state)
        norm_sq = 0.0
        # one kernel per class, on its rows and the k modes with mu <= E_j
        # that lead it, gives the phase end and the phase Gramian, its
        # leading view K[:k, :k]
        kernels = _phase_kernels(problem, h, mask)
        # a cutoff below the lowest eigenvalue has no modes to steer: the
        # phase carries the zero control and only the free decay acts
        if mask.any():
            modes, blocks = zip(*[(c[:k], K[:k, :k]) for (c, _, _), (_, K)
                                  in zip(problem.class_blocks, kernels)
                                  if (k := K.shape[1])])
            factor = _factor_blocks(blocks)
            what = f"Gramian of active phase j={j} (E_j={E_j}, {int(mask.sum())} modes)"
            v, norm_sq = _steer(_checked(factor, what), modes, np.exp(-h * mu) * state)
            worst_cond = max(worst_cond, factor.cond)
        phase = Phase(a_j, t_end, v, mask.copy(), norm_sq)
        phases.append(phase)
        # end of active phase
        state = _phase_end(problem, state, v, h, kernels)
        ends.append(state)
        low_residual = float(np.linalg.norm(state[mask]))
        norm_mid = float(np.linalg.norm(state))
        # passive phase [a_j + T_j, a_{j+1}]
        state = np.exp(-(sched.a[j + 1] - t_end) * mu) * state
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
    signal = ControlSignal(phases=tuple(phases))
    # copied into one array here: the states themselves, kept from where the
    # loop made them, left the benchmark's peak RSS 0.2-0.3 MB higher
    problem._signal_ends = (signal, np.array([first] + ends))
    report = CostReport(
        T=problem.T,
        condition_number=worst_cond,
        diagnostics={
            "phases": rows,
            "total_norm": signal.norm,
            "final_residual": final,
            "u0_norm": u0_norm,
        },
        schedule=asdict(sched),
        set_hash=problem.set_hash,
    )
    return signal, report


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
