"""Independent numerical oracles used to cross-check closed-form results.

Everything here deliberately avoids the package's antiderivative machinery:
Gram matrices come from tensor Gauss-Legendre quadrature on basis values,
measures from dense grids or from clipping boxes one at a time, disk/box
areas from mpmath quadrature, and the factorization constant from a
generalized symmetric eigensolver.
"""

import itertools
import math

import mpmath
import numpy as np
import scipy.linalg


def gl_nodes(a, b, order=64, panels=1):
    x0, w0 = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x0)
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


def gl_integral(f, a, b, order=64, panels=1):
    x, w = gl_nodes(a, b, order, panels)
    return float(np.sum(w * f(x)))


def quad_gram(basis, boxes, order=64, weight=None, other=None):
    """Gram matrix over a union of absolute boxes, by tensor quadrature.

    ``weight(pts)`` multiplies the integrand; ``other`` gives the basis of
    the columns (``int phi_i psi_j``) when it is not ``basis`` itself.
    """
    other = basis if other is None else other
    M = np.zeros((basis.n, other.n))
    for box in boxes:
        axes = [gl_nodes(lo, hi, order) for lo, hi in box]
        grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
        wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
        if weight is not None:
            wts = wts * weight(pts)
        F = basis.evaluate(pts)
        M += (F * wts) @ (F if other is basis else other.evaluate(pts)).T
    return M


def cross_integrals_mp(atoms_a, atoms_b, lo, hi, dps=50):
    """``int_lo^hi A_i cos(w_i x + p_i) B_j cos(v_j x + q_j) dx`` at ``dps``
    digits, shape (len(lo), m_a, m_b), as floats.

    The float atoms and ends are taken as exact binary values, and each
    entry is the sum of the two antiderivative differences of the product's
    cosines at the frequencies ``w_i -+ v_j`` and phases ``p_i -+ q_j``,
    evaluated directly; a frequency that is exactly 0 gives
    ``cos(p_i -+ q_j) (hi - lo)``.
    """
    out = np.empty((len(lo), len(atoms_a[0]), len(atoms_b[0])))
    with mpmath.workdps(dps):
        a = [[mpmath.mpf(float(v)) for v in family] for family in atoms_a]
        b = [[mpmath.mpf(float(v)) for v in family] for family in atoms_b]
        for z, (x0, x1) in enumerate(zip(lo, hi)):
            x0, x1 = mpmath.mpf(float(x0)), mpmath.mpf(float(x1))
            for i, (A, w, p) in enumerate(zip(*a)):
                for j, (B, v, q) in enumerate(zip(*b)):
                    total = mpmath.mpf(0)
                    for f, ph in ((w - v, p - q), (w + v, p + q)):
                        if f == 0:
                            total += mpmath.cos(ph) * (x1 - x0)
                        else:
                            total += (mpmath.sin(f * x1 + ph) - mpmath.sin(f * x0 + ph)) / f
                    out[z, i, j] = float(A * B * total / 2)
    return out


def grid_measure_periodic(boxes_fn, window, n=200001):
    """Measure of a 1D set inside ``window`` by midpoint sampling.

    ``boxes_fn(x)`` must return a boolean membership array.
    """
    lo, hi = window
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(np.mean(boxes_fn(xs)) * (hi - lo))


def set_indicator(S):
    """Pointwise membership test for a 1D periodic box set."""
    cell = S.cell[0]
    intervals = [b[0] for b in S.boxes]

    def member(xs):
        xm = np.mod(xs, cell)
        out = np.zeros_like(xm, dtype=bool)
        for a, b in intervals:
            out |= (xm >= a) & (xm <= b)
        return out

    return member


def douglas_sup_ratio(X, Y, tol=1e-10):
    """``sup ||X* z|| / ||Y* z||`` over ``z`` with ``Y* z != 0``.

    Restricts the generalized symmetric eigenproblem ``X X* v = lam Y Y* v``
    to the range of ``Y`` so the right-hand side is positive definite.
    """
    U, s, _ = np.linalg.svd(Y, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
    Ur = U[:, :r]
    A = Ur.T @ (X @ X.T) @ Ur
    B = np.diag(s[:r] ** 2)
    lam = scipy.linalg.eigh(A, B, eigvals_only=True)
    return float(np.sqrt(max(lam[-1], 0.0)))


def lstsq_line(x, y):
    """(intercept, slope, r2) of the least-squares line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def disk_box_area_mp(center, r, box, dps=40):
    """``|disk(center, r) ∩ box|`` by mpmath quadrature of vertical sections.

    The inputs are taken as exact binary values; the section length is
    smooth between the breakpoints passed to ``mpmath.quad`` (the disk's
    sides and the abscissas where its boundary crosses ``y1`` or ``y2``).
    """
    with mpmath.workdps(dps):
        cx, cy, r = mpmath.mpf(center[0]), mpmath.mpf(center[1]), mpmath.mpf(r)
        (x1, x2), (y1, y2) = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in box]
        lo, hi = max(x1, cx - r), min(x2, cx + r)
        if hi <= lo or y2 <= cy - r or y1 >= cy + r:
            return mpmath.mpf(0)
        pts = {lo, hi}
        for yk in (y1, y2):
            if abs(yk - cy) < r:
                s = mpmath.sqrt(r * r - (yk - cy) ** 2)
                pts |= {p for p in (cx - s, cx + s) if lo < p < hi}

        def section(u):
            h = mpmath.sqrt(max(r * r - (u - cx) ** 2, 0))
            return max(min(y2, cy + h) - max(y1, cy - h), 0)

        return mpmath.quad(section, sorted(pts))


def beta_2d_mp(S, r, grid, dps=40):
    """2D complement density of a periodic box set over the center grid, in mpmath.

    Every box is translated by the cell over a range that covers each disk;
    translates that miss the disk add zero.
    """
    (c0, c1) = S.cell
    best = mpmath.mpf(0)
    with mpmath.workdps(dps):
        disk = mpmath.pi * mpmath.mpf(r) ** 2
        for cx in np.linspace(0.0, c0, grid, endpoint=False):
            for cy in np.linspace(0.0, c1, grid, endpoint=False):
                inter = mpmath.mpf(0)
                for (x1, x2), (y1, y2) in S.boxes:
                    xs = range(math.floor((cx - r - x2) / c0), math.ceil((cx + r - x1) / c0) + 1)
                    ys = range(math.floor((cy - r - y2) / c1), math.ceil((cy + r - y1) / c1) + 1)
                    for i, j in itertools.product(xs, ys):
                        box = ((x1 + i * c0, x2 + i * c0), (y1 + j * c1, y2 + j * c1))
                        inter += disk_box_area_mp((cx, cy), r, box, dps)
                best = max(best, (disk - inter) / disk)
    return best


def window_measure(S, window):
    """``|S ∩ window|`` by clipping boxes one at a time.

    A periodic set contributes every translate of its boxes by the cell
    that can reach the window.
    """
    boxes = S.boxes
    if S.kind == "periodic_boxes":
        shifts = [[j * c for j in range(math.floor(lo / c) - 1, math.ceil(hi / c) + 1)]
                  for (lo, hi), c in zip(window, S.cell)]
        boxes = [tuple((a + s, b + s) for (a, b), s in zip(box, shift))
                 for box in S.boxes for shift in itertools.product(*shifts)]
    total = 0.0
    for box in boxes:
        total += math.prod(max(min(b, hi) - max(a, lo), 0.0)
                           for (a, b), (lo, hi) in zip(box, window))
    return total


def duhamel_mp(mu, mtil, u0, phases, times, dps=50):
    """Duhamel states at ``times`` in the eigenbasis, in ``dps``-digit arithmetic.

    ``phases`` are ``(t_start, t_end, v)`` with the forcing
    ``-mtil exp(-(t_end - s) mu) v`` on ``[t_start, t_end]``.  Inside a phase
    started from ``u(a)`` each mode has the closed form
    ``u_i(t) = e^{-(t-a) mu_i} u_i(a)
    - sum_j mtil_ij v_j e^{-(t_end-t) mu_j} (1 - e^{-(t-a)(mu_i+mu_j)}) / (mu_i+mu_j)``
    (the last factor is ``t - a`` where ``mu_i + mu_j = 0``); outside phases
    the modes decay freely.  A time continues from the last of the states at
    0 and at the phase boundaries (in phase order) whose time is at most
    1e-15 past it, as in ``duhamel_solve``.  The inputs are taken as the
    exact values of their doubles.
    """
    with mpmath.workdps(dps):
        mu = [mpmath.mpf(float(x)) for x in mu]
        n = len(mu)
        M = [[mpmath.mpf(float(x)) for x in row] for row in np.asarray(mtil)]

        def forced(state, a, b, v, t):
            alpha = mpmath.mpf(float(t)) - a
            E = [mpmath.exp(-alpha * m) for m in mu]
            F = [mpmath.mpf(float(vj)) * mpmath.exp(-(b - mpmath.mpf(float(t))) * m)
                 for vj, m in zip(v, mu)]
            out = []
            for i in range(n):
                acc = mpmath.mpf(0)
                for j in range(n):
                    if F[j]:
                        s = mu[i] + mu[j]
                        acc += M[i][j] * F[j] * (alpha if s == 0 else (1 - E[i] * E[j]) / s)
                out.append(E[i] * state[i] - acc)
            return out

        def decay(state, dt):
            return [mpmath.exp(-dt * m) * x for m, x in zip(mu, state)]

        anchors = [(mpmath.mpf(0), [mpmath.mpf(float(x)) for x in u0], None)]
        for a, b, v in phases:
            a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
            start = decay(anchors[-1][1], a - anchors[-1][0])
            anchors.append((a, start, (a, b, v)))
            anchors.append((b, forced(start, a, b, v, b), None))
        rows = []
        for t in times:
            k = max(i for i, (ta, _, _) in enumerate(anchors) if ta <= float(t) + 1e-15)
            ta, ua, phase = anchors[k]
            if phase is not None and mpmath.mpf(float(t)) > ta:
                rows.append(forced(ua, *phase, t))
            else:
                rows.append(decay(ua, mpmath.mpf(float(t)) - ta))
        return np.array([[float(x) for x in row] for row in rows])


def control_cost_mp(N, T, a, dps=60):
    """``C_T`` on the Dirichlet interval (0, pi) with the set (0, a) and the
    first ``N`` modes, in ``dps``-digit arithmetic.

    With the modes ``sqrt(2/pi) sin(k x)``, eigenvalues ``k**2`` and the
    closed-form set Gram ``M_jk = (sin((j-k)a)/(j-k) - sin((j+k)a)/(j+k))/pi``
    (``(a - sin(2ka)/(2k))/pi`` on the diagonal), the Gramian is
    ``Q_jk = M_jk (1 - e^{-(j^2+k^2)T}) / (j^2+k^2)`` and
    ``C_T = sqrt(lambda_max(E Q^{-1} E))`` with ``E = diag(e^{-k^2 T})``.
    ``T`` and ``a`` are taken as the exact values of their doubles.
    """
    with mpmath.workdps(dps):
        T, a = mpmath.mpf(T), mpmath.mpf(a)
        ks = range(1, N + 1)

        def gram(j, k):
            if j == k:
                return (a - mpmath.sin(2 * k * a) / (2 * k)) / mpmath.pi
            return (mpmath.sin((j - k) * a) / (j - k)
                    - mpmath.sin((j + k) * a) / (j + k)) / mpmath.pi

        Q = mpmath.matrix(N, N)
        for i, j in enumerate(ks):
            for m, k in enumerate(ks):
                s = j * j + k * k
                Q[i, m] = gram(j, k) * (1 - mpmath.exp(-s * T)) / s
        E = mpmath.diag([mpmath.exp(-k * k * T) for k in ks])
        A = E * mpmath.inverse(Q) * E
        A = (A + A.T) / 2
        return mpmath.sqrt(max(mpmath.eigsy(A, eigvals_only=True)))


def galerkin_cost_mp(G, M, T, dps=50):
    """``C_T`` of the truncated system with generator matrix ``G`` and control
    Gram ``M`` (both in one orthonormal function basis, taken as the exact
    values of their doubles), in ``dps``-digit arithmetic.

    The eigenpairs ``(lam, V)`` of ``G`` come from mpmath's ``eigsy``; with
    ``Mt = V^T M V`` the Gramian is ``Q_jk = Mt_jk (1 - e^{-(lam_j+lam_k)T}) /
    (lam_j + lam_k)`` and ``C_T = sqrt(lambda_max(E Q^{-1} E))`` with
    ``E = diag(e^{-lam T})``, as in :func:`control_cost_mp`.
    """
    with mpmath.workdps(dps):
        n = len(G)
        lam, V = mpmath.eigsy(mpmath.matrix(np.asarray(G).tolist()))
        Mt = V.T * mpmath.matrix(np.asarray(M).tolist()) * V
        T = mpmath.mpf(T)
        Q = mpmath.matrix(n, n)
        for i in range(n):
            for k in range(n):
                s = lam[i] + lam[k]
                Q[i, k] = Mt[i, k] * (T if s == 0 else (1 - mpmath.exp(-s * T)) / s)
        E = mpmath.diag([mpmath.exp(-lam[i] * T) for i in range(n)])
        A = E * mpmath.inverse(Q) * E
        A = (A + A.T) / 2
        return mpmath.sqrt(max(mpmath.eigsy(A, eigvals_only=True)))
