"""Independent numerical oracles used to cross-check closed-form results.

Everything here deliberately avoids the package's antiderivative machinery:
Gram matrices come from tensor Gauss-Legendre quadrature on basis values,
measures from dense grids, and the factorization constant from a
generalized symmetric eigensolver.
"""

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
