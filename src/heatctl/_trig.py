"""Closed-form integrals of products of cosine atoms.

Every 1D basis function used in this package is a single atom
``A*cos(w*x + p)`` in absolute coordinates.  Products of two atoms expand
into sums of cosines, so integrals over intervals reduce to antiderivatives
of ``cos``.  All Gram matrices, Galerkin potential entries and cross-basis
overlaps are assembled from the one cross kernel and the one separable box
sum below, which keeps them free of quadrature error.
"""

import numpy as np

# frequencies in this package are either 0 or bounded below by pi/side,
# so anything smaller than this is an exact cancellation
_FREQ_EPS = 1e-12


def _cos_primitive_diff(w, p, a, b):
    """Vectorized ``int_a^b cos(w x + p) dx``; all four arguments broadcast.

    The limit ``cos(p) (b - a)`` at ``w = 0`` is evaluated on the entries
    with ``|w| < _FREQ_EPS`` alone.
    """
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    small = np.abs(w) < _FREQ_EPS
    w_safe = np.where(small, 1.0, w)
    out = np.asarray((np.sin(w_safe * b + p) - np.sin(w_safe * a + p)) / w_safe)
    if small.any():
        at = np.broadcast_to(small, out.shape)
        out[at] = (np.cos(np.broadcast_to(p, out.shape)[at])
                   * np.broadcast_to(np.subtract(b, a), out.shape)[at])
    return out


def cross_integrals(atoms_a, atoms_b, lo, hi):
    """Tables of ``int_lo^hi f_i g_j dx``, one per interval: shape (len(lo), m_a, m_b).

    ``atoms_a`` and ``atoms_b`` are ``(amps, freqs, phases)`` of two atom
    families.  A Gram table is a family crossed with itself; a product
    ``g_j cos(w0 x + p0)`` is the sum of the two half-amplitude atoms at
    ``w_j -+ w0``, ``p_j -+ p0``.
    """
    Aa, wa, pa = (np.asarray(x, dtype=float) for x in atoms_a)
    Ab, wb, pb = (np.asarray(x, dtype=float) for x in atoms_b)
    lo = np.asarray(lo, dtype=float)[:, None, None]
    hi = np.asarray(hi, dtype=float)[:, None, None]
    wd = wa[:, None] - wb[None, :]
    ws = wa[:, None] + wb[None, :]
    pd = pa[:, None] - pb[None, :]
    ps = pa[:, None] + pb[None, :]
    out = 0.5 * (_cos_primitive_diff(wd, pd, lo, hi) + _cos_primitive_diff(ws, ps, lo, hi))
    return out * (Aa[:, None] * Ab[None, :])


def separable_sum(tables, index_a, index_b):
    """Matrix ``sum_box prod_axis tables[axis][box, index_a[axis][i], index_b[axis][j]]``.

    Tensor-product functions share few distinct 1D factors per axis, so the
    box sum runs once on the small per-axis tables (one ``einsum`` over the
    box index, in box order) and the result is gathered once into the
    ``(len(index_a[0]), len(index_b[0]))`` matrix.
    """
    d = len(tables)
    rows, cols = "abc"[:d], "ijk"[:d]
    spec = ",".join(f"z{r}{c}" for r, c in zip(rows, cols)) + "->" + rows + cols
    shape_a = tuple(t.shape[1] for t in tables)
    shape_b = tuple(t.shape[2] for t in tables)
    R = np.einsum(spec, *tables).reshape(int(np.prod(shape_a)), int(np.prod(shape_b)))
    ia = np.ravel_multi_index(tuple(index_a), shape_a)
    ib = np.ravel_multi_index(tuple(index_b), shape_b)
    return R[ia[:, None], ib[None, :]]


def quad_interval(f, a, b, order=32, panels=1):
    """Gauss-Legendre quadrature of ``f`` over [a, b] with equal panels."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x0
        total += np.sum(0.5 * (hi - lo) * w0 * f(xm))
    return total
