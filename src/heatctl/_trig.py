"""Closed-form integrals of products of cosine atoms.

Every 1D basis function used in this package is a single atom
``A*cos(w*x + p)`` in absolute coordinates.  Products of two atoms expand
into sums of cosines, so integrals over intervals reduce to antiderivatives
of ``cos``.  All Gram matrices, Galerkin potential entries and cross-basis
overlaps are assembled from the one cross kernel and the one separable box
sum below, which keeps them free of quadrature error.  The box sum is a
BLAS matrix product over the box index, taken for a few output rows at a
time, so it never holds a table over every pair of distinct-atom tuples.
"""

import math

import numpy as np

# frequencies in this package are either 0 or bounded below by pi/side,
# so anything smaller than this is an exact cancellation
_FREQ_EPS = 1e-12

# entries of one row group's matrix product (256 KiB): the gather reads it
# back from cache, and inside the benchmark's spectral jobs 1 MiB groups ran
# slower, their buffers page-faulted afresh on every call
_GROUP = 1 << 15


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
    box sum runs on the small per-axis tables of shape (boxes, m_a, m_b).
    The output rows are taken in groups of consecutive leading-axis atom
    tuples (every axis but the last), as many as keep a group's product
    within ``_GROUP`` entries.  For each group one matrix product contracts
    the box index: the Khatri-Rao product of the leading axes' tables at the
    group's atoms (a column of ones in 1D), transposed, times the last
    axis's table flattened to boxes x (m_a m_b).  One flat ``np.take`` then
    gathers the group's rows of the ``(len(index_a[0]), len(index_b[0]))``
    matrix from it.  With one box every entry is one product of table
    entries, exactly as the tables hold them; with several, an entry rounds
    as the BLAS kernel adds the boxes, which need not match its mirror in
    another group, so a Gram built here is symmetrized afterwards.
    """
    *lead, last = tables
    boxes, m, n = last.shape
    key_a = key_b = 0
    for t, i, j in zip(lead, index_a, index_b):
        key_a = key_a * t.shape[1] + i
        key_b = key_b * t.shape[2] + j
    shape_a = tuple(t.shape[1] for t in lead)
    atoms = math.prod(shape_a)
    # entries of the product per leading atom tuple
    width = math.prod(t.shape[2] for t in lead) * m * n
    row = key_a * width + index_a[-1] * n
    col = key_b * (m * n) + index_b[-1]
    flat = last.reshape(boxes, m * n)

    def product(g0, g1):
        K = np.ones((boxes, g1 - g0, 1))
        for t, i in zip(lead, np.unravel_index(np.arange(g0, g1), shape_a) if lead else ()):
            K = (K[..., None] * t[:, i, None, :]).reshape(boxes, g1 - g0, -1)
        K = K.reshape(boxes, -1).T
        # numpy's matmul is several times slower than the plain product for
        # an inner dimension of one; both give every entry as one product
        return K * flat if boxes == 1 else K @ flat

    step = max(1, _GROUP // width)
    if step >= atoms:
        return np.take(product(0, atoms), row[:, None] + col)
    order = np.argsort(key_a, kind="stable")
    edges = np.searchsorted(key_a[order], np.arange(0, atoms + step, step))
    out = np.empty((len(row), len(col)))
    for g0, lo, hi in zip(range(0, atoms, step), edges[:-1], edges[1:]):
        if lo < hi:
            rows = order[lo:hi]
            R = product(g0, min(g0 + step, atoms))
            out[rows] = np.take(R, (row[rows] - g0 * width)[:, None] + col)
    return out


def quad_interval(f, a, b, order=32, panels=1):
    """Gauss-Legendre quadrature of ``f`` over [a, b] with equal panels."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x0
        total += np.sum(0.5 * (hi - lo) * w0 * f(xm))
    return total
