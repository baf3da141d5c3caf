"""Closed-form integrals of products of cosine atoms.

Every 1D basis function used in this package is a single atom
``A*cos(w*x + p)`` in absolute coordinates.  Products of two atoms expand
into sums of cosines, so integrals over intervals reduce to antiderivatives
of ``cos``.  All Gram matrices, Galerkin potential entries and cross-basis
overlaps are assembled from the one cross kernel and the one separable box
sum below, which keeps them free of quadrature error.  The cross kernel
takes sines and cosines per atom and interval end only, each at the exact
angle of the float atom, and forms every entry from them by angle
subtraction and addition, with no transcendental per entry.  The box sum
is a BLAS matrix product over the box index, taken for a few output rows
at a time, so it never holds a table over every pair of distinct-atom
tuples.
"""

import math

import numpy as np

# entries of one row group's matrix product (256 KiB): the gather reads it
# back from cache, and inside the benchmark's spectral jobs 1 MiB groups ran
# slower, their buffers page-faulted afresh on every call
_GROUP = 1 << 15

# a term whose angle over the longest interval, |w_i -+ v_j| (hi - lo), is
# under this is carried from the low end by Taylor polynomials: from both
# ends it would lose eps / |angle| to cancellation
_NEAR = 0.25
# Taylor coefficients in x^2 of (cos x - 1) / x^2 and sin x / x, highest
# first; at |x| = _NEAR the first omitted terms are under 1e-17
_COSM1 = [(-1) ** (k + 1) / math.factorial(2 * k + 2) for k in range(5, -1, -1)]
_SINC = [(-1) ** k / math.factorial(2 * k + 1) for k in range(5, -1, -1)]

# Veltkamp's splitter 2^27 + 1: a double times it splits into two halves of
# at most 26 significant bits each, whose products are exact
_SPLIT = 134217729.0


def _two_sum(a, b):
    """``(s, e)`` with ``s = fl(a + b)`` and ``s + e = a + b`` exactly (Knuth)."""
    s = a + b
    back = s - a
    return s, (a - (s - back)) + (b - back)


def _split(x):
    """Veltkamp's split of ``x`` into two halves of at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a b)`` and ``p + e = a b`` exactly (Dekker)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sin_cos(s, e):
    """``sin`` and ``cos`` of the double-double ``s + e``, ``|e|`` under an ulp
    of ``s``: ``sin s + e cos s`` and ``cos s - e sin s``, within an ulp of
    the exact values however large ``s`` is."""
    sin, cos = np.sin(s), np.cos(s)
    return sin + e * cos, cos - e * sin


def _small_angle(x):
    """``(cos x - 1) / x`` and ``sin x / x`` for ``|x| <= _NEAR``, by Horner's
    rule in ``x^2``: odd and even in ``x`` bit for bit."""
    x2 = x * x
    cosm1, sinc = _COSM1[0], _SINC[0]
    for c, s in zip(_COSM1[1:], _SINC[1:]):
        cosm1 = cosm1 * x2 + c
        sinc = sinc * x2 + s
    return x * cosm1, sinc


def _carried(sign, i, j, freq, low_ends, pa, pb, length):
    """``int_lo^hi cos(alpha_i -+ beta_j) dx``, shape (boxes, len(i)), for
    the terms ``(i, j)`` of ``sign`` and frequency ``freq = w_i -+ v_j``
    whose angle over the box is under ``_NEAR``: carried from the low end,
    whose ``sin`` and ``cos`` of the atoms' angles are ``low_ends``."""
    Sa, Ca, Sb, Cb = low_ends
    sin = Sa[:, i] * Cb[:, j] + sign * (Ca[:, i] * Sb[:, j])
    cos = Ca[:, i] * Cb[:, j] - sign * (Sa[:, i] * Sb[:, j])
    # at equal frequencies the angle is p_i -+ q_j everywhere: its cosine
    # from the exact phase difference, 1 on a Gram's diagonal
    zero = freq == 0.0
    if zero.any():
        cos[:, zero] = _sin_cos(*_two_sum(pa[i[zero]], sign[zero] * pb[j[zero]]))[1]
    cosm1, sinc = _small_angle(freq * length)
    return length * (sin * cosm1 + cos * sinc)


def cross_integrals(atoms_a, atoms_b, lo, hi):
    """Tables of ``int_lo^hi f_i g_j dx``, one per interval: shape (len(lo), m_a, m_b).

    ``atoms_a`` and ``atoms_b`` are ``(amps, freqs, phases)`` of two atom
    families.  A Gram table is a family crossed with itself; a product
    ``g_j cos(w0 x + p0)`` is the sum of the two half-amplitude atoms at
    ``w_j -+ w0``, ``p_j -+ p0``.

    With the angles ``alpha_i = w_i x + p_i`` and ``beta_j = v_j x + q_j``
    of the atoms ``f_i = A_i cos alpha_i`` and ``g_j = B_j cos beta_j``, an
    entry is ``A_i B_j / 2`` times ``sin(alpha_i - beta_j) / (w_i - v_j) +
    sin(alpha_i + beta_j) / (w_i + v_j)`` from ``lo`` to ``hi``.  The sines
    ``S`` and cosines ``C`` of the angles are taken once per atom and
    interval end, each within an ulp of its value at the exact angle of the
    float atom: ``w x`` is split into an exact sum of two doubles (Dekker's
    TwoProduct), ``p`` is added to its leading part without error (Knuth's
    TwoSum), and only the sum of the two tails is rounded.  Every entry
    follows from them by angle subtraction and addition,
    ``(S_i C_j -+ C_i S_j)|_hi - (S_i C_j -+ C_i S_j)|_lo``, elementwise in
    that order, with no sine or cosine per entry; an entry is then within a
    few ulps of ``A_i B_j / (2 |w_i -+ v_j|)`` of the exact integral of the
    same float atoms, however large ``w x + p`` is.

    A term whose angle over the longest interval, ``|w_i -+ v_j| (hi -
    lo)``, is under ``_NEAR`` would lose its accuracy to the cancellation
    between the ends, so it is carried from the low end instead:
    ``(hi - lo) [sin g (cos d - 1) / d + cos g sin d / d]`` for the angle
    ``g = alpha_i -+ beta_j`` at ``lo`` (from the same ``S`` and ``C``) and
    ``d = (w_i -+ v_j)(hi - lo)``, both fractions by Taylor polynomials.  At
    equal frequencies, the diagonal of a Gram among them, ``cos g`` is the
    cosine of the exact phase difference ``p_i -+ q_j``, one sine and cosine
    per such entry and call.  Every term is within a few ulps of
    ``A_i B_j (hi - lo) / 2`` or better, a family crossed with itself gives
    an exactly symmetric table, and boxes that share an end share that
    end's values.  The entries are written in groups of at most ``_GROUP``,
    from four buffers of that size, so no temporary grows with the table.
    """
    (Aa, wa, pa), (Ab, wb, pb) = ((np.asarray(v, dtype=float) for v in atoms)
                                  for atoms in (atoms_a, atoms_b))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    boxes, m_a, m_b = len(lo), len(wa), len(wb)
    # sine and cosine of every angle: rows lo then hi, columns a then b
    prod, prod_err = _two_product(np.concatenate([wa, wb]), np.concatenate([lo, hi])[:, None])
    angle, angle_err = _two_sum(prod, np.concatenate([pa, pb]))
    S, C = _sin_cos(angle, angle_err + prod_err)
    (Sa_lo, Ca_lo, Sb_lo, Cb_lo), (Sa_hi, Ca_hi, Sb_hi, Cb_hi) = (
        (S[e, :m_a], C[e, :m_a], S[e, m_a:], C[e, m_a:])
        for e in (slice(None, boxes), slice(boxes, None)))
    length = (hi - lo)[:, None]
    reach = float(np.max(np.abs(length), initial=0.0))
    out = np.empty((boxes, m_a, m_b))
    # rows per group, and boxes per group when one group holds every row
    rows = min(m_a, max(1, _GROUP // m_b))
    stack = max(1, _GROUP // (rows * m_b))
    buffers = np.empty((4, min(stack, boxes) * rows * m_b))
    for r0 in range(0, m_a, rows):
        r = slice(r0, r0 + rows)
        half = 0.5 * (Aa[r, None] * Ab)
        freqs, near = [], []
        for sign in (-1.0, 1.0):
            freq = wa[r, None] + sign * wb
            at = np.nonzero(np.abs(freq) * reach < _NEAR)
            near.append((np.full(at[0].size, sign), at[0] + r0, at[1], freq[at]))
            freq[at] = np.inf
            freqs.append(freq)
        sign, i, j, freq = (np.concatenate(x) for x in zip(*near))
        carried = _carried(sign, i, j, freq, (Sa_lo, Ca_lo, Sb_lo, Cb_lo), pa, pb, length)
        carried *= half[i - r0, j]
        for b0 in range(0, boxes, stack):
            b = slice(b0, b0 + stack)
            block = out[b, r]
            u, v, d, t = (x[:block.size].reshape(block.shape) for x in buffers)
            np.multiply(Sa_hi[b, r, None], Cb_hi[b, None], out=u)
            np.multiply(Ca_hi[b, r, None], Sb_hi[b, None], out=v)
            np.subtract(u, v, out=d)
            np.add(u, v, out=u)
            np.multiply(Sa_lo[b, r, None], Cb_lo[b, None], out=v)
            np.multiply(Ca_lo[b, r, None], Sb_lo[b, None], out=t)
            np.subtract(v, t, out=block)
            np.add(v, t, out=v)
            d -= block
            u -= v
            d /= freqs[0]
            u /= freqs[1]
            np.add(d, u, out=block)
            # the bits of 0.5 (d + u) amp: halving is exact
            block *= half
        # each sign apart: a term near in both adds both
        for part, (_, i, j, _) in zip(np.split(carried, [len(near[0][0])], axis=1), near):
            out[:, i, j] += part
    return out


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
