"""The cost operator on the modes that carry ``C_T``.

``empirical_cost`` and ``worst_initial_state`` decompose
``exp(-TA) Q_T^{-1} exp(-TA)`` only on each class's leading modes, dropping
the modes whose ``exp(-T mu)`` cannot move its top eigenvalue by more than
machine epsilon.  On every problem below both are checked against the uncut
operator, formed whole from the same reversed Cholesky factor and decomposed
whole, and ``C_T`` against the generalized eigensolver of
``(exp(-2TA), Q_T)``.  The triangular inverse that forms the kept blocks is
checked against an LU solve at sizes around its 64-row leaves.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from heatctl import (ControlProblem, DomainSpec, ObservabilitySet, PotentialSpec,
                     build_basis, empirical_cost, galerkin_schrodinger, gramian,
                     worst_initial_state)
from heatctl.control import _tril_inverse

TWO_PI = 2.0 * math.pi
# four boxes, one per quarter of the 2pi-torus, as in the synthesis benchmark
QUARTER_BOXES = ObservabilitySet.periodic((math.pi, math.pi), [((0.3, 1.9), (0.5, 2.0))])


def _interval(e_max, potential=None):
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), e_max)
    return galerkin_schrodinger(basis, potential)


@pytest.fixture(scope="module")
def torus_421():
    """A 2D torus with an indicator potential (non-diagonal handle), n=421."""
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 131.0),
                              PotentialSpec.indicator([(0.5, 2.5), (1.0, 3.0)], 4.0))
    assert op.n == 421 and not op.is_diagonal
    return ControlProblem.from_set(op, QUARTER_BOXES, 1.0)


def _whole(problem):
    """Per class, its modes last first and its whole cost operator
    ``A_full = (L^{-1} E)^T (L^{-1} E)`` in that order, from the Cholesky
    factor ``L`` of its Gramian block with the modes reversed."""
    e = np.exp(-problem.T * problem.op.eigvals)
    whole = []
    for c, Q in zip(problem.classes, problem.gramian_factor.blocks):
        X = np.linalg.inv(np.linalg.cholesky(Q[::-1, ::-1])) * e[c][::-1]
        whole.append((c[::-1], X.T @ X))
    return whole


def _uncut(problem):
    """``(C_T, worst state)`` from the whole cost operator of every class."""
    tops = [(np.linalg.eigh(A), modes) for modes, A in _whole(problem)]
    (lam, V), modes = tops[int(np.argmax([lam[-1] for (lam, _), _ in tops]))]
    w = np.zeros(problem.op.n)
    w[modes] = V[:, -1]
    return math.sqrt(max(float(lam[-1]), 0.0)), problem.op.from_eigenbasis(w)


def _kept(problem):
    """Modes kept per class, as a boolean mask over all modes."""
    kept = np.zeros(problem.op.n, dtype=bool)
    for modes, A in problem.cost_blocks:
        assert A.shape == (modes.size, modes.size)
        kept[modes] = True
    return kept


def _assert_matches_uncut(problem):
    """The cut ``C_T`` and worst state against the uncut ones and the oracle;
    returns the mask of kept modes."""
    c_T, state = empirical_cost(problem), worst_initial_state(problem)
    c_uncut, state_uncut = _uncut(problem)
    assert abs(c_T - c_uncut) <= 1e-13 * c_uncut
    e2 = np.exp(-2.0 * problem.T * problem.op.eigvals)
    lam = scipy.linalg.eigh(np.diag(e2), gramian(problem), eigvals_only=True)[-1]
    assert abs(math.sqrt(lam) - c_T) <= 1e-9 * c_T
    sign = 1.0 if state @ state_uncut >= 0 else -1.0
    assert np.max(np.abs(state - sign * state_uncut)) <= 1e-12
    # the worst state vanishes on the dropped modes (up to the rounding of
    # the change of basis of a non-diagonal handle)
    kept = _kept(problem)
    assert np.max(np.abs(problem.op.to_eigenbasis(state)[~kept]), initial=0.0) <= 1e-15
    # the cut rule on one rounded operator: the kept blocks of A_full carry
    # its largest eigenvalue (each class keeps the last rows of its order)
    top = top_kept = 0.0
    for modes, A in _whole(problem):
        top = max(top, np.linalg.eigvalsh(A)[-1])
        k = int(kept[modes].sum())
        if k:
            top_kept = max(top_kept, np.linalg.eigvalsh(A[-k:, -k:])[-1])
    # The cut's guarantee puts the kept blocks' top eigenvalue within
    # eps * top of that of A_full.  Each eigvalsh call is backward stable:
    # its eigenvalues are exact for some B + dB with ||dB|| <= p(m) eps ||B||,
    # B of size m (LAPACK Users' Guide, sec. 4.7), taken with p(m) = m.  As
    # A_full = X^T X, ||A_full|| = top and a principal block's norm is no
    # larger, so by Weyl each call moves its top eigenvalue by at most
    # m eps top, with m <= n for both.  The two calls do not share their
    # rounding (it depends on the BLAS thread count), so the bound is
    # (1 + 2n) eps top, not eps top.
    assert abs(top_kept - top) <= (1 + 2 * problem.op.n) * np.finfo(float).eps * top
    return kept


@pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 3.0])
def test_dirichlet_interval(dirichlet_op, half_interval_set, T):
    problem = ControlProblem.from_set(dirichlet_op, half_interval_set, T)
    kept = _assert_matches_uncut(problem)
    if T >= 1.0:
        assert kept.sum() < dirichlet_op.n


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 3.0])
def test_torus_with_indicator_potential_keeps_fewer_modes(torus_421, T):
    problem = torus_421.with_time(T)
    kept = _assert_matches_uncut(problem)
    assert kept.sum() < problem.op.n


def _tiled(T):
    """A 2D torus tiled by a 5 x 5 periodic set: nine mode classes."""
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 20.0))
    S = ObservabilitySet.periodic((TWO_PI / 5,) * 2, [((0.1, 0.95), (0.2, 1.0))])
    return ControlProblem.from_set(op, S, T)


@pytest.mark.parametrize("T", [1.0, 3.0, 6.0, 10.0])
def test_tiled_torus_may_drop_whole_classes(T):
    problem = _tiled(T)
    assert len(problem.classes) == 9
    kept = _assert_matches_uncut(problem)
    classes_kept = sum(1 for c in problem.classes if kept[c].any())
    assert len(problem.cost_blocks) == classes_kept
    if T == 10.0:
        assert classes_kept < len(problem.classes)


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_negative_constant_potential_lifts_the_largest_decay_factor(half_interval_set, T):
    problem = ControlProblem.from_set(
        _interval(100.0, PotentialSpec(constant=-2.0)), half_interval_set, T)
    assert np.exp(-T * problem.op.eigvals).max() > 1.0
    kept = _assert_matches_uncut(problem)
    assert kept.sum() < problem.op.n


@pytest.mark.parametrize("height", [400.0, 800.0])
def test_underflowing_decay_keeps_every_mode(half_interval_set, height):
    # every exp(-T mu)**2 underflows (and at 800 every exp(-T mu) too), so
    # the cost operator is zero and the uncut result is kept bit for bit
    problem = ControlProblem.from_set(
        _interval(36.0, PotentialSpec(constant=height)), half_interval_set, 1.0)
    assert not np.any(np.exp(-problem.T * problem.op.eigvals) ** 2)
    assert _kept(problem).all()
    c_uncut, state_uncut = _uncut(problem)
    assert empirical_cost(problem) == c_uncut == 0.0
    assert np.array_equal(worst_initial_state(problem), state_uncut)


def _kept_by_diagonal_lam_hat(problem):
    """The modes the cut would keep with ``lam_hat = max_i e_i**2 (Q_T^{-1})_ii``
    over every mode, as a boolean mask over all modes."""
    e = np.exp(-problem.T * problem.op.eigvals)
    factor = problem.gramian_factor
    diag = np.empty(problem.op.n)
    for c, Q in zip(problem.classes, factor.blocks):
        diag[c] = np.diagonal(np.linalg.inv(Q))
    lam_hat = np.max(e ** 2 * diag)
    kept = np.zeros(problem.op.n, dtype=bool)
    for c in problem.classes:
        passing = np.flatnonzero(e[c] * (2.0 * e.max() + e[c]) / factor.w_min
                                 >= np.finfo(float).eps * lam_hat)
        if passing.size:
            kept[c[:passing[-1] + 1]] = True
    return kept


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_kept_modes_contain_those_of_the_diagonal_lam_hat(
        dirichlet_op, half_interval_set, torus_421, T):
    # lam_hat at each class's first mode is at most the largest diagonal
    # entry of A, so the cut keeps at least the modes that entry would keep
    for problem in (ControlProblem.from_set(dirichlet_op, half_interval_set, T),
                    torus_421.with_time(T), _tiled(T),
                    ControlProblem.from_set(_interval(100.0, PotentialSpec(constant=-2.0)),
                                            half_interval_set, T)):
        kept, by_diagonal = _kept(problem), _kept_by_diagonal_lam_hat(problem)
        assert by_diagonal.any()
        assert np.all(kept[by_diagonal])


@pytest.mark.parametrize("k", [1, 63, 64, 65, 241, 421])
def test_triangular_inverse_is_lower_triangular_and_matches_a_solve(k):
    # a trailing block of a Cholesky factor, a strided view as in the cost path
    rng = np.random.default_rng(k)
    G = rng.standard_normal((k + 3, k + 3))
    L = np.linalg.cholesky(G @ G.T / k + np.eye(k + 3))[-k:, -k:]
    X = _tril_inverse(L)
    assert np.array_equal(X, np.tril(X))
    expected = np.linalg.solve(L, np.eye(k))
    assert np.max(np.abs(X - expected)) <= 1e-14 * np.max(np.abs(expected))
