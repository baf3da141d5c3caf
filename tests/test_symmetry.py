"""Exact symmetry of every class block and every kernel built from one.

Set Grams and Galerkin matrices are symmetrized by their assemblers, and a
dense handle's projected blocks by :meth:`OperatorHandle.project`.  Every
block of :meth:`ControlProblem.class_blocks` and of
:func:`heatctl.geometry.set_blocks`, and every kernel ``M o Phi_h``, is then
exactly symmetric, so the Gramian factor reads its blocks without writing
them and active/passive synthesis steers leading views of its kernels.
"""

import math

import numpy as np
import pytest

from heatctl import (ControlProblem, DomainSpec, EquidistributedSpec, ObservabilitySet,
                     ParameterError, PotentialSpec, UncertaintyFit, active_passive_synthesize,
                     build_basis, galerkin_schrodinger, gram_matrix, make_equidistributed,
                     min_norm_control, worst_initial_state)
from heatctl import control
from heatctl.geometry import set_blocks

TWO_PI = 2.0 * math.pi
TORUS = DomainSpec.torus(TWO_PI, TWO_PI)
ONE_BOX = ObservabilitySet.periodic((TWO_PI, TWO_PI), [((0.3, 3.9), (1.0, 4.4))])


def _case(name):
    """``(handle, set)`` of one kind of class block."""
    if name == "one_box":
        return galerkin_schrodinger(build_basis(TORUS, 20.0)), ONE_BOX
    if name == "tiled":
        return (galerkin_schrodinger(build_basis(TORUS, 20.0)),
                ObservabilitySet.periodic((math.pi, math.pi), [((0.3, 2.2), (0.5, 2.5))]))
    if name == "family":
        return (galerkin_schrodinger(build_basis(TORUS, 20.0)),
                make_equidistributed(EquidistributedSpec(G=math.pi, delta=0.9, seed=3),
                                     [(0.0, TWO_PI), (0.0, TWO_PI)]))
    if name == "dirichlet":
        return (galerkin_schrodinger(build_basis(DomainSpec.interval(0.0, math.pi), 100.0)),
                ObservabilitySet.periodic((math.pi,), [((0.4, 1.5),)]))
    potential = PotentialSpec(constant=0.5, boxes=((1.0, ((0.0, 1.0), (0.5, 2.0))),),
                              cosines=((0.25, (2, 1)),))
    return galerkin_schrodinger(build_basis(TORUS, 20.0), potential), ONE_BOX


CASES = ["one_box", "tiled", "family", "dirichlet", "potential"]
FIT = UncertaintyFit(d0=1.0, d1=0.5, s=0.5, residual=0.0)


def _symmetric(B):
    return np.array_equal(B, B.T)


@pytest.mark.parametrize("name", CASES)
def test_class_blocks_set_blocks_and_kernels_are_exactly_symmetric(name):
    op, S = _case(name)
    problem = ControlProblem.from_set(op, S, 1.0)
    blocks = problem.class_blocks()
    assert len(blocks) == (4 if name == "tiled" else 1)
    assert all(_symmetric(M) for _, _, M in blocks)
    for h in (1.0, 0.3, 1e-3):
        assert all(_symmetric(K) for K in control._class_kernels(problem, h))
    for E in (4.0, float(op.eigvals[-1])):
        assert all(_symmetric(B) for _, _, B in set_blocks(op, S, E))
    assert _symmetric(control.gramian(problem))


@pytest.mark.parametrize("name", ["tiled", "potential"])
def test_factor_reads_read_only_blocks_and_leaves_them_unchanged(name):
    op, S = _case(name)
    kernels = control._class_kernels(ControlProblem.from_set(op, S, 1.0), 1.0)
    before = [K.copy() for K in kernels]
    for K in kernels:
        K.flags.writeable = False
    factor = control._factor_blocks(kernels)
    assert all(Q is K for Q, K in zip(factor.blocks, kernels))
    assert all(np.array_equal(K, B) for K, B in zip(kernels, before))
    assert 1.0 <= factor.cond < math.inf and factor.w_min > 0.0


@pytest.mark.parametrize("name", ["tiled", "potential"])
def test_active_passive_steers_leading_views_of_its_phase_kernels(name, monkeypatch):
    op, S = _case(name)
    problem = ControlProblem.from_set(op, S, 1.5)
    problem.u0 = worst_initial_state(problem)
    events = []
    kernels, factor, ix_ = control._class_kernels, control._factor_blocks, np.ix_
    monkeypatch.setattr(control, "_class_kernels",
                        lambda *a: events.append(("kernels", kernels(*a))) or events[-1][1])
    monkeypatch.setattr(control, "_factor_blocks",
                        lambda blocks: events.append(("factor", blocks)) or factor(blocks))
    monkeypatch.setattr(np, "ix_", lambda *a: events.append(("ix_", a)) or ix_(*a))
    signal, _ = active_passive_synthesize(problem, FIT)
    assert "ix_" not in [kind for kind, _ in events]
    # each phase forms its kernels, then factors the Gramian it steers
    steered = [(events[i - 1], blocks) for i, (kind, blocks) in enumerate(events)
               if kind == "factor"]
    assert len(steered) == sum(1 for ph in signal.phases if ph.mode_mask.any()) > 1
    for (kind, phase_kernels), blocks in steered:
        assert kind == "kernels"
        for Q in blocks:
            K, = [K for K in phase_kernels if Q.base is K]
            k = Q.shape[0]
            assert np.shares_memory(Q, K) and Q.shape == (k, k) and _symmetric(Q)
            assert np.array_equal(Q, K[:k, :k])


def test_control_gram_that_is_not_exactly_symmetric_is_refused():
    op, S = _case("tiled")
    M = gram_matrix(op.basis, S)
    M[0, 1] = np.nextafter(M[0, 1], math.inf)
    problem = ControlProblem(op, M, 1.0, u0=np.eye(1, op.n, 0)[0])
    for refuse in (problem.class_blocks, lambda: problem.with_time(2.0),
                   lambda: min_norm_control(problem)):
        with pytest.raises(ParameterError, match="^control Gram is not exactly symmetric$"):
            refuse()
    M[0, 1] = M[1, 0]
    assert min_norm_control(problem)[1] > 0.0
