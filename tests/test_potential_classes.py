"""Potential handles solved by sign class, and whole-basis constants.

A potential whose terms are all even about one centre of the torus couples
no two sign classes in the atoms centred there, so ``galerkin_schrodinger``
solves one small ``eigh`` per class and rotates the eigenvectors back to the
basis's own atoms.  Its eigenpairs are checked against the dense ``eigh`` of
``galerkin_matrix`` and its ``C_T`` against a 50-digit oracle; every other
potential or domain keeps the dense path bit for bit.  On a dense handle the
spectral constant at an energy that keeps every mode is read from the set's
own blocks, which is checked against the projected Gram.
"""

import math

import numpy as np
import pytest

from heatctl import (ControlProblem, DomainSpec, EquidistributedSpec, NumericError,
                     ObservabilitySet, ParameterError, PotentialSpec, SpectralBasis,
                     build_basis, empirical_cost,
                     galerkin_schrodinger, gram_matrix, make_equidistributed,
                     spectral_ineq_constant, spectral_ineq_sweep)
from heatctl.spectral import OperatorHandle, _even_centre, galerkin_matrix
from oracles import galerkin_cost_mp

TWO_PI = 2.0 * math.pi

# name: (domain, e_max, potential), each potential even about one centre
CENTRED = {
    "1d_box_to_the_edge": (DomainSpec.torus(TWO_PI), 60.0,
                           PotentialSpec.indicator([(4.0, TWO_PI)], 2.0)),
    "1d_cosine": (DomainSpec.torus(4.0), 60.0,
                  PotentialSpec(constant=0.3, cosines=((1.2, (3,)),))),
    "2d_box": (DomainSpec.torus(TWO_PI, TWO_PI), 40.0,
               PotentialSpec.indicator([(0.5, 2.5), (1.0, 3.0)], 4.0)),
    # the box's midpoint is the origin plus half a side on both axes
    "2d_box_and_cosine_at_half_a_side": (
        DomainSpec.torus(TWO_PI, 4.0), 40.0,
        PotentialSpec(constant=0.5, boxes=((2.0, ((math.pi - 1.0, math.pi + 1.0), (1.0, 3.0))),),
                      cosines=((0.7, (2, 1)),))),
    # a cosine of frequency 0 on an axis asks for no centre there
    "2d_box_and_cosine_free_on_one_axis": (
        DomainSpec.torus(TWO_PI, TWO_PI), 40.0,
        PotentialSpec(boxes=((2.0, ((math.pi - 1.0, math.pi + 1.0), (0.7, 2.9))),),
                      cosines=((0.7, (2, 0)),))),
    "2d_constant": (DomainSpec.torus(TWO_PI, TWO_PI), 40.0, PotentialSpec.const(2.0)),
    "2d_shifted_origin": (DomainSpec("periodic", (TWO_PI, TWO_PI), (0.5, -1.0)), 40.0,
                          PotentialSpec.indicator([(1.0, 2.0), (0.0, 3.0)], 3.0)),
    "3d_box": (DomainSpec.torus(TWO_PI, TWO_PI, TWO_PI), 14.0,
               PotentialSpec.indicator([(0.5, 2.5), (1.0, 3.0), (2.0, TWO_PI)], 4.0)),
}


def _counted_eigh(monkeypatch):
    """The sizes of the matrices every ``np.linalg.eigh`` call is handed."""
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


@pytest.mark.parametrize("name", sorted(CENTRED))
def test_centred_potential_is_solved_per_sign_class(monkeypatch, name):
    dom, e_max, potential = CENTRED[name]
    basis = build_basis(dom, e_max)
    assert _even_centre(basis, potential) is not None
    sizes = _counted_eigh(monkeypatch)
    op = galerkin_schrodinger(basis, potential)
    monkeypatch.undo()
    assert sorted(sizes) == sorted(c.size for c in basis.sign_classes)
    assert len(sizes) == 2 ** dom.dimension
    G = galerkin_matrix(basis, potential)
    dense = np.linalg.eigvalsh(G)
    V = op.eigvecs
    assert np.all(np.diff(op.eigvals) >= 0)
    assert np.max(np.abs(op.eigvals - dense) / np.abs(dense)) <= 1e-13
    norm = np.linalg.norm(G, 2)
    assert np.linalg.norm(G @ V - V * op.eigvals, 2) <= 1e-14 * norm
    assert np.linalg.norm(V.T @ V - np.eye(basis.n), 2) <= 1e-14


@pytest.mark.parametrize("dom, e_max, S, potential, T", [
    (DomainSpec.torus(TWO_PI), 16.0, ObservabilitySet.periodic((TWO_PI,), [((0.5, 3.5),)]),
     PotentialSpec.indicator([(1.0, 2.5)], 2.0), 1.0),
    (DomainSpec.torus(TWO_PI, TWO_PI), 5.0,
     ObservabilitySet.periodic((math.pi, math.pi), [((0.3, 1.9), (0.5, 2.0))]),
     PotentialSpec.indicator([(1.0, 3.0), (2.0, 4.5)], 2.0), 0.5),
], ids=["1d", "2d"])
def test_cost_of_a_centred_potential_matches_the_50_digit_oracle(dom, e_max, S, potential, T):
    basis = build_basis(dom, e_max)
    assert _even_centre(basis, potential) is not None
    c_T = empirical_cost(ControlProblem.from_set(galerkin_schrodinger(basis, potential), S, T))
    exact = galerkin_cost_mp(galerkin_matrix(basis, potential), gram_matrix(basis, S), T)
    # the Gramians are conditioned below 1e3
    assert abs(c_T - exact) <= 1e-14 * exact


@pytest.mark.parametrize("dom, potential", [
    # the box is even about 0.5 and the cosine about 0, which differ by no
    # multiple of half the side
    (DomainSpec.torus(TWO_PI), PotentialSpec(constant=0.5, boxes=((1.0, ((0.0, 1.0),)),),
                                             cosines=((0.25, (2,)),))),
    (DomainSpec.torus(TWO_PI, TWO_PI),
     PotentialSpec(boxes=((1.0, ((0.5, 2.5), (1.0, 3.0))), (2.0, ((1.0, 2.0), (0.0, 3.0)))))),
    # no torus, no sign classes
    (DomainSpec.interval(0.0, math.pi, "dirichlet"), PotentialSpec.indicator([(0.5, 1.5)], 2.0)),
    (DomainSpec("neumann", (math.pi, 2.0)), PotentialSpec.indicator([(0.5, 1.5), (0.0, 1.0)])),
], ids=["1d_box_and_cosine", "2d_two_boxes", "dirichlet", "neumann"])
def test_potential_without_a_centre_keeps_the_dense_bits(dom, potential):
    basis = build_basis(dom, 40.0)
    assert _even_centre(basis, potential) is None
    op = galerkin_schrodinger(basis, potential)
    eigvals, eigvecs = np.linalg.eigh(galerkin_matrix(basis, potential))
    assert np.array_equal(op.eigvals, eigvals) and np.array_equal(op.eigvecs, eigvecs)


@pytest.mark.parametrize("box", [((0.0, 1.0, 2.0),), ((2.0, 1.0),), ((0.0, 1.0), (0.0, 1.0))])
def test_malformed_box_is_refused_before_any_centre(box):
    basis = build_basis(DomainSpec.torus(TWO_PI), 9.0)
    with pytest.raises(ParameterError, match="needs a \\(lo, hi\\) pair with lo < hi per axis"):
        galerkin_schrodinger(basis, PotentialSpec(boxes=((1.0, box),)))


def test_basis_whose_modes_lack_partners_keeps_the_dense_path():
    # a hand-built torus basis holding the cosine of frequency 1 without its sine
    dom = DomainSpec.torus(TWO_PI)
    basis = SpectralBasis(domain=dom, modes=((0,), (1,), (2,), (-2,)),
                          eigenvalues=np.array([0.0, 1.0, 4.0, 4.0]))
    potential = PotentialSpec.indicator([(1.0, 2.0)], 2.0)
    assert basis.axis_partners is None and _even_centre(basis, potential) is None
    op = galerkin_schrodinger(basis, potential)
    eigvals, eigvecs = np.linalg.eigh(galerkin_matrix(basis, potential))
    assert np.array_equal(op.eigvals, eigvals) and np.array_equal(op.eigvecs, eigvecs)


def test_class_block_beyond_double_range_is_refused():
    # the box covers most of the torus: on the diagonal, 1.5e308 (1 + 6/(2 pi))
    basis = build_basis(DomainSpec.torus(TWO_PI), 9.0)
    potential = PotentialSpec(constant=1.5e308, boxes=((1.5e308, ((0.0, 6.0),)),))
    assert _even_centre(basis, potential) is not None
    with np.errstate(all="raise"):
        with pytest.raises(NumericError, match="Galerkin matrix is not finite"):
            galerkin_schrodinger(basis, potential)


def _sets():
    """name: a set on the 2 pi torus, whose diagonal-handle blocks are the
    Bloch classes, the parity classes or the one class of all modes."""
    return {
        "bloch": ObservabilitySet.periodic((math.pi, math.pi), [((0.4, 2.3), (0.2, 2.0))]),
        "parity": ObservabilitySet.periodic((TWO_PI, TWO_PI), [((0.7, 3.9), (2.2, 4.1))]),
        "one_class": make_equidistributed(EquidistributedSpec(G=math.pi, delta=0.6, seed=3),
                                          [(0.0, TWO_PI), (0.0, TWO_PI)]),
    }


def _project_calls(monkeypatch):
    """Per ``OperatorHandle.project`` call, whether the handle is dense and the
    shape of the block."""
    calls = []
    project = OperatorHandle.project

    def counted(self, M, modes=None):
        out = project(self, M, modes)
        calls.append((self.eigvecs is not None, out.shape))
        return out

    monkeypatch.setattr(OperatorHandle, "project", counted)
    return calls


@pytest.mark.parametrize("name", ["bloch", "parity", "one_class"])
@pytest.mark.parametrize("centred", [True, False], ids=["centred", "no_centre"])
def test_whole_basis_constant_comes_from_the_set_blocks(monkeypatch, name, centred):
    basis = build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 30.0)
    potential = (PotentialSpec(constant=0.5, cosines=((0.4, (1, 2)),)) if centred else
                 PotentialSpec(boxes=((1.0, ((0.5, 2.5), (1.0, 3.0))),
                                      (2.0, ((1.0, 2.0), (0.0, 3.0))))))
    op = galerkin_schrodinger(basis, potential)
    assert (_even_centre(basis, potential) is not None) == centred
    S = _sets()[name]
    M = gram_matrix(basis, S)
    projected = float(np.linalg.eigvalsh(op.project(M))[0])
    calls = _project_calls(monkeypatch)
    top, bound = float(op.eigvals[-1]), 1e-15 * np.linalg.norm(M, 2)
    for E in (top, 2.0 * top):
        assert abs(spectral_ineq_constant(op, S, E) - projected) <= bound
        assert abs(spectral_ineq_constant(op, S, E, gram=M) - projected) <= bound
    # no block of the dense handle is projected for these energies
    assert not any(dense for dense, _ in calls)


def test_sweep_whose_top_energy_covers_the_basis_projects_up_to_the_next(monkeypatch):
    basis = build_basis(DomainSpec.torus(TWO_PI, TWO_PI), 30.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.5, 2.5), (1.0, 3.0)], 4.0))
    S = _sets()["one_class"]
    grid = [4.0, 16.0, float(op.eigvals[-1])]
    single = [spectral_ineq_constant(op, S, E) for E in grid]
    calls = _project_calls(monkeypatch)
    swept = [c for _, c in spectral_ineq_sweep(op, S, grid)]
    k = int(np.count_nonzero(op.eigvals <= 16.0))
    assert k < op.n
    assert sorted(calls) == [(False, (op.n, op.n)), (True, (k, k))]
    assert max(abs(a - b) for a, b in zip(swept, single)) <= 1e-15
