"""Dense n x n arrays only where they are read.

A diagonal handle keeps its eigenvalues alone and builds its matrix and
eigenvectors on request; every symmetrized matrix is symmetrized in place,
one pair of tiles at a time.  Both give the same bits as the dense forms.
The set Gram is gathered one row group at a time, with no table over every
pair of distinct-atom tuples.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from heatctl import (DomainSpec, ObservabilitySet, PotentialSpec, build_basis,
                     fractional_transform, galerkin_schrodinger, gram_matrix,
                     spectral_ineq_constant)
from heatctl.spectral import _TILE, symmetrize


def _stored_bytes(op):
    return sum(v.nbytes for v in (getattr(op, f.name) for f in dataclasses.fields(op))
               if isinstance(v, np.ndarray))


@pytest.mark.parametrize("theta", [1.0, 0.5, 2.0])
def test_diagonal_handle_stores_its_eigenvalues_only(theta):
    basis = build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 60.0)
    op = fractional_transform(galerkin_schrodinger(basis), theta)
    assert op.is_diagonal and op.n == 185
    assert _stored_bytes(op) == op.eigvals.nbytes == 8 * op.n
    assert op.matrix.dtype == op.eigvecs.dtype == np.float64
    assert np.array_equal(op.matrix, np.diag(op.eigvals))
    assert np.array_equal(op.eigvecs, np.eye(op.n))
    u = np.arange(op.n, dtype=float)
    assert op.to_eigenbasis(u) is u and op.from_eigenbasis(u) is u


def test_potential_handle_stores_its_dense_eigensystem():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 100.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.5, 2.0)], 3.0))
    assert not op.is_diagonal
    assert op.matrix is op.dense_matrix and op.eigvecs is op.dense_eigvecs
    assert _stored_bytes(op) == 8 * op.n * (2 * op.n + 1)


@pytest.mark.parametrize("n", [1, 5, 127, 129, 300])
def test_symmetrize_matches_the_dense_form_bit_for_bit(n):
    assert n % _TILE
    X = np.random.default_rng(n).standard_normal((n, n)) * np.logspace(-8.0, 8.0, n)
    expect = 0.5 * (X + X.T)
    out = symmetrize(X)
    assert out is X
    assert np.array_equal(X, expect)


@pytest.mark.parametrize("cells", [1, 4], ids=["1box", "16boxes"])
def test_spectral_path_peaks_below_two_dense_matrices(cells):
    """Basis, diagonal handle, set Gram and one constant at n=1489, for one
    box and for sixteen: the box sum holds one row group's product at a
    time, so the Gram's assembly peaks near 1.1 n^2 floats, and nothing
    else holds a dense matrix beside it."""
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    S = ObservabilitySet.periodic((2 * math.pi / cells,) * 2,
                                  [((0.5 / cells, 3.5 / cells), (1.0 / cells, 4.0 / cells))])
    tracemalloc.start()
    try:
        basis = build_basis(dom, 480.0, n_max=2000)
        op = galerkin_schrodinger(basis)
        M = gram_matrix(basis, S)
        spectral_ineq_constant(op, S, 480.0, gram=M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.n == 1489
    assert len(S.boxes_in_region(dom.box())) == cells ** 2
    assert peak < 2 * 8 * basis.n ** 2
