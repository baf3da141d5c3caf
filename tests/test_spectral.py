import math

import numpy as np
import pytest

from heatctl import (CapacityError, DomainSpec, ParameterError, PotentialSpec,
                     build_basis, fractional_transform, galerkin_schrodinger,
                     semigroup_apply)
from heatctl.spectral import BOUNDARIES, _axis_modes, galerkin_matrix, symmetrize


def _axis_atom(boundary, side, origin, k):
    """(amp, freq, phase) of the 1D mode ``k`` in absolute coordinates, one
    mode at a time: the reference for the atoms the package builds."""
    if boundary == "periodic":
        if k == 0:
            return (1.0 / np.sqrt(side), 0.0, 0.0)
        w = 2.0 * np.pi * abs(k) / side
        phase = -w * origin - (np.pi / 2 if k < 0 else 0.0)
        return (np.sqrt(2.0 / side), w, phase)
    if boundary == "dirichlet":
        w = k * np.pi / side
        return (np.sqrt(2.0 / side), w, -w * origin - np.pi / 2)
    # neumann
    if k == 0:
        return (1.0 / np.sqrt(side), 0.0, 0.0)
    w = k * np.pi / side
    return (np.sqrt(2.0 / side), w, -w * origin)
from oracles import quad_gram


def test_dirichlet_interval_modes():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 5.0)
    assert basis.modes == ((1,), (2,))
    assert np.allclose(basis.eigenvalues, [1.0, 4.0])


def test_torus_modes():
    basis = build_basis(DomainSpec.torus(2 * math.pi), 1.5)
    assert set(basis.modes) == {(0,), (1,), (-1,)}
    assert np.allclose(sorted(basis.eigenvalues), [0.0, 1.0, 1.0])
    assert basis.modes[0] == (0,)  # constant first


def test_square_dirichlet_modes():
    basis = build_basis(DomainSpec("dirichlet", (math.pi, math.pi)), 5.0)
    assert basis.modes == ((1, 1), (1, 2), (2, 1))
    assert np.allclose(basis.eigenvalues, [2.0, 5.0, 5.0])


def test_eigenvalues_sorted_and_cutoff_respected():
    basis = build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 10.0)
    assert np.all(np.diff(basis.eigenvalues) >= 0)
    assert np.all(basis.eigenvalues <= 10.0)
    # every admissible mode present: count modes with |k|^2 <= 10 by brute force
    expect = sum(1 for k1 in range(-4, 5) for k2 in range(-4, 5)
                 if k1 * k1 + k2 * k2 <= 10)
    assert basis.n == expect


def test_capacity_error():
    with pytest.raises(CapacityError):
        build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 1e9, n_max=64)


@pytest.mark.parametrize("e_max", [1e30, math.inf])
def test_capacity_error_comes_before_the_modes_are_listed(e_max):
    # about 3e14 modes per axis at 1e30: listed, they would not fit in memory
    with pytest.raises(CapacityError, match="mode enumeration exceeded"):
        build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), e_max)


def test_capacity_error_from_the_mode_tuples_of_short_axes():
    # 61 modes per axis pass the per-axis count, about 2800 tuples do not
    with pytest.raises(CapacityError, match="mode enumeration exceeded 400"):
        build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 900.0, n_max=8)


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_orthonormality_quadrature(boundary):
    dom = (DomainSpec.torus(2 * math.pi) if boundary == "periodic"
           else DomainSpec.interval(0.0, math.pi, boundary))
    basis = build_basis(dom, 30.0)
    G = quad_gram(basis, [dom.box()], order=96)
    assert np.max(np.abs(G - np.eye(basis.n))) < 1e-10


def test_orthonormality_2d():
    dom = DomainSpec("neumann", (1.0, 2.0))
    basis = build_basis(dom, 40.0)
    G = quad_gram(basis, [dom.box()], order=64)
    assert np.max(np.abs(G - np.eye(basis.n))) < 1e-10


def test_galerkin_zero_potential_is_diagonal():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 20.0)
    op = galerkin_schrodinger(basis)
    assert op.is_diagonal and op.eigvecs is None
    assert np.array_equal(op.eigvals, basis.eigenvalues)


def test_galerkin_constant_potential():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 20.0)
    op = galerkin_schrodinger(basis, PotentialSpec.const(2.5))
    assert np.allclose(galerkin_matrix(basis, op.potential), np.diag(basis.eigenvalues + 2.5),
                       atol=1e-12)
    assert np.allclose(np.sort(op.eigvals), basis.eigenvalues + 2.5, atol=1e-12)


def test_galerkin_indicator_closed_form():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 5.0)
    V = PotentialSpec.indicator([(0.0, math.pi / 2)])
    off = 4.0 / (3.0 * math.pi)  # antiderivative of sin(x) sin(2x) on (0, pi/2)
    expect = np.array([[1.0 + 0.5, off], [off, 4.0 + 0.5]])
    assert np.allclose(galerkin_matrix(basis, V), expect, atol=1e-14)


def test_galerkin_matches_quadrature_for_cosine_series():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 30.0)
    V = PotentialSpec(cosines=((0.7, (1,)), (-0.3, (3,))))
    f = lambda pts: V.evaluate(pts, basis.domain)
    Vq = quad_gram_weighted(basis, f)
    assert np.max(np.abs(galerkin_matrix(basis, V) - np.diag(basis.eigenvalues) - Vq)) < 1e-10


def quad_gram_weighted(basis, f, order=96):
    from oracles import gl_nodes
    (a, b), = basis.domain.box()
    x, w = gl_nodes(a, b, order)
    F = basis.evaluate(x[:, None])
    return (F * (w * f(x[:, None]))) @ F.T


@pytest.mark.parametrize("dom, e_max", [
    (DomainSpec.torus(2 * math.pi, 2 * math.pi), 20.0),
    (DomainSpec("dirichlet", (2.0, 3.0), (-0.5, 1.25)), 60.0),
], ids=["torus", "shifted-box"])
@pytest.mark.parametrize("term", ["indicator", "cosine"])
def test_galerkin_2d_matches_weighted_quadrature(term, dom, e_max):
    basis = build_basis(dom, e_max)
    box = ((0.2, 1.1), (1.5, 3.0))
    if term == "indicator":
        V = PotentialSpec(boxes=((1.5, box),))
        Vq = 1.5 * quad_gram(basis, [box], order=48)
    else:
        V = PotentialSpec(cosines=((0.7, (1, 2)),))
        Vq = quad_gram(basis, [dom.box()], order=64,
                       weight=lambda pts: V.evaluate(pts, dom))
    assert np.max(np.abs(galerkin_matrix(basis, V) - np.diag(basis.eigenvalues) - Vq)) < 1e-10


@pytest.mark.parametrize("V", [
    PotentialSpec(cosines=((0.7, (1,)),)),
    PotentialSpec(cosines=((0.7, (1, 2, 3)),)),
    PotentialSpec(boxes=((1.5, ((0.2, 1.1),)),)),
    PotentialSpec(boxes=((1.5, ((0.2, 1.1), (1.5, 3.0), (0.0, 1.0))),)),
    PotentialSpec(boxes=((1.5, ((0.2, 1.1), (3.0, 1.5))),)),
    PotentialSpec(boxes=((1.5, ((0.2, 1.1), (1.5,))),)),
], ids=["kvec-1", "kvec-3", "box-1d", "box-3d", "box-reversed", "box-no-pair"])
def test_galerkin_refuses_potential_terms_of_the_wrong_shape(V):
    basis = build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 8.0)
    with pytest.raises(ParameterError, match="per axis"):
        galerkin_schrodinger(basis, V)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_axis_atoms_are_distinct_and_gather_every_mode(boundary):
    dom = DomainSpec(boundary, (2.0, 3.0), (-0.5, 1.25))
    basis = build_basis(dom, 40.0)
    for ax in range(2):
        atoms, index = basis.axis_atoms[ax]
        assert basis.axis_atoms[ax][0] is atoms  # built once per basis
        assert len(atoms[0]) == len({m[ax] for m in basis.modes}) < basis.n
        per_mode = [_axis_atom(boundary, dom.sides[ax], dom.origin[ax], m[ax])
                    for m in basis.modes]
        assert np.array_equal(np.stack(atoms, axis=1)[index], per_mode)


def _axis_modes_scan(boundary, side, e_max):
    """The 1D modes of one axis, one wave number at a time: the reference for
    the modes the package lists."""
    out = []
    if boundary == "periodic":
        unit = 2.0 * np.pi / side
        out.append((0, 0.0))
        k = 1
        while (k * unit) ** 2 <= e_max:
            out += [(k, (k * unit) ** 2), (-k, (k * unit) ** 2)]
            k += 1
        return out
    unit = np.pi / side
    k = 0 if boundary == "neumann" else 1
    while (k * unit) ** 2 <= e_max:
        out.append((k, (k * unit) ** 2))
        k += 1
    return out


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_axis_modes_are_the_scan_per_wave_number_bit_for_bit(boundary):
    for side in (2 * math.pi, 9.0, 4.5, 3.37, 2.13, 15.38435497866404):
        for e_max in (0.5, 40.0, 150.0, 161.0 ** 2, 21973.2682717666):
            modes = _axis_modes(boundary, side, e_max)
            scan = _axis_modes_scan(boundary, side, e_max)
            assert modes == scan
            assert [type(k) for k, _ in modes] == [int] * len(scan)
            assert [type(lam) for _, lam in modes] == [float] * len(scan)


def test_galerkin_symmetry_and_form_lower_bound():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 50.0)
    V = PotentialSpec.indicator([(1.0, 2.0)], height=-3.0)
    op = galerkin_schrodinger(basis, V)
    M = galerkin_matrix(basis, V)
    assert np.max(np.abs(M - M.T)) < 1e-12 * np.max(np.abs(M))
    assert np.max(np.abs(op.eigvecs.T @ op.eigvecs - np.eye(op.n))) < 1e-10
    recon = (op.eigvecs * op.eigvals) @ op.eigvecs.T
    assert np.max(np.abs(recon - M)) < 1e-9 * max(np.max(np.abs(M)), 1)
    assert op.eigvals[0] >= -V.sup_norm - 1e-10


def test_semigroup_identity_and_scalars():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 5.0)
    op = galerkin_schrodinger(basis)
    u = np.array([1.0, 1.0])
    assert np.array_equal(semigroup_apply(op, 0.0, u), u)
    out = semigroup_apply(op, 1.0, u)
    assert np.allclose(out, [math.exp(-1.0), math.exp(-4.0)], rtol=1e-15)


def test_semigroup_kernel_mode_invariant():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "neumann"), 0.5)
    op = galerkin_schrodinger(basis)
    assert op.n == 1 and op.eigvals[0] == 0.0
    assert semigroup_apply(op, 7.3, np.array([1.0]))[0] == 1.0


def test_semigroup_property_and_contractivity():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 40.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.5, 1.5)], height=2.0))
    rng = np.random.default_rng(7)
    u = rng.standard_normal(op.n)
    for s, t in [(0.1, 0.3), (0.7, 0.05), (1.0, 1.0)]:
        both = semigroup_apply(op, s + t, u)
        chained = semigroup_apply(op, s, semigroup_apply(op, t, u))
        assert np.max(np.abs(both - chained)) < 1e-10 * np.linalg.norm(u)
    assert op.eigvals[0] > 0  # non-negative potential keeps the form positive
    norms = [np.linalg.norm(semigroup_apply(op, t, u)) for t in (0.0, 0.2, 1.0, 5.0)]
    assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms[:-1], norms[1:]))


def test_semigroup_rejects_negative_time():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 5.0)
    op = galerkin_schrodinger(basis)
    with pytest.raises(ParameterError):
        semigroup_apply(op, -0.1, np.array([1.0, 0.0]))
    with pytest.raises(ParameterError, match="^vector has length 3, expected 2$"):
        semigroup_apply(op, 0.1, np.ones(3))


@pytest.mark.parametrize("build, message", [
    (lambda: DomainSpec("robin", (1.0,)), "unknown boundary 'robin'"),
    (lambda: DomainSpec("periodic", ()), "dimension must be 1, 2 or 3"),
    (lambda: DomainSpec("periodic", (1.0,) * 4), "dimension must be 1, 2 or 3"),
    (lambda: DomainSpec("dirichlet", (1.0, 0.0)), "all side lengths must be positive"),
    (lambda: DomainSpec("dirichlet", (1.0, 1.0), (0.0,)),
     "origin and sides must have equal length"),
    (lambda: build_basis(DomainSpec.interval(0.0, 1.0), 0.0), "e_max must be positive"),
    (lambda: fractional_transform(galerkin_schrodinger(build_basis(
        DomainSpec.interval(0.0, 1.0, "dirichlet"), 40.0)), 0.0), "theta must be positive"),
], ids=["boundary", "no-axis", "four-axes", "side", "origin", "e_max", "theta"])
def test_domain_basis_and_transform_refusals(build, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        build()


def test_fractional_identity_power():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 10.0)
    op = galerkin_schrodinger(basis)
    assert fractional_transform(op, 1.0) is op


def test_fractional_squares_eigenvalues():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 10.0)
    op = galerkin_schrodinger(basis)
    op2 = fractional_transform(op, 2.0)
    assert np.allclose(op2.eigvals, [1.0, 16.0, 81.0])
    # both handles diagonal: the same (identity) map to the eigenbasis
    assert op.is_diagonal and op2.is_diagonal
    assert op.eigvecs is None and op2.eigvecs is None


def test_fractional_projector_identity():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 100.0)
    op = galerkin_schrodinger(basis)
    op2 = fractional_transform(op, 2.0)
    sel_frac = np.flatnonzero(op2.eigvals <= 16.0)
    sel_orig = np.flatnonzero(op.eigvals <= 4.0)
    assert np.array_equal(sel_frac, sel_orig)


def test_semigroup_matches_expm_oracle():
    import scipy.linalg
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 30.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.5, 2.0)], height=-1.5))
    rng = np.random.default_rng(4)
    u = rng.standard_normal(op.n)
    for t in (0.05, 0.4, 1.3):
        ours = semigroup_apply(op, t, u)
        dense = scipy.linalg.expm(-t * galerkin_matrix(basis, op.potential)) @ u
        assert np.max(np.abs(ours - dense)) < 1e-10 * np.linalg.norm(u)


def test_fractional_transform_non_diagonal():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 25.0)
    op = galerkin_schrodinger(basis, PotentialSpec.const(5.0))
    op2 = fractional_transform(op, 2.0)
    assert np.allclose(np.sort(op2.eigvals), np.sort(op.eigvals) ** 2, rtol=1e-13)
    M = galerkin_matrix(basis, op.potential)
    recon = (op2.eigvecs * op2.eigvals) @ op2.eigvecs.T
    assert np.max(np.abs(recon - M @ M)) < 1e-9 * np.max(np.abs(M @ M))
    for lam in (40.0, 200.0, 700.0):
        sel2 = np.flatnonzero(op2.eigvals <= lam)
        sel1 = np.flatnonzero(op.eigvals <= math.sqrt(lam))
        assert np.array_equal(sel1, sel2)


def test_fractional_rejects_negative_spectrum():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 10.0)
    op = galerkin_schrodinger(basis, PotentialSpec.const(-5.0))
    with pytest.raises(ParameterError):
        fractional_transform(op, 2.0)


def test_project_on_a_diagonal_handle_is_the_principal_block():
    op = galerkin_schrodinger(build_basis(DomainSpec.torus(2 * math.pi), 30.0))
    M = np.random.default_rng(3).standard_normal((op.n, op.n))
    assert op.project(M) is M
    scattered = np.array([0, 2, 3, 7, 10])
    assert np.array_equal(op.project(M, scattered), M[np.ix_(scattered, scattered)])
    run = np.arange(2, 9)
    block = op.project(M, run)
    assert np.shares_memory(block, M)
    assert np.array_equal(block, M[np.ix_(run, run)])


def test_project_on_a_potential_handle_conjugates_by_the_eigenvectors():
    basis = build_basis(DomainSpec.interval(0.0, math.pi, "dirichlet"), 100.0)
    op = galerkin_schrodinger(basis, PotentialSpec.indicator([(0.5, 2.0)], 3.0))
    X = np.random.default_rng(5).standard_normal((op.n, op.n))
    M = X + X.T
    V = op.eigvecs
    # the conjugation rounds unevenly across the diagonal; project mirrors it
    assert not np.array_equal(V.T @ M @ V, (V.T @ M @ V).T)
    for k in (None, np.array([0, 2, 5, 6]), np.arange(4)):
        Vk = V if k is None else V[:, k]
        block = op.project(M, k)
        assert np.array_equal(block, symmetrize(Vk.T @ M @ Vk))
        assert np.array_equal(block, block.T)
    assert fractional_transform(op, 0.5).eigvecs is op.eigvecs


def test_evaluate_reads_points_as_rows_and_refuses_columns():
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    basis = build_basis(dom, 2.0)
    atoms = [[_axis_atom(dom.boundary, dom.sides[ax], dom.origin[ax], m[ax]) for ax in range(2)]
             for m in basis.modes]

    def exact(pts):
        return np.array([[math.prod(a * math.cos(w * x + p) for (a, w, p), x in zip(mode, pt))
                          for pt in pts] for mode in atoms])

    for pts in (np.array([[0.3, 1.2], [2.0, 0.5], [5.0, 4.4]]), np.array([[0.3, 1.2], [2.0, 0.5]])):
        assert np.allclose(basis.evaluate(pts), exact(pts), rtol=0.0, atol=1e-15)
    with pytest.raises(ParameterError, match=r"\(npts, 2\)"):
        basis.evaluate(np.array([[0.3, 2.0, 5.0], [1.2, 0.5, 4.4]]))


def test_potential_box_terms_evaluate_to_the_indicator():
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    V = PotentialSpec(constant=0.5, boxes=((2.0, ((1.0, 2.0), (0.5, 3.0))),
                                           (-1.0, ((1.5, 4.0), (2.0, 2.5)))))
    pts = np.array([[1.2, 1.0], [1.8, 2.2], [3.0, 2.2], [0.5, 1.0], [1.2, 3.5], [1.0, 0.5]])
    inside = [[1, 0], [1, 1], [0, 1], [0, 0], [0, 0], [1, 0]]
    assert np.array_equal(V.evaluate(pts, dom), 0.5 + np.array(inside) @ [2.0, -1.0])
