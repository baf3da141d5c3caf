"""The separable box sum against the sum of its one-box results.

A one-box result is one product of table entries per output entry, with
no accumulation, so the sum of one-box results in box order is an
independent reference: the matrix products may add the boxes in another
order, which moves an entry by at most ``boxes * eps * sum |terms|``.
"""

import math

import numpy as np
import pytest

from heatctl import DomainSpec, build_basis
from heatctl import _trig

EPS = np.finfo(float).eps


def _one_box_terms(tables, index_a, index_b):
    """Per box, the matrix ``prod_axis tables[axis][box, index_a[axis][i], index_b[axis][j]]``."""
    terms = np.ones((len(tables[0]), len(index_a[0]), len(index_b[0])))
    for t, i, j in zip(tables, index_a, index_b):
        terms *= t[:, np.asarray(i)[:, None], np.asarray(j)[None, :]]
    return terms


def _assert_sums_the_boxes(tables, index_a, index_b):
    out = _trig.separable_sum(tables, index_a, index_b)
    terms = _one_box_terms(tables, index_a, index_b)
    boxes = len(terms)
    assert out.shape == terms.shape[1:]
    assert np.all(np.abs(out - terms.sum(axis=0)) <= boxes * EPS * np.abs(terms).sum(axis=0))
    for z in range(boxes):
        one = _trig.separable_sum([t[z:z + 1] for t in tables], index_a, index_b)
        assert np.array_equal(one, terms[z])
    return out


def _random_case(rng, boxes, atoms_a, atoms_b, rows, cols):
    tables = [rng.standard_normal((boxes, ma, mb)) * np.logspace(-3.0, 3.0, mb)
              for ma, mb in zip(atoms_a, atoms_b)]
    index_a = [rng.integers(0, ma, rows) for ma in atoms_a]
    index_b = [rng.integers(0, mb, cols) for mb in atoms_b]
    return tables, index_a, index_b


@pytest.mark.parametrize("boxes", [1, 7, 36])
@pytest.mark.parametrize("atoms_a, atoms_b", [((9,), (9,)), ((6, 5), (4, 7)),
                                              ((4, 3, 5), (3, 5, 2))])
def test_box_sum_is_the_sum_of_one_box_products(boxes, atoms_a, atoms_b):
    rng = np.random.default_rng(boxes * 100 + len(atoms_a))
    _assert_sums_the_boxes(*_random_case(rng, boxes, atoms_a, atoms_b, 40, 33))


@pytest.mark.parametrize("boxes", [1, 7, 36])
def test_rectangular_cross_basis_sum(boxes):
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    basis_a, basis_b = build_basis(dom, 60.0), build_basis(dom, 20.0)
    rng = np.random.default_rng(boxes)
    lo = rng.uniform(0.0, 5.0, (boxes, 2))
    ends = np.stack([lo, lo + rng.uniform(0.1, 1.2, (boxes, 2))], axis=-1)
    axes = list(zip(basis_a.axis_atoms, basis_b.axis_atoms))
    tables = [_trig.cross_integrals(a[0], b[0], ends[:, ax, 0], ends[:, ax, 1])
              for ax, (a, b) in enumerate(axes)]
    assert tables[0].shape[1] != tables[0].shape[2]
    out = _assert_sums_the_boxes(tables, [a[1] for a, _ in axes], [b[1] for _, b in axes])
    assert out.shape == (basis_a.n, basis_b.n) and basis_a.n != basis_b.n


@pytest.mark.parametrize("boxes", [1, 7, 36])
@pytest.mark.parametrize("grid", [(30,), (30, 17), (9, 8, 7)])
def test_window_measure_shape(boxes, grid):
    """One column, the shape of the window scans: a single group covers it."""
    rng = np.random.default_rng(boxes + len(grid))
    tables = [rng.uniform(0.0, 1.0, (boxes, g, 1)) for g in grid]
    index = np.indices(grid).reshape(len(grid), -1)
    zeros = np.zeros_like(index[:, :1])
    assert math.prod(grid) <= _trig._GROUP
    out = _assert_sums_the_boxes(tables, index, zeros)
    assert out.shape == (math.prod(grid), 1)


@pytest.mark.parametrize("boxes", [1, 7, 36])
@pytest.mark.parametrize("atoms", [(13, 6), (7, 5, 4)])
def test_group_split_not_dividing_the_atom_count(monkeypatch, boxes, atoms):
    """Three leading atom tuples per group: the last group holds fewer."""
    rng = np.random.default_rng(boxes + len(atoms))
    tables, index_a, index_b = _random_case(rng, boxes, atoms, atoms, 50, 41)
    width = math.prod(atoms[:-1]) * atoms[-1] ** 2
    monkeypatch.setattr(_trig, "_GROUP", 3 * width + 1)
    leading = math.prod(atoms[:-1])
    assert leading % 3
    _assert_sums_the_boxes(tables, index_a, index_b)


def test_one_box_gram_is_the_product_of_the_axis_tables():
    basis = build_basis(DomainSpec.torus(2 * math.pi, 2 * math.pi), 150.0)
    box = [(0.3, 2.2), (1.0, 4.1)]
    tables, index = [], []
    for (atoms, idx), (lo, hi) in zip(basis.axis_atoms, box):
        tables.append(_trig.cross_integrals(atoms, atoms, [lo], [hi]))
        index.append(idx)
    expect = tables[0][0][index[0][:, None], index[0]] * tables[1][0][index[1][:, None], index[1]]
    assert np.array_equal(_trig.separable_sum(tables, index, index), expect)
