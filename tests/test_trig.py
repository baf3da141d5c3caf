"""The one cross kernel against 50-digit integrals of the same float atoms.

Every Gram, Galerkin table and cross-basis overlap is built from
``_trig.cross_integrals``, so its worst entry is checked here on each kind
of atom family the package crosses, and its count of sine and cosine
evaluations, which must not grow with the table's entries.
"""

import contextlib
import math

import numpy as np
import pytest

from heatctl import DomainSpec, ObservabilitySet, build_basis
from heatctl import _trig
from heatctl.exhaustion import box_basis
from heatctl.spectral import BOUNDARIES
from oracles import cross_integrals_mp


def _axis(basis, ax=0):
    return basis.axis_atoms[ax][0]


def _torus_axis():
    dom = DomainSpec.torus(2 * math.pi, 2 * math.pi)
    basis = build_basis(dom, 150.0)
    S = ObservabilitySet.periodic((math.pi / 2,) * 2, [((0.2, 1.0), (0.3, 1.2))])
    ends = sorted({box[0] for box in S.boxes_in_region(dom.box())})
    atoms = _axis(basis)
    return atoms, atoms, [lo for lo, _ in ends], [hi for _, hi in ends]


def _short_boxes():
    """The torus axis over boxes so short that most terms are near, carried
    from the low end."""
    atoms = _torus_axis()[0]
    return atoms, atoms, [0.2, 1.0], [0.3, 1.05]


def _box_gram(boundary, origin):
    """A side-3 box whose first interval starts on the domain's origin."""
    basis = build_basis(DomainSpec(boundary, (3.0,), (origin,)), 400.0)
    atoms = _axis(basis)
    return atoms, atoms, [origin, origin + 0.7], [origin + 1.3, origin + 2.9]


def _exhaust(L, omega_cut=161.0, L_ref=9.0, sample=False):
    """The overlap table of the reference box's atoms with those of the box of
    side ``L``, over that box.  A ``sample`` keeps every 25th source atom and
    the 8 nearest in frequency to a reference atom, the terms most prone to
    cancellation."""
    ref, src = box_basis(L_ref, omega_cut), box_basis(L, omega_cut)
    atoms = _axis(src)
    if sample:
        gap = np.min(np.abs(_axis(ref)[1][:, None] - atoms[1]), axis=0)
        keep = np.union1d(np.arange(0, len(gap), 25), np.argsort(gap, kind="stable")[:8])
        atoms = tuple(a[keep] for a in atoms)
    (lo, hi), = src.domain.box()
    return _axis(ref), atoms, [lo], [hi]


def _cosine_shifted():
    """The two half-amplitude atoms of ``f_j cos(w0 x + p0)`` for a ``w0`` that
    is one of the atoms' frequencies, so that the shifted frequencies are
    negative, zero and positive."""
    dom = DomainSpec("periodic", (2 * math.pi,), (-1.0,))
    amps, freqs, phases = atoms = _axis(build_basis(dom, 30.0))
    w0 = 3.0
    p0 = -w0 * dom.origin[0]
    shifted = [(0.5 * amps, freqs + s * w0, phases + s * p0) for s in (-1.0, 1.0)]
    both = tuple(np.concatenate(parts) for parts in zip(*shifted))
    assert np.any(both[1] < 0) and np.any(both[1] == 0)
    lo, hi = dom.box()[0]
    return atoms, both, [lo, 0.3], [hi, 2.2]


# name -> (atoms_a, atoms_b, lo, hi); the exhaustion tables are sampled here
# (the 50-digit oracle takes about 40 us per entry), and
# tools/kernel_error.py crosses all their atoms
FAMILIES = {
    "torus-n481-axis": _torus_axis,
    "torus-short-boxes": _short_boxes,
    "dirichlet-origin": lambda: _box_gram("dirichlet", 0.0),
    "dirichlet-off-origin": lambda: _box_gram("dirichlet", -1.1),
    "neumann-origin": lambda: _box_gram("neumann", 0.0),
    "neumann-off-origin": lambda: _box_gram("neumann", 2.3),
    "exhaust-4.5": lambda: _exhaust(4.5, sample=True),
    "exhaust-3.37": lambda: _exhaust(3.37, sample=True),
    "exhaust-2.13": lambda: _exhaust(2.13, sample=True),
    "cosine-shifted": _cosine_shifted,
}

# every family's entries are at most about 1: a few ulps of 1, under the
# 1e-15 that the exhaustion overlaps need (the former kernel lost up to
# 4.5e-12 on them to cancellation between near-equal frequencies)
TOLERANCE = 4 * np.finfo(float).eps


@contextlib.contextmanager
def counting_trig():
    """Count the elements of every ``np.sin`` and ``np.cos`` evaluation in the
    block: yields a dict of the two counts."""
    counts = {"sin": 0, "cos": 0}
    originals = {name: getattr(np, name) for name in counts}

    def counting(name):
        def call(x, *args, **kwargs):
            counts[name] += np.size(x)
            return originals[name](x, *args, **kwargs)
        return call

    try:
        for name in counts:
            setattr(np, name, counting(name))
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np, name, fn)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cross_integrals_match_50_digit_integrals(family):
    atoms_a, atoms_b, lo, hi = FAMILIES[family]()
    table = _trig.cross_integrals(atoms_a, atoms_b, lo, hi)
    exact = cross_integrals_mp(atoms_a, atoms_b, lo, hi)
    assert table.shape == exact.shape
    assert np.max(np.abs(table - exact)) <= TOLERANCE


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_self_crossed_tables_are_exactly_symmetric(boundary):
    dom = DomainSpec(boundary, (2.5, 4.0), (-0.7, 1.9))
    basis = build_basis(dom, 300.0)
    for ax in range(2):
        atoms = _axis(basis, ax)
        a = dom.origin[ax]
        # a short box alone carries most terms from its low end
        for lo, hi in ([a], [a + 0.05]), ([a, a + 0.3, a + 1.7], [a + 0.3, a + 1.7,
                                                                  a + dom.sides[ax]]):
            table = _trig.cross_integrals(atoms, atoms, lo, hi)
            assert np.array_equal(table, table.transpose(0, 2, 1))


def test_kernel_takes_trig_per_atom_and_end_not_per_entry():
    atoms_a, atoms_b, lo, hi = _exhaust(4.5)
    with counting_trig() as counts:
        table = _trig.cross_integrals(atoms_a, atoms_b, lo, hi)
    boxes, m_a, m_b = table.shape
    # the terms of equal frequency take the cosine of their exact phase
    # difference, once per call
    equal = sum(int(np.sum(np.asarray(atoms_a[1])[:, None] + s * np.asarray(atoms_b[1]) == 0.0))
                for s in (-1.0, 1.0))
    assert 0 < equal <= m_a + m_b
    assert counts["sin"] == counts["cos"] == 2 * boxes * (m_a + m_b) + equal
    assert counts["sin"] < table.size / 50
