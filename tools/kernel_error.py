"""Print how accurate the one cross kernel is and how many sines it takes.

Usage: ``python3 tools/kernel_error.py``.  For every atom family of
``tests/test_trig.py``, with the exhaustion overlaps at their full size (the
tests sample their atoms), prints the table's shape, the worst absolute
entry error of ``heatctl._trig.cross_integrals`` against the 50-digit
integrals of the same float atoms and ends (``tests/oracles.py``), and the
sines and cosines the kernel evaluated for the table.  Every Gram, Galerkin
table and cross-basis overlap of the package comes from this kernel.  Takes
no arguments, writes no file and takes about 20 s, most of it in the
50-digit integrals.
"""

import functools
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from heatctl import _trig  # noqa: E402
from oracles import cross_integrals_mp  # noqa: E402
import test_trig  # noqa: E402


def main():
    families = dict(test_trig.FAMILIES)
    for L in (4.5, 3.37, 2.13):
        families[f"exhaust-{L}"] = functools.partial(test_trig._exhaust, L)
    print(f"{'family':22s} {'table':>14s} {'worst error':>12s} {'sines':>7s} {'cosines':>8s}")
    for name, build in families.items():
        atoms_a, atoms_b, lo, hi = build()
        with test_trig.counting_trig() as counts:
            table = _trig.cross_integrals(atoms_a, atoms_b, lo, hi)
        error = np.max(np.abs(table - cross_integrals_mp(atoms_a, atoms_b, lo, hi)))
        shape = "x".join(map(str, table.shape))
        print(f"{name:22s} {shape:>14s} {error:12.2e} {counts['sin']:7d} {counts['cos']:8d}")


if __name__ == "__main__":
    main()
