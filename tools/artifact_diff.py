"""Compare two heatctl output directories number by number.

Usage: ``python3 tools/artifact_diff.py A B [--moved]``.  Reads every
``.json`` file (its leaves, by key path) and every ``.csv`` file (its cells,
by row and column name) of the two directories and prints, per file, how
many numbers it holds, how many moved, the largest relative move
``|b - a| / max(|a|, |b|)`` and the largest absolute move, and how many other
leaves or cells differ (text, or present on one side only).  ``--moved``
also prints every moved number as ``file:where: a -> b``.  Exits 0 when the
directories hold the same numbers and text, 1 when anything differs and 2
when A or B is not a directory.
"""

import argparse
import csv
import json
import math
import pathlib
import sys


def _number(value):
    """``value`` as a float when it is a JSON number or a CSV cell that
    parses as one, else ``None``; booleans are not numbers."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value.strip():
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _json_leaves(data, where=""):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _json_leaves(value, f"{where}.{key}" if where else str(key))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _json_leaves(value, f"{where}[{i}]")
    else:
        yield where, data


def _csv_cells(text):
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        return
    header = rows[0]
    for i, row in enumerate(rows[1:], start=1):
        for column, cell in zip(header, row):
            yield f"row {i} {column}", cell


def leaves(path):
    """``{where: value}`` of a ``.json`` or ``.csv`` file; ``None`` for any
    other file."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_json_leaves(json.loads(text)))
    if path.suffix == ".csv":
        return dict(_csv_cells(text))
    return None


def compare(a, b):
    """``(numbers, moved, max_rel, max_abs, other)`` of two leaf maps, and the
    moved numbers as ``(where, x, y)``."""
    numbers = other = 0
    max_rel = max_abs = 0.0
    moves = []
    for where in sorted(a.keys() | b.keys()):
        if where not in a or where not in b:
            other += 1
            continue
        x, y = _number(a[where]), _number(b[where])
        if x is None or y is None:
            other += a[where] != b[where]
            continue
        numbers += 1
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        move = abs(y - x)
        max_abs = max(max_abs, move)
        max_rel = max(max_rel, move / max(abs(x), abs(y)))
        moves.append((where, a[where], b[where]))
    return (numbers, len(moves), max_rel, max_abs, other), moves


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--moved", action="store_true", help="print every moved number")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (args.a, args.b) for p in d.iterdir() if p.is_file()})
    differ = False
    print(f"{'file':28s} {'numbers':>8s} {'moved':>6s} {'max rel':>9s} {'max abs':>9s} {'other':>6s}")
    for name in names:
        pa, pb = args.a / name, args.b / name
        if not (pa.is_file() and pb.is_file()):
            differ = True
            print(f"{name:28s} only in {args.a if pa.is_file() else args.b}")
            continue
        la, lb = leaves(pa), leaves(pb)
        if la is None:
            same = pa.read_bytes() == pb.read_bytes()
            differ |= not same
            print(f"{name:28s} {'same bytes' if same else 'bytes differ'}")
            continue
        (numbers, moved, max_rel, max_abs, other), moves = compare(la, lb)
        differ |= bool(moved or other)
        print(f"{name:28s} {numbers:8d} {moved:6d} {max_rel:9.2e} {max_abs:9.2e} {other:6d}")
        if args.moved:
            for where, x, y in moves:
                print(f"  {name}:{where}: {x} -> {y}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
