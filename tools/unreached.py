"""List the statements of ``src/heatctl`` that no tier-1 test runs.

Usage: ``python3 tools/unreached.py``.  Runs the tests of the checkout that
holds this script in process, with ``sys.settrace`` and
``threading.settrace`` recording the lines run in its ``src/heatctl``, then
prints each statement no test ran as ``module:line: source`` and their
count.  ``def``, ``class`` and import statements, docstrings and the
``try`` and ``match`` headers, which run no code of their own, are not
counted.  Takes no arguments, writes no file (no bytecode, no pytest cache)
and exits with pytest's exit code.
"""

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heatctl"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
         ast.Try, ast.Match)


def statements(source):
    """``(first line, lines that run it)`` per counted statement of ``source``;
    a compound statement is run by its header lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        last = node.end_lineno if body is None else max(node.lineno, body[0].lineno - 1)
        out.append((node.lineno, range(node.lineno, last + 1)))
    return sorted(out)


def main():
    import pytest

    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for first, span in statements(source):
            if not any((str(path), line) in hits for line in span):
                missed += 1
                print(f"{path.stem}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements no test runs")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
