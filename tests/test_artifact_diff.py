"""``tools/artifact_diff.py``: two output directories compared number by number."""

import importlib.util
import json
import pathlib

import pytest

from heatctl.cli import main as heatctl_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


def _write(d, files):
    d.mkdir()
    for name, text in files.items():
        (d / name).write_text(text)
    return d


def _rows(out):
    """``{file: the fields of its line}`` of the table the tool prints."""
    return {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]
            if not line.startswith(" ")}


def test_counts_moved_numbers_and_other_differences(tmp_path, capsys):
    report = {"c_emp": 1.5, "phases": [{"norm_sq": 2.0, "ok": True}, {"norm_sq": 0.0}],
              "label": "x"}
    moved = {"c_emp": 1.5 + 3e-16, "phases": [{"norm_sq": 2.5, "ok": True}, {"norm_sq": 0.0}],
             "label": "y"}
    a = _write(tmp_path / "a", {"report.json": json.dumps(report),
                                "t.csv": "x,y,series\r\n0.0,1.0,s\r\n0.5,2.0,s\r\n",
                                "notes.txt": "same", "gone.csv": "x\r\n1\r\n"})
    b = _write(tmp_path / "b", {"report.json": json.dumps(moved),
                                "t.csv": "x,y,series\r\n0.0,1.0,s\r\n0.5,-2.0,r\r\n",
                                "notes.txt": "same"})
    assert artifact_diff.main([str(a), str(b), "--moved"]) == 1
    out = capsys.readouterr().out
    rows = _rows(out)
    # c_emp moves by one ulp, norm_sq by 0.5; the bool and the label are not numbers
    numbers, count, rel, abs_, other = rows["report.json"]
    assert (int(numbers), int(count), int(other)) == (3, 2, 1)
    assert float(rel) == pytest.approx(0.2, rel=1e-2) and float(abs_) == pytest.approx(0.5)
    numbers, count, rel, abs_, other = rows["t.csv"]
    assert (int(numbers), int(count), float(rel), float(abs_), int(other)) == (4, 1, 2.0, 4.0, 1)
    assert rows["notes.txt"] == ["same", "bytes"]
    assert rows["gone.csv"][:2] == ["only", "in"]
    assert "  t.csv:row 2 y: 2.0 -> -2.0" in out.splitlines()
    assert "  report.json:phases[0].norm_sq: 2.0 -> 2.5" in out.splitlines()


def test_two_runs_of_a_shipped_config_hold_the_same_numbers(tmp_path, capsys):
    config = str(ROOT / "configs" / "spectral_ineq_half_interval.json")
    for side in ("a", "b"):
        assert heatctl_main(["spectral-ineq", "--config", config,
                             "--out", str(tmp_path / side)]) == 0
    capsys.readouterr()
    assert artifact_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    rows = _rows(capsys.readouterr().out)
    assert set(rows) == {"run_meta.json", "spectral_ineq.csv"}
    assert all(int(fields[0]) > 0 and fields[1:] == ["0", "0.00e+00", "0.00e+00", "0"]
               for fields in rows.values())


def test_a_missing_directory_exits_2(tmp_path, capsys):
    assert artifact_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "not a directory" in capsys.readouterr().err
