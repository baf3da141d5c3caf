import csv
import json
import math
import os
import pathlib

import numpy as np
import pytest

from heatctl.cli import main

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def base(experiment, **kw):
    cfg = {"schema": "heatctl-run/1", "experiment": experiment}
    cfg.update(kw)
    return cfg


def test_spectral_ineq_full_set(tmp_path):
    cfg = base("spectral-ineq",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               set="full", e_max=25.0, e_grid=[1.0, 4.0, 9.0])
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "spectral_ineq.csv")
    assert rows[0] == ["E", "C_emp", "bound_name", "bound_value", "set_hash"]
    assert all(float(r[1]) == 1.0 for r in rows[1:])
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["constants"]["K5"] == 1.0
    assert set(meta["outputs"]) == {"spectral_ineq.csv"}


def test_spectral_ineq_half_interval_row(tmp_path):
    cfg = base("spectral-ineq",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               set={"kind": "periodic_boxes", "cell": [math.pi],
                    "boxes": [[[0.0, math.pi / 2]]]},
               e_max=100.0, e_grid=[1.0, 4.0],
               bounds=[{"name": "spectral_cube",
                        "params": {"gamma": 0.5, "a": [math.pi], "d": 1}}])
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "spectral_ineq.csv")
    row_e4 = [r for r in rows[1:] if float(r[0]) == 4.0][0]
    assert abs(float(row_e4[1]) - (0.5 - 4 / (3 * math.pi))) < 1e-9
    assert row_e4[2] == "spectral_cube"
    assert float(row_e4[3]) > 0


def test_malformed_config_exits_2_without_files(tmp_path, capsys):
    cfg = base("spectral-ineq", bogus_key=1,
               domain={"interval": [0.0, 1.0]}, set="full",
               e_max=1.0, e_grid=[0.5])
    out = tmp_path / "out"
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "bogus_key" in capsys.readouterr().err


def test_negative_norm_bound_exits_2_without_files(tmp_path, capsys):
    cfg = base("bounds", evaluations=[{"name": "equidistributed",
                                       "params": {"G": 1.0, "delta": 0.25,
                                                  "v_norm": -1.0, "T": 1.0}}])
    out = tmp_path / "out"
    rc = main(["bounds", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "v_norm" in capsys.readouterr().err


def test_potential_of_wrong_dimension_exits_2_without_files(tmp_path, capsys):
    cfg = base("spectral-ineq", domain={"torus": [2 * math.pi, 2 * math.pi]},
               set="full", e_max=8.0, e_grid=[4.0],
               potential={"cosines": [[0.5, [1, 0, 2]]]})
    out = tmp_path / "out"
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "per axis" in capsys.readouterr().err


def _numbers(data):
    if isinstance(data, dict):
        return [x for v in data.values() for x in _numbers(v)]
    if isinstance(data, list):
        return [x for v in data for x in _numbers(v)]
    return [data] if isinstance(data, (int, float)) and not isinstance(data, bool) else []


def _csv_numbers(path):
    header, *rows = read_csv(path)
    out = []
    for row in rows:
        for col, cell in zip(header, row):
            if "hash" in col:
                continue
            try:
                out.append(complex(cell))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_is_reproducible_and_finite(tmp_path, config):
    experiment = json.loads(config.read_text())["experiment"]
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main([experiment, "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "run_meta.json" in names
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        if name.endswith(".csv"):
            values = _csv_numbers(outs[0] / name)
        else:
            values = _numbers(json.loads((outs[0] / name).read_text()))
        assert values, name
        for v in values:
            assert complex(v).imag == 0 and math.isfinite(complex(v).real), (name, v)


def test_wrong_experiment_exits_2(tmp_path):
    cfg = base("bounds", evaluations=[])
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_synthesize_scalar_heat_mode(tmp_path):
    cfg = base("synthesize", mode="gramian",
               domain={"interval": [0.0, math.pi], "boundary": "neumann"},
               e_max=0.5, control_scale=1.0, T=4.0, u0={"mode": 0})
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["c_emp"] - 0.5) < 1e-12
    assert report["diagnostics"]["final_residual"] <= 1e-10
    rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert rows[0] == ["x", "y", "series"]
    assert {r[2] for r in rows[1:]} == {"state_norm", "control_norm"}


def test_synthesize_active_passive_phase_table(tmp_path):
    cfg = base("synthesize", mode="active-passive",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               e_max=16.0,
               set={"kind": "periodic_boxes", "cell": [math.pi],
                    "boxes": [[[0.0, math.pi / 2]]]},
               T=1.0, u0={"mode": 0}, s=0.5)
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "phases.csv")
    # E_J = 16 covers e_max = 16 at J = 2: phases j = 0, 1, 2
    assert len(rows) == 1 + 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["diagnostics"]["final_residual"] <= 1e-8
    assert report["diagnostics"]["total_norm"] >= report["diagnostics"]["min_norm_cost"]


def test_synthesize_active_passive_spectrum_above_first_cutoff(tmp_path):
    # the lowest eigenvalue 2 lies above E_0 = 1: the fit skips that cutoff
    # and phase 0 carries the zero control
    two_pi = 2 * math.pi
    h = two_pi / 4
    cfg = base("synthesize", mode="active-passive",
               domain={"torus": [two_pi, two_pi]}, potential={"constant": 2.0},
               e_max=20.0,
               set={"kind": "periodic_boxes", "cell": [two_pi, two_pi],
                    "boxes": [[[i * h, (i + 0.6) * h]] * 2 for i in range(4)]},
               T=1.0, u0={"mode": 0}, s=0.5)
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "phases.csv")
    assert float(rows[1][1]) == 1.0 and float(rows[1][4]) == 0.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["diagnostics"]["final_residual"] <= 1e-10


def test_determinism_byte_identical(tmp_path):
    cfg = base("synthesize", mode="active-passive",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               e_max=16.0, set={"band": {"period": math.pi, "gamma": 0.5}},
               T=1.0, u0={"mode": 0}, seed=7)
    path = write_config(tmp_path, "c.json", cfg)
    for name in ("o1", "o2"):
        assert main(["synthesize", "--config", path,
                     "--out", str(tmp_path / name)]) == 0
    for fname in ("report.json", "trajectory.csv", "phases.csv", "run_meta.json"):
        b1 = (tmp_path / "o1" / fname).read_bytes()
        b2 = (tmp_path / "o2" / fname).read_bytes()
        assert b1 == b2, fname


def test_bounds_miller(tmp_path):
    cfg = base("bounds",
               evaluations=[{"name": "thick1",
                             "params": {"gamma": 0.5, "a": [1.0], "d": 1, "T": 1.0}}],
               miller={"beta": 1.0, "b": 1.0, "a": 0.0, "m": 1.0},
               tenenbaum={"s": 0.5, "d1": 1.0})
    rc = main(["bounds", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "bounds.csv")
    by_name = {r[0]: r for r in rows[1:]}
    assert abs(float(by_name["miller_cstar"][3]) - 13.9282032) < 1e-4
    assert abs(float(by_name["tenenbaum_threshold"][3]) - 4.0) < 1e-12
    assert abs(float(by_name["thick1"][3]) - 2 * math.e ** 2) < 1e-9
    assert by_name["thick1"][4] == "all_T"


def test_bounds_regime_table(tmp_path):
    cfg = base("bounds", evaluations=[],
               regime={"names": ["thick2", "thick1"],
                       "params": {"gamma": 0.5, "a": [1.0], "d": 1},
                       "t_grid": [0.5, 1.0, 2.0]})
    rc = main(["bounds", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "regime.csv")
    assert rows[0] == ["name", "T", "value", "validity", "best"]
    assert len(rows) == 1 + 6
    report = json.loads((tmp_path / "out" / "bounds_report.json").read_text())
    assert "thick2" in report["classifiers"]


def test_homogenize_monotone_slopes(tmp_path):
    t0 = math.log(1e3) / 64.0
    cfg = base("homogenize",
               domain={"torus": [4.0]}, gamma=0.3, period0=4.0, halvings=3,
               e_max=64.0,
               t_grid=[round(t0 * 1.4 ** k, 6) for k in range(6)])
    rc = main(["homogenize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "homogenize.csv")
    slopes = [float(r[1]) for r in rows[1:]]
    assert len(slopes) == 4
    assert all(b < a for a, b in zip(slopes[:-1], slopes[1:]))


def test_exhaust_decreasing_difference(tmp_path):
    cfg = base("exhaust", t=0.1, L=[2.0, 3.0, 4.0], L_ref=8.0, omega_cut=161.0,
               control={"T": 0.5, "omega_cut": 40.0,
                        "set": {"band": {"period": 1.0, "gamma": 0.5}}})
    rc = main(["exhaust", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "exhaust.csv")
    diffs = [float(r[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(diffs[:-1], diffs[1:]))
    residuals = [float(r[3]) for r in rows[1:]]
    assert all(b < a for a, b in zip(residuals[:-1], residuals[1:]))
    report = json.loads((tmp_path / "out" / "exhaust_report.json").read_text())
    assert report["norms_uniformly_bounded"]
    assert report["norm_to_bound_ratio"] <= 2.0


def test_calibrate_spectral_cube(tmp_path):
    cfg = base("calibrate", target="spectral_cube",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               set={"kind": "periodic_boxes", "cell": [math.pi],
                    "boxes": [[[0.0, math.pi / 2]]]},
               e_max=25.0, e_grid=[1.0, 4.0, 9.0, 16.0, 25.0],
               thick={"gamma": 0.5, "a": [math.pi]})
    rc = main(["calibrate", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    consts = json.loads((tmp_path / "out" / "constants_out.json").read_text())
    assert consts["K5"] >= 1.0


def test_set_by_file_path(tmp_path):
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(
        {"kind": "periodic_boxes", "cell": [math.pi],
         "boxes": [[[0.0, math.pi / 2]]]}))
    cfg = base("spectral-ineq",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               set=str(set_path), e_max=4.0, e_grid=[1.0])
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_csv(tmp_path / "out" / "spectral_ineq.csv")
    assert abs(float(rows[1][1]) - 0.5) < 1e-12


def test_constants_override(tmp_path):
    consts_path = tmp_path / "consts.json"
    consts_path.write_text(json.dumps({"K5": 2.0}))
    cfg = base("spectral-ineq",
               domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
               set="full", e_max=4.0, e_grid=[1.0],
               bounds=[{"name": "spectral_cube",
                        "params": {"gamma": 0.5, "a": [1.0], "d": 1}}])
    rc = main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out"), "--constants", str(consts_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["constants"]["K5"] == 2.0

