import csv
import hashlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from heatctl import bounds as bd
from heatctl import (ControlProblem, UniversalConstants, build_basis, cost_bound, empirical_cost,
                     galerkin_schrodinger, gram_matrix, runio)
from heatctl.cli import RUNNERS, main
from heatctl.errors import NumericError, ParameterError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


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


def test_spectral_ineq_clips_a_potential_box_to_the_domain(tmp_path):
    """A potential box reaching beyond a Dirichlet interval acts as the box
    clipped to it, number for number."""
    rows = []
    for hi in (4.0, math.pi):
        cfg = base("spectral-ineq",
                   domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
                   set={"kind": "periodic_boxes", "cell": [math.pi], "boxes": [[[0.3, 1.9]]]},
                   potential={"boxes": [[2.0, [[2.5, hi]]]]},
                   e_max=100.0, e_grid=[2.0, 16.0, 100.0])
        out = tmp_path / f"out_{hi}"
        assert main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
        rows.append(read_csv(out / "spectral_ineq.csv"))
    assert rows[0] == rows[1] and len(rows[0]) == 4


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


@pytest.mark.parametrize("params", [
    {"T": math.nan},
    {"T": math.inf},
    {"T": 1.0, "gamma": -math.inf},
    {"T": 1.0, "a": [1.0, math.nan]},
], ids=["nan", "inf", "minus-inf", "nan-in-list"])
def test_non_finite_number_exits_2_without_files(tmp_path, capsys, params):
    # json writes and reads NaN and Infinity; a config may hold them
    params = {"gamma": 0.5, "a": [1.0], "d": 1, **params}
    cfg = base("bounds", evaluations=[{"name": "thick1", "params": params}])
    out = tmp_path / "out"
    rc = main(["bounds", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    key = next(k for k, v in params.items() if not np.all(np.isfinite(v)))
    err = capsys.readouterr().err
    assert f"{key} must" in err and "finite" in err


def test_number_and_floats_refuse_non_finite_values():
    for value in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ParameterError, match="x must be finite"):
            runio.number(value, "x")
        with pytest.raises(ParameterError, match="xs must hold finite numbers"):
            runio.floats([1.0, value], "xs")
    assert runio.number(10 ** 30, "x") == 1e30
    assert runio.floats([0, -1e308], "xs") == [0.0, -1e308]


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


def _interval_synthesis(mode, b, u0):
    """A ``synthesize`` config on the Dirichlet interval (0, pi), set (0, b)."""
    return base("synthesize", mode=mode,
                domain={"interval": [0.0, math.pi], "boundary": "dirichlet"},
                set={"kind": "periodic_boxes", "cell": [math.pi], "boxes": [[[0.0, b]]]},
                e_max=100.0, T=1.0, u0=u0)


def test_active_passive_phase_past_the_cap_exits_2_naming_the_phase(tmp_path, capsys):
    # on the set (0, 1) the Gramian of the phase with E_4 = 256, which
    # steers all 10 modes, has condition number 8.4e13
    cfg = _interval_synthesis("active-passive", 1.0, {"mode": 0})
    out = tmp_path / "out"
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "active phase j=4 (E_j=256.0, 10 modes) inversion refused" in err
    assert "condition number 8.39" in err


def test_cholesky_breakdown_exits_2_with_the_condition_number(tmp_path, capsys,
                                                                monkeypatch):
    def breaks_down(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", breaks_down)
    cfg = _interval_synthesis("gramian", math.pi / 2, "worst")
    out = tmp_path / "out"
    rc = main(["synthesize", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "heatctl: error: Gramian has no Cholesky factor (condition number 1.759e+05)" in err


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


# target: (domain, set, params of the bound)
CALIBRATE_T_TARGETS = {
    "thick1": ({"interval": [0.0, math.pi], "boundary": "dirichlet"},
               {"band": {"period": math.pi, "gamma": 0.5}},
               {"gamma": 0.5, "a": [math.pi], "d": 1}),
    "thick2": ({"interval": [0.0, math.pi], "boundary": "dirichlet"},
               {"band": {"period": math.pi, "gamma": 0.5}},
               {"gamma": 0.5, "a": [math.pi]}),
    "equidistributed": ({"interval": [0.0, 3.0], "boundary": "dirichlet"},
                        {"equidistributed": {"G": 1.0, "delta": 0.2, "seed": 5},
                         "extent": [[0.0, 3.0]]},
                        {"G": 1.0, "delta": 0.2}),
}


@pytest.mark.parametrize("target", sorted(CALIBRATE_T_TARGETS))
def test_calibrate_t_targets_bound_every_measured_cost(tmp_path, target):
    domain, set_, params = CALIBRATE_T_TARGETS[target]
    t_grid = [0.5, 1.0, 2.0]
    cfg = base("calibrate", target=target, domain=domain, set=set_, e_max=25.0,
               t_grid=t_grid, params=params)
    rc = main(["calibrate", "--config", write_config(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    cal = UniversalConstants(**json.loads((tmp_path / "out" / "constants_out.json").read_text()))
    op = galerkin_schrodinger(build_basis(runio.parse_domain(domain), 25.0))
    problem = ControlProblem.from_set(op, runio.parse_set(set_, None), t_grid[0])
    ratios = [cost_bound(target, params, cal, T=T) / empirical_cost(problem.with_time(T))
              for T in t_grid]
    assert min(ratios) >= 1.0 - 1e-12
    if target != "thick1":
        # a prefactor is scaled until the bound touches the data
        assert min(ratios) <= 1.0 + 1e-12


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



# one small config per experiment; each malformed case below breaks one key
SI = {"domain": {"interval": [0.0, math.pi]}, "set": "full", "e_max": 4.0, "e_grid": [1.0]}
SYNTH = {"domain": {"interval": [0.0, math.pi], "boundary": "neumann"}, "e_max": 1.0,
         "control_scale": 1.0, "T": 1.0}
EXHAUST = {"t": 0.1, "L": [2.0, 3.0], "L_ref": 8.0}
CUBE = {"target": "spectral_cube", "domain": {"interval": [0.0, math.pi]},
        "set": {"band": {"period": math.pi, "gamma": 0.5}}, "e_max": 4.0, "e_grid": [1.0]}
THICK1 = {"name": "thick1", "params": {"gamma": 0.5, "a": [1.0], "d": 1}}
HOMOGENIZE = {"domain": {"interval": [0.0, math.pi]}, "gamma": 0.5, "period0": 1.0,
              "e_max": 4.0, "t_grid": [0.5, 1.0]}
EQUIDISTRIBUTED = {"equidistributed": {"G": 1.0, "delta": 0.2}, "extent": [[0.0, 3.0]]}

# (experiment, config keys, --constants file content or None, section, key)
MALFORMED = {
    "example_without_eps": ("spectral-ineq", {**SI, "set": {"example": "centered_bands"}},
                            None, "set example", "'eps'"),
    "band_without_gamma": ("spectral-ineq", {**SI, "set": {"band": {"period": 1.0}}},
                           None, "set band", "'gamma'"),
    "equidistributed_without_extent": (
        "spectral-ineq", {**SI, "set": {"equidistributed": {"G": 1.0, "delta": 0.2}}},
        None, "set", "'extent'"),
    "set_record_without_kind": ("spectral-ineq",
                                {**SI, "set": {"cell": [math.pi], "boxes": []}},
                                None, "set", "'kind'"),
    "domain_without_sides": ("spectral-ineq", {**SI, "domain": {"boundary": "dirichlet"}},
                             None, "domain", "'sides'"),
    "control_without_T": ("exhaust", {**EXHAUST, "control": {"omega_cut": 40.0}},
                          None, "control", "'T'"),
    "control_misspelt_omega_cut": ("exhaust",
                                   {**EXHAUST, "control": {"T": 0.5, "omega_cutt": 40.0}},
                                   None, "control", "'omega_cutt'"),
    "miller_without_b": ("bounds", {"miller": {"beta": 1.0}}, None, "miller", "'b'"),
    "tenenbaum_extra_x": ("bounds", {"tenenbaum": {"s": 0.5, "d1": 1.0, "x": 1.0}},
                          None, "tenenbaum", "'x'"),
    "regime_without_t_grid": ("bounds", {"regime": {"names": ["thick1"],
                                                    "params": THICK1["params"]}},
                              None, "regime", "'t_grid'"),
    "evaluation_without_name": ("bounds", {"evaluations": [{"params": {"T": 1.0}}]},
                                None, "evaluations[0]", "'name'"),
    "synthesize_without_T": ("synthesize", {k: v for k, v in SYNTH.items() if k != "T"},
                             None, "config", "'T'"),
    "spectral_ineq_without_e_grid": ("spectral-ineq",
                                     {k: v for k, v in SI.items() if k != "e_grid"},
                                     None, "config", "'e_grid'"),
    "calibrate_cube_without_thick": ("calibrate", CUBE, None, "config", "'thick'"),
    "thick_without_a": ("calibrate", {**CUBE, "thick": {"gamma": 0.5}}, None, "thick", "'a'"),
    "potential_box_not_a_box": ("spectral-ineq", {**SI, "potential": {"boxes": [[1.0, 5]]}},
                                None, "potential", "boxes"),
    "u0_mode_out_of_range": ("synthesize", {**SYNTH, "u0": {"mode": 99}}, None, "u0", "mode"),
    "missing_constants_file": ("spectral-ineq", SI, "MISSING", "constants file",
                               "no_such_constants.json"),
    "non_numeric_constant": ("spectral-ineq", SI, {"K5": "2"}, "constant", "K5"),
    "retired_constant_N1": ("spectral-ineq", SI, {"N1": 2.0}, "constants", "'N1'"),
    "e_grid_not_a_list": ("spectral-ineq", {**SI, "e_grid": 5}, None, "e_grid",
                          "list of numbers"),
    "interval_of_one_end": ("spectral-ineq", {**SI, "domain": {"interval": [1.0]}}, None,
                            "domain", "interval"),
    "bound_params_not_an_object": (
        "spectral-ineq", {**SI, "bounds": [{"name": "spectral_cube", "params": [1, 2]}]},
        None, "bounds[0]", "params"),
    "evaluation_params_not_an_object": (
        "bounds", {"evaluations": [{"name": "thick1", "params": [1, 2]}]}, None,
        "evaluations[0]", "params"),
    "bounds_not_a_list": ("spectral-ineq", {**SI, "bounds": 5}, None, "bounds", "list"),
    "exhaust_L_not_a_list": ("exhaust", {**EXHAUST, "L": 2.0}, None, "L", "list of numbers"),
    "set_record_without_cell": ("spectral-ineq",
                                {**SI, "set": {"kind": "periodic_boxes",
                                               "boxes": [[[0.0, 1.0]]]}},
                                None, "periodic_boxes set", "cell"),
    "e_max_a_string": ("synthesize", {**SYNTH, "e_max": "x"}, None, "e_max", "a number"),
    "T_a_string": ("synthesize", {**SYNTH, "T": "soon"}, None, "T", "a number"),
    "t_points_a_string": ("synthesize", {**SYNTH, "t_points": "many"}, None, "t_points",
                          "an integer"),
    "set_boxes_a_number": ("spectral-ineq",
                           {**SI, "set": {"kind": "periodic_boxes", "cell": [math.pi],
                                          "boxes": 5}},
                           None, "set", "boxes"),
    "regime_t_grid_a_number": ("bounds", {"regime": {"names": ["thick1"],
                                                     "params": THICK1["params"],
                                                     "t_grid": 5}},
                               None, "regime", "t_grid"),
    "regime_names_a_string": ("bounds", {"regime": {"names": "thick1",
                                                    "params": THICK1["params"],
                                                    "t_grid": [1.0]}},
                              None, "regime", "names"),
    "miller_beta_a_string": ("bounds", {"miller": {"beta": "1", "b": 1.0}}, None, "miller",
                             "beta"),
    "exhaust_t_a_list": ("exhaust", {**EXHAUST, "t": [0.1]}, None, "t", "a number"),
    "halvings_a_string": ("homogenize", {**HOMOGENIZE, "halvings": "3"}, None, "halvings",
                          "an integer"),
    "thick1_gamma_a_string": (
        "bounds", {"evaluations": [{**THICK1, "params": {**THICK1["params"], "T": 1.0,
                                                         "gamma": "x"}}]},
        None, "evaluations[0]", "gamma"),
    "thick1_gamma_a_numeric_string": (
        "bounds", {"evaluations": [{**THICK1, "params": {**THICK1["params"], "T": 1.0,
                                                         "gamma": "0.5"}}]},
        None, "evaluations[0]", "gamma"),
    "band_gamma_a_string": ("spectral-ineq",
                            {**SI, "set": {"band": {"period": 1.0, "gamma": "x"}}},
                            None, "set band", "gamma"),
    "band_gamma_a_numeric_string": ("spectral-ineq",
                                    {**SI, "set": {"band": {"period": 1.0, "gamma": "0.5"}}},
                                    None, "set band", "gamma"),
    "thick_gamma_a_string": ("calibrate", {**CUBE, "thick": {"gamma": "x", "a": [1.0]}},
                             None, "thick", "gamma"),
    "thick_gamma_a_numeric_string": ("calibrate",
                                     {**CUBE, "thick": {"gamma": "0.5", "a": [1.0]}},
                                     None, "thick", "gamma"),
    "regime_params_gamma_a_string": ("bounds", {"regime": {"names": ["thick1"],
                                                           "params": {**THICK1["params"],
                                                                      "gamma": "x"},
                                                           "t_grid": [1.0]}},
                                     None, "regime: params", "gamma"),
    "calibrate_params_a_of_strings": (
        "calibrate", {**CUBE, "target": "thick1", "t_grid": [1.0],
                      "params": {**THICK1["params"], "a": ["1"]}},
        None, "params", "a"),
    "u0_mode_true": ("synthesize", {**SYNTH, "u0": {"mode": True}}, None, "u0", "mode"),
    "u0_coeffs_of_booleans": ("synthesize", {**SYNTH, "u0": {"coeffs": [True, 0]}}, None,
                              "u0", "coeffs"),
    "u0_coeffs_of_strings": ("synthesize", {**SYNTH, "u0": {"coeffs": ["a", 0]}}, None,
                             "u0", "coeffs"),
    "example_eps_a_string": ("spectral-ineq",
                             {**SI, "set": {"example": "centered_bands", "eps": "x"}},
                             None, "set example", "eps"),
    "band_d_fractional": ("spectral-ineq",
                          {**SI, "set": {"band": {"period": 1.0, "gamma": 0.5, "d": 1.5}}},
                          None, "set band", "d must be an integer"),
    "equidistributed_G_a_numeric_string": (
        "spectral-ineq", {**SI, "set": {**EQUIDISTRIBUTED,
                                        "equidistributed": {"G": "1", "delta": 0.2}}},
        None, "set equidistributed", "G"),
    "seed_a_string_with_equidistributed_set": (
        "spectral-ineq", {**SI, "set": EQUIDISTRIBUTED, "seed": "x"}, None, "config", "seed"),
    "domain_sides_of_strings": ("spectral-ineq",
                                {**SI, "domain": {"boundary": "dirichlet", "sides": ["a"]}},
                                None, "domain", "sides"),
    "domain_origin_of_strings": (
        "spectral-ineq",
        {**SI, "domain": {"boundary": "dirichlet", "sides": [1.0], "origin": ["a"]}},
        None, "domain", "origin"),
    "equidistributed_extent_of_strings": (
        "spectral-ineq", {**SI, "set": {**EQUIDISTRIBUTED, "extent": [["a", 4.0]]}},
        None, "set", "extent"),
    "set_record_cell_of_strings": ("spectral-ineq",
                                   {**SI, "set": {"kind": "periodic_boxes", "cell": ["3.0"],
                                                  "boxes": [[[0.0, 1.0]]]}},
                                   None, "set", "cell"),
    "thick_a_of_strings": ("calibrate", {**CUBE, "thick": {"gamma": 0.5, "a": ["1"]}},
                           None, "thick", "a must be"),
    "t_points_negative": ("synthesize", {**SYNTH, "t_points": -1}, None, "t_points",
                          "non-negative"),
    "exhaust_L_empty": ("exhaust", {**EXHAUST, "L": []}, None, "L list", "empty"),
    "halvings_negative": ("homogenize", {**HOMOGENIZE, "halvings": -1}, None, "halvings",
                          "non-negative"),
    "homogenize_one_time": ("homogenize", {**HOMOGENIZE, "t_grid": [0.5]}, None, "t_grid",
                            "two distinct times"),
    "thick1_d_fractional": (
        "bounds", {"evaluations": [{**THICK1, "params": {**THICK1["params"], "T": 1.0,
                                                         "d": 1.5}}]},
        None, "thick1", "d must be an integer"),
    "regime_thick1_d_fractional": ("bounds", {"regime": {"names": ["thick1"],
                                                         "params": {**THICK1["params"],
                                                                    "d": 1.5},
                                                         "t_grid": [1.0]}},
                                   None, "thick1", "d must be an integer"),
    "potential_constant_true": ("spectral-ineq",
                                {**SI, "e_grid": [4.0], "potential": {"constant": True}},
                                None, "potential", "constant"),
    "potential_constant_a_numeric_string": (
        "spectral-ineq", {**SI, "e_grid": [4.0], "potential": {"constant": "2.5"}}, None,
        "potential", "constant"),
    "potential_cosine_frequency_fractional": (
        "spectral-ineq", {**SI, "potential": {"cosines": [[1.0, [1.5]]]}}, None,
        "potential: cosines", "an integer"),
    "equidistributed_centers_of_numeric_strings": (
        "spectral-ineq", {**SI, "set": {**EQUIDISTRIBUTED,
                                        "equidistributed": {"G": 1.0, "delta": 0.2,
                                                            "centers": [["0.5"], [1.5], [2.5]]}}},
        None, "set equidistributed", "centers"),
    "equidistributed_centers_of_strings": (
        "spectral-ineq", {**SI, "set": {**EQUIDISTRIBUTED,
                                        "equidistributed": {"G": 1.0, "delta": 0.2,
                                                            "centers": [["a"], [1.5], [2.5]]}}},
        None, "set equidistributed", "centers"),
    "calibrate_cube_e_grid_empty": ("calibrate", {**CUBE, "thick": {"gamma": 0.5, "a": [1.0]},
                                                  "e_grid": []},
                                    None, "e_grid", "at least one"),
    "calibrate_thick2_t_grid_empty": ("calibrate", {**CUBE, "target": "thick2", "t_grid": [],
                                                    "params": {"gamma": 0.5, "a": [1.0]}},
                                      None, "t_grid", "at least one"),
    "spectral_ineq_e_grid_empty": ("spectral-ineq", {**SI, "e_grid": []}, None, "e_grid",
                                   "at least one"),
}


def run_case(tmp_path, experiment, keys, constants):
    argv = [experiment, "--config", write_config(tmp_path, "c.json", base(experiment, **keys)),
            "--out", str(tmp_path / "out")]
    if constants == "MISSING":
        argv += ["--constants", str(tmp_path / "no_such_constants.json")]
    elif constants is not None:
        argv += ["--constants", write_config(tmp_path, "consts.json", constants)]
    return main(argv)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_section_exits_2_naming_section_and_key(tmp_path, capsys, case):
    experiment, keys, constants, section, key = MALFORMED[case]
    assert run_case(tmp_path, experiment, keys, constants) == 2
    assert not (tmp_path / "out").exists()
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith("heatctl: error:") and section in line and key in line
               for line in lines), lines


# a minimal valid config of each experiment, and every runner parameter read
# by its annotation; a string there must be refused before anything runs
RUNNER_BASES = {"spectral-ineq": SI, "synthesize": SYNTH, "bounds": {},
                "homogenize": HOMOGENIZE, "exhaust": EXHAUST, "calibrate": CUBE}
ANNOTATED = [(experiment, key) for experiment, fn in sorted(RUNNERS.items())
             for key, param in inspect.signature(fn).parameters.items()
             if param.annotation in (float, int, list[float], dict[str, float])]


@pytest.mark.parametrize("experiment,key", ANNOTATED, ids=lambda v: v)
def test_annotated_runner_parameter_refuses_a_string(tmp_path, capsys, experiment, key):
    assert run_case(tmp_path, experiment, {**RUNNER_BASES[experiment], key: "x"}, None) == 2
    assert not (tmp_path / "out").exists()
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"heatctl: error: config: {key} must be ") for line in lines), \
        lines


SET_RECORD = {"schema": "heatctl-set/1", "kind": "periodic_boxes", "cell": [math.pi],
              "boxes": [[[0.0, math.pi / 2]]]}


def _si(domain, set_, **kw):
    return {"domain": domain, "set": set_, "e_max": 9.0, "e_grid": [1.0, 4.0, 9.0], **kw}


# each valid form of a config object, with the SHA-256 of every artifact that
# the code before the section binding wrote for it (recorded with numpy 2 on
# x86-64 Linux); ``example`` (4 cells on its torus) carries the bits of the
# constants taken per mode class, and ``band``, ``equidistributed_config_seed``
# and ``potential`` those of the cross kernel from per-atom sines and
# cosines, which moved their constants by 1e-15 to 2.3e-11 relative, all but
# one toward the 50-digit values (CHANGES.md)
VALID_FORMS = {
    "equidistributed_config_seed": (
        _si({"interval": [0.0, 4.0]},
            {"equidistributed": {"G": 1.0, "delta": 0.2}, "extent": [[0.0, 4.0]]}, seed=11),
        None, "e0afa7778d94b2b51e0599b73310f72379df1359991451e05c7b4e7c12a0c576"),
    "example": (_si({"torus": [4.0]}, {"example": "centered_bands", "eps": 0.4}),
                None, "e98dc8b62da2c42e971d640ff7cdbb1f2ae913df43bdf50a8b39143f0652afb6"),
    "band": (_si({"interval": [0.0, math.pi], "boundary": "neumann"},
                 {"band": {"period": 1.0, "gamma": 0.5}}),
             None, "254c08ad9ec4a92edd69f725aa463bc1f807f7185e8e60116f7e79e231a0a12e"),
    "set_file": (_si({"interval": [0.0, math.pi]}, "SET_FILE"),
                 None, "0b65b40293dcb52ed859a5b740e406ce27148e41804cde6423b83b0cc523c9d3"),
    # one box on its torus: the constants come from the reflection-parity
    # blocks, which moved C_emp at E=4 from 0.0006928185479499335 to
    # 0.0006928185479501164 and at E=9 from 4.92830601054845e-06 to
    # 4.928306010570798e-06 (mpmath: 0.000692818547950319 and
    # 4.92830601033095e-06); E=1 kept 0.017274531366009427
    "torus": (_si({"torus": [2 * math.pi, 2 * math.pi]},
                  {"kind": "periodic_boxes", "cell": [2 * math.pi, 2 * math.pi],
                   "boxes": [[[0.0, math.pi], [0.0, math.pi]]]}),
              None, "b46ae0e0f54579a885c1286b3283d95beeed75a65eb40611c7b05d438572151d"),
    "domain_spec": (_si({"boundary": "neumann", "sides": [2.0, 1.0], "origin": [0.5, 0.0]},
                        {"kind": "periodic_boxes", "cell": [1.0, 1.0],
                         "boxes": [[[0.0, 0.5], [0.0, 0.5]]]}),
                    None, "44b18fe74cc2f8cc170a651ccf64fd45a131a4cfb743dea7bec93c51b819e2a5"),
    "constants_file": (_si({"interval": [0.0, math.pi]}, "full",
                           bounds=[{"name": "spectral_cube",
                                    "params": {"gamma": 0.5, "a": [1.0], "d": 1}}]),
                       {"K5": 2.0},
                       "f33bc1aa29617f621f1752a67d47991d3af1aeddb7838b3685bab901817b7172"),
    # the dense handle's projected blocks are exactly symmetric, which moved
    # C_emp at E=9 from 3.2441710025613303e-06 to 3.24417100260047e-06; E=1
    # kept 0.14561566669924533 and E=4 kept 0.0012132222443854586
    "potential": (_si({"torus": [2 * math.pi]}, {**SET_RECORD, "cell": [2 * math.pi]},
                      potential={"constant": 0.5, "boxes": [[1.0, [[0.0, 1.0]]]],
                                 "cosines": [[0.25, [2]]]}),
                  None, "bbc51e48dfc80e969d0bdb666923e75f9006d858e76be813dbdead983e77a2fa"),
}


@pytest.mark.parametrize("form", sorted(VALID_FORMS))
def test_valid_form_writes_the_recorded_bytes(tmp_path, form):
    keys, constants, digest = VALID_FORMS[form]
    if keys["set"] == "SET_FILE":
        keys = {**keys, "set": write_config(tmp_path, "set.json", SET_RECORD)}
    assert run_case(tmp_path, "spectral-ineq", keys, constants) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    data = (tmp_path / "out" / "spectral_ineq.csv").read_bytes()
    assert meta["outputs"] == {"spectral_ineq.csv": hashlib.sha256(data).hexdigest()}
    assert meta["outputs"]["spectral_ineq.csv"] == digest


# the SHA-256 of every artifact of every shipped config (recorded with numpy
# 2.4.6 on x86-64 Linux); the scalar trajectory.csv keeps the bytes that the
# per-time closed form wrote.  The interval synthesize artifacts carry the
# bits of the costs from the triangular inverse, of active/passive phase
# ends and control norms on the steered columns only, and of trajectories
# stepped over merged step lengths; homogenize (2, 4 and 8 cells on its
# torus) carries the bits of the per-class costs from the triangular inverse;
# the potential torus (n=69, an indicator potential even about its box's
# midpoint) carries the bits of the per-sign-class eigensolves and of its top
# active/passive cutoff's constant read from the set's Bloch blocks; exhaust,
# homogenize, the 3D torus and the potential torus carry the bits of the
# cross kernel from per-atom sines and cosines (CHANGES.md)
ARTIFACT_DIGESTS = {
    "bounds_catalog": {
        "bounds.csv": "2c003ef509c2c3f41c9e795737702da9227fda86560de22d4aaf7d8edced2904",
        "bounds_report.json": "54b78565eeb57457046844c3a8b2acd375558c38f3a99f9f5e80496762aafd1f",
        "regime.csv": "c637b69513f34cb8c782c4f1ec3ce1854ced613684f106bc32f2379161378d10",
        "run_meta.json": "4bcbfac88650f286dba54f86bfa6c0a54ed9beb8a7f345ed9a43b42d2be6f133",
    },
    "calibrate_spectral_cube": {
        "calibrate.csv": "828ea5233fb029beff32c515e75edc5485e65d1682ed1c14afaab0f8df9d9ebe",
        "constants_out.json": "306067b8827fe89414866d4f87611260e640586aef454326b3d3bd0e0827cc8e",
        "run_meta.json": "273e399ed5af212254f684e169501eb913a6a99bac96e82c53221b09a35c58ab",
    },
    "exhaust": {
        "exhaust.csv": "3671eb7c3b2fcc23ba3a760c07ea6a8127efa30471c02437a3b9a04e5dc63019",
        "exhaust_report.json": "d08b6820648152cb2264f959de0a732898ccb9376f152ce75d82565ac5871010",
        "run_meta.json": "8a612d51e81ac6f28ab707df335af2a52726d7da28cfc73931a3f21b279368f1",
    },
    "homogenize": {
        "homogenize.csv": "73cca5bf23871c222fec6ac4a56532d796a80fbaf8363350c8628c719c6ed4fb",
        "homogenize_sweep.csv": "1ab3dc0de03121439aa82f3446f5d180192a2ece2b6d17039e284efa6e996fde",
        "run_meta.json": "ffb1dd71dabf7555bfc46a12392dbe799ae113c9ae38290593668c6e88cd0031",
    },
    "spectral_ineq_half_interval": {
        "run_meta.json": "e3475738584d42f4f37aef71245a5aa13bb9acb829c93cd746fe68d9ddab136c",
        "spectral_ineq.csv": "d4b82b6499eb2cd3c806d174bb49f7e64995623a479d8d91157d270159c87770",
    },
    "spectral_ineq_torus3d": {
        "run_meta.json": "1a0708efa290cd71c2b6c71e1c63fccdbda52c29005618fea86f9b94b31ef779",
        "spectral_ineq.csv": "0ea1a13a4e1b8d38aee607bc64d81db250bf77e26d755a093160f9018c4c2a77",
    },
    "synthesize_active_passive": {
        "phases.csv": "817e6458cf6a27748023663669dc621e3c17b424471092cd8629e4a9e17b04f0",
        "report.json": "8faeffdb29ad7214fce1c85df498b26a59f2a37d15277abcb478227d6e4990d0",
        "run_meta.json": "df32512aa17af1062e7f363a28f00d4e37b9bceed31b0c97ef2d7dce53212206",
        "trajectory.csv": "2948dc4caeac914c73195d847bc80d445e431987fd33ad4d8941daed385d0339",
    },
    "synthesize_gramian": {
        "report.json": "a652fc45df6e0fc9a943441edd78dc8feac42865fc2dffdb17d085a9907dc12e",
        "run_meta.json": "cf787810bc722caa9bab48005773413a390c9837e6f5b20a667bef59d7a5c17e",
        "trajectory.csv": "9806936b44327f431ba38a633ecd158bea6dffe2f1913411fb65da0b681c2e78",
    },
    "synthesize_potential_torus": {
        "phases.csv": "5edee3e8394d5ec65c29833a73a70960468eeee4012571d8502f4bf559464abd",
        "report.json": "8b9710a1c440233936c2ff1d5032de6f3e99e0547860fca96e107de6a6f5ceac",
        "run_meta.json": "97513897b7935ba0a21e045d17a707f1481589ebb1f40d08a6222a9ba8c894c1",
        "trajectory.csv": "223e5190d0324a947fc20e30a4da4570cf3b73ca09a96016de807e29bc511efa",
    },
    "synthesize_scalar": {
        "report.json": "7046e3ec5101f3b0ee1fc4dd0686c783b55bb9a3b866039b54ee62f16ead80c7",
        "run_meta.json": "579ea327cd4269ab266e244c9ce63635dbd4b7ff9f8a195b3037c050082341bc",
        "trajectory.csv": "b2405e08bfab11305b9c3c1c65ea1c5c7daa710a0cbbaf3a80d09d48e3c6dd14",
    },
}


@pytest.mark.parametrize("config", sorted(ARTIFACT_DIGESTS))
def test_shipped_config_writes_the_recorded_bytes(tmp_path, config):
    path = ROOT / "configs" / f"{config}.json"
    experiment = json.loads(path.read_text())["experiment"]
    out = tmp_path / "out"
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
    written = {p.name: runio.sha256_of(p) for p in out.iterdir()}
    assert written == ARTIFACT_DIGESTS[config]


def test_every_shipped_config_is_pinned_and_every_pin_is_shipped():
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.json")) == sorted(ARTIFACT_DIGESTS)


def test_3d_config_constants_are_the_dense_gram_eigenvalues(tmp_path):
    path = ROOT / "configs" / "spectral_ineq_torus3d.json"
    assert main(["spectral-ineq", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "spectral_ineq.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    config = json.loads(path.read_text())
    basis = build_basis(runio.parse_domain(config["domain"]), config["e_max"])
    M = gram_matrix(basis, runio.parse_set(config["set"]))
    assert basis.n == 389 and len(rows) == len(config["e_grid"])
    for row in rows:
        kept = basis.eigenvalues <= float(row["E"])
        assert abs(float(row["C_emp"]) - np.linalg.eigvalsh(M[np.ix_(kept, kept)])[0]) <= 1e-15


@pytest.mark.parametrize("config", [c for c in sorted(ARTIFACT_DIGESTS) if "synthesize" in c])
def test_synthesize_trajectory_has_no_near_duplicate_times(tmp_path, config):
    path = ROOT / "configs" / f"{config}.json"
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    T = json.loads(path.read_text())["T"]
    header, *rows = read_csv(tmp_path / "out" / "trajectory.csv")
    for series in ("state_norm", "control_norm"):
        times = sorted(float(r[0]) for r in rows if r[2] == series)
        assert np.min(np.diff(times)) > 1e-12 * T, series


# the top-level keys of each experiment before the runners took them as
# parameters, and the ones indexed as required on every path of the runner
EXPERIMENTS = {
    "spectral-ineq": {"domain", "set", "e_max", "e_grid", "potential", "bounds",
                      "n_max"},
    "synthesize": {"domain", "set", "control_scale", "e_max", "T", "u0", "mode",
                   "s", "t_points", "potential", "n_max"},
    "bounds": {"evaluations", "miller", "tenenbaum", "regime"},
    "homogenize": {"domain", "gamma", "period0", "halvings", "e_max", "t_grid",
                   "n_max"},
    "exhaust": {"t", "L", "L_ref", "R", "omega_cut", "control"},
    "calibrate": {"target", "domain", "set", "e_max", "e_grid", "t_grid",
                  "thick", "params", "n_max"},
}
REQUIRED = {
    "spectral-ineq": {"domain", "set", "e_max", "e_grid"},
    "synthesize": {"domain", "e_max", "T"},
    "bounds": set(),
    "homogenize": {"domain", "gamma", "period0", "e_max", "t_grid"},
    "exhaust": {"t", "L", "L_ref"},
    "calibrate": {"target", "domain", "set", "e_max"},
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_runner_signature_keeps_the_top_level_keys(experiment):
    params = inspect.signature(RUNNERS[experiment]).parameters.values()
    keys = {p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}
    assert keys == EXPERIMENTS[experiment]
    assert {p.name for p in params if p.kind is p.KEYWORD_ONLY} == {"constants", "seed"}
    assert {p.name for p in params if p.default is p.empty} == REQUIRED[experiment] | {"constants"}


def test_module_entry_point_exit_codes(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "heatctl.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("bounds", "--config", str(ROOT / "configs" / "bounds_catalog.json"),
             "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "run_meta.json").exists()
    bad_cfg = write_config(tmp_path, "bad.json",
                           base("bounds", miller={"beta": 1.0, "b": 1.0, "bb": 2.0}))
    bad = run("bounds", "--config", bad_cfg, "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert len(bad.stderr.splitlines()) == 1
    assert bad.stderr.startswith("heatctl: error: miller:") and "'bb'" in bad.stderr
    assert not (tmp_path / "bad").exists()


def test_call_refuses_keys_that_do_not_bind_and_passes_errors_inside_through():
    def f(a, b=2):
        return a + b

    assert runio.call(f, {"a": 1}, "sec") == 3
    assert runio.call(f, {"b": 1}, "sec", a=1) == 2
    # a missing key, an unknown key, and a key that is also given by the caller
    for section, given, key in (({}, {}, "'a'"), ({"a": 1, "c": 3}, {}, "'c'"),
                                ({"a": 1}, {"a": 1}, "'a'")):
        with pytest.raises(ParameterError, match=f"^sec: .*{key}"):
            runio.call(f, section, "sec", **given)
    with pytest.raises(ParameterError, match="^sec must be a JSON object"):
        runio.call(f, [1], "sec")
    with pytest.raises(TypeError):
        runio.call(f, {"a": "x"}, "sec")


def test_call_reads_each_value_by_its_annotation_without_touching_the_section():
    def f(x: float, n: int, grid: list[float], params: dict[str, float] = None, tag=None):
        return x, n, grid, params, tag

    section = {"x": 2, "n": 3.0, "grid": [1], "params": None, "tag": "2"}
    x, n, grid, params, tag = runio.call(f, section, "sec")
    assert (type(x), x, type(n), n, grid, params, tag) == (float, 2.0, int, 3, [1.0], None, "2")
    assert section == {"x": 2, "n": 3.0, "grid": [1], "params": None, "tag": "2"}
    assert type(section["x"]) is int
    for key, value, noun in (("x", "2", "a number"), ("n", 2.5, "an integer"),
                             ("grid", [True], "a list of numbers"),
                             ("params", {"a": "1"}, "a number")):
        with pytest.raises(ParameterError, match=f"^sec: {key}.* must be {noun}"):
            runio.call(f, {**section, key: value}, "sec")


def _strict_json(path):
    """The JSON document at ``path``, refused unless it is strict JSON."""
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_text_is_the_report_format_and_refuses_non_finite_numbers():
    data = {"b": [1.5, None], "a": {"y": 2, "x": "s"}}
    assert runio.json_text(data) == json.dumps(data, sort_keys=True, indent=2) + "\n"
    for value in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(NumericError, match="not strict JSON"):
            runio.json_text({"a": [value]})


def test_csv_text_writes_shortest_floats_and_refuses_non_finite_numbers():
    rows = [["x", 0.1, np.float64(1e-5)], [2, None, True]]
    assert runio.csv_text(["a", "b", "c"], rows) == "a,b,c\r\nx,0.1,1e-05\r\n2,,True\r\n"
    for value in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(NumericError) as err:
            runio.csv_text(["name", "value"], [["thick1", 1.0], ["thick2", value]])
        assert str(err.value) == f"a table is not finite: value is {value} in row thick2"


def test_exhaust_without_a_fit_writes_null(tmp_path):
    cfg = base("exhaust", t=0.1, L=[2.0], L_ref=8.0)
    out = tmp_path / "out"
    assert main(["exhaust", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    report = _strict_json(out / "exhaust_report.json")
    assert report["diff_slope_vs_Lsq"] is None and report["diff_intercept"] is None
    assert len(report["fidelities"]) == 1
    _strict_json(out / "run_meta.json")


def test_non_finite_regime_bound_exits_2_naming_the_bound_and_T(tmp_path, capsys):
    # every thick bound overflows below T = 1; the first overflow is refused
    # before a line fit reads inf - inf
    cfg = base("bounds", regime={"names": ["thick1", "thick2"],
                                 "params": {"gamma": 0.01, "a": [5.0], "d": 1},
                                 "t_grid": [1e-4, 1e-3, 1e-2, 1e-1, 1.0]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "heatctl: error: bound thick1 at T=0.0001 is inf, not a finite number\n")


def test_tenenbaum_threshold_beyond_double_range_exits_2(tmp_path, capsys):
    cfg = base("bounds", tenenbaum={"s": 0.95, "d1": 10.0})
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "beyond double range" in err and "s=0.95" in err and "d1=10.0" in err


def test_seed_option_overrides_the_config_seed(tmp_path):
    spec = {"equidistributed": {"G": 1.0, "delta": 0.2}, "extent": [[0.0, 4.0]]}
    cfg = base("spectral-ineq", domain={"torus": [4.0]}, set=spec, e_max=20.0,
               e_grid=[4.0, 16.0], seed=3)
    out = tmp_path / "out"
    assert main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
                 "--seed", "7", "--out", str(out)]) == 0
    rows = read_csv(out / "spectral_ineq.csv")
    seeded = {seed: runio.parse_set(spec, seed).descriptor_hash() for seed in (3, 7)}
    assert seeded[3] != seeded[7]
    assert {r[4] for r in rows[1:]} == {seeded[7]}
    meta = _strict_json(out / "run_meta.json")
    assert meta["config_hash"] == runio.config_hash({**cfg, "seed": 7})


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        runio.atomic_write_text(str(target), 123)
    assert list(tmp_path.iterdir()) == []


def _set_record(*boxes):
    return {"kind": "periodic_boxes", "cell": [math.pi], "boxes": list(boxes)}


def _no_cell(extent):
    return {"equidistributed": {"G": 1.0, "delta": 0.2, "seed": 1}, "extent": extent}


NO_CELL = {"domain": {"interval": [0.0, 3.0], "boundary": "dirichlet"}, "e_max": 10.0,
           "e_grid": [4.0]}
BAND = {"domain": {"interval": [0.0, math.pi]},
        "set": {"band": {"period": math.pi, "gamma": 0.5}}, "e_max": 10.0, "e_grid": [4.0]}


def _evaluation(name, **params):
    return {"evaluations": [{"name": name, "params": params}]}


# (experiment, config keys, the whole error line) of outside input that is
# refused with exit 2
REFUSED = {
    "too_many_modes": ("spectral-ineq", {**SI, "domain": {"torus": [2 * math.pi, 2 * math.pi]},
                                         "e_max": 1000.0},
                       "e_max=1000.0 yields 3149 modes, exceeding n_max=512"),
    "no_mode_below_e_max": ("spectral-ineq", {**SI, "e_max": 0.5, "e_grid": [0.5]},
                            "no admissible mode below e_max"),
    "box_of_wrong_dimension": ("spectral-ineq", {**SI, "set": _set_record([[0.0, 1.0], [0.0, 1.0]])},
                               "box dimension does not match cell"),
    "box_of_no_extent": ("spectral-ineq", {**SI, "set": _set_record([[1.0, 1.0]])},
                         "box has non-positive extent"),
    "empty_potential": ("spectral-ineq", {**SI, "potential": {}}, "potential spec is empty"),
    # a Gram over these boxes would count (1.0, 2.0) twice
    "family_boxes_overlap": (
        "spectral-ineq", {**SI, "set": {"kind": "equidistributed_balls",
                                        "boxes": [[[0.5, 2.0]], [[2.0, 2.5]], [[1.0, 2.5]]]}},
        "the boxes ((0.5, 2.0),) and ((1.0, 2.5),) of a family overlap"),
    "family_boxes_of_two_dimensions": (
        "spectral-ineq", {**SI, "set": {"kind": "equidistributed_balls",
                                        "boxes": [[[0.5, 1.0]], [[2.0, 2.5], [0.0, 1.0]]]}},
        "the boxes of a family must all have the same dimension"),
    "zero_horizon": ("synthesize", {**SYNTH, "T": 0.0}, "horizon T must be positive"),
    "zero_time": ("exhaust", {**EXHAUST, "t": 0.0}, "t must be positive"),
    "energy_above_e_max": ("spectral-ineq", {**SI, "e_grid": [1.0, 4.0, 9.0]},
                           "e_grid energy E=9.0 exceeds e_max=4.0, the basis cutoff"),
    "cube_energy_above_e_max": ("calibrate", {**CUBE, "e_grid": [1.0, 4.5],
                                              "thick": {"gamma": 0.5, "a": [math.pi]}},
                                "e_grid energy E=4.5 exceeds e_max=4.0, the basis cutoff"),
    "u0_with_mode_and_coeffs": ("synthesize", {**SYNTH, "u0": {"mode": 0, "coeffs": [1.0, 0.0]}},
                                "u0 must be 'worst', {'mode': k} or {'coeffs': [...]}"),
    "u0_with_neither_mode_nor_coeffs": ("synthesize", {**SYNTH, "u0": {}},
                                        "u0 must be 'worst', {'mode': k} or {'coeffs': [...]}"),
    "u0_coeffs_of_wrong_length": ("synthesize", {**SYNTH, "u0": {"coeffs": [1.0, 0.0, 0.0]}},
                                  "u0 has wrong length: shape (3,), expected (2,)"),
    "set_and_control_scale": ("synthesize", {**SYNTH, "set": "full"},
                              "synthesize needs exactly one of 'set' and 'control_scale'"),
    "neither_set_nor_control_scale": ("synthesize", {**SYNTH, "control_scale": None},
                                      "synthesize needs exactly one of 'set' and 'control_scale'"),
    "unknown_synthesize_mode": ("synthesize", {**SYNTH, "mode": "greedy"},
                                "unknown synthesize mode 'greedy'"),
    "unknown_calibration_target": ("calibrate", {**CUBE, "target": "thick3"},
                                   "unknown calibration target 'thick3'"),
    "extent_of_no_width": ("spectral-ineq", {**NO_CELL, "set": _no_cell([[1.0, 1.0]])},
                           "extent [[1.0, 1.0]] has no width on axis 0"),
    "reversed_extent": ("spectral-ineq", {**NO_CELL, "set": _no_cell([[2.0, 1.0]])},
                        "extent [[2.0, 1.0]] has no width on axis 0"),
    "extent_of_no_width_inside_a_cell": (
        "spectral-ineq", {**NO_CELL, "set": _no_cell([[1.5, 1.5]])},
        "extent [[1.5, 1.5]] has no width on axis 0"),
    # an upper bound beyond double range saturates to inf, which no table holds
    "thick1_beyond_double_range": (
        "bounds", _evaluation("thick1", T=1.0, gamma=1e-300, d=1, a=[1.0]),
        "a table is not finite: value is inf in row thick1"),
    "thick2_beyond_double_range": (
        "bounds", _evaluation("thick2", T=1.0, gamma=1e-300, a=[1.0]),
        "a table is not finite: value is inf in row thick2"),
    "tenenbaum_form_at_a_vanishing_time": (
        "bounds", _evaluation("tenenbaum_form", T=1e-300, s=0.99),
        "a table is not finite: value is inf in row tenenbaum_form"),
    "fractional_beyond_double_range": (
        "bounds", {**_evaluation("fractional", T=1.0, gamma=0.5, theta=0.5000001, a=[100.0]),
                   "constants": {"D4": 2.0}},
        "a table is not finite: value is inf in row fractional"),
    "regime_beyond_double_range": (
        "bounds", {"regime": {"names": ["thick1", "thick2"],
                              "params": {"gamma": 0.5, "a": [1.0], "d": 1},
                              "t_grid": [1e-3, 1.0]}, "constants": {"K": 1000.0}},
        "bound thick1 at T=0.001 is inf, not a finite number"),
    "miller_right_side_beyond_double_range": (
        "bounds", {"miller": {"beta": 0.01, "b": 1e308, "a": 1e-300}},
        "the right side of the root equation is beyond double range"),
    # the Galerkin sums overflow; numpy warns of nothing
    "potential_sums_beyond_double_range": (
        "spectral-ineq", {**BAND, "potential": {"constant": 1.5e308,
                                                "boxes": [[1.5e308, [[0.0, 1.0]]]]}},
        "Galerkin matrix is not finite (sup_norm=inf)"),
    # no matrix is symmetrized, so a constant of 1e308 stays finite, and every
    # eigenvalue lies above the grid
    "potential_symmetrization_beyond_double_range": (
        "spectral-ineq", {**BAND, "potential": {"constant": 1e308}},
        "no eigenvalue below E=4.0"),
    "a_norm_beyond_double_range": (
        "bounds", _evaluation("thick2", T=1.0, gamma=0.5, a=[1e308, 1e308]),
        "thick2: ||a||_1 is not finite (inf) for a = [1e+308, 1e+308]"),
    "a_and_b_of_unequal_length": (
        "spectral-ineq", {**BAND, "bounds": [{"name": "kovrijkine", "params": {
            "gamma": 0.5, "d": 1, "a": [1.0, 2.0], "b": [1.0]}}]},
        "kovrijkine: a and b must be of equal length, not a = [1.0, 2.0] and b = [1.0]"),
    "integer_beyond_double_range": (
        "bounds", _evaluation("thick2", T=10 ** 400, gamma=0.5, a=[1.0]),
        f"evaluations[0]: params: T must be finite, not {10 ** 400}"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_exits_2_without_files(tmp_path, capsys, case):
    experiment, keys, message = REFUSED[case]
    assert run_case(tmp_path, experiment, keys, None) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"heatctl: error: {message}\n"


# (experiment, config keys, the table it writes, its rows) of closed forms
# beyond double range that saturate to a trivially true value: a lower bound
# to 0, and a thick1 bound that overflows at K = 1 to the smallest K
SATURATED = {
    "kovrijkine_multi": (
        "spectral-ineq", {**BAND, "bounds": [{"name": "kovrijkine_multi", "params": {
            "gamma": 1e-300, "d": 1, "n": 2, "p": 2, "a": [1.0], "b": [1.0]}}]},
        "spectral_ineq.csv", [["4.0", "0.5", "kovrijkine_multi", "0.0", "7d17e224fc83677c"]]),
    "eigenfunction": (
        "spectral-ineq", {**BAND, "bounds": [{"name": "eigenfunction", "params": {
            "G": 1e300, "delta": 1.0, "v_minus_e_norm": 1.0}}]},
        "spectral_ineq.csv", [["4.0", "0.5", "eigenfunction", "0.0", "7d17e224fc83677c"]]),
    "calibrate_thick1": (
        "calibrate", {**BAND, "target": "thick1", "e_max": 30.0, "e_grid": None,
                      "t_grid": [0.5, 1.0], "params": {"gamma": 1e-300, "d": 1, "a": [1.0]}},
        "calibrate.csv", [["thick1", "K", "1.0"]]),
}


@pytest.mark.parametrize("case", sorted(SATURATED))
def test_bound_beyond_double_range_saturates_to_its_trivial_side(tmp_path, case):
    experiment, keys, table, rows = SATURATED[case]
    assert run_case(tmp_path, experiment, keys, None) == 0
    assert read_csv(tmp_path / "out" / table)[1:] == rows


def test_calibrate_spectral_cube_refuses_a_constant_that_is_not_positive(tmp_path, capsys):
    # the constants at E = 4, 64 and 256 are 6.4e-7 and two rounding-noise
    # negatives; no positive bound lies below them
    keys = {"target": "spectral_cube", "domain": {"interval": [0.0, math.pi]},
            "set": _set_record([[0.0, 0.3]]), "e_max": 300.0, "e_grid": [4.0, 64.0, 256.0],
            "thick": {"gamma": 0.3 / math.pi, "a": [math.pi]}}
    assert run_case(tmp_path, "calibrate", keys, None) == 2
    assert not (tmp_path / "out").exists()
    assert re.fullmatch(r"heatctl: error: C_emp vanishes on the fit grid at E=64\.0: "
                        r"C_emp=-\S+\n", capsys.readouterr().err)


def test_semigroup_difference_under_its_rounding_floor_exits_2_without_files(tmp_path, capsys):
    keys = {"t": 0.05, "L": [3.0, 4.0], "L_ref": 11.0, "omega_cut": 140.0}
    assert run_case(tmp_path, "exhaust", keys, None) == 2
    assert not (tmp_path / "out").exists()
    assert re.fullmatch(r"heatctl: error: semigroup difference at L=4\.0, t=0\.05 is below "
                        r"rounding: d\^2=\S+ <= floor \S+\n", capsys.readouterr().err)


def test_config_of_another_schema_exits_2_without_files(tmp_path, capsys):
    cfg = {**base("spectral-ineq", **SI), "schema": "heatctl-run/2"}
    out = tmp_path / "out"
    assert main(["spectral-ineq", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "heatctl: error: config must be a JSON object of schema 'heatctl-run/1'\n")


def test_unexpected_exception_exits_1_with_a_traceback_without_files(tmp_path, capsys,
                                                                    monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("unexpected failure inside a bound")

    monkeypatch.setattr(bd, "cost_bound", fail)
    cfg = base("bounds", evaluations=[{**THICK1, "params": {**THICK1["params"], "T": 1.0}}])
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: unexpected failure inside a bound\n")
    assert "heatctl: error" not in err
