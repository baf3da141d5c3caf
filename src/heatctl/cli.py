"""Command-line front end: reproducible experiments to CSV/JSON tables."""

import argparse
import json
import sys
import traceback

import numpy as np

from . import bounds as bd
from . import control as ct
from . import exhaustion as ex
from . import runio
from . import uncertainty as uc
from .errors import HeatctlError, ParameterError
from .spectral import DEFAULT_N_MAX, build_basis, galerkin_schrodinger


def _build_operator(cfg, n_max_default=DEFAULT_N_MAX):
    domain = runio.parse_domain(cfg["domain"])
    basis = build_basis(domain, float(cfg["e_max"]),
                        n_max=int(cfg.get("n_max", n_max_default)))
    potential = runio.parse_potential(cfg.get("potential"))
    return galerkin_schrodinger(basis, potential)


def _parse_u0(spec, problem):
    if spec == "worst":
        return ct.worst_initial_state(problem)
    if isinstance(spec, dict) and "mode" in spec:
        u0 = np.zeros(problem.op.n)
        u0[int(spec["mode"])] = 1.0
        return u0
    if isinstance(spec, dict) and "coeffs" in spec:
        u0 = np.asarray(spec["coeffs"], dtype=float)
        if u0.shape != (problem.op.n,):
            raise ParameterError("u0 coefficient vector has wrong length")
        return u0
    raise ParameterError("u0 must be 'worst', {'mode': k} or {'coeffs': [...]}")


def run_spectral_ineq(cfg, constants, seed):
    op = _build_operator(cfg)
    S = runio.parse_set(cfg["set"], seed)
    pairs = uc.spectral_ineq_sweep(op, S, [float(e) for e in cfg["e_grid"]])
    set_hash = S.descriptor_hash()
    bound_specs = cfg.get("bounds") or []
    rows = []
    for E, c_emp in pairs:
        if not bound_specs:
            rows.append([E, repr(c_emp), None, None, set_hash])
        for spec in bound_specs:
            params = dict(spec.get("params") or {})
            params["E"] = E
            val = uc.ucp_bound(spec["name"], constants, **params)
            rows.append([E, repr(c_emp), spec["name"], repr(val), set_hash])
    return {"spectral_ineq.csv":
            runio.csv_text(["E", "C_emp", "bound_name", "bound_value", "set_hash"],
                           rows)}


def _control_problem(cfg, seed, u0=None):
    op = _build_operator(cfg)
    T = float(cfg["T"])
    if "set" in cfg and "control_scale" in cfg:
        raise ParameterError("give either 'set' or 'control_scale', not both")
    if "set" in cfg:
        S = runio.parse_set(cfg["set"], seed)
        problem = ct.ControlProblem.from_set(op, S, T, u0=u0)
    elif "control_scale" in cfg:
        problem = ct.ControlProblem.scalar(op, float(cfg["control_scale"]), T, u0=u0)
    else:
        raise ParameterError("synthesize needs a 'set' or a 'control_scale'")
    return problem


def _trajectory_rows(problem, signal, t_points):
    t_grid = np.linspace(0.0, problem.T, t_points)
    edges = [t for ph in signal.phases for t in (ph.t_start, ph.t_end)]
    t_grid = np.unique(np.concatenate([t_grid, edges])) if edges else t_grid
    traj = ct.duhamel_solve(problem, signal, t_grid)
    rows = [[repr(float(t)), repr(float(n)), "state_norm"]
            for t, n in zip(traj.times, traj.norms)]
    rows += [[repr(float(t)), repr(ct.control_norm_at(problem, signal, t)), "control_norm"]
             for t in traj.times]
    return rows, traj


def run_synthesize(cfg, constants, seed):
    mode = cfg.get("mode", "gramian")
    problem = _control_problem(cfg, seed)
    problem.u0 = _parse_u0(cfg.get("u0", "worst"), problem)
    t_points = int(cfg.get("t_points", 33))
    files = {}
    if mode == "gramian":
        signal, cost = ct.min_norm_control(problem)
        report = ct.CostReport(
            T=problem.T,
            c_emp=ct.empirical_cost(problem),
            condition_number=ct.gramian_condition(problem),
            diagnostics={"cost_for_u0": cost},
            set_hash=problem.set_hash,
        )
    elif mode == "active-passive":
        s = float(cfg.get("s", 0.5))
        sched = ct.active_passive_schedule(problem.T, max(float(problem.op.eigvals[-1]), 1.0))
        pairs = [(E, uc.spectral_ineq_constant(problem.op, None, E, gram=problem.control_gram))
                 for E in sched.E_j if E >= problem.op.eigvals[0]]
        fit = uc.fit_uncertainty_form(pairs, s)
        signal, report = ct.active_passive_synthesize(problem, fit)
        report.c_emp = ct.empirical_cost(problem)
        report.diagnostics["uncertainty_fit"] = {"d0": fit.d0, "d1": fit.d1, "s": fit.s}
        _, min_cost = ct.min_norm_control(problem)
        report.diagnostics["min_norm_cost"] = min_cost
        phase_rows = [[r["j"], repr(r["E_j"]), repr(r["T_j"]), repr(r["a_j"]),
                       repr(r["norm_sq"]), repr(r["norm_bound"]), r["bound_ok"],
                       repr(r["low_mode_residual"]), repr(r["decay_ratio"]),
                       repr(r["decay_bound"])]
                      for r in report.diagnostics["phases"]]
        files["phases.csv"] = runio.csv_text(
            ["j", "E_j", "T_j", "a_j", "norm_sq", "norm_bound", "bound_ok",
             "low_mode_residual", "decay_ratio", "decay_bound"], phase_rows)
    else:
        raise ParameterError(f"unknown synthesize mode {mode!r}")
    rows, traj = _trajectory_rows(problem, signal, t_points)
    report.diagnostics["final_residual"] = traj.final_norm()
    report.constants = constants.to_dict()
    files["report.json"] = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    files["trajectory.csv"] = runio.csv_text(["x", "y", "series"], rows)
    return files


def run_bounds(cfg, constants, seed):
    rows = []
    report = {}
    for spec in cfg.get("evaluations") or []:
        params = dict(spec.get("params") or {})
        value = bd.cost_bound(spec["name"], params, constants)
        rows.append([spec["name"], params.get("T"), runio.config_hash(params),
                     repr(value), bd.bound_validity(spec["name"])])
    if "miller" in cfg:
        m = cfg["miller"]
        s_root, c_star = bd.miller_cstar(m["beta"], m["b"], m.get("a", 0.0),
                                         m.get("m", 0.0))
        h = runio.config_hash(m)
        rows.append(["miller_s_root", None, h, repr(s_root), "small_T_only"])
        rows.append(["miller_cstar", None, h, repr(c_star), "small_T_only"])
        report["miller"] = {"s_root": s_root, "c_star": c_star}
    if "tenenbaum" in cfg:
        t = cfg["tenenbaum"]
        val = bd.tenenbaum_threshold(t["s"], t["d1"])
        rows.append(["tenenbaum_threshold", None, runio.config_hash(t),
                     repr(val), "all_T"])
        report["tenenbaum_threshold"] = val
    files = {"bounds.csv": runio.csv_text(
        ["name", "T", "params_hash", "value", "validity"], rows)}
    if "regime" in cfg:
        r = cfg["regime"]
        regime_rows, classifiers = bd.regime_table(r["names"], r.get("params") or {},
                                                   r["t_grid"], constants)
        files["regime.csv"] = runio.csv_text(
            ["name", "T", "value", "validity", "best"],
            [[row["name"], repr(row["T"]), repr(row["value"]), row["validity"],
              row["best"]] for row in regime_rows])
        report["classifiers"] = classifiers
    if report:
        files["bounds_report.json"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return files


def run_homogenize(cfg, constants, seed):
    from .geometry import periodic_band
    op = _build_operator(cfg)
    gamma = float(cfg["gamma"])
    period0 = float(cfg["period0"])
    halvings = int(cfg.get("halvings", 3))
    t_grid = [float(t) for t in cfg["t_grid"]]
    d = op.basis.domain.dimension
    sweep_rows, fit_rows = [], []
    for k in range(halvings + 1):
        period = period0 / 2.0 ** k
        S = periodic_band(period, gamma, d)
        problem = ct.ControlProblem.from_set(op, S, t_grid[0])
        costs = [ct.empirical_cost(problem.with_time(T)) for T in t_grid]
        y = np.log(costs)
        coef, A = uc._line_fit([1.0 / t for t in t_grid], y)
        ss_res = float(np.sum((y - A @ coef) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        slope, intercept = float(coef[1]), float(coef[0])
        for T, c in zip(t_grid, costs):
            sweep_rows.append([repr(period), repr(T), repr(c)])
        fit_rows.append([repr(period), repr(slope), repr(intercept), repr(r2)])
    return {
        "homogenize.csv": runio.csv_text(["a", "inv_T_slope", "intercept", "r2"],
                                         fit_rows),
        "homogenize_sweep.csv": runio.csv_text(["a", "T", "C_T"], sweep_rows),
    }


def run_exhaust(cfg, constants, seed):
    run = ex.ExhaustionRun(
        L_list=tuple(float(L) for L in cfg["L"]),
        L_ref=float(cfg["L_ref"]),
        t=float(cfg["t"]),
        R=float(cfg.get("R", 1.0)),
        omega_cut=float(cfg.get("omega_cut", 161.0)),
    )
    diff = ex.semigroup_difference(run)
    report = {
        "diff_slope_vs_Lsq": diff.slope_vs_Lsq,
        "diff_intercept": diff.intercept,
        "fidelities": list(diff.fidelities),
    }
    norms = residuals = None
    if "control" in cfg:
        c = cfg["control"]
        S = runio.parse_set(c.get("set", {"band": {"period": 1.0, "gamma": 0.5}}), seed)
        ctl_run = ex.ExhaustionRun(
            L_list=run.L_list, L_ref=run.L_ref, t=run.t, R=run.R,
            omega_cut=float(c.get("omega_cut", 40.0)))
        fam = ex.nested_control_family(S, float(c["T"]), ctl_run)
        norms, residuals = fam.control_norms, fam.residuals
        report["control_conditions"] = list(fam.conditions)
        # scale-free check: the thick-set bound calibrated on the smallest box
        # is L-independent; later boxes must stay within the same uniformity
        # margin used for the norms themselves (factor 2)
        gamma_est = S.density()
        params = {"gamma": gamma_est, "a": [S.cell[0]], "d": 1}
        cal = bd.calibrate_prefactor("thick2", [(float(c["T"]), norms[0])],
                                     params, constants)
        bound = bd.cost_bound("thick2", params, cal, T=float(c["T"]))
        report["thick2_calibrated_bound"] = bound
        report["norm_to_bound_ratio"] = max(norms) / bound
        report["norms_uniformly_bounded"] = bool(
            max(norms) <= 2.0 * bound and max(norms) <= 2.0 * min(norms))
    rows = []
    for i, L in enumerate(run.L_list):
        rows.append([repr(L), repr(diff.differences[i]),
                     repr(norms[i]) if norms else None,
                     repr(residuals[i]) if residuals else None])
    return {
        "exhaust.csv": runio.csv_text(["L", "difference", "control_norm", "residual"],
                                      rows),
        "exhaust_report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
    }


def run_calibrate(cfg, constants, seed):
    target = cfg["target"]
    files = {}
    if target == "spectral_cube":
        op = _build_operator(cfg)
        S = runio.parse_set(cfg["set"], seed)
        pairs = uc.spectral_ineq_sweep(op, S, [float(e) for e in cfg["e_grid"]])
        thick = cfg["thick"]
        cal = uc.calibrate_spectral_cube(pairs, thick["gamma"], thick["a"],
                                         op.basis.domain.dimension, constants)
        fitted = {"K5": cal.K5}
    elif target in ("thick1", "thick2", "equidistributed"):
        op = _build_operator(cfg)
        S = runio.parse_set(cfg["set"], seed)
        t_grid = [float(t) for t in cfg["t_grid"]]
        problem = ct.ControlProblem.from_set(op, S, t_grid[0])
        pairs = [(T, ct.empirical_cost(problem.with_time(T))) for T in t_grid]
        params = dict(cfg.get("params") or {})
        if target == "thick1":
            cal = bd.calibrate_thick1(pairs, params, constants)
            fitted = {"K": cal.K}
        else:
            cal = bd.calibrate_prefactor(target, pairs, params, constants)
            fitted = {"D1": cal.D1}
    else:
        raise ParameterError(f"unknown calibration target {target!r}")
    files["constants_out.json"] = json.dumps(cal.to_dict(), sort_keys=True,
                                             indent=2) + "\n"
    files["calibrate.csv"] = runio.csv_text(
        ["target", "constant", "value"],
        [[target, k, repr(v)] for k, v in sorted(fitted.items())])
    return files


RUNNERS = {
    "spectral-ineq": run_spectral_ineq,
    "synthesize": run_synthesize,
    "bounds": run_bounds,
    "homogenize": run_homogenize,
    "exhaust": run_exhaust,
    "calibrate": run_calibrate,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="heatctl",
        description="Observability constants and null-controls for heat semigroups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--constants", default=None,
                       help="JSON file overriding the universal constants")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = runio.load_config(args.config)
        if config["experiment"] != args.command:
            raise ParameterError(
                f"config is for {config['experiment']!r}, not {args.command!r}")
        if args.seed is not None:
            config["seed"] = args.seed
        if args.constants:
            with open(args.constants) as fh:
                config["constants"] = json.load(fh)
        constants = runio.parse_constants(config.get("constants"))
        out_dir = args.out or config.get("out") or "heatctl_out"
        files = RUNNERS[args.command](config, constants, config.get("seed"))
        meta = {
            "schema": runio.CONFIG_SCHEMA,
            "experiment": args.command,
            "config_hash": runio.config_hash(config),
            "constants": constants.to_dict(),
        }
        runio.write_outputs(out_dir, files, meta)
    except HeatctlError as exc:
        print(f"heatctl: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
