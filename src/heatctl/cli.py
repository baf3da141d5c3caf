"""Command-line front end: reproducible experiments to CSV/JSON tables.

A runner's parameters are its config keys, plus keyword-only ``constants``
and ``seed``, each read by its annotation (see :func:`heatctl.runio.call`);
it binds each nested object, read the same way, before its first computation.
"""

import argparse
import json
import sys
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import bounds as bd
from . import control as ct
from . import exhaustion as ex
from . import runio
from . import uncertainty as uc
from .errors import HeatctlError, ParameterError
from .geometry import ThickParams, periodic_band
from .spectral import DEFAULT_N_MAX, build_basis, galerkin_schrodinger


def _operator(domain, e_max, n_max, potential=None):
    domain = runio.parse_domain(domain)
    if potential is not None:
        potential = runio.call(runio.potential_spec, potential, "potential")
    return galerkin_schrodinger(build_basis(domain, e_max, n_max=n_max), potential)


def _check_energies(e_grid, e_max):
    """Refuse an energy of ``e_grid`` above ``e_max``: the basis holds no mode
    above its cutoff, so it would miss part of that energy's spectral subspace."""
    for E in e_grid:
        if E > e_max:
            raise ParameterError(f"e_grid energy E={E} exceeds e_max={e_max}, the basis cutoff")


def _entry(name, params: dict[str, float] = None):
    return name, {} if params is None else params


def _named(entries, where):
    """The ``bounds`` or ``evaluations`` entries as ``(bound name, parameters)`` pairs."""
    if not isinstance(entries, (list, type(None))):
        raise ParameterError(f"{where} must be a list, not {json.dumps(entries)}")
    return [runio.call(_entry, entry, f"{where}[{i}]") for i, entry in enumerate(entries or ())]


def _initial_state(mode: int = None, coeffs: list[float] = None):
    """The ``u0`` object of ``synthesize`` as a function of the mode count ``n``."""
    if (mode is None) == (coeffs is None):
        raise ParameterError("u0 must be 'worst', {'mode': k} or {'coeffs': [...]}")

    def state(n):
        if mode is not None and mode not in range(n):
            raise ParameterError(f"u0: mode must be an integer in [0, {n})")
        return np.asarray(coeffs, dtype=float) if mode is None else np.eye(1, n, mode)[0]
    return state


def run_spectral_ineq(domain, set, e_max: float, e_grid: list[float], potential=None,
                      bounds=None, n_max: int = DEFAULT_N_MAX, *, constants,
                      seed: int = None):
    if not e_grid:
        raise ParameterError("e_grid must hold at least one value, not []")
    S = runio.parse_set(set, seed)
    specs = _named(bounds, "bounds")
    _check_energies(e_grid, e_max)
    op = _operator(domain, e_max, n_max, potential)
    pairs = uc.spectral_ineq_sweep(op, S, e_grid)
    set_hash = S.descriptor_hash()
    rows = []
    for E, c_emp in pairs:
        if not specs:
            rows.append([E, repr(c_emp), None, None, set_hash])
        for name, params in specs:
            val = uc.ucp_bound(name, constants, **{**params, "E": E})
            rows.append([E, repr(c_emp), name, repr(val), set_hash])
    return {"spectral_ineq.csv":
            runio.csv_text(["E", "C_emp", "bound_name", "bound_value", "set_hash"],
                           rows)}


def _trajectory_rows(problem, signal, t_points):
    """Rows at ``t_points`` evenly spaced times and at every phase edge; a
    grid time within ``1e-12 T`` of an edge gives way to the edge."""
    t_grid = np.linspace(0.0, problem.T, t_points)
    edges = np.array([t for ph in signal.phases for t in (ph.t_start, ph.t_end)])
    if edges.size:
        near = np.abs(t_grid[:, None] - edges[None, :]).min(axis=1) <= 1e-12 * problem.T
        t_grid = np.unique(np.concatenate([t_grid[~near], edges]))
    traj = ct.duhamel_solve(problem, signal, t_grid)
    rows = [[repr(float(t)), repr(float(n)), "state_norm"]
            for t, n in zip(traj.times, traj.norms)]
    rows += [[repr(float(t)), repr(ct.control_norm_at(problem, signal, t)), "control_norm"]
             for t in traj.times]
    return rows, traj


def run_synthesize(domain, e_max: float, T: float, set=None, control_scale: float = None,
                   u0="worst", mode="gramian", s: float = 0.5, t_points: int = 33,
                   potential=None, n_max: int = DEFAULT_N_MAX, *, constants,
                   seed: int = None):
    if (set is None) == (control_scale is None):
        raise ParameterError("synthesize needs exactly one of 'set' and 'control_scale'")
    if mode not in ("gramian", "active-passive"):
        raise ParameterError(f"unknown synthesize mode {mode!r}")
    if t_points < 0:
        raise ParameterError(f"t_points must be non-negative, not {t_points}")
    S = None if set is None else runio.parse_set(set, seed)
    u0 = u0 if u0 == "worst" else runio.call(_initial_state, u0, "u0")
    op = _operator(domain, e_max, n_max, potential)
    problem = (ct.ControlProblem.scalar(op, control_scale, T) if S is None
               else ct.ControlProblem.from_set(op, S, T))
    problem.u0 = ct.worst_initial_state(problem) if u0 == "worst" else u0(problem.op.n)
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
    else:
        sched = ct.active_passive_schedule(problem.T, max(float(problem.op.eigvals[-1]), 1.0))
        kept = [E for E in sched.E_j if E >= problem.op.eigvals[0]]
        pairs = uc.spectral_ineq_sweep(problem.op, S, kept, gram=problem.control_gram)
        fit = uc.fit_uncertainty_form(pairs, s)
        signal, report = ct.active_passive_synthesize(problem, fit)
        report.c_emp = ct.empirical_cost(problem)
        report.diagnostics["uncertainty_fit"] = {"d0": fit.d0, "d1": fit.d1, "s": fit.s}
        _, min_cost = ct.min_norm_control(problem)
        report.diagnostics["min_norm_cost"] = min_cost
        columns = ["j", "E_j", "T_j", "a_j", "norm_sq", "norm_bound", "bound_ok",
                   "low_mode_residual", "decay_ratio", "decay_bound"]
        files["phases.csv"] = runio.csv_text(
            columns, [[repr(r[c]) for c in columns] for r in report.diagnostics["phases"]])
    rows, traj = _trajectory_rows(problem, signal, t_points)
    report.diagnostics["final_residual"] = traj.final_norm()
    report.constants = asdict(constants)
    files["report.json"] = runio.json_text(asdict(report))
    files["trajectory.csv"] = runio.csv_text(["x", "y", "series"], rows)
    return files


def _regime(names, params: dict[str, float], t_grid: list[float], *, constants):
    """The ``regime`` object of ``bounds``: the named bounds tabulated over ``t_grid``."""
    if not (names and isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ParameterError("regime: names must be a non-empty list of bound names, "
                             f"not {json.dumps(names)}")
    return bd.regime_table(names, params, t_grid, constants)


def run_bounds(evaluations=None, miller=None, tenenbaum=None, regime=None, *,
               constants, seed: int = None):
    specs = _named(evaluations, "evaluations")
    rows = []
    report = {}
    for name, params in specs:
        value = bd.cost_bound(name, params, constants)
        # every bound is a function of T, so an evaluation that passed has one
        rows.append([name, params["T"], runio.config_hash(params), repr(value),
                     bd.bound_validity(name)])
    if miller is not None:
        s_root, c_star = runio.call(bd.miller_cstar, miller, "miller")
        h = runio.config_hash(miller)
        rows.append(["miller_s_root", None, h, repr(s_root), "small_T_only"])
        rows.append(["miller_cstar", None, h, repr(c_star), "small_T_only"])
        report["miller"] = {"s_root": s_root, "c_star": c_star}
    if tenenbaum is not None:
        val = runio.call(bd.tenenbaum_threshold, tenenbaum, "tenenbaum")
        rows.append(["tenenbaum_threshold", None, runio.config_hash(tenenbaum),
                     repr(val), "all_T"])
        report["tenenbaum_threshold"] = val
    files = {"bounds.csv": runio.csv_text(
        ["name", "T", "params_hash", "value", "validity"], rows)}
    if regime is not None:
        regime_rows, classifiers = runio.call(_regime, regime, "regime", constants=constants)
        files["regime.csv"] = runio.csv_text(
            ["name", "T", "value", "validity", "best"],
            [[row["name"], repr(row["T"]), repr(row["value"]), row["validity"],
              row["best"]] for row in regime_rows])
        report["classifiers"] = classifiers
    if report:
        files["bounds_report.json"] = runio.json_text(report)
    return files


def run_homogenize(domain, gamma: float, period0: float, e_max: float, t_grid: list[float],
                   halvings: int = 3, n_max: int = DEFAULT_N_MAX, *, constants,
                   seed: int = None):
    if halvings < 0:
        raise ParameterError(f"halvings must be non-negative, not {halvings}")
    if len(set(t_grid)) < 2:
        raise ParameterError("t_grid must hold at least two distinct times, "
                             f"not {json.dumps(t_grid)}")
    op = _operator(domain, e_max, n_max)
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


def _nested_controls(T: float, omega_cut: float = 40.0,
                     set={"band": {"period": 1.0, "gamma": 0.5}}, *, run, seed, constants):
    """The ``control`` object of ``exhaust``: controls on the nested boxes of ``run``."""
    S = runio.parse_set(set, seed)
    fam = ex.nested_control_family(S, T, replace(run, omega_cut=omega_cut))
    norms = fam.control_norms
    # scale-free check: the thick-set bound calibrated on the smallest box
    # is L-independent; later boxes must stay within the same uniformity
    # margin used for the norms themselves (factor 2)
    params = {"gamma": S.density(), "a": [S.cell[0]]}
    cal = bd.calibrate_prefactor("thick2", [(T, norms[0])], params, constants)
    bound = bd.cost_bound("thick2", params, cal, T=T)
    return fam, {
        "control_conditions": list(fam.conditions),
        "thick2_calibrated_bound": bound,
        "norm_to_bound_ratio": max(norms) / bound,
        "norms_uniformly_bounded": bool(max(norms) <= 2.0 * bound
                                        and max(norms) <= 2.0 * min(norms)),
    }


def run_exhaust(t: float, L: list[float], L_ref: float, R: float = 1.0,
                omega_cut: float = 161.0, control=None, *, constants, seed: int = None):
    run = ex.ExhaustionRun(L_list=L, L_ref=L_ref, t=t, R=R, omega_cut=omega_cut)
    fam, report = (None, {}) if control is None else runio.call(
        _nested_controls, control, "control", run=run, seed=seed, constants=constants)
    diff = ex.semigroup_difference(run)
    report.update(diff_slope_vs_Lsq=diff.slope_vs_Lsq, diff_intercept=diff.intercept,
                  fidelities=list(diff.fidelities))
    rows = [[repr(L), repr(diff.differences[i]),
             fam and repr(fam.control_norms[i]), fam and repr(fam.residuals[i])]
            for i, L in enumerate(run.L_list)]
    return {
        "exhaust.csv": runio.csv_text(["L", "difference", "control_norm", "residual"],
                                      rows),
        "exhaust_report.json": runio.json_text(report),
    }


def run_calibrate(target, domain, set, e_max: float, e_grid: list[float] = None,
                  t_grid: list[float] = None, thick=None, params: dict[str, float] = None,
                  n_max: int = DEFAULT_N_MAX, *, constants, seed: int = None):
    cube = target == "spectral_cube"
    if not cube and target not in ("thick1", "thick2", "equidistributed"):
        raise ParameterError(f"unknown calibration target {target!r}")
    needs = {"e_grid": e_grid, "thick": thick} if cube else {"t_grid": t_grid}
    if None in needs.values():
        raise ParameterError(f"config: calibration target {target!r} needs {sorted(needs)}")
    thick = cube and runio.call(ThickParams, thick, "thick")
    grid, key = (e_grid, "e_grid") if cube else (t_grid, "t_grid")
    if not grid:
        raise ParameterError(f"{key} must hold at least one value, not []")
    S = runio.parse_set(set, seed)
    if cube:
        _check_energies(grid, e_max)
    op = _operator(domain, e_max, n_max)
    if cube:
        pairs = uc.spectral_ineq_sweep(op, S, grid)
        cal = uc.calibrate_spectral_cube(pairs, thick.gamma, thick.a,
                                         op.basis.domain.dimension, constants)
        fitted = {"K5": cal.K5}
    else:
        problem = ct.ControlProblem.from_set(op, S, grid[0])
        pairs = [(T, ct.empirical_cost(problem.with_time(T))) for T in grid]
        if target == "thick1":
            cal = bd.calibrate_thick1(pairs, params, constants)
            fitted = {"K": cal.K}
        else:
            cal = bd.calibrate_prefactor(target, pairs, params, constants)
            fitted = {"D1": cal.D1}
    files = {"constants_out.json": runio.json_text(asdict(cal))}
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
        config = runio.load_config(args.config, args.command)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.constants:
            config["constants"] = runio.read_json(args.constants, "constants file")
        keys = dict(config)
        del keys["schema"], keys["experiment"]
        out = keys.pop("out", None)
        constants = runio.call(uc.UniversalConstants, keys.pop("constants", {}), "constants")
        files = runio.call(RUNNERS[args.command], keys, "config", constants=constants)
        meta = {
            "schema": runio.CONFIG_SCHEMA,
            "experiment": args.command,
            "config_hash": runio.config_hash(config),
            "constants": asdict(constants),
        }
        runio.write_outputs(args.out or out or "heatctl_out", files, meta)
    except HeatctlError as exc:
        print(f"heatctl: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
