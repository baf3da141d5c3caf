"""Seeded inputs, jobs and correctness checks of the workloads.

A workload is a cycle of job *slots*.  Each round runs every slot once, in
an order shuffled by the seed, with fresh inputs drawn from the seed and the
round number: the set geometry, the truncation energy, the horizon and the
potential change from job to job, while each slot keeps its box count and
size band so that every seed gives the same mix of job costs.  The inputs
are plain numbers; heatctl objects are built inside the timed job.

Every job calls heatctl through module attributes at call time
(``hc.gram_matrix``), so the wrappers of :mod:`tracing` see the calls.
"""

import math
import random

import numpy as np

import heatctl as hc
from heatctl import _trig
from heatctl import control as ct

from tracing import RESOLVABLE_FLOOR

TWO_PI = 2.0 * math.pi
# absolute accuracy of eigenvalues of a Gram matrix with norm <= 1
EIG_TOL = 1e-14
GRAM_TOL = 1e-10
RESIDUAL_TOL = 1e-8
FIT_S = 0.5
SPOT_ENTRIES = 6

# Each slot keeps its mode count: n is constant on every e_max band below
# (2pi-torus lattice counts 481, 437, 421, 373, 325, 293, 185).
N481, N437, N421, N373, N325, N293, N185 = (
    (149.0, 152.9), (137.0, 143.9), (130.0, 135.9), (117.0, 120.9), (101.0, 103.9),
    (90.0, 96.9), (58.0, 60.9))

# (set kind, cells per axis, boxes per cell, e_max band, area-fraction band).
# Three tiers of three slots with equal Gram cost (boxes * n^2) within a
# tier, so the median job falls inside the middle tier and the tail inside
# the top one for every seed: 1-2 boxes (the thin sets reach the ~1e-16
# eigenvalue floor inside their E-grid), 4-9 boxes, 16-36 boxes.
SPECTRAL_SLOTS = (
    ("periodic", 1, 1, N481, (0.03, 0.08)),
    ("periodic", 1, 2, N373, (0.05, 0.12)),
    ("equidistributed", 1, 1, N481, (0.04, 0.10)),
    ("periodic", 2, 1, N481, (0.15, 0.30)),
    ("equidistributed", 2, 1, N481, (0.10, 0.25)),
    ("periodic", 3, 1, N325, (0.15, 0.35)),
    ("equidistributed", 4, 1, N373, (0.10, 0.25)),
    ("periodic", 5, 1, N325, (0.15, 0.35)),
    ("equidistributed", 6, 1, N293, (0.10, 0.25)),
)

# (job kind, cells (x, y), boxes per cell, e_max band, potential, scan),
# in three cost tiers as above.  2-4 boxes per torus keep Gram assembly a
# minority share.  Synthesis needs four boxes: with one or two at n~481
# the active/passive phase Gramians exceed the 1e12 condition cap or miss
# the 1e-8 residual.  The two boxes of the (1, 1) sweep sit diagonally in
# the cell.  Three of the five synthesize slots carry a potential.
CONTROL_SLOTS = (
    ("synthesize", (2, 2), 1, N437, None, "thickness"),
    ("synthesize", (2, 2), 1, N421, "indicator", "beta"),
    ("synthesize", (2, 2), 1, N421, "cosine", "thickness"),
    ("synthesize", (2, 2), 1, N293, None, "beta"),
    ("sweep", (1, 1), 2, N373, None, "beta"),
    ("sweep", (2, 2), 1, N325, None, "thickness"),
    ("synthesize", (2, 2), 1, N185, "indicator", "beta"),
    ("exhaustion", None, None, None, None, "thickness"),
    ("exhaustion", None, None, None, None, "beta"),
)

# tiny sizes for the harness smoke test: same code paths, n <= ~100
TINY_SCALE = 0.2


def _box_in_cell(rng, x_lo, x_len, y_lo, y_len, area):
    """Axis-aligned box of the given area inside one cell slab, no wrap."""
    aspect = rng.uniform(0.7, 1.4)
    w = min(math.sqrt(area * aspect), 0.95 * x_len)
    h = min(area / w, 0.95 * y_len)
    x0 = x_lo + rng.uniform(0.0, x_len - w)
    y0 = y_lo + rng.uniform(0.0, y_len - h)
    return ((x0, x0 + w), (y0, y0 + h))


def _periodic_boxes(rng, cells, per_cell, frac):
    """Boxes of one cell ``[0,cx) x [0,cy)``; box i lies in x-slab i and y-slab i."""
    cx, cy = TWO_PI / cells[0] / per_cell, TWO_PI / cells[1] / per_cell
    area = frac * cx * cy * per_cell
    return [_box_in_cell(rng, i * cx, cx, i * cy, cy, area) for i in range(per_cell)]


def _area_fraction(cell, boxes):
    return sum((x1 - x0) * (y1 - y0) for (x0, x1), (y0, y1) in boxes) / (cell[0] * cell[1])


def _tile(cell, boxes, cells):
    """All translates of the cell boxes inside the torus, in absolute coordinates."""
    out = []
    for i in range(cells[0]):
        for j in range(cells[1]):
            sx, sy = i * cell[0], j * cell[1]
            out.extend(((x0 + sx, x1 + sx), (y0 + sy, y1 + sy)) for (x0, x1), (y0, y1) in boxes)
    return out


def _round_rng(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")


def spectral_round(seed, rnd, tiny=False):
    """Inputs of one ``spectral-2d`` round, one per slot, in run order."""
    rng = _round_rng("spectral-2d", seed, rnd)
    jobs = []
    for slot, (kind, k, per_cell, e_band, f_band) in enumerate(SPECTRAL_SLOTS):
        e_max = rng.uniform(*e_band) * (TINY_SCALE if tiny else 1.0)
        frac = rng.uniform(*f_band)
        c = TWO_PI / k
        if kind == "periodic":
            cell_boxes = _periodic_boxes(rng, (k, k), per_cell, frac)
            frac = _area_fraction((c, c), cell_boxes)
            spec = {"kind": kind, "cell": (c, c), "boxes": cell_boxes}
            boxes = _tile((c, c), cell_boxes, (k, k))
            # a window of one cell sees the set's density exactly
            gamma, a = frac, (c, c)
        else:
            delta = c * math.sqrt(frac / 2.0)
            centers = [(rng.uniform(i * c + delta, (i + 1) * c - delta),
                        rng.uniform(j * c + delta, (j + 1) * c - delta))
                       for i in range(k) for j in range(k)]
            spec = {"kind": kind, "G": c, "delta": delta, "centers": centers}
            half = delta / math.sqrt(2.0)
            boxes = [((x - half, x + half), (y - half, y + half)) for x, y in centers]
            # every window of two cells holds one whole square
            gamma, a = frac / 4.0, (2.0 * c, 2.0 * c)
        e_grid = sorted({E for E in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0) if E < e_max}
                        | {e_max})
        jobs.append({"kind": "spectral", "slot": slot, "e_max": e_max, "set": spec,
                     "boxes": boxes, "area_fraction": frac, "gamma": gamma, "a": a,
                     "e_grid": e_grid, "check_seed": rng.getrandbits(32)})
    rng.shuffle(jobs)
    return jobs


def _control_set_spec(rng, cells, per_cell, frac):
    cell_boxes = _periodic_boxes(rng, cells, per_cell, frac)
    cell = (TWO_PI / cells[0], TWO_PI / cells[1])
    spec = {"kind": "periodic", "cell": cell, "boxes": cell_boxes}
    return spec, _tile(cell, cell_boxes, cells), _area_fraction(cell, cell_boxes)


def _potential_spec(rng, kind):
    if kind == "indicator":
        x0, y0 = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        box = ((x0, x0 + rng.uniform(1.0, 3.0)), (y0, y0 + rng.uniform(1.0, 3.0)))
        return {"kind": kind, "height": rng.uniform(1.0, 3.0), "box": box}
    if kind == "cosine":
        # mean below 1 keeps the lowest eigenvalue below the first
        # active/passive cutoff E_0 = 1 (see README, known defects)
        return {"kind": kind, "constant": rng.uniform(0.2, 0.9), "amp": rng.uniform(0.5, 1.5),
                "kvec": (rng.randint(1, 2), rng.randint(0, 2))}
    return None


def _scan_spec(rng, scan, cell):
    if scan == "thickness":
        u = rng.uniform(0.8, 1.0)
        return {"kind": scan, "a": [c * u for c in cell]}
    return {"kind": scan, "r": 0.6 * max(cell) * rng.uniform(1.0, 1.2)}


def control_round(seed, rnd, tiny=False):
    """Inputs of one ``control-mix`` round, one per slot, in run order."""
    rng = _round_rng("control-mix", seed, rnd)
    jobs = []
    for slot, (kind, cells, per_cell, e_band, potential, scan) in enumerate(CONTROL_SLOTS):
        job = {"kind": kind, "slot": slot}
        if kind == "exhaustion":
            L = [2.0 + 0.55 * i + rng.uniform(0.0, 0.25) for i in range(rng.randint(3, 5))]
            gamma = rng.uniform(0.4, 0.6)
            job.update({"L": L, "L_ref": 2.0 * L[-1], "t": rng.uniform(0.08, 0.12),
                        "band_gamma": gamma, "T": rng.uniform(0.4, 0.8),
                        "scan": _scan_spec(rng, scan, (1.0,))})
        else:
            spec, boxes, frac = _control_set_spec(rng, cells, per_cell, rng.uniform(0.35, 0.55))
            job.update({"e_max": rng.uniform(*e_band) * (TINY_SCALE if tiny else 1.0),
                        "set": spec, "boxes": boxes, "area_fraction": frac,
                        "potential": _potential_spec(rng, potential),
                        "scan": _scan_spec(rng, scan, spec["cell"])})
            if kind == "synthesize":
                job["T"] = rng.uniform(1.0, 2.0)
            else:
                t0, ratio = rng.uniform(0.5, 0.8), rng.uniform(1.25, 1.4)
                job["T_list"] = [t0 * ratio ** i for i in range(6)]
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- jobs

def _torus_basis(e_max):
    return hc.build_basis(hc.DomainSpec.torus(TWO_PI, TWO_PI), e_max)


def _make_set(spec):
    if spec["kind"] == "periodic":
        return hc.ObservabilitySet.periodic(spec["cell"], spec["boxes"])
    eq = hc.EquidistributedSpec(G=spec["G"], delta=spec["delta"],
                                centers=tuple(tuple(z) for z in spec["centers"]))
    return hc.make_equidistributed(eq, [(0.0, TWO_PI), (0.0, TWO_PI)])


def _make_potential(spec):
    if spec is None:
        return None
    if spec["kind"] == "indicator":
        return hc.PotentialSpec.indicator(spec["box"], spec["height"])
    return hc.PotentialSpec(constant=spec["constant"],
                            cosines=((spec["amp"], tuple(spec["kvec"])),))


def _scan_and_bound(S, scan, T, dim):
    """One thickness or complement-density scan and its cost bound at ``T``.

    The grids are sized so that the scans stay a small share of a
    control-mix job, which control and its decompositions should dominate.
    """
    if scan["kind"] == "thickness":
        gamma = hc.thickness_estimate(S, scan["a"], grid=24)
        params = {"gamma": gamma, "a": scan["a"]}
        return {"gamma": gamma, "bound": hc.cost_bound("thick2", params, T=T)}
    (_, beta), = hc.beta_complement(S, [scan["r"]], grid=16)
    params = {"gamma": 1.0 - beta, "a": [2.0 * scan["r"]] * dim, "d": dim}
    return {"beta": beta, "bound": hc.cost_bound("thick1", params, T=T)}


def spectral_job(inp):
    basis = _torus_basis(inp["e_max"])
    op = hc.galerkin_schrodinger(basis)
    S = _make_set(inp["set"])
    M = hc.gram_matrix(basis, S)
    pairs = [(E, hc.spectral_ineq_constant(op, S, E, gram=M)) for E in inp["e_grid"]]
    bounds = [hc.ucp_bound("spectral_cube", gamma=inp["gamma"], a=inp["a"], d=2, E=E)
              for E, _ in pairs]
    resolved = [(E, c) for E, c in pairs if c > RESOLVABLE_FLOOR]
    fit = hc.fit_uncertainty_form(resolved, FIT_S)
    return {"basis": basis, "gram": M, "pairs": pairs, "bounds": bounds,
            "resolved": resolved, "fit": fit}


def _trajectory(problem, signal):
    t_grid = np.linspace(0.0, problem.T, 65)
    edges = [t for ph in signal.phases for t in (ph.t_start, ph.t_end)]
    if edges:
        t_grid = np.unique(np.concatenate([t_grid, edges]))
    traj = hc.duhamel_solve(problem, signal, t_grid)
    norms = [ct.control_norm_at(problem, signal, t) for t in traj.times]
    return traj, norms


def synthesize_job(inp):
    basis = _torus_basis(inp["e_max"])
    op = hc.galerkin_schrodinger(basis, _make_potential(inp["potential"]))
    S = _make_set(inp["set"])
    problem = hc.ControlProblem.from_set(op, S, inp["T"])
    problem.u0 = hc.worst_initial_state(problem)
    signal, cost = hc.min_norm_control(problem)
    c_T = hc.empirical_cost(problem)
    cond = hc.gramian_condition(problem)
    traj, norms = _trajectory(problem, signal)
    sched = hc.active_passive_schedule(problem.T, max(float(op.eigvals[-1]), 1.0))
    pairs = [(E, hc.spectral_ineq_constant(op, S, E, gram=problem.control_gram))
             for E in sched.E_j if E >= op.eigvals[0]]
    fit = hc.fit_uncertainty_form([p for p in pairs if p[1] > RESOLVABLE_FLOOR], FIT_S)
    ap_signal, report = hc.active_passive_synthesize(problem, fit)
    ap_traj, ap_norms = _trajectory(problem, ap_signal)
    scan = _scan_and_bound(S, inp["scan"], problem.T, 2)
    return {"u0": problem.u0, "cost": cost, "c_T": c_T, "cond": cond, "traj": traj,
            "norms": norms, "ap_signal": ap_signal, "ap_report": report,
            "ap_traj": ap_traj, "ap_norms": ap_norms, "scan": scan}


def sweep_job(inp):
    basis = _torus_basis(inp["e_max"])
    op = hc.galerkin_schrodinger(basis)
    S = _make_set(inp["set"])
    problem = hc.ControlProblem.from_set(op, S, inp["T_list"][0])
    costs = [hc.empirical_cost(problem.with_time(T)) for T in inp["T_list"]]
    scan = _scan_and_bound(S, inp["scan"], inp["T_list"][-1], 2)
    return {"costs": costs, "scan": scan}


def exhaustion_job(inp):
    L = tuple(inp["L"])
    run = hc.ExhaustionRun(L_list=L, L_ref=inp["L_ref"], t=inp["t"], omega_cut=161.0)
    diff = hc.semigroup_difference(run)
    S = hc.periodic_band(1.0, inp["band_gamma"])
    ctl_run = hc.ExhaustionRun(L_list=L, L_ref=inp["L_ref"], t=inp["t"], omega_cut=40.0)
    family = hc.nested_control_family(S, inp["T"], ctl_run)
    scan = _scan_and_bound(S, inp["scan"], inp["T"], 1)
    return {"run": run, "diff": diff, "family": family, "scan": scan}


JOBS = {"spectral": spectral_job, "synthesize": synthesize_job, "sweep": sweep_job,
        "exhaustion": exhaustion_job}

# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """A job's result disagrees with its independent check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _mode_1d(k, side):
    """Periodic eigenfunction of index ``k`` on ``[0, side)``, coded independently."""
    if k == 0:
        return lambda x: np.full_like(x, 1.0 / math.sqrt(side))
    w = TWO_PI * abs(k) / side
    trig = np.cos if k > 0 else np.sin
    return lambda x: math.sqrt(2.0 / side) * trig(w * x)


def _check_gram_entries(basis, M, boxes, seed):
    """Spot-check Gram entries against Gauss-Legendre quadrature per box."""
    rng = random.Random(seed)
    kmax = max(abs(k) for m in basis.modes for k in m)
    w_max = 2.0 * kmax  # highest frequency of a product of two modes
    picks = [(0, 0)] + [(rng.randrange(basis.n), rng.randrange(basis.n))
                        for _ in range(SPOT_ENTRIES - 1)]
    for i, j in picks:
        total = 0.0
        for box in boxes:
            term = 1.0
            for ax, (lo, hi) in enumerate(box):
                fi = _mode_1d(basis.modes[i][ax], TWO_PI)
                fj = _mode_1d(basis.modes[j][ax], TWO_PI)
                panels = max(1, math.ceil(w_max * (hi - lo) / 8.0))
                term *= _trig.quad_interval(lambda x: fi(x) * fj(x), lo, hi, panels=panels)
            total += term
        _require(abs(total - M[i, j]) <= GRAM_TOL,
                 f"Gram entry ({i},{j}) is {M[i, j]!r}, quadrature gives {total!r}")


def _check_constants(pairs):
    values = [c for _, c in pairs]
    _require(all(-EIG_TOL <= c <= 1.0 + EIG_TOL for c in values),
             f"spectral constants outside [0, 1]: {values}")
    _require(all(b <= a + EIG_TOL for a, b in zip(values, values[1:])),
             f"spectral constants increase with E: {values}")


def _check_fit(fit, resolved):
    _require(len(resolved) >= 3 and fit.d1 >= 0.0, "uncertainty fit is degenerate")
    _require(all(c * fit.c_ur(E) >= 1.0 - 1e-9 for E, c in resolved),
             "uncertainty envelope does not hold at a fitted point")


def _check_scan(scan, density):
    _require(scan["bound"] > 0.0, f"cost bound is not positive: {scan['bound']!r}")
    if "gamma" in scan:
        _require(0.0 < scan["gamma"] <= density + 1e-12,
                 f"thickness {scan['gamma']!r} exceeds the density {density!r}")
    else:
        _require(0.0 <= scan["beta"] < 1.0, f"complement density {scan['beta']!r}")


def check_spectral(inp, out):
    _check_gram_entries(out["basis"], out["gram"], inp["boxes"], inp["check_seed"])
    pairs = out["pairs"]
    _check_constants(pairs)
    # below E=1 the subspace is the constant mode alone: C = |S| / |torus|
    _require(abs(pairs[0][1] - inp["area_fraction"]) <= 1e-12,
             f"constant-mode value {pairs[0][1]!r} != area fraction {inp['area_fraction']!r}")
    _require(all(math.isfinite(b) and 0.0 <= b <= 1.0 for b in out["bounds"]),
             "spectral_cube bound outside [0, 1]")
    _check_fit(out["fit"], out["resolved"])


def check_synthesize(inp, out):
    u0_norm = float(np.linalg.norm(out["u0"]))
    _require(abs(u0_norm - 1.0) <= 1e-10, f"worst initial state has norm {u0_norm!r}")
    c_T, cost = out["c_T"], out["cost"]
    _require(math.isfinite(c_T) and c_T > 0.0, f"C_T is {c_T!r}")
    _require(abs(cost - c_T) <= 1e-6 * c_T, f"worst state costs {cost!r}, C_T is {c_T!r}")
    _require(math.isfinite(out["cond"]), "Gramian condition number is not finite")
    tol = RESIDUAL_TOL * u0_norm
    _require(out["traj"].final_norm() <= tol,
             f"Duhamel final residual {out['traj'].final_norm():.3e}")
    report = out["ap_report"]
    ap_final = max(report.diagnostics["final_residual"], out["ap_traj"].final_norm())
    _require(ap_final <= tol, f"active/passive final residual {ap_final:.3e}")
    # no null-control is cheaper than the minimal-norm one
    _require(out["ap_signal"].norm >= cost * (1.0 - 1e-6),
             f"active/passive norm {out['ap_signal'].norm!r} below the minimum {cost!r}")
    _require(all(math.isfinite(x) for x in out["norms"] + out["ap_norms"]),
             "control norms are not finite")
    _check_scan(out["scan"], inp["area_fraction"])


def check_sweep(inp, out):
    costs = out["costs"]
    _require(all(math.isfinite(c) and c > 0.0 for c in costs), f"C_T not finite: {costs}")
    _require(all(b <= a * (1.0 + 1e-9) for a, b in zip(costs, costs[1:])),
             f"C_T increases with T: {costs}")
    _check_scan(out["scan"], inp["area_fraction"])


def check_exhaustion(inp, out):
    run, diff, family = out["run"], out["diff"], out["family"]
    _require(all(f >= 1.0 - run.fidelity_tol for f in diff.fidelities),
             f"exhaustion fidelities {diff.fidelities}")
    d = diff.differences
    _require(all(math.isfinite(x) and x > 0.0 for x in d), f"semigroup differences {d}")
    _require(all(math.isfinite(x) and x > 0.0 for x in family.control_norms),
             f"nested control norms {family.control_norms}")
    _require(all(math.isfinite(x) for x in family.residuals), "nested residuals not finite")
    _check_scan(out["scan"], inp["band_gamma"])


CHECKS = {"spectral": check_spectral, "synthesize": check_synthesize, "sweep": check_sweep,
          "exhaustion": check_exhaustion}

ROUNDS = {"spectral-2d": spectral_round, "control-mix": control_round}
