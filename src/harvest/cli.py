"""Command-line entry point: subcommand dispatch, sweeps, and CSV emission.

Every run reads one JSON config document, optionally patched by --set
overrides, and writes CSV data plus a sibling .meta.json provenance file.
Numeric output is fixed at 12 significant digits so repeated runs with the
same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

import numpy as np

from . import __version__, averaging, mcs, resonance
from .config import RunConfig, apply_override, parse_config
from .errors import ConfigError, HarvestError
from .freq import build_table, exclusion_band
from .model import well_depth

_FMT = "%.11e"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return _FMT % v


def emit_csv(path: str, header: list[str], rows: list[list], meta: dict) -> None:
    """Write rows at 12 significant digits plus a sibling .meta.json."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
        with open(_meta_path(path), "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:
        raise HarvestError(f"cannot write output file {path}: {e}") from e


def _meta_path(csv_path: str) -> str:
    base, _ = os.path.splitext(csv_path)
    return base + ".meta.json"


def _config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _versions() -> dict:
    import scipy

    return {
        "harvest": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _base_meta(cfg: RunConfig, subcommand: str, t0: float) -> dict:
    return {
        "subcommand": subcommand,
        "config": cfg.document,
        "config_hash": _config_hash(cfg.document),
        "defaults_applied": list(cfg.defaults_applied),
        "seed": cfg.sim.seed,
        "versions": _versions(),
        "lane": mcs.lane(),
        "exclusion_band": exclusion_band(cfg.system),
        "tolerances": {
            "frequency_fixed_point": 1e-10,
            "orbit_quadrature_rel": 1e-8,
            "significant_digits": 12,
        },
        "wall_time_s": time.monotonic() - t0,
    }


def _out_path(cfg: RunConfig, out_dir: str | None, suffix: str) -> str:
    directory = out_dir if out_dir is not None else cfg.output.dir
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{cfg.output.prefix}_{suffix}.csv")


def _cmd_freq(cfg: RunConfig, out_dir, t0) -> int:
    table = build_table(cfg.system)
    header = ["H", "omega", "regime"]
    rows = [
        [H, om, "well"] for H, om in zip(table.H_neg, table.omega_neg)
    ] + [[H, om, "crosswell"] for H, om in zip(table.H_pos, table.omega_pos)]
    emit_csv(_out_path(cfg, out_dir, "freq"), header, rows, _base_meta(cfg, "freq", t0))
    return 0


def _cmd_spd(cfg: RunConfig, out_dir, t0) -> int:
    fld = averaging.joint_spd(cfg.system, cfg.noise, cfg.sim.grid)
    header = ["x", "v", "density"]
    rows = []
    for i, x in enumerate(fld.x):
        for j, v in enumerate(fld.v):
            rows.append([x, v, fld.values[i, j]])
    meta = _base_meta(cfg, "spd", t0)
    meta["norm_const"] = fld.norm_const
    emit_csv(_out_path(cfg, out_dir, "spd"), header, rows, meta)
    return 0


def _cmd_power(cfg: RunConfig, out_dir, t0) -> int:
    ev2 = averaging.mean_square_voltage(cfg.system, cfg.noise)
    power = cfg.system.kappa * cfg.system.alpha * ev2
    header = ["mean_power", "mean_square_voltage", "well_depth"]
    rows = [[power, ev2, well_depth(cfg.system, math.sqrt(2.0 * cfg.system.delta1))]]
    emit_csv(
        _out_path(cfg, out_dir, "power"), header, rows, _base_meta(cfg, "power", t0)
    )
    return 0


def _cmd_snr(cfg: RunConfig, out_dir, t0) -> int:
    r = resonance.analyze(cfg.system, cfg.noise, cfg.excitation)
    header = [
        "x_s_plus", "x_s_minus", "x_u",
        "lambda_s_plus", "lambda_s_minus", "lambda_u_plus", "lambda_u_minus",
        "R0", "R1", "S1_integral", "S2_at_Omega", "snr", "omega_eq",
        "linear_response_ok", "underflow",
    ]
    rows = [[
        r.x_s_plus, r.x_s_minus, r.x_u, *r.lambdas,
        r.R0, r.R1, r.S1_integral, r.S2_at_Omega, r.snr, r.omega_eq,
        int(r.linear_response_ok), int(r.underflow),
    ]]
    emit_csv(_out_path(cfg, out_dir, "snr"), header, rows, _base_meta(cfg, "snr", t0))
    return 0


def _cmd_mcs(cfg: RunConfig, out_dir, t0) -> int:
    est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
    header = [
        "mean_power", "v_rms", "efficiency_pct", "efficiency_defined",
        "n_divergent", "n_samples", "psd_snr", "psd_snr_stderr",
    ]
    psd_val = est.psd_snr.estimate if est.psd_snr else math.nan
    psd_err = est.psd_snr.stderr if est.psd_snr else math.nan
    rows = [[
        est.mean_power, est.v_rms, est.efficiency_pct,
        int(est.efficiency_defined), est.n_divergent, est.n_samples,
        psd_val, psd_err,
    ]]
    emit_csv(_out_path(cfg, out_dir, "mcs"), header, rows, _base_meta(cfg, "mcs", t0))
    hist = est.histogram
    hrows = []
    for i, x in enumerate(hist.x):
        for j, v in enumerate(hist.v):
            hrows.append([x, v, hist.values[i, j]])
    emit_csv(
        _out_path(cfg, out_dir, "mcs_hist"),
        ["x", "v", "density"],
        hrows,
        _base_meta(cfg, "mcs", t0),
    )
    return 1 if est.n_divergent else 0


def _cmd_compare(cfg: RunConfig, out_dir, t0) -> int:
    analytic = averaging.mean_power(cfg.system, cfg.noise)
    est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
    gap = (
        abs(est.mean_power - analytic) / abs(analytic) if analytic != 0 else math.nan
    )
    header = [
        "analytic_power", "mcs_power", "relative_gap",
        "mcs_v_rms", "mcs_efficiency_pct", "n_divergent", "n_samples",
    ]
    rows = [[
        analytic, est.mean_power, gap, est.v_rms, est.efficiency_pct,
        est.n_divergent, est.n_samples,
    ]]
    emit_csv(
        _out_path(cfg, out_dir, "compare"), header, rows, _base_meta(cfg, "compare", t0)
    )
    return 1 if est.n_divergent else 0


def _with_param(cfg: RunConfig, param: str, value: float) -> RunConfig:
    block, key = param.split(".", 1)
    target = getattr(cfg, block)
    replaced = dataclasses.replace(target, **{key: value})
    return dataclasses.replace(cfg, **{block: replaced})


def _axis_values(ax) -> np.ndarray:
    if ax.scale == "log":
        if ax.start <= 0 or ax.stop <= 0:
            raise ConfigError(f"sweep axis {ax.param}: log scale needs positive bounds")
        return np.geomspace(ax.start, ax.stop, ax.count)
    return np.linspace(ax.start, ax.stop, ax.count)


# Quantities read off one shared Monte Carlo ensemble run per cell.
_ENSEMBLE_QUANTITIES = ("v_rms", "efficiency")

_RERUN_MESSAGE = "rerun in the main process after a worker process died"


def _cell_config(cfg: RunConfig, assignments) -> RunConfig:
    for param, value in assignments:
        cfg = _with_param(cfg, param, float(value))
    return cfg


def _failure(e: Exception) -> tuple[str, str]:
    return type(e).__name__, str(e)


def _sweep_cell(args):
    """Analytic quantities of one cell: ({quantity: value}, {quantity:
    (error type, message)}); a failed quantity reads NaN."""
    cfg, assignments, quantities = args
    cfg = _cell_config(cfg, assignments)
    values = {}
    failures = {}
    for q in quantities:
        try:
            if q == "power":
                values[q] = averaging.mean_power(cfg.system, cfg.noise)
            elif q == "snr":
                values[q] = resonance.snr(cfg.system, cfg.noise, cfg.excitation)
            elif q == "well_depth":
                values[q] = well_depth(
                    cfg.system, math.sqrt(2.0 * cfg.system.delta1)
                )
            elif q == "omega_eq":
                values[q] = resonance.snr_equilibria(cfg.system)[2]
        except Exception as e:
            # any failure is confined to this cell so the other rows survive
            values[q] = math.nan
            failures[q] = _failure(e)
    return values, failures


def _ensemble_batch(args):
    """Ensemble quantities of a batch of cells, stepped together: per cell
    {quantity: value} or the (error type, message) of its failure."""
    sim, cells = args
    return [
        _failure(est) if isinstance(est, Exception)
        else {"v_rms": est.v_rms, "efficiency": est.efficiency_pct}
        for est in mcs.run_ensembles(cells, sim)
    ]


def _run_tasks(tasks, threads: int):
    """fn(arg) for each (fn, arg) in tasks, in order, and the indices of the
    tasks rerun in this process.

    With threads > 1 every task is its own future on a pool of worker
    processes, and each result is collected from its future.  If a worker
    dies, the tasks it left unfinished are rerun here, one after another.
    """
    if threads <= 1:
        return [fn(arg) for fn, arg in tasks], []
    results = [None] * len(tasks)
    rerun = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, arg) for fn, arg in tasks]
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                rerun.append(i)
    for i in rerun:
        fn, arg = tasks[i]
        results[i] = fn(arg)
    return results, rerun


def _sweep_plan(cfg: RunConfig):
    """The sweep's cells and its Monte Carlo plan.

    Returns the grid points, each cell's {param: value} assignments, the sim
    block the ensembles run with, each cell's (system, noise, excitation) and
    the lockstep batches of mcs.ensemble_batches; the last three are None
    and [] when the sweep has no ensemble quantity.
    """
    if cfg.sweep is None:
        raise ConfigError("config has no sweep block")
    axes = cfg.sweep.axes
    grids = [_axis_values(ax) for ax in axes]
    if len(axes) == 1:
        coords = [(a,) for a in grids[0]]
    else:
        coords = [(a, b) for a in grids[0] for b in grids[1]]
    assignments = [tuple(zip([ax.param for ax in axes], point)) for point in coords]
    if not set(cfg.sweep.quantities) & set(_ENSEMBLE_QUANTITIES):
        return coords, assignments, None, None, []
    # a sweep has no spectral SNR column, so it stores no series and runs no
    # periodograms
    sim = dataclasses.replace(cfg.sim, psd=None)
    cells = []
    for a in assignments:
        c = _cell_config(cfg, a)
        cells.append((c.system, c.noise, c.excitation))
    return coords, assignments, sim, cells, mcs.ensemble_batches(cells, sim)


def run_sweep(cfg: RunConfig, threads: int = 1):
    """Evaluate the configured quantities over the 1-D or 2-D parameter grid.

    The Monte Carlo ensembles of all cells run first, as the rows of few
    lockstep batches; then each cell's analytic quantities.  Failures are
    encoded per cell, never dropped, and results are merged in grid order
    regardless of scheduling.  Returns the CSV header and rows, and one
    {cell, quantity, message} entry per exception raised in a cell and per
    quantity rerun after a worker process died, where cell holds the cell's
    parameter values.
    """
    coords, assignments, sim, cells, batches = _sweep_plan(cfg)
    quantities = tuple(dict.fromkeys(cfg.sweep.quantities))
    analytic = tuple(q for q in quantities if q not in _ENSEMBLE_QUANTITIES)
    ensemble = tuple(q for q in quantities if q in _ENSEMBLE_QUANTITIES)
    groups = []
    if ensemble:
        # cells that fail their checks before stepping are in no batch; their
        # run_ensembles call steps nothing and returns the errors
        stepped = {i for batch in batches for i in batch}
        rest = [i for i in range(len(cells)) if i not in stepped]
        groups = batches + ([rest] if rest else [])
    tasks = [(_ensemble_batch, (sim, [cells[i] for i in g])) for g in groups]
    if analytic:
        tasks += [(_sweep_cell, (cfg, a, analytic)) for a in assignments]
    results, rerun = _run_tasks(tasks, threads)

    n = len(coords)
    values = [{} for _ in range(n)]
    failures = [{} for _ in range(n)]  # per cell: {quantity: (type, message)}
    reruns = [set() for _ in range(n)]  # per cell: the quantities rerun here
    rerun = set(rerun)
    for t, (group, outs) in enumerate(zip(groups, results)):
        for i, out in zip(group, outs):
            if isinstance(out, dict):
                values[i].update(out)
            else:
                values[i].update(dict.fromkeys(_ENSEMBLE_QUANTITIES, math.nan))
                failures[i][ensemble[0]] = out
            if t in rerun:
                reruns[i].update(ensemble)
    for i, (cell_values, cell_failures) in enumerate(results[len(groups):]):
        values[i].update(cell_values)
        failures[i].update(cell_failures)
        if len(groups) + i in rerun:
            reruns[i].update(analytic)

    axes = cfg.sweep.axes
    header = [ax.param for ax in axes] + list(cfg.sweep.quantities) + ["error"]
    rows = []
    cell_errors = []
    for i, point in enumerate(coords):
        error = ""
        cell = {ax.param: float(a) for ax, a in zip(axes, point)}
        for q in quantities:
            if q in reruns[i]:
                cell_errors.append(
                    {"cell": cell, "quantity": q, "message": _RERUN_MESSAGE}
                )
            if q in failures[i]:
                kind, message = failures[i][q]
                error = error or kind
                cell_errors.append({"cell": cell, "quantity": q, "message": message})
        rows.append(
            list(point)
            + [values[i].get(q, math.nan) for q in cfg.sweep.quantities]
            + [error]
        )
    return header, rows, cell_errors


def _cmd_sweep(cfg: RunConfig, out_dir, t0, threads: int) -> int:
    header, rows, cell_errors = run_sweep(cfg, threads=threads)
    meta = _base_meta(cfg, "sweep", t0)
    meta["threads"] = threads
    meta["cell_errors"] = cell_errors
    _, _, sim, _, batches = _sweep_plan(cfg)
    meta["mc_batches"] = [
        {"cells": len(batch), "rows": len(batch) * sim.n_traj} for batch in batches
    ]
    emit_csv(_out_path(cfg, out_dir, "sweep"), header, rows, meta)
    return 1 if any(row[-1] for row in rows) else 0


_COMMANDS = {
    "freq": _cmd_freq,
    "spd": _cmd_spd,
    "power": _cmd_power,
    "snr": _cmd_snr,
    "mcs": _cmd_mcs,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harvest",
        description="Delay-controlled bi-stable energy harvester toolkit",
    )
    parser.add_argument(
        "subcommand",
        choices=["freq", "spd", "power", "snr", "mcs", "sweep", "compare"],
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. --set system.mu=-0.01",
    )
    parser.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="worker processes for sweeps",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        with open(args.config, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read config {args.config}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON in {args.config}: {e}", file=sys.stderr)
        return 2

    try:
        if not isinstance(doc, dict):
            raise ConfigError("top level: expected a JSON object")
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set {override!r}: expected KEY=VALUE")
            key, value = override.split("=", 1)
            apply_override(doc, key, value)
        if args.seed is not None:
            doc.setdefault("sim", {})["seed"] = args.seed
        cfg = parse_config(doc)
        if args.subcommand == "sweep":
            return _cmd_sweep(cfg, args.out, t0, max(1, args.threads))
        return _COMMANDS[args.subcommand](cfg, args.out, t0)
    except HarvestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
