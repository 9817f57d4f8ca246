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
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, averaging, freq, mcs, resonance
from .config import RunConfig, apply_override, parse_config
from .errors import ConfigError, HarvestError, LinearResponseError
from .freq import build_table, exclusion_band
from .model import harvested_power, seed_frequency, well_depth

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
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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
    return {
        "harvest": __version__,
        "numpy": np.__version__,
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
            "frequency_fixed_point": freq._TOL,
            "orbit_quadrature_rel": freq._ORBIT_REL_TOL,
            "significant_digits": 12,
        },
        "wall_time_s": time.monotonic() - t0,
    }


def _out_path(cfg: RunConfig, out_dir: str | None, suffix: str) -> str:
    directory = out_dir if out_dir is not None else cfg.output.dir
    return os.path.join(directory, f"{cfg.output.prefix}_{suffix}.csv")


def _cmd_freq(cfg: RunConfig, out_dir, t0) -> int:
    table = build_table(cfg.system)
    header = ["H", "omega", "regime"]
    rows = [
        [H, om, "well"] for H, om in zip(table.H_neg, table.omega_neg)
    ] + [[H, om, "crosswell"] for H, om in zip(table.H_pos, table.omega_pos)]
    emit_csv(_out_path(cfg, out_dir, "freq"), header, rows, _base_meta(cfg, "freq", t0))
    return 0


def _density_csv(fld) -> tuple[list[str], list[list]]:
    """Header and (x, v, density) rows of a density field, x-major."""
    rows = [
        [x, v, fld.values[i, j]]
        for i, x in enumerate(fld.x) for j, v in enumerate(fld.v)
    ]
    return ["x", "v", "density"], rows


def _cmd_spd(cfg: RunConfig, out_dir, t0) -> int:
    fld = averaging.joint_spd(cfg.system, cfg.noise, cfg.sim.grid)
    meta = _base_meta(cfg, "spd", t0)
    meta["norm_const"] = fld.norm_const
    emit_csv(_out_path(cfg, out_dir, "spd"), *_density_csv(fld), meta)
    return 0


def _cmd_power(cfg: RunConfig, out_dir, t0) -> int:
    p = cfg.system
    ev2 = averaging.mean_square_voltage(p, cfg.noise)
    header = ["mean_power", "mean_square_voltage", "well_depth"]
    rows = [[harvested_power(p, ev2), ev2, well_depth(p, seed_frequency(p))]]
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
    return 0 if r.linear_response_ok else 1


def _cmd_mcs(cfg: RunConfig, out_dir, t0) -> int:
    est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
    # read before anything is written: an empty histogram writes no CSV
    histogram = est.histogram
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
    emit_csv(
        _out_path(cfg, out_dir, "mcs_hist"),
        *_density_csv(histogram),
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


def _cell_config(cfg: RunConfig, assignments) -> RunConfig:
    for param, value in assignments:
        block, key = param.split(".", 1)
        target = dataclasses.replace(getattr(cfg, block), **{key: float(value)})
        cfg = dataclasses.replace(cfg, **{block: target})
    return cfg


# Quantities read off one shared Monte Carlo ensemble run per cell.
_ENSEMBLE_QUANTITIES = ("v_rms", "efficiency")

_RERUN_MESSAGE = "rerun in the main process after a worker process died"


def _failure(e: Exception) -> tuple[str, str]:
    return type(e).__name__, str(e)


def _sweep_cell(cfg: RunConfig, quantities):
    """Analytic quantities of one cell, as ({quantity: value}, {quantity:
    (error type, message)}); a failed quantity reads NaN."""
    values = {}
    failures = {}
    for q in quantities:
        try:
            if q == "power":
                values[q] = averaging.mean_power(cfg.system, cfg.noise)
            elif q == "snr":
                values[q] = resonance.snr(cfg.system, cfg.noise, cfg.excitation)
                if math.isnan(values[q]):
                    raise LinearResponseError(
                        "linear response fails (q >= 1): the two-state SNR is "
                        "undefined"
                    )
            elif q == "well_depth":
                values[q] = well_depth(cfg.system, seed_frequency(cfg.system))
            elif q == "omega_eq":
                values[q] = resonance.snr_equilibria(cfg.system)[2]
        except Exception as e:
            # any failure is confined to this cell so the other rows survive
            values[q] = math.nan
            failures[q] = _failure(e)
    return values, failures


def _system_cells(args):
    """_sweep_cell of each cell of one system, sharing one field solve."""
    configs, quantities = args
    return [_sweep_cell(c, quantities) for c in configs]


def _ensemble_values(est, quantity: str):
    """({quantity: value}, failures) of one cell's ensemble estimates, or of
    the exception it raised, filed under quantity."""
    if isinstance(est, Exception):
        return dict.fromkeys(_ENSEMBLE_QUANTITIES, math.nan), {quantity: _failure(est)}
    return {"v_rms": est.v_rms, "efficiency": est.efficiency_pct}, {}


def _ensemble_batch(args):
    """_ensemble_values of each cell of one lockstep batch of mcs.plan."""
    sim, cells, quantity = args
    return [_ensemble_values(est, quantity) for est in mcs.run_batch(cells, sim)]


def _run_tasks(tasks, threads: int):
    """fn(arg) for each (fn, arg) in tasks, in order, and the indices of the
    tasks rerun in this process.

    With more than one task and thread, every task is its own future on a
    pool of at most one worker process per task, and each result is
    collected from its future.  If a worker dies, the tasks it left
    unfinished are rerun here, one after another.
    """
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(arg) for fn, arg in tasks], []
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    results = [None] * len(tasks)
    rerun = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
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


def run_sweep(cfg: RunConfig, threads: int = 1):
    """Evaluate the configured quantities over the 1-D or 2-D parameter grid.

    Each cell's config is built once.  The cells' Monte Carlo ensembles are
    planned once (mcs.plan) and run first, as the rows of few lockstep
    batches; then the analytic quantities, one task per system, so each
    system's fields are solved once at any axis order or pool size.  Failures
    are encoded per cell, never dropped, and results are merged in grid order
    regardless of scheduling.  Returns the CSV header and rows, one {cell,
    quantity, message} entry per exception raised in a cell and per quantity
    rerun after a worker process died, where cell holds the cell's parameter
    values, and the lockstep batches of cell indices that were stepped.
    """
    if cfg.sweep is None:
        raise ConfigError("config has no sweep block")
    axes = cfg.sweep.axes
    spaces = {"linear": np.linspace, "log": np.geomspace}
    coords = list(itertools.product(
        *(spaces[ax.scale](ax.start, ax.stop, ax.count) for ax in axes)
    ))
    configs = [_cell_config(cfg, zip([ax.param for ax in axes], p)) for p in coords]
    quantities = tuple(dict.fromkeys(cfg.sweep.quantities))
    analytic = tuple(q for q in quantities if q not in _ENSEMBLE_QUANTITIES)
    ensemble = tuple(q for q in quantities if q in _ENSEMBLE_QUANTITIES)
    n = len(coords)
    values = [{} for _ in range(n)]
    failures = [{} for _ in range(n)]  # per cell: {quantity: (type, message)}
    tasks = []  # (fn, arg, the cells its result lists, the quantities it computes)
    batches = []
    if ensemble:
        # a sweep has no spectral SNR column, so it stores no series and runs
        # no periodograms
        sim = dataclasses.replace(cfg.sim, psd=None)
        cells = [(c.system, c.noise, c.excitation) for c in configs]
        batches, unsteppable = mcs.plan(cells, sim)
        for i, e in unsteppable.items():
            values[i], failures[i] = _ensemble_values(e, ensemble[0])
        tasks += [
            (_ensemble_batch, (sim, [cells[i] for i in b], ensemble[0]), b, ensemble)
            for b in batches
        ]
    if analytic:
        # every analytic power reads GridSpec(): cells of a system share fields
        systems = {}
        for i, c in enumerate(configs):
            systems.setdefault(c.system, []).append(i)
        tasks += [
            (_system_cells, ([configs[i] for i in ids], analytic), ids, analytic)
            for ids in systems.values()
        ]
    results, rerun = _run_tasks([task[:2] for task in tasks], threads)

    reruns = [set() for _ in range(n)]  # per cell: the quantities rerun here
    for t, ((_, _, cells_t, quantities_t), outs) in enumerate(zip(tasks, results)):
        for i, (cell_values, cell_failures) in zip(cells_t, outs):
            values[i].update(cell_values)
            failures[i].update(cell_failures)
            if t in rerun:
                reruns[i].update(quantities_t)

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
    return header, rows, cell_errors, batches


def _cmd_sweep(cfg: RunConfig, out_dir, t0, threads: int) -> int:
    header, rows, cell_errors, batches = run_sweep(cfg, threads=threads)
    meta = _base_meta(cfg, "sweep", t0)
    meta["threads"] = threads
    meta["cell_errors"] = cell_errors
    meta["mc_batches"] = [
        {"cells": len(batch), "rows": len(batch) * cfg.sim.n_traj}
        for batch in batches
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
    except ValueError as e:  # invalid UTF-8, or an integer beyond the digit limit
        print(f"error: cannot parse config {args.config}: {e}", file=sys.stderr)
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
            apply_override(doc, "sim.seed", str(args.seed))
        cfg = parse_config(doc)
        if args.subcommand == "sweep":
            return _cmd_sweep(cfg, args.out, t0, max(1, args.threads))
        return _COMMANDS[args.subcommand](cfg, args.out, t0)
    except HarvestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
