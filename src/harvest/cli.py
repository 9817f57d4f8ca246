"""Command-line entry point: subcommand dispatch, sweeps, and CSV emission.

Every run reads one JSON config document (config.read_document, which
applies --set and --seed), and each subcommand returns its outputs, which main
writes as CSV data plus a sibling .meta.json provenance file each.
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
from .config import RunConfig, parse_config, read_document
from .errors import ConfigError, HarvestError, LinearResponseError
from .freq import build_table, exclusion_band
from .model import harvested_power, seed_frequency, well_depth

# The one number format, 12 significant digits; it prints nan and +-inf as
# "nan", "inf" and "-inf".
_FMT = "%.11e"
# an (x, v, density) row, the _fmt join of its values
_DENSITY_ROW = ",".join([_FMT] * 3) + "\n"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FMT % float(value)


def emit_csv(path: str, header: list[str], rows: list[list] | str, meta: dict) -> None:
    """Write rows at 12 significant digits plus a sibling .meta.json; rows
    is a list of value rows, or the rows already formatted as one string."""
    if not isinstance(rows, str):
        rows = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(header) + "\n")
            f.write(rows)
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
        "exclusion_band": exclusion_band(cfg.system),
        "tolerances": {
            "frequency_fixed_point": freq._TOL,
            "orbit_quadrature_rel": freq._ORBIT_REL_TOL,
            "significant_digits": 12,
        },
        "wall_time_s": time.monotonic() - t0,
    }


def _power_report(cfg: RunConfig) -> dict:
    """The .meta.json report of an analytic power: averaging.power_accuracy,
    with the tolerance above which any of its values flags it."""
    acc = averaging.power_accuracy(cfg.system, cfg.noise)
    tol = averaging.POWER_REL_TOL
    return {
        "rel_err": acc.rel_err,
        "band_share": acc.band_share,
        "top_share": acc.top_share,
        "rel_tol": tol,
        "flagged": any(v > tol for v in (acc.rel_err, acc.band_share, acc.top_share)),
    }


# Each _cmd_* takes (cfg, threads) and returns (outputs, exit code); main
# writes each (suffix, header, rows, extra meta) of outputs to
# <dir>/<prefix>_<suffix>.csv.  A run that steps an ensemble records the
# lane it stepped with (mcs.lane()) in its extra meta; no other run asks, so
# no other run builds the compiled step loop.


def _cmd_freq(cfg: RunConfig, threads: int):
    table = build_table(cfg.system)
    rows = [
        [H, om, "well"] for H, om in zip(table.H_neg, table.omega_neg)
    ] + [[H, om, "crosswell"] for H, om in zip(table.H_pos, table.omega_pos)]
    return [("freq", ["H", "omega", "regime"], rows, {})], 0


def _density_csv(fld) -> tuple[list[str], str]:
    """Header and formatted (x, v, density) rows of a density field, x-major."""
    x, v = np.meshgrid(fld.x, fld.v, indexing="ij")
    rows = np.stack([x, v, fld.values], axis=-1).reshape(-1, 3).tolist()
    return ["x", "v", "density"], "".join([_DENSITY_ROW % tuple(r) for r in rows])


def _cmd_spd(cfg: RunConfig, threads: int):
    fld = averaging.joint_spd(cfg.system, cfg.noise, cfg.sim.grid)
    return [("spd", *_density_csv(fld), {"norm_const": fld.norm_const})], 0


def _cmd_power(cfg: RunConfig, threads: int):
    p = cfg.system
    ev2 = averaging.mean_square_voltage(p, cfg.noise)
    header = ["mean_power", "mean_square_voltage", "well_depth"]
    rows = [[harvested_power(p, ev2), ev2, well_depth(p, seed_frequency(p))]]
    return [("power", header, rows, {"report": {"power": _power_report(cfg)}})], 0


def _cmd_snr(cfg: RunConfig, threads: int):
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
    return [("snr", header, rows, {})], 0 if r.linear_response_ok else 1


def _cmd_mcs(cfg: RunConfig, threads: int):
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
    lane = {"lane": mcs.lane()}
    # an empty histogram raises here, before main writes any CSV
    hist = ("mcs_hist", *_density_csv(est.histogram), lane)
    return [("mcs", header, rows, lane), hist], 1 if est.n_divergent else 0


def _cmd_compare(cfg: RunConfig, threads: int):
    analytic = averaging.mean_power(cfg.system, cfg.noise)
    # compare reports no spectral SNR, so it runs no psd checks or sums
    sim = dataclasses.replace(cfg.sim, psd=None)
    est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, sim)
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
    meta = {"report": {"power": _power_report(cfg)}, "lane": mcs.lane()}
    return [("compare", header, rows, meta)], 1 if est.n_divergent else 0


def _cell_config(cfg: RunConfig, assignments) -> RunConfig:
    for param, value in assignments:
        block, key = param.split(".", 1)
        target = dataclasses.replace(getattr(cfg, block), **{key: float(value)})
        cfg = dataclasses.replace(cfg, **{block: target})
    return cfg


# Quantities read off one shared Monte Carlo ensemble run per cell, each from
# its EnsembleEstimates field.
_ENSEMBLE_QUANTITIES = {"v_rms": "v_rms", "efficiency": "efficiency_pct"}

_RERUN_MESSAGE = "rerun in the main process after a worker process died"


def _failure(e: Exception) -> tuple[str, str]:
    return type(e).__name__, str(e)


def _sweep_cell(cfg: RunConfig, quantities):
    """Analytic quantities of one cell, as {quantity: value or (error type,
    message)}, and a computed power's _power_report under "power_report"."""
    out = {}
    for q in quantities:
        try:
            if q == "power":
                out[q] = averaging.mean_power(cfg.system, cfg.noise)
                out["power_report"] = _power_report(cfg)
            elif q == "snr":
                out[q] = resonance.snr(cfg.system, cfg.noise, cfg.excitation)
                if math.isnan(out[q]):
                    raise LinearResponseError(
                        "linear response fails (q >= 1): the two-state SNR is "
                        "undefined"
                    )
            elif q == "well_depth":
                out[q] = well_depth(cfg.system, seed_frequency(cfg.system))
            elif q == "omega_eq":
                out[q] = resonance.snr_equilibria(cfg.system)[2]
        except Exception as e:
            # any failure is confined to this cell so the other rows survive
            out[q] = _failure(e)
    return out


def _system_cells(args):
    """_sweep_cell of each cell of one system, sharing its energy nodes."""
    configs, quantities = args
    return [_sweep_cell(c, quantities) for c in configs]


def _ensemble_values(est, quantity: str):
    """{quantity: value or (error type, message)} of one cell's ensemble
    estimates and their n_divergent, or of the exception it raised, filed
    under quantity."""
    if isinstance(est, Exception):
        return {**dict.fromkeys(_ENSEMBLE_QUANTITIES, math.nan), quantity: _failure(est)}
    out = {q: getattr(est, field) for q, field in _ENSEMBLE_QUANTITIES.items()}
    return {**out, "n_divergent": est.n_divergent}


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
    unfinished, and any task not yet submitted when the pool broke, are
    rerun here, one after another.
    """
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(arg) for fn, arg in tasks], []
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    results = [None] * len(tasks)
    rerun = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        try:
            for fn, arg in tasks:
                futures.append(pool.submit(fn, arg))
        except BrokenProcessPool:  # a worker died before the last submit
            pass
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                rerun.append(i)
    rerun += range(len(futures), len(tasks))
    for i in rerun:
        fn, arg = tasks[i]
        results[i] = fn(arg)
    return results, rerun


def run_sweep(cfg: RunConfig, threads: int = 1):
    """Evaluate the configured quantities over the 1-D or 2-D parameter grid.

    Each cell's config is built once.  The cells' Monte Carlo ensembles are
    planned once (mcs.plan) and run first, as the rows of few lockstep
    batches; then the analytic quantities, one task per system, so each
    system's energy nodes are built once at any axis order or pool size.  A
    task gives each of its cells one {quantity: value or (error type,
    message)} map, merged in grid order regardless of scheduling.  Returns
    the CSV header and rows, where a failed quantity reads NaN, one {cell,
    quantity, message} entry per exception raised in a cell, per cell with
    divergent trajectories and per quantity rerun after a worker process
    died, where cell holds the cell's parameter values, the lockstep batches
    of cell indices that were stepped, and the {cell, **_power_report} of
    each cell whose power was computed.
    """
    if cfg.sweep is None:
        raise ConfigError("config has no sweep block")
    axes = cfg.sweep.axes
    coords = list(itertools.product(*(ax.values() for ax in axes)))
    configs = [_cell_config(cfg, zip([ax.param for ax in axes], p)) for p in coords]
    quantities = tuple(dict.fromkeys(cfg.sweep.quantities))
    analytic = tuple(q for q in quantities if q not in _ENSEMBLE_QUANTITIES)
    ensemble = tuple(q for q in quantities if q in _ENSEMBLE_QUANTITIES)
    results = [{} for _ in coords]  # per cell: {quantity: value or failure}
    reruns = [set() for _ in coords]  # per cell: the quantities rerun here
    tasks = []  # (fn, arg, the cells its result lists)
    batches = []
    if ensemble:
        # build or load the step loop here, once: a failure raises before any
        # batch is submitted, and forked workers inherit the loaded library
        mcs.lane()
        # a sweep reports no spectral SNR, so it runs no psd checks or sums
        sim = dataclasses.replace(cfg.sim, psd=None)
        cells = [(c.system, c.noise, c.excitation) for c in configs]
        batches, unsteppable = mcs.plan(cells, sim)
        for i, e in unsteppable.items():
            results[i] = _ensemble_values(e, ensemble[0])
        tasks += [
            (_ensemble_batch, (sim, [cells[i] for i in b], ensemble[0]), b)
            for b in batches
        ]
    if analytic:
        # every analytic power reads GridSpec(): cells of a system share nodes
        systems = {}
        for i, c in enumerate(configs):
            systems.setdefault(c.system, []).append(i)
        tasks += [
            (_system_cells, ([configs[i] for i in ids], analytic), ids)
            for ids in systems.values()
        ]
    outs, rerun = _run_tasks([task[:2] for task in tasks], threads)

    for t, ((_, _, cells_t), outs_t) in enumerate(zip(tasks, outs)):
        for i, out in zip(cells_t, outs_t):
            results[i].update(out)
            if t in rerun:
                reruns[i].update(out)

    header = [ax.param for ax in axes] + list(cfg.sweep.quantities) + ["error"]
    rows = []
    cell_errors = []
    power_reports = []
    for point, out, rerun_q in zip(coords, results, reruns):
        error = ""
        cell = {ax.param: float(a) for ax, a in zip(axes, point)}
        for q in quantities:
            if q in rerun_q:
                cell_errors.append(
                    {"cell": cell, "quantity": q, "message": _RERUN_MESSAGE}
                )
            if isinstance(out[q], tuple):
                kind, message = out[q]
                out[q] = math.nan  # the row reads NaN
                error = error or kind
                cell_errors.append({"cell": cell, "quantity": q, "message": message})
        if out.get("n_divergent"):  # filed under the first ensemble quantity
            message = f"{out['n_divergent']} of {cfg.sim.n_traj} trajectories diverged"
            cell_errors.append({"cell": cell, "quantity": ensemble[0], "message": message})
        if "power_report" in out:
            power_reports.append({"cell": cell, **out["power_report"]})
        rows.append(list(point) + [out[q] for q in cfg.sweep.quantities] + [error])
    return header, rows, cell_errors, batches, power_reports


def _cmd_sweep(cfg: RunConfig, threads: int):
    header, rows, cell_errors, batches, power_reports = run_sweep(cfg, threads=threads)
    meta = {
        "threads": threads,
        "cell_errors": cell_errors,
        "report": {"power": power_reports},
        "mc_batches": [
            {"cells": len(batch), "rows": len(batch) * cfg.sim.n_traj}
            for batch in batches
        ],
    }
    if any(q in _ENSEMBLE_QUANTITIES for q in cfg.sweep.quantities):
        meta["lane"] = mcs.lane()
    # a rerun gives the cell's values bit for bit, so it alone flags nothing
    flagged = any(e["message"] != _RERUN_MESSAGE for e in cell_errors)
    return [("sweep", header, rows, meta)], 1 if flagged else 0


_COMMANDS = {
    "freq": _cmd_freq,
    "spd": _cmd_spd,
    "power": _cmd_power,
    "snr": _cmd_snr,
    "mcs": _cmd_mcs,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harvest",
        description="Delay-controlled bi-stable energy harvester toolkit",
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
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
        cfg = parse_config(read_document(args.config, args.set, args.seed))
        outputs, code = _COMMANDS[args.subcommand](cfg, max(1, args.threads))
        directory = cfg.output.dir if args.out is None else args.out
        for suffix, header, rows, extra_meta in outputs:
            path = os.path.join(directory, f"{cfg.output.prefix}_{suffix}.csv")
            meta = {**_base_meta(cfg, args.subcommand, t0), **extra_meta}
            emit_csv(path, header, rows, meta)
    except HarvestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code

if __name__ == "__main__":
    sys.exit(main())
