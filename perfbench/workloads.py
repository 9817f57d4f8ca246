"""The benchmark's workloads: run configs made from a seed, the work each one
requests, and the checks that its CLI output is correct.

mcs-psd      one `harvest mcs` run of the delayed system with a strong drive
             and a `sim.psd` block: the wide lockstep kernel, series storage
             and the periodogram SNR.
delay-sweep  a 4 x 6 `harvest sweep` of analytic power and SNR over
             (tau1, tau2), a sub-grid of the 0.1-step grid of acceptance
             criterion 08: every cell rebuilds its frequency table; no kernel.
noise-sweep  an 8-cell log `harvest sweep` over D in [1e-3, 1e-1] with power,
             SNR, v_rms and efficiency at 8 trajectories per cell: narrow,
             overhead-bound stepping and a D-independent table per cell.

BENCHMARK.json lists mcs-psd and noise-sweep.  delay-sweep covers no layer
that noise-sweep misses and is left out there so the other two get longer,
steadier runs; it runs with --workload delay-sweep or --workload all.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Every CLI run gets an explicit worker count instead of the CLI default
# os.cpu_count().  The measured runs use one worker, so a sweep runs in the
# CLI's own process: a pool of nproc (2) workers is timed by its slower vCPU,
# and on a shared host whose vCPU speeds drift apart that made the noise-sweep
# time spread by a quarter to a third between sets of runs.  The traced run
# still times the pool at POOL_THREADS workers for cli.pool_efficiency.
RUN_THREADS = 1
POOL_THREADS = 2

SYSTEM = {
    "delta1": 3.0, "delta3": 3.0, "kappa": 0.3, "alpha": 0.05, "beta": 0.02,
    "mu": -0.005, "nu": 0.005, "tau1": 0.6, "tau2": 2.5,
}
NOISE = {"D": 0.005, "c": 0.3}
SWEEP_EXCITATION = {"eps": 0.1, "G": 0.1, "Omega": 0.05}
# strong enough drive for a detectable spectral line (as in the mcs tests)
LINE_EXCITATION = {"eps": 1.0, "G": 0.3, "Omega": 0.5}

MCS_SIM = {
    "dt": 0.01, "t_total": 260.0, "t_transient": 10.0, "n_traj": 100,
    "psd": {"segment_time": 250.0, "n_bootstrap": 200},
}
NOISE_SIM = {"dt": 0.01, "t_total": 40.0, "t_transient": 10.0, "n_traj": 8}
NOISE_AXIS = {"param": "noise.D", "start": 1e-3, "stop": 1e-1, "count": 8, "scale": "log"}

# Sub-grid of the criterion-08 delay grid (step 0.1, tau1 in [0, 2], tau2 in
# [0, 3]): every 5th sample on both axes, offset by the seed.  24 cells split
# evenly into the pool's chunks of 4 over POOL_THREADS workers.
DELAY_STEP = 0.1
DELAY_SHAPE = (21, 31)
DELAY_STRIDE = (5, 5)
DELAY_COUNT = (4, 6)

# Tolerances of the checks.
#   SNR is a closed form with no grid or table: a reordering of its
#   floating-point arithmetic moves it by far less than 1e-6.
SNR_REL_TOL = 1e-6
#   Analytic power on the fixed 201^2 grid is planned to be corrected (tail
#   check and refinement).  At D = 0.005, the delay sweep's intensity, that
#   correction is 0.33%; the tolerance is three times it.  The noise sweep
#   stores a per-cell tolerance in the reference: three times the measured
#   change from a refined, wider grid, and at least 1%.
DELAY_POWER_REL_TOL = 0.01
#   Monte Carlo estimates may differ from the mean over the reference seeds
#   by this many between-seed standard deviations (inflated by the error of
#   that mean).  Efficiency is a ratio estimator with a heavy upper tail, so
#   it is compared in log space.
MC_SIGMAS = 5.0
#   A drive line is detected when the spectral SNR exceeds this many
#   between-seed standard deviations of the reference estimate.  (The
#   bootstrap standard error of one run is heavy-tailed: one reference seed
#   with SNR 11.9 has a bootstrap error of 4.2.)
LINE_SIGMAS = 3.0
#   In the noise sweep a trajectory may escape over the potential barrier into
#   the large orbit through both wells.  At D <= 0.0072 that is rare (none in
#   the 16 reference seeds), but it happens: with seed 204 one of the 8
#   trajectories crosses x = 0 once and the D = 0.0072 cell reads v_rms 0.237
#   against 0.125 +- 0.012.  An escape only raises v_rms.  So one cell per
#   sweep may read above its v_rms band, up to the largest reference v_rms of
#   the sweep (at D = 0.1); its Monte Carlo checks are then skipped.  A second
#   such cell, or any cell below its band, fails.
ESCAPE_CELLS = 1

NAMES = ("mcs-psd", "delay-sweep", "noise-sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    doc: dict
    cells: int
    requested_steps: float  # trajectory-steps the run asks for

    def argv(self, config_path: str, out_dir: str, threads: int = RUN_THREADS) -> list[str]:
        return [self.subcommand, "--config", config_path, "--out", out_dir,
                "--threads", str(threads)]

    def csv_name(self) -> str:
        suffix = "mcs" if self.subcommand == "mcs" else "sweep"
        return f"{self.doc['output']['prefix']}_{suffix}.csv"


def _steps(sim: dict) -> int:
    return sim["n_traj"] * int(round(sim["t_total"] / sim["dt"]))


def delay_offsets(seed: int) -> tuple[int, int]:
    """Sub-grid offsets (in grid steps) along tau1 and tau2 for a seed."""
    n1 = DELAY_SHAPE[0] - DELAY_STRIDE[0] * (DELAY_COUNT[0] - 1)
    n2 = DELAY_SHAPE[1] - DELAY_STRIDE[1] * (DELAY_COUNT[1] - 1)
    return seed % n1, (seed // n1) % n2


def make(name: str, seed: int) -> Workload:
    """The workload's run config for one seed; the same seed gives the same config."""
    seed = seed % 2**32
    base = {"system": dict(SYSTEM), "noise": dict(NOISE),
            "output": {"dir": "out", "prefix": name.replace("-", "_")}}
    if name == "mcs-psd":
        sim = dict(MCS_SIM, seed=seed)
        doc = dict(base, excitation=dict(LINE_EXCITATION), sim=sim)
        return Workload(name, "mcs", doc, 1, _steps(sim))
    if name == "delay-sweep":
        i0, j0 = delay_offsets(seed)
        axes = []
        for param, off, stride, count in zip(
            ("system.tau1", "system.tau2"), (i0, j0), DELAY_STRIDE, DELAY_COUNT
        ):
            axes.append({"param": param, "start": round(off * DELAY_STEP, 10),
                         "stop": round((off + stride * (count - 1)) * DELAY_STEP, 10),
                         "count": count})
        doc = dict(base, excitation=dict(SWEEP_EXCITATION),
                   sweep={"axes": axes, "quantities": ["power", "snr"]})
        return Workload(name, "sweep", doc, DELAY_COUNT[0] * DELAY_COUNT[1], 0)
    if name == "noise-sweep":
        sim = dict(NOISE_SIM, seed=seed)
        doc = dict(base, excitation=dict(SWEEP_EXCITATION), sim=sim,
                   sweep={"axes": [dict(NOISE_AXIS)],
                          "quantities": ["power", "snr", "v_rms", "efficiency"]})
        cells = NOISE_AXIS["count"]
        return Workload(name, "sweep", doc, cells, cells * _steps(sim))
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


def _sigma_offset(value: float, samples: list[float], log: bool = False) -> float:
    """(value - reference mean) in units of the allowed MC_SIGMAS band; nan if
    the value is not finite or not positive in log space."""
    if log:
        if not value > 0 or min(samples) <= 0:
            return math.nan
        value, samples = math.log(value), [math.log(s) for s in samples]
    allowed = MC_SIGMAS * statistics.stdev(samples) * math.sqrt(1.0 + 1.0 / len(samples))
    return (value - statistics.fmean(samples)) / allowed


def _within_sigmas(value: float, samples: list[float], log: bool = False) -> bool:
    return abs(_sigma_offset(value, samples, log)) <= 1.0


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: list[str]


def check(workload: Workload, exit_code: int, csv_path: str, ref: dict) -> CheckResult:
    """Check one CLI run's output.  Every cell is an operation; a cell fails on
    an error, an unexpected NaN, a divergence or a wrong value, and a failure
    of the whole run (exit code, row count, argmax, unimodality) fails every
    cell of it."""
    n = workload.cells
    if exit_code != 0:
        return CheckResult(n, n, [f"exit code {exit_code}"])
    try:
        header, rows = read_csv(csv_path)
    except (OSError, IndexError) as e:
        return CheckResult(n, n, [f"unreadable output: {e}"])
    if len(rows) != n:
        return CheckResult(n, n, [f"{len(rows)} rows, expected {n}"])
    table = [dict(zip(header, row)) for row in rows]
    if workload.name == "mcs-psd":
        bad, whole = _check_mcs(table[0], ref["mcs-psd"])
    elif workload.name == "delay-sweep":
        bad, whole = _check_delay(table, ref["delay-sweep"])
    else:
        bad, whole = _check_noise(table, ref["noise-sweep"])
    failed = n if whole else len({i for i, _ in bad})
    return CheckResult(n, failed, [msg for _, msg in bad] + whole)


def _check_mcs(row: dict, ref: dict):
    bad = []
    if int(_num(row["n_divergent"])) != 0:
        bad.append((0, f"{row['n_divergent']} divergent trajectories"))
    for key in ("mean_power", "v_rms", "psd_snr"):
        value = _num(row[key])
        if not _within_sigmas(value, ref[key]):
            bad.append((0, f"{key}={value:.6g} outside {MC_SIGMAS} sd of the "
                           f"reference mean {statistics.fmean(ref[key]):.6g}"))
    snr = _num(row["psd_snr"])
    threshold = LINE_SIGMAS * statistics.stdev(ref["psd_snr"])
    if not snr > threshold:
        bad.append((0, f"drive line not detected: psd_snr={snr:.4g} <= {threshold:.3g}"))
    return bad, []


def _cell_complete(i: int, row: dict, quantities) -> list:
    if row["error"]:
        return [(i, f"cell {i}: error {row['error']}")]
    return [(i, f"cell {i}: {q} is {row[q]}") for q in quantities
            if not math.isfinite(_num(row[q]))]


def _check_delay(table: list[dict], ref: dict):
    bad = []
    power = np.array(ref["power"])
    snr_ref = np.array(ref["snr"])
    idx = []
    for i, row in enumerate(table):
        bad += _cell_complete(i, row, ("power", "snr"))
        a = int(round(_num(row["system.tau1"]) / DELAY_STEP))
        b = int(round(_num(row["system.tau2"]) / DELAY_STEP))
        idx.append((a, b))
        if _rel_err(_num(row["snr"]), snr_ref[a, b]) > SNR_REL_TOL:
            bad.append((i, f"cell {i}: snr {row['snr']} vs {snr_ref[a, b]:.11e}"))
        if _rel_err(_num(row["power"]), power[a, b]) > DELAY_POWER_REL_TOL:
            bad.append((i, f"cell {i}: power {row['power']} vs {power[a, b]:.11e}"))
    whole = []
    got = [_num(row["snr"]) for row in table]
    want = [snr_ref[a, b] for a, b in idx]
    if not bad and int(np.argmax(got)) != int(np.argmax(want)):
        whole.append(f"SNR argmax at {idx[int(np.argmax(got))]}, "
                     f"reference at {idx[int(np.argmax(want))]}")
    return bad, whole


def is_unimodal(values) -> bool:
    """Rises to a single maximum and then falls (criterion 10's property)."""
    d = np.sign(np.diff(np.asarray(values, dtype=float)))
    return bool(d.size >= 2 and d[0] > 0 and d[-1] < 0
                and int(np.sum(d[1:] != d[:-1])) == 1)


def _escape_cells(table: list[dict], ref: dict) -> set[int]:
    """Cells whose v_rms reads above its band but within the sweep's range, as
    after a barrier escape; empty when more than ESCAPE_CELLS do."""
    ceiling = max(max(samples) for samples in ref["v_rms"])
    cells = {i for i, row in enumerate(table)
             if i < len(ref["v_rms"])
             and _sigma_offset(_num(row["v_rms"]), ref["v_rms"][i]) > 1.0
             and _num(row["v_rms"]) <= ceiling}
    return cells if len(cells) <= ESCAPE_CELLS else set()


def _check_noise(table: list[dict], ref: dict):
    bad = []
    escapes = _escape_cells(table, ref)
    for i, row in enumerate(table):
        bad += _cell_complete(i, row, ("power", "snr", "v_rms", "efficiency"))
        D = _num(row["noise.D"])
        if _rel_err(D, ref["D"][i]) > 1e-9:
            bad.append((i, f"cell {i}: D={D} is not the reference grid"))
            continue
        if _rel_err(_num(row["snr"]), ref["snr"][i]) > SNR_REL_TOL:
            bad.append((i, f"cell {i}: snr {row['snr']} vs {ref['snr'][i]:.11e}"))
        if _rel_err(_num(row["power"]), ref["power"][i]) > ref["power_rel_tol"][i]:
            bad.append((i, f"cell {i}: power {row['power']} vs {ref['power'][i]:.11e}"))
        if i in escapes:
            continue
        for key in ("v_rms", "efficiency"):
            if not _within_sigmas(_num(row[key]), ref[key][i], log=key == "efficiency"):
                bad.append((i, f"cell {i}: {key}={row[key]} outside {MC_SIGMAS} sd "
                               f"of the reference mean"))
    whole = []
    if not is_unimodal([_num(row["snr"]) for row in table]):
        whole.append("SNR is not unimodal in D")
    return bad, whole
