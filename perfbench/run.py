"""Benchmark of the harvest CLI: closed-loop runs of one workload, or of all.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Each operation is one `harvest` CLI invocation in a fresh interpreter
(`perfbench/child.py`), started only after the previous one ended, with the
sources from `src/`, one worker (`--threads 1`), BLAS threads pinned to 1 and
no bytecode written.  The loop starts another invocation only while it is
expected to end within --seconds (and runs at least once).  Every invocation's
output is checked against `perfbench/reference.json` (see workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over the
invocations: wall_s (after set-up), setup_s (interpreter launch through
`import harvest` and config parsing), cells_per_s and peak_rss_mb (largest
resident set of the invocation's process tree).  The benchmark and its
children are pinned to one CPU, and the three times are scaled to a reference
host speed by a yardstick timed on that CPU around each invocation (see
yardstick.py); the report lines give the raw medians too.

--trace 1 reports the per-layer metrics.  Each round runs the workload
untraced with a pool of workloads.POOL_THREADS workers (for
cli.pool_efficiency), untraced with one worker, and traced with one worker
(see spans.py); the last two give the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

INVOCATION_TIMEOUT_S = 150.0
# BLAS threads pinned to 1.  Bytecode writing is off so that no launch writes
# outside the work dir and every launch compiles harvest from source alike,
# whatever the caller's environment.
CHILD_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass
class Invocation:
    """One finished child run: its timings, exit status and output path."""

    ok: bool
    exit_code: int
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    csv_path: str
    lane: str | None
    trace: dict | None
    stderr: str


class Runner:
    """Launches child invocations of one workload inside a private work dir."""

    def __init__(self, workload: workloads.Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(workload.doc, f, indent=1)
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, **CHILD_ENV)

    def launch(self, mode: str, threads: int = workloads.RUN_THREADS,
               cpus: set[int] | None = None) -> Invocation:
        """Run one child to its end; `cpus` widens its CPU set from the parent's."""
        self.count += 1
        tag = f"{self.count:04d}"
        out_dir = os.path.join(self.work_dir, "out" + tag)
        result_path = os.path.join(self.work_dir, f"result{tag}.json")
        err_path = os.path.join(self.work_dir, f"stderr{tag}.txt")
        argv = self.workload.argv(self.config_path, out_dir, threads)
        with open(err_path, "w", encoding="utf-8") as err:
            t_launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, result_path, mode, "--", *argv],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
                preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
            )
            status, usage = _wait(proc, t_launch + INVOCATION_TIMEOUT_S)
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        csv_path = os.path.join(out_dir, self.workload.csv_name())
        rss_mb = usage.ru_maxrss / 1024.0
        try:
            with open(result_path, encoding="utf-8") as f:
                res = json.load(f)
        except (OSError, ValueError):
            return Invocation(False, status, 0.0, 0.0, rss_mb, csv_path, None, None,
                              stderr or f"child exit status {status}")
        marks = res["marks"]
        setup_s = marks["setup_end"] - t_launch if "setup_end" in marks else 0.0
        wall_s = marks["end"] - marks.get("setup_end", marks["end"])
        return Invocation(status == 0 and "setup_end" in marks, res["exit_code"],
                          setup_s, wall_s, rss_mb, csv_path, res["lane"],
                          res.get("trace"), stderr)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage; kill its process group on timeout.

    The usage of a reaped child includes the children it reaped itself, so
    ru_maxrss is the largest resident set in the whole process tree.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Tally:
    """Attempted and failed operations, with the first few problems seen."""

    def __init__(self, workload: workloads.Workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, inv: Invocation) -> None:
        if not inv.ok:
            n = self.workload.cells
            self.attempted += n
            self.failed += n
            self.problems.append(f"invocation failed: {inv.stderr.strip()[-500:]}")
            return
        res = workloads.check(self.workload, inv.exit_code, inv.csv_path,
                              self.reference)
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += res.problems[:5]


def _room(t0: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median round so far, ends in time."""
    return time.monotonic() - t0 + statistics.median(rounds) <= seconds


def pin_to_one_cpu() -> tuple[int | None, set[int] | None]:
    """Pin this process, and so every child it starts, to one CPU.

    Returns the CPU and the CPU set before, or (None, None) when pinning is
    refused and nothing changed.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None, None
    return cpu, allowed


def measure(workload: workloads.Workload, runner: Runner, tally: Tally,
            seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop; returns (metrics, extra figures for the report).

    A yardstick is timed before the first invocation and after each; an
    invocation's times are scaled by yardstick.REF_S over the mean of the two
    yardstick times around it.
    """
    runner.launch("setup")  # warms the file cache; not timed
    walls, setups, rss, rounds, raw_walls, raw_setups, yards = ([] for _ in range(7))
    t0 = time.monotonic()
    yards.append(yardstick.seconds())
    while not rounds or _room(t0, seconds, rounds):
        t_round = time.monotonic()
        inv = runner.launch("run")
        yards.append(yardstick.seconds())
        rounds.append(time.monotonic() - t_round)
        tally.record(inv)
        if not inv.ok:
            break
        scale = yardstick.REF_S / statistics.fmean(yards[-2:])
        walls.append(inv.wall_s * scale)
        setups.append(inv.setup_s * scale)
        raw_walls.append(inv.wall_s)
        raw_setups.append(inv.setup_s)
        rss.append(inv.peak_rss_mb)
    if not walls:
        return {}, {}
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "cells_per_s": workload.cells / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    extra = {
        "samples": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss},
        "raw": {"wall_s": statistics.median(raw_walls),
                "setup_s": statistics.median(raw_setups),
                "yardstick_s": statistics.median(yards)},
        "traj_steps_per_s": workload.requested_steps / wall,
        "lane": inv.lane,
    }
    return metrics, extra


def measure_traced(workload: workloads.Workload, runner: Runner, tally: Tally,
                   seconds: float, all_cpus: set[int] | None) -> tuple[dict, dict]:
    """Rounds of (untraced pool on all_cpus, untraced 1 worker, traced 1 worker).

    The per-layer times are raw, not scaled by the yardstick.
    """
    runner.launch("setup")
    walls, walls_1w, walls_tr, layer, rounds = [], [], [], [], []
    t0 = time.monotonic()
    while not rounds or _room(t0, seconds, rounds):
        t_round = time.monotonic()
        invs = [runner.launch("run", threads=workloads.POOL_THREADS, cpus=all_cpus),
                runner.launch("run", threads=1), runner.launch("trace", threads=1)]
        rounds.append(time.monotonic() - t_round)
        for inv in invs:
            tally.record(inv)
        if not all(inv.ok for inv in invs):
            break
        walls.append(invs[0].wall_s)
        walls_1w.append(invs[1].wall_s)
        walls_tr.append(invs[2].wall_s)
        layer.append(invs[2].trace)
    if not walls_tr:
        return {}, {}
    pool_wall = statistics.median(walls)
    per_trace = [
        spans.layer_metrics(t, workload.requested_steps, workloads.POOL_THREADS,
                            pool_wall)
        for t in layer
    ]
    metrics = {k: statistics.median(m[k] for m in per_trace) for k in per_trace[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(walls_tr) / statistics.median(walls_1w) - 1.0
    )
    metrics["traj_steps_per_s"] = workload.requested_steps / statistics.median(walls_1w)
    extra = {"samples": {"wall_pool_s": walls, "wall_1worker_s": walls_1w,
                         "wall_traced_s": walls_tr}, "lane": invs[2].lane}
    return metrics, extra


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "threads": workloads.RUN_THREADS,
        "pool_threads": workloads.POOL_THREADS,
        "blas_threads": 1,
        "yardstick_ref_s": yardstick.REF_S,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, reference: dict) -> dict:
    workload = workloads.make(name, seed)
    work_dir = os.path.join(WORK, f"{name}-{os.getpid()}-{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)  # creates WORK too
    cpu, all_cpus = pin_to_one_cpu()
    try:
        runner = Runner(workload, work_dir)
        tally = Tally(workload, reference)
        if trace:
            values, extra = measure_traced(workload, runner, tally, seconds, all_cpus)
        else:
            values, extra = measure(workload, runner, tally, seconds)
    finally:
        if all_cpus is not None:
            os.sched_setaffinity(0, all_cpus)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    complete = len(metrics) == len(wanted)
    return {
        "correct": complete and tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if complete else max(tally.attempted, 1),
        "metrics": metrics,
        "problems": tally.problems,
        "extra": extra,
        "cells": workload.cells,
        "requested_steps": workload.requested_steps,
        "pinned_cpu": cpu,
    }


def report(name: str, seed: int, result: dict) -> None:
    """Human-readable lines: every metric by name with unit and quartiles."""
    extra = result["extra"]
    samples = extra.get("samples", {})
    print(f"== {name} (seed {seed}): {result['cells']} cells, "
          f"{result['requested_steps']:.0f} requested trajectory-steps, "
          f"lane {extra.get('lane')}, pinned to CPU {result['pinned_cpu']}")
    for key, m in result["metrics"].items():
        line = f"  {key:34s} {m['value']:.6g} {m['unit']}"
        if key in spans.COMPUTED:
            line += "  (computed from array shapes)"
        if key in samples and len(samples[key]) > 1:
            q1, _, q3 = statistics.quantiles(samples[key], n=4)
            line += f"  (median of {len(samples[key])}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    if "traj_steps_per_s" in extra and result["requested_steps"]:
        print(f"  {'traj_steps_per_s':34s} {extra['traj_steps_per_s']:.6g} 1/s")
    for key, value in extra.get("raw", {}).items():
        print(f"  {'raw ' + key:34s} {value:.6g} s  (median, not scaled)")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:.6g} (of {result['attempted']} attempted)")
    for p in result["problems"][:10]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "harvest", "cli.py")):
        print(f"error: harvest sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    reference = workloads.load_reference()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    print("machine: " + json.dumps(machine(), sort_keys=True))
    if args.workload == "all":
        summary = {}
        for name in workloads.NAMES:
            res = run_workload(name, args.seed, seconds, bool(args.trace), spec,
                               reference)
            report(name, args.seed, res)
            summary[name] = {k: res[k] for k in ("correct", "attempted", "failed",
                                                 "metrics")}
        ok = all(r["correct"] for r in summary.values())
        print(json.dumps({"correct": ok, "workloads": summary}))
        return 0 if ok else 1

    res = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec,
                       reference)
    report(args.workload, args.seed, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
