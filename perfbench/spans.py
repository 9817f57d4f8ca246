"""In-memory span and counter tracing of the harvest layers, installed from outside.

The tracer replaces each traced function at the name its caller looks it up
by (a module global or a class attribute), so the package itself is not
edited.  Spans are kept as [name, start, end, parent] rows in memory and
written once, when the traced run ends.  Counted functions record calls only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (span name, [(module, attribute), ...]) for every function that gets a span.
# A function imported by name into another module is wrapped there too,
# because that module's global is what its callers resolve.
SPANNED = [
    ("cli.main", [("harvest.cli", "main")]),
    ("config.parse_config", [("harvest.cli", "parse_config")]),
    ("cli.sweep_cell", [("harvest.cli", "_sweep_cell")]),
    ("cli.emit_csv", [("harvest.cli", "emit_csv")]),
    ("averaging.mean_power", [("harvest.averaging", "mean_power")]),
    ("averaging.fields", [("harvest.averaging", "_self_consistent_fields")]),
    (
        "freq.build_table",
        [
            ("harvest.freq", "build_table"),
            ("harvest.averaging", "build_table"),
            ("harvest.cli", "build_table"),
        ],
    ),
    ("resonance.snr", [("harvest.resonance", "snr")]),
    ("mcs.run_ensemble", [("harvest.mcs", "run_ensemble")]),
    ("mcs.estimate_snr_psd", [("harvest.mcs", "estimate_snr_psd")]),
    ("kernels.chunk_batch", [("harvest._kernels", "_chunk_batch")]),
]

# (counter name, [(module, attribute), ...]) for functions that are only counted.
COUNTED = [
    ("freq.period_integral", [("harvest.freq", "period_integral")]),
    ("freq.brentq", [("harvest.freq", "brentq")]),
    ("freq.quad", [("harvest.freq", "quad")]),
    ("averaging.fields.lookups", [("harvest.freq", "FrequencyTable.lookup_bridged")]),
    ("averaging.effective_coeffs", [("harvest.averaging", "effective_coeffs")]),
]

_SPANNED_NAMES = {name for name, _ in SPANNED}

# Per-layer metrics that are computed from array shapes, not measured.
COMPUTED = {"kernels.flops_per_step", "kernels.bytes_per_step", "mcs.series_bytes"}


class Tracer:
    """Collects spans and counters of one process; single-threaded use."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.kernel_calls: list[dict] = []
        self._stack: list[int] = []

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel_probe(self, fn):
        """Record the shape of each lockstep chunk before running it.

        Reads the kernel's arguments by name; if the kernel's signature
        changes, chunks are no longer recorded and the kernel counts read 0.
        """
        sig = inspect.signature(fn)
        calls = self.kernel_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = sig.bind(*args, **kwargs).arguments
            try:
                s0, n, skip = int(b["s0"]), int(b["n"]), int(b["skip"])
                m, store = int(b["x"].shape[0]), int(b["store"])
                n_series = int(b["series"].shape[2])
            except (KeyError, AttributeError, IndexError):
                return fn(*args, **kwargs)
            calls.append({
                "m": m,
                "n": n,
                "n_post": max(0, s0 + n - max(s0, skip)),
                "store": store,
                # m x stored columns x post-transient samples x 8 bytes
                "series_bytes": m * _STORE_COLUMNS.get(store, 3) * n_series * 8,
            })
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every traced name in the imported harvest modules.

        A name that no longer exists (refactored away) is skipped, and the
        metrics built on it read 0.
        """
        for name, sites in SPANNED + COUNTED:
            for module, dotted in sites:
                *inner, attr = dotted.split(".")
                try:
                    owner = importlib.import_module(module)
                    for part in inner:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                if name == "kernels.chunk_batch":
                    fn = self._kernel_probe(fn)
                wrap = self.spanned if name in _SPANNED_NAMES else self.counted
                setattr(owner, attr, wrap(name, fn))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "kernel_calls": self.kernel_calls,
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Computed cost of one trajectory-step of the numpy lockstep kernel
# (harvest._kernels._chunk_batch), read off its array expressions: every
# numpy operation reads its operands and writes a temporary of m elements,
# so bytes count that traffic (8 per float64/int64 element, 1 per bool).
# Flops count floating-point arithmetic and comparisons.
#   always: ring-buffer writes 2x34, delayed reads 2x(80 B, 3 flops),
#           drive 16 B 1 flop, acceleration 288 B 14 flops, four masked
#           updates 97+57+57+73 B 4+2+2+3 flops, divergence test 28 B 2 flops
#   post-transient: two masked accumulations 2x(99 B, 2 flops), sample count
#           50 B 1 flop, histogram indices 2x(64 B, 3 flops), in-grid mask
#           48 B 4 flops, histogram update 50 B; per stored series column 34 B
STEP_FLOPS_ALWAYS = 3 + 3 + 1 + 14 + 4 + 2 + 2 + 3 + 2
STEP_BYTES_ALWAYS = 34 + 34 + 80 + 80 + 16 + 288 + 97 + 57 + 57 + 73 + 28
STEP_FLOPS_POST = 2 + 2 + 1 + 3 + 3 + 4
STEP_BYTES_POST = 99 + 99 + 50 + 64 + 64 + 48 + 50
STEP_BYTES_PER_COLUMN = 34
_STORE_COLUMNS = {0: 0, 1: 1, 2: 3}


def kernel_cost(calls: list[dict]) -> tuple[float, float]:
    """Computed (flops, bytes) per lockstep step, averaged over the chunks."""
    steps = sum(c["n"] for c in calls)
    if steps == 0:
        return 0.0, 0.0
    flops = bytes_ = 0.0
    for c in calls:
        cols = _STORE_COLUMNS.get(c["store"], 3)
        flops += c["m"] * (c["n"] * STEP_FLOPS_ALWAYS + c["n_post"] * STEP_FLOPS_POST)
        bytes_ += c["m"] * (
            c["n"] * STEP_BYTES_ALWAYS
            + c["n_post"] * (STEP_BYTES_POST + cols * STEP_BYTES_PER_COLUMN)
        )
    return flops / steps, bytes_ / steps


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with at least ten
    samples above it; (100, max) when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return 100.0, xs[-1]
    k = n - 11  # ten values lie above xs[k]
    return 100.0 * (k + 1) / n, xs[k]


def layer_metrics(trace: dict, requested_steps: float, workers: int,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run.

    requested_steps is the trajectory-steps the workload asks for; workers
    and untraced_wall_s describe the untraced run used for pool efficiency.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    calls = trace["kernel_calls"]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    ncalls: dict[str, int] = {}
    cell_times = []
    for (name, start, end, _), st in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + st
        ncalls[name] = ncalls.get(name, 0) + 1
        if name == "cli.sweep_cell":
            cell_times.append(end - start)

    lockstep_steps = sum(c["n"] for c in calls)
    executed = sum(c["m"] * c["n"] for c in calls)
    flops, bytes_ = kernel_cost(calls)
    kernel_s = total.get("kernels.chunk_batch", 0.0)
    pct, tail = tail_percentile(cell_times)
    return {
        "kernels.chunk_batch.self_s": self_s.get("kernels.chunk_batch", 0.0),
        "kernels.us_per_step": 1e6 * kernel_s / lockstep_steps if lockstep_steps else 0.0,
        "kernels.steps_executed": executed,
        "kernels.useful_step_ratio": requested_steps / executed if executed else 0.0,
        "kernels.flops_per_step": flops,
        "kernels.bytes_per_step": bytes_,
        "mcs.run_ensemble.calls": ncalls.get("mcs.run_ensemble", 0),
        "mcs.run_ensemble.self_s": self_s.get("mcs.run_ensemble", 0.0),
        "mcs.estimate_snr_psd.self_s": self_s.get("mcs.estimate_snr_psd", 0.0),
        "mcs.series_bytes": max((c["series_bytes"] for c in calls), default=0),
        "freq.build_table.calls": ncalls.get("freq.build_table", 0),
        "freq.build_table.self_s": self_s.get("freq.build_table", 0.0),
        "freq.period_integral.calls": counts.get("freq.period_integral", 0),
        "freq.brentq.calls": counts.get("freq.brentq", 0),
        "freq.quad.calls": counts.get("freq.quad", 0),
        "averaging.mean_power.calls": ncalls.get("averaging.mean_power", 0),
        "averaging.mean_power.self_s": self_s.get("averaging.mean_power", 0.0),
        "averaging.fields.self_s": self_s.get("averaging.fields", 0.0),
        "averaging.fields.lookups": counts.get("averaging.fields.lookups", 0),
        "averaging.effective_coeffs.calls": counts.get("averaging.effective_coeffs", 0),
        "resonance.snr.calls": ncalls.get("resonance.snr", 0),
        "resonance.snr.s": total.get("resonance.snr", 0.0),
        "cli.sweep_cell.p50_s": statistics.median(cell_times) if cell_times else 0.0,
        "cli.sweep_cell.tail_s": tail,
        "cli.sweep_cell.tail_pct": pct,
        "cli.pool_efficiency": (
            sum(cell_times) / (workers * untraced_wall_s) if cell_times else 0.0
        ),
        "cli.emit_csv.s": total.get("cli.emit_csv", 0.0),
        "config.parse_config.s": total.get("config.parse_config", 0.0),
    }
