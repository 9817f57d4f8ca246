"""A fixed piece of work that measures the host's current speed.

The benchmark host is a shared VM whose vCPUs each switch between speeds up to
about 2x apart, over seconds to minutes and independently of each other.  Raw
times of the same code then spread by 20-40% between sets of runs.  The
benchmark pins itself and its children to one CPU, times this yardstick there
before and after every invocation, and scales the invocation's times by
REF_S / (mean of the two yardstick times): every time it reports is in
seconds at the host speed at which the yardstick takes REF_S.

The yardstick uses only Python and numpy, never harvest, so no change to the
program under test changes it.  Like the workloads, it is bound by the
interpreter and numpy's per-call overhead on small arrays: a semi-implicit
Euler loop over 100 oscillators.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 100_000
# About the yardstick's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) in
# its faster phase, so that scaled times read close to raw ones there.
REF_S = 0.6


def seconds(steps: int = STEPS) -> float:
    """Wall time of the fixed loop."""
    x = np.linspace(-1.0, 1.0, 100)
    v = np.zeros(100)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(steps):
        a = -0.3 * v - x * x * x + 0.1 * np.cos(0.05 * i)
        v = v + 0.01 * a
        x = x + 0.01 * v
        acc += float(x[3]) * 0.5 + i % 7
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("yardstick diverged")
    return elapsed
