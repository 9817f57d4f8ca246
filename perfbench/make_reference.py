"""Recompute perfbench/reference.json, the values the benchmark checks against.

Usage (from the repository root): python3 perfbench/make_reference.py [workers]

- delay-sweep: analytic power and SNR on the whole criterion-08 delay grid
  (21 x 31, step 0.1), so any seed's sub-grid can be checked.
- noise-sweep: power and SNR per D cell, a per-cell power tolerance, and
  v_rms and efficiency for each of REFERENCE_SEEDS.
- mcs-psd: mean_power, v_rms and the spectral SNR for each of REFERENCE_SEEDS.

The Monte Carlo seeds are disjoint from the small seeds the benchmark is
usually run with.  Takes a few minutes on two workers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from harvest import averaging, mcs, resonance  # noqa: E402
from harvest.averaging import GridSpec  # noqa: E402
from harvest.config import parse_config  # noqa: E402

REFERENCE_SEEDS = list(range(1001, 1017))
# Refinement used for the noise-sweep power tolerance: the tail-checked grid
# of joint_spd, with 1.6x the points per axis.
REFINE = 1.6


def _config(name: str, seed: int = 0):
    return parse_config(workloads.make(name, seed).doc)


def delay_cell(ij):
    i, j = ij
    cfg = _config("delay-sweep")
    system = dataclasses.replace(cfg.system, tau1=round(i * workloads.DELAY_STEP, 10),
                                 tau2=round(j * workloads.DELAY_STEP, 10))
    return (i, j, averaging.mean_power(system, cfg.noise),
            resonance.snr(system, cfg.noise, cfg.excitation))


def noise_D_values() -> np.ndarray:
    ax = workloads.NOISE_AXIS
    return np.geomspace(ax["start"], ax["stop"], ax["count"])


def noise_analytic(k):
    cfg = _config("noise-sweep")
    noise = dataclasses.replace(cfg.noise, D=float(noise_D_values()[k]))
    power = averaging.mean_power(cfg.system, noise)
    tails = averaging.joint_spd(cfg.system, noise)
    wide = GridSpec(float(tails.x[0]), float(tails.x[-1]), int(len(tails.x) * REFINE),
                    float(tails.v[0]), float(tails.v[-1]), int(len(tails.v) * REFINE))
    refined = averaging.mean_power(cfg.system, noise, grid=wide)
    change = abs(refined - power) / abs(power)
    return (k, power, resonance.snr(cfg.system, noise, cfg.excitation),
            change, max(0.01, 3.0 * change))


def noise_mc(task):
    k, seed = task
    cfg = _config("noise-sweep", seed)
    noise = dataclasses.replace(cfg.noise, D=float(noise_D_values()[k]))
    est = mcs.run_ensemble(cfg.system, noise, cfg.excitation, cfg.sim)
    return k, seed, est.v_rms, est.efficiency_pct


def mcs_run(seed):
    cfg = _config("mcs-psd", seed)
    est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
    psd = mcs.estimate_snr_psd(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
    return seed, est.mean_power, est.v_rms, est.n_divergent, psd.estimate


def main() -> int:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    ctx = multiprocessing.get_context("spawn")
    n1, n2 = workloads.DELAY_SHAPE
    n_D = workloads.NOISE_AXIS["count"]
    with ctx.Pool(workers) as pool:
        delay = pool.map(delay_cell, [(i, j) for i in range(n1) for j in range(n2)])
        analytic = pool.map(noise_analytic, range(n_D))
        mc = pool.map(noise_mc, [(k, s) for k in range(n_D) for s in REFERENCE_SEEDS])
        runs = pool.map(mcs_run, REFERENCE_SEEDS)

    power = np.zeros((n1, n2))
    snr = np.zeros((n1, n2))
    for i, j, pw, sn in delay:
        power[i, j], snr[i, j] = pw, sn
    v_rms = [[v for k2, _, v, _ in mc if k2 == k] for k in range(n_D)]
    eff = [[e for k2, _, _, e in mc if k2 == k] for k in range(n_D)]
    if any(r[3] for r in runs):
        print("error: divergent trajectories in the mcs-psd reference", file=sys.stderr)
        return 1
    reference = {
        "seeds": REFERENCE_SEEDS,
        "delay-sweep": {
            "tau1": [round(i * workloads.DELAY_STEP, 10) for i in range(n1)],
            "tau2": [round(j * workloads.DELAY_STEP, 10) for j in range(n2)],
            "power": power.tolist(),
            "snr": snr.tolist(),
        },
        "noise-sweep": {
            "D": noise_D_values().tolist(),
            "power": [a[1] for a in analytic],
            "snr": [a[2] for a in analytic],
            "power_refinement_change": [a[3] for a in analytic],
            "power_rel_tol": [a[4] for a in analytic],
            "v_rms": v_rms,
            "efficiency": eff,
        },
        "mcs-psd": {
            "mean_power": [r[1] for r in runs],
            "v_rms": [r[2] for r in runs],
            "psd_snr": [r[4] for r in runs],
        },
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    line = [r[4] for r in runs]
    margin = min(line) / (workloads.LINE_SIGMAS * statistics.stdev(line))
    print(f"wrote {workloads.REFERENCE_PATH}; weakest drive line is {margin:.2f}x "
          f"the detection threshold", file=sys.stderr)
    return 0 if margin > 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
