"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import copy
import csv
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.leaf", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0],
            ["c", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_percentile_keeps_ten_samples_above():
    pct, value = spans.tail_percentile([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(200.0 / 3.0)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _write(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _delay_rows(ref, seed):
    w = workloads.make("delay-sweep", seed)
    ax1, ax2 = w.doc["sweep"]["axes"]
    rows = []
    for k in range(ax1["count"]):
        t1 = ax1["start"] + k * (ax1["stop"] - ax1["start"]) / (ax1["count"] - 1)
        for m in range(ax2["count"]):
            t2 = ax2["start"] + m * (ax2["stop"] - ax2["start"]) / (ax2["count"] - 1)
            i, j = round(t1 / 0.1), round(t2 / 0.1)
            d = ref["delay-sweep"]
            rows.append([t1, t2, d["power"][i][j], d["snr"][i][j], ""])
    return w, ["system.tau1", "system.tau2", "power", "snr", "error"], rows


@pytest.mark.parametrize("seed", [1, 7])
def test_delay_checker_accepts_reference_and_rejects_perturbation(
    tmp_path, reference, seed
):
    w, header, rows = _delay_rows(reference, seed)
    path = str(tmp_path / "out.csv")
    _write(path, header, rows)
    assert workloads.check(w, 0, path, reference).failed == 0

    bad = copy.deepcopy(rows)
    bad[3][3] *= 1.0 + 1e-4
    _write(path, header, bad)
    res = workloads.check(w, 0, path, reference)
    assert res.failed == 1 and "snr" in res.problems[0]

    bad = copy.deepcopy(rows)
    bad[5][2] *= 1.05
    _write(path, header, bad)
    assert workloads.check(w, 0, path, reference).failed == 1

    assert workloads.check(w, 1, path, reference).failed == w.cells


def test_noise_checker_rejects_lost_cell_and_non_unimodal_snr(tmp_path, reference):
    w = workloads.make("noise-sweep", 1)
    r = reference["noise-sweep"]
    header = ["noise.D", "power", "snr", "v_rms", "efficiency", "error"]
    rows = [[D, p, s, v[0], e[0], ""] for D, p, s, v, e in zip(
        r["D"], r["power"], r["snr"], r["v_rms"], r["efficiency"])]
    path = str(tmp_path / "out.csv")
    _write(path, header, rows)
    assert workloads.check(w, 0, path, reference).failed == 0

    bad = copy.deepcopy(rows)
    bad[2][3], bad[2][5] = math.nan, "ParameterError"
    _write(path, header, bad)
    assert workloads.check(w, 0, path, reference).failed == 1

    bad = copy.deepcopy(rows)
    bad[0][2] = 10 * max(r["snr"])
    _write(path, header, bad)
    res = workloads.check(w, 0, path, reference)
    assert res.failed == w.cells
    assert any("unimodal" in p for p in res.problems)


def test_noise_checker_allows_one_upward_escape_cell(tmp_path, reference):
    w = workloads.make("noise-sweep", 1)
    r = reference["noise-sweep"]
    header = ["noise.D", "power", "snr", "v_rms", "efficiency", "error"]
    rows = [[D, p, s, v[0], e[0], ""] for D, p, s, v, e in zip(
        r["D"], r["power"], r["snr"], r["v_rms"], r["efficiency"])]
    path = str(tmp_path / "out.csv")

    # seed 204's D = 0.0072 cell, one trajectory of 8 escaped the well
    escaped = copy.deepcopy(rows)
    escaped[3][3] = 0.2369
    _write(path, header, escaped)
    assert workloads.check(w, 0, path, reference).failed == 0

    for changes in ({3: 0.2369, 1: 0.2}, {3: 0.5 * rows[3][3]}, {3: 5.0}):
        bad = copy.deepcopy(rows)
        for i, v in changes.items():
            bad[i][3] = v
        _write(path, header, bad)
        assert workloads.check(w, 0, path, reference).failed == len(changes), changes


def test_mcs_checker_rejects_divergence_and_missing_line(tmp_path, reference):
    w = workloads.make("mcs-psd", 1)
    r = reference["mcs-psd"]
    header = ["mean_power", "v_rms", "efficiency_pct", "efficiency_defined",
              "n_divergent", "n_samples", "psd_snr", "psd_snr_stderr"]
    good = [r["mean_power"][0], r["v_rms"][0], 20.0, 1, 0, 1000, r["psd_snr"][0], 1.0]
    path = str(tmp_path / "out.csv")
    _write(path, header, [good])
    assert workloads.check(w, 0, path, reference).failed == 0
    for col, value in ((4, 1), (6, 1.0), (0, 2 * good[0])):
        bad = list(good)
        bad[col] = value
        _write(path, header, [bad])
        assert workloads.check(w, 0, path, reference).failed == 1, col


def test_unimodal():
    assert workloads.is_unimodal([1, 2, 3, 2, 1])
    assert not workloads.is_unimodal([1, 2, 1, 2, 1])
    assert not workloads.is_unimodal([1, 2, 3])


def _tiny_mcs(psd: bool) -> workloads.Workload:
    sim = {"dt": 0.01, "t_total": 20.0, "t_transient": 2.0, "n_traj": 3, "seed": 4}
    if psd:
        sim["psd"] = {"segment_time": 13.0, "n_bootstrap": 20}
    doc = {"system": dict(workloads.SYSTEM), "noise": dict(workloads.NOISE),
           "excitation": {"eps": 1.0, "G": 0.3, "Omega": 5.0}, "sim": sim,
           "output": {"dir": "out", "prefix": "tiny"}}
    return workloads.Workload("mcs-psd", "mcs", doc, 1, 3 * 2000)


@pytest.mark.parametrize("psd, ratio, ensembles", [(True, 0.5, 2), (False, 1.0, 1)])
def test_useful_step_ratio_on_tiny_mcs(tmp_path, psd, ratio, ensembles):
    w = _tiny_mcs(psd)
    inv = run.Runner(w, str(tmp_path)).launch("trace", threads=1)
    assert inv.ok and inv.exit_code == 0, inv.stderr
    m = spans.layer_metrics(inv.trace, w.requested_steps, 1, inv.wall_s)
    assert m["kernels.useful_step_ratio"] == ratio
    assert m["mcs.run_ensemble.calls"] == ensembles
    assert m["kernels.steps_executed"] == ensembles * 3 * 2000
    assert m["freq.build_table.calls"] == 0
    assert m["config.parse_config.s"] > 0


def test_install_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    gone = ("freq.gone", [("harvest.freq", "no_such_function"),
                          ("harvest.no_such_module", "f")])
    monkeypatch.setattr(spans, "COUNTED", spans.COUNTED + [gone])
    tracer = spans.Tracer()
    tracer.install()
    assert "freq.gone" not in tracer.counts
    assert "freq.brentq" in tracer.counts
