"""Config parsing (fail-closed), overrides, CLI subcommands, CSV output."""

import csv
import json
import math
import os

import pytest

from harvest import averaging, cli, mcs, resonance
from harvest.cli import main, run_sweep
from harvest.config import (
    SWEEP_QUANTITIES,
    apply_override,
    parse_config,
)
from harvest.errors import ConfigError, ParameterError

BASE_DOC = {
    "system": {
        "delta1": 3.0, "delta3": 3.0, "kappa": 0.3, "alpha": 0.05,
        "beta": 0.02, "mu": -0.005, "nu": 0.005, "tau1": 0.6, "tau2": 2.5,
    },
    "noise": {"D": 0.005, "c": 0.3},
    "excitation": {"eps": 0.1, "G": 0.1, "Omega": 0.05},
    "sim": {"dt": 0.01, "t_total": 120.0, "t_transient": 20.0,
            "n_traj": 4, "seed": 7},
}


def doc(**patch) -> dict:
    d = json.loads(json.dumps(BASE_DOC))
    d.update(patch)
    return d


def write_cfg(tmp_path, document) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(document))
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_happy_path_and_defaults_recorded(self):
        cfg = parse_config({"system": {"delta1": 3.0, "delta3": 3.0},
                            "noise": {"D": 0.005, "c": 0.3}})
        assert cfg.system.delta1 == 3.0
        assert cfg.excitation.eps == 0.0
        assert cfg.sim.dt == 0.01
        assert "system.kappa" in cfg.defaults_applied
        assert "excitation.eps" in cfg.defaults_applied
        assert "sim.t_total" in cfg.defaults_applied

    def test_explicit_keys_not_recorded_as_defaults(self):
        cfg = parse_config(doc())
        assert "system.mu" not in cfg.defaults_applied
        assert "sim.dt" not in cfg.defaults_applied

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ({"noise": {"D": 0.005, "c": 0.3}}, "system"),
            ({"system": {"delta1": 3.0, "delta3": 3.0}}, "noise"),
            ({"system": {"delta3": 3.0}, "noise": {"D": 0.005, "c": 0.3}},
             "system.delta1"),
            ({"system": {"delta1": 3.0, "delta3": 3.0},
              "noise": {"c": 0.3}}, "noise.D"),
        ],
    )
    def test_missing_required_named_in_error(self, document, fragment):
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            parse_config(document)

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config(doc(system={"delta1": 3.0, "delta3": 3.0, "gamma": 1.0}))
        with pytest.raises(ConfigError, match="top level"):
            parse_config(doc(extra_block={}))
        bad = doc()
        bad["sim"]["fancy"] = True
        with pytest.raises(ConfigError, match="sim"):
            parse_config(bad)

    def test_type_errors_rejected(self):
        bad = doc()
        bad["noise"]["D"] = "lots"
        with pytest.raises(ConfigError, match=r"noise\.D"):
            parse_config(bad)
        bad = doc()
        bad["system"]["delta1"] = True
        with pytest.raises(ConfigError, match=r"system\.delta1"):
            parse_config(bad)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_physical_violations_surface_as_parameter_error(self):
        bad = doc()
        bad["system"]["delta1"] = -1.0
        with pytest.raises(ParameterError):
            parse_config(bad)

    def test_sweep_validation(self):
        good = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                    "stop": 1.0, "count": 3}],
                          "quantities": ["power"]})
        cfg = parse_config(good)
        assert cfg.sweep.axes[0].scale == "linear"
        assert cfg.sweep.quantities == ("power",)

        bad = doc(sweep={"axes": [], "quantities": ["power"]})
        with pytest.raises(ConfigError, match="axes"):
            parse_config(bad)
        bad = doc(sweep={"axes": [{"param": "system.volume", "start": 0.0,
                                   "stop": 1.0, "count": 3}],
                         "quantities": ["power"]})
        with pytest.raises(ConfigError, match="sweepable"):
            parse_config(bad)
        bad = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                   "stop": 1.0, "count": 1}],
                         "quantities": ["power"]})
        with pytest.raises(ConfigError, match="count"):
            parse_config(bad)
        bad = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                   "stop": 1.0, "count": 3, "scale": "cubic"}],
                         "quantities": ["power"]})
        with pytest.raises(ConfigError, match="scale"):
            parse_config(bad)
        bad = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                   "stop": 1.0, "count": 3}],
                         "quantities": ["entropy"]})
        with pytest.raises(ConfigError, match="entropy"):
            parse_config(bad)

    def test_psd_block(self):
        d = doc()
        d["sim"]["psd"] = {"segment_time": 150.0}
        cfg = parse_config(d)
        assert cfg.sim.psd.segment_time == 150.0
        assert cfg.sim.psd.overlap == 0.5
        d["sim"]["psd"] = {"overlap": 0.5}
        with pytest.raises(ConfigError, match="segment_time"):
            parse_config(d)


class TestOverrides:
    def test_numeric_and_string_values(self):
        d = doc()
        apply_override(d, "system.mu", "-0.01")
        apply_override(d, "output.prefix", "case7")
        assert d["system"]["mu"] == -0.01
        assert d["output"]["prefix"] == "case7"

    def test_creates_missing_blocks(self):
        d = {"system": {"delta1": 3.0, "delta3": 3.0}, "noise": {"D": 0.005, "c": 0.3}}
        apply_override(d, "sim.seed", "42")
        assert d["sim"]["seed"] == 42

    def test_rejects_path_through_scalar(self):
        d = doc()
        with pytest.raises(ConfigError):
            apply_override(d, "system.delta1.sub", "1")


class TestCliCommands:
    def test_power_roundtrip(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["power", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "harvest_power.csv")
        assert header == ["mean_power", "mean_square_voltage", "well_depth"]
        power = float(rows[0][0])
        assert power > 0
        meta = json.loads((tmp_path / "harvest_power.meta.json").read_text())
        assert meta["subcommand"] == "power"
        assert meta["seed"] == 7
        assert len(meta["config_hash"]) == 64
        assert meta["lane"] == "numpy"
        assert meta["exclusion_band"] > 0

    def test_freq_output_monotone_energy(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["freq", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "harvest_freq.csv")
        assert header == ["H", "omega", "regime"]
        well = [r for r in rows if r[2] == "well"]
        cross = [r for r in rows if r[2] == "crosswell"]
        assert well and cross
        H_cross = [float(r[0]) for r in cross]
        assert H_cross == sorted(H_cross)
        assert all(float(r[1]) > 0 for r in rows)

    def test_snr_output(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["snr", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "harvest_snr.csv")
        vals = dict(zip(header, rows[0]))
        assert float(vals["snr"]) > 0
        assert float(vals["x_s_plus"]) == -float(vals["x_s_minus"])

    def test_mcs_and_seed_override(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert main(["mcs", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["mcs", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert main(["mcs", "--config", cfg_path, "--out", str(out_c),
                     "--seed", "99"]) == 0
        bytes_a = (out_a / "harvest_mcs.csv").read_bytes()
        assert bytes_a == (out_b / "harvest_mcs.csv").read_bytes()
        assert bytes_a != (out_c / "harvest_mcs.csv").read_bytes()
        assert (out_a / "harvest_mcs_hist.csv").exists()
        meta_c = json.loads((out_c / "harvest_mcs.meta.json").read_text())
        assert meta_c["seed"] == 99

    def test_compare_reruns_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["compare", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["compare", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert (out_a / "harvest_compare.csv").read_bytes() == (
            out_b / "harvest_compare.csv"
        ).read_bytes()
        header, rows = read_csv(out_a / "harvest_compare.csv")
        vals = dict(zip(header, rows[0]))
        assert float(vals["analytic_power"]) > 0
        assert float(vals["mcs_power"]) > 0

    def test_set_override_changes_result(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["power", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["power", "--config", cfg_path, "--out", str(out_b),
                     "--set", "system.mu=-0.01", "--set", "system.nu=0.01"]) == 0
        pa = float(read_csv(out_a / "harvest_power.csv")[1][0][0])
        pb = float(read_csv(out_b / "harvest_power.csv")[1][0][0])
        assert pa != pb
        meta_b = json.loads((out_b / "harvest_power.meta.json").read_text())
        assert meta_b["config"]["system"]["mu"] == -0.01

    def test_exit_codes_for_bad_input(self, tmp_path):
        assert main(["power", "--config", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["power", "--config", str(bad)]) == 2
        unknown = write_cfg(tmp_path, doc(system={"delta1": 3.0, "delta3": 3.0,
                                                  "oops": 1.0}))
        assert main(["power", "--config", unknown, "--out", str(tmp_path)]) == 2
        malformed_set = write_cfg(tmp_path, doc())
        assert main(["power", "--config", malformed_set,
                     "--set", "nonsense"]) == 2

    def test_csv_values_have_twelve_significant_digits(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["power", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "harvest_power.csv")
        for cell in rows[0]:
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) == 12


class TestSweep:
    def test_one_dim_sweep_grid_order(self, tmp_path):
        d = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                 "stop": 1.0, "count": 5}],
                       "quantities": ["power", "well_depth"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        header, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert header == ["system.tau1", "power", "well_depth", "error"]
        taus = [float(r[0]) for r in rows]
        assert taus == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert all(float(r[1]) > 0 for r in rows)
        assert all(r[3] == "" for r in rows)

    def test_two_dim_sweep_row_major(self, tmp_path):
        d = doc(sweep={"axes": [
            {"param": "system.tau1", "start": 0.0, "stop": 0.5, "count": 2},
            {"param": "system.tau2", "start": 0.0, "stop": 1.0, "count": 3},
        ], "quantities": ["power"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        header, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert header == ["system.tau1", "system.tau2", "power", "error"]
        assert len(rows) == 6
        pairs = [(float(r[0]), float(r[1])) for r in rows]
        assert pairs == [(a, b) for a in (0.0, 0.5) for b in (0.0, 0.5, 1.0)]

    def test_error_cells_encoded_not_dropped(self, tmp_path):
        # delta1 sweep crossing into bistability loss: kappa pulls the
        # effective stiffness negative for small delta1
        d = doc(sweep={"axes": [{"param": "system.delta1", "start": 0.05,
                                 "stop": 3.0, "count": 4}],
                       "quantities": ["snr"]})
        d["system"]["kappa"] = 0.9
        cfg_path = write_cfg(tmp_path, d)
        rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                   "--threads", "1"])
        assert rc == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert len(rows) == 4
        bad = [r for r in rows if r[-1] != ""]
        good = [r for r in rows if r[-1] == ""]
        assert bad and good
        for r in bad:
            assert r[1] == "nan"
            assert r[-1] == "BistabilityLossError"
        for r in good:
            assert math.isfinite(float(r[1]))

    def test_unexpected_exception_keeps_other_rows(self, tmp_path, monkeypatch):
        snr = resonance.snr

        def failing(p, noise, ex):
            if 5e-3 < noise.D < 5e-2:  # the middle cell
                raise ZeroDivisionError("injected")
            return snr(p, noise, ex)

        monkeypatch.setattr(resonance, "snr", failing)
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["snr", "well_depth"]})
        cfg_path = write_cfg(tmp_path, d)
        rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                   "--threads", "1"])
        assert rc == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert len(rows) == 3
        assert [r[-1] for r in rows] == ["", "ZeroDivisionError", ""]
        assert rows[1][1] == "nan"
        assert all(math.isfinite(float(r[2])) for r in rows)
        assert all(math.isfinite(float(r[1])) for r in (rows[0], rows[2]))

    def test_cell_errors_keep_the_message(self, tmp_path, monkeypatch):
        snr = resonance.snr

        def failing(p, noise, ex):
            if 5e-3 < noise.D < 5e-2:  # the middle cell
                raise ZeroDivisionError("injected, with a comma")
            return snr(p, noise, ex)

        monkeypatch.setattr(resonance, "snr", failing)
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["snr"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert [r[-1] for r in rows] == ["", "ZeroDivisionError", ""]
        with open(tmp_path / "harvest_sweep.meta.json") as f:
            meta = json.load(f)
        assert meta["cell_errors"] == [{
            "cell": {"noise.D": pytest.approx(1e-2)},
            "quantity": "snr",
            "message": "injected, with a comma",
        }]

    def test_noise_sweep_builds_one_table(self, tmp_path, monkeypatch):
        """The frequency table does not depend on the noise, so a one-worker
        sweep over noise.D builds it once and every cell reuses it."""
        calls = []
        build_table = averaging.build_table

        def counting(*args, **kwargs):
            calls.append(args)
            return build_table(*args, **kwargs)

        monkeypatch.setattr(averaging, "build_table", counting)
        averaging._table_for.cache_clear()
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["power"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        assert len(calls) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_one_ensemble_run_per_cell(self, tmp_path, monkeypatch):
        """The cells' ensembles step as the rows of one lockstep pass."""
        calls = []
        step_cells = mcs._step_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return step_cells(*args, **kwargs)

        monkeypatch.setattr(mcs, "_step_cells", counting)
        # The psd block's segment is far shorter than ten drive periods: a
        # sweep has no spectral column, so it must neither check nor run it.
        d = doc(sweep={"axes": [{"param": "excitation.Omega", "start": 0.05,
                                 "stop": 0.5, "count": 2}],
                       "quantities": ["v_rms", "efficiency"]})
        d["sim"]["t_total"] = 40.0
        d["sim"]["t_transient"] = 10.0
        d["sim"]["psd"] = {"segment_time": 5.0}
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        assert len(calls) == 1
        cells, sim = calls[0][:2]
        assert len(cells) == 2
        assert sim.psd is None
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:3])
        assert all(r[-1] == "" for r in rows)

    def test_batched_sweep_matches_per_cell_runs(self, tmp_path):
        """A (kappa, D) grid's ensembles step as one lockstep pass, recorded
        in the meta, and each row holds its own cell's run_ensemble."""
        d = doc(sweep={"axes": [
            {"param": "system.kappa", "start": 0.1, "stop": 0.5, "count": 2},
            {"param": "noise.D", "start": 1e-3, "stop": 1e-1, "count": 2,
             "scale": "log"},
        ], "quantities": ["v_rms", "efficiency"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        with open(tmp_path / "harvest_sweep.meta.json") as f:
            meta = json.load(f)
        assert meta["mc_batches"] == [{"cells": 4, "rows": 16}]
        cfg = parse_config(d)
        grid = [(k, D) for k in (0.1, 0.5) for D in (1e-3, 1e-1)]
        for row, (kappa, D) in zip(rows, grid, strict=True):
            cell = cli._cell_config(cfg, [("system.kappa", kappa), ("noise.D", D)])
            est = mcs.run_ensemble(cell.system, cell.noise, cell.excitation,
                                   cell.sim)
            assert row[2:] == [cli._fmt(est.v_rms), cli._fmt(est.efficiency_pct), ""]

    def test_ensemble_error_stays_in_its_cell(self, tmp_path):
        """A cell whose noise.c fails the step check reads NaN for its
        ensemble quantities only, with the error type and message of its own
        run_ensemble; the other cells step together."""
        d = doc(sweep={"axes": [{"param": "noise.c", "start": 0.1,
                                 "stop": 0.3, "count": 3}],
                       "quantities": ["v_rms", "power", "efficiency"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert [r[-1] for r in rows] == ["ParameterError", "", ""]
        assert rows[0][1] == rows[0][3] == "nan"
        assert math.isfinite(float(rows[0][2]))
        assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[1:4])
        with open(tmp_path / "harvest_sweep.meta.json") as f:
            meta = json.load(f)
        assert meta["cell_errors"] == [{
            "cell": {"noise.c": pytest.approx(0.1)},
            "quantity": "v_rms",
            "message": "dt=0.01 too large: must be <= min(tau1, tau2, c)/20 = 0.005",
        }]
        assert meta["mc_batches"] == [{"cells": 2, "rows": 8}]

    @pytest.mark.parametrize("target", ["power", "v_rms"])
    def test_dead_worker_is_rerun(self, tmp_path, monkeypatch, target):
        """A forked worker that exits mid-sweep, in an analytic cell or in
        the ensemble pass, breaks the pool; the unfinished tasks are rerun
        in the main process, the rows match a one-worker run and each rerun
        is logged in cell_errors."""
        parent = os.getpid()
        module, name = ((averaging, "mean_power") if target == "power"
                        else (mcs, "run_ensembles"))
        original = getattr(module, name)

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args, **kwargs)

        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["power", "v_rms"]})
        cfg = parse_config(d)
        header, serial, errors = run_sweep(cfg, threads=1)
        assert errors == []
        monkeypatch.setattr(module, name, dying)
        h2, rows, cell_errors = run_sweep(cfg, threads=2)
        assert (h2, rows) == (header, serial)
        assert all(r[-1] == "" for r in rows)
        assert all(e["message"] == cli._RERUN_MESSAGE for e in cell_errors)
        # every task that calls the target dies in a worker, so each cell's
        # target is rerun; other tasks are rerun if the pool broke first
        rerun = {(e["cell"]["noise.D"], e["quantity"]) for e in cell_errors}
        assert {(r[0], target) for r in rows} <= rerun

    def test_log_scale_axis(self, tmp_path):
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["snr"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        Ds = [float(r[0]) for r in rows]
        assert Ds == pytest.approx([1e-3, 1e-2, 1e-1])

    def test_parallel_matches_serial(self, tmp_path):
        d = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.0,
                                 "stop": 1.0, "count": 4}],
                       "quantities": ["power"]})
        cfg = parse_config(d)
        h1, serial, e1 = run_sweep(cfg, threads=1)
        h2, parallel, e2 = run_sweep(cfg, threads=2)
        assert h1 == h2
        assert e1 == e2 == []
        for a, b in zip(serial, parallel):
            assert a == b

    def test_quantity_whitelist_is_stable(self):
        assert SWEEP_QUANTITIES == (
            "power", "snr", "v_rms", "efficiency", "well_depth", "omega_eq"
        )
