"""Config parsing (fail-closed), overrides, CLI subcommands, CSV output."""

import collections
import concurrent.futures.process
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from harvest import _kernels, averaging, cli, config, freq, mcs, resonance
from harvest.averaging import GridSpec
from harvest.cli import main, run_sweep
from harvest.config import (
    SWEEP_QUANTITIES,
    OutputSpec,
    SweepAxis,
    SweepSpec,
    apply_override,
    parse_config,
    read_document,
)
from harvest.errors import ConfigError, ParameterError
from harvest.mcs import PsdSettings, SimConfig
from harvest.model import ExcitationParams, SystemParams

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


# A histogram grid that no trajectory of BASE_DOC's system visits.
OFF_GRID = {"x_min": 5.0, "x_max": 6.0, "v_min": 5.0, "v_max": 6.0}


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

    def test_invalid_json_text(self, tmp_path):
        """read_document rejects a file whose text is no JSON object."""
        path = tmp_path / "run.json"
        for text, message in [
            ("{not json", "invalid JSON in "),
            ('{"system": {"delta1": %s}}' % ("9" * 5000), "cannot parse config "),
            ("[1, 2]", "top level: expected a JSON object"),
        ]:
            path.write_text(text)
            with pytest.raises(ConfigError, match=re.escape(message)):
                read_document(str(path), [], None)

    def test_physical_violations_surface_as_parameter_error(self):
        bad = doc()
        bad["system"]["delta1"] = -1.0
        with pytest.raises(ParameterError):
            parse_config(bad)
        with pytest.raises(ParameterError, match="t_total must be > 0"):
            parse_config(doc(sim={"t_total": 0}))

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
        bad["sweep"]["quantities"] = []
        with pytest.raises(ConfigError, match="at least one quantity required"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("sim.n_traj", "abc"),
            ("sim.n_traj", 2.7),
            ("sim.seed", True),
            ("sim.grid.nx", "64"),
            ("sim.psd.n_bootstrap", 2.5),
            ("sweep.axes[0].count", "8"),
            ("sweep.quantities", "power"),
        ],
    )
    def test_integer_and_list_keys_are_checked(self, path, value):
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 0.004,
                                 "stop": 0.006, "count": 2}]})
        d["sim"]["grid"] = {}
        d["sim"]["psd"] = {"segment_time": 150.0}
        *parents, key = path.replace("[0]", ".0").split(".")
        node = d
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected")):
            parse_config(d)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("path", ["noise.D", "sim.t_total", "system.tau1"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, path, value):
        """The NaN and Infinity tokens of Python's JSON reader, and integers
        beyond the float range, are no numbers of a run: the CLI names the
        key and exits with code 2."""
        d = doc()
        block, key = path.split(".")
        d[block][key] = value
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected a finite")):
            parse_config(d)
        assert main(["power", "--config", write_cfg(tmp_path, d),
                     "--out", str(tmp_path)]) == 2
        assert path in capsys.readouterr().err

    def test_psd_block(self):
        d = doc()
        d["sim"]["psd"] = {"segment_time": 150.0}
        cfg = parse_config(d)
        assert cfg.sim.psd.segment_time == 150.0
        assert cfg.sim.psd.overlap == 0.5
        d["sim"]["psd"] = {"overlap": 0.5}
        with pytest.raises(ConfigError, match="segment_time"):
            parse_config(d)

    def test_axis_swept_twice_rejected(self):
        """A second axis over the same parameter would overwrite the first
        in every cell, so rows with different labels would hold one cell."""
        d = doc(sweep={"axes": [
            {"param": "system.delta1", "start": 1.0, "stop": 3.0, "count": 3},
            {"param": "system.delta1", "start": 2.0, "stop": 4.0, "count": 3},
        ]})
        with pytest.raises(ConfigError, match=r"system\.delta1.*swept twice"):
            parse_config(d)

    @pytest.mark.parametrize("param, start, stop", [
        ("system.kappa", -0.1, 0.3),
        ("system.tau2", 2.0, -1.0),
        ("noise.c", 0.3, 0.0),
        ("excitation.G", -0.5, 0.5),
    ])
    def test_axis_end_out_of_range_rejected(self, param, start, stop):
        """An axis whose start or stop is outside its parameter's range is
        rejected at parse time, naming the axis, before any cell runs."""
        d = doc(sweep={"axes": [
            {"param": "noise.D", "start": 1e-3, "stop": 1e-2, "count": 2},
            {"param": param, "start": start, "stop": stop, "count": 3},
        ]})
        with pytest.raises(ConfigError, match=r"^sweep\.axes\[1\]: "):
            parse_config(d)
        d["sweep"]["axes"].reverse()
        with pytest.raises(ConfigError, match=r"^sweep\.axes\[0\]: "):
            parse_config(d)

    @pytest.mark.parametrize("start, stop", [(0.0, 0.1), (0.1, -1.0)])
    def test_log_scale_needs_positive_bounds(self, start, stop):
        d = doc(sweep={"axes": [{"param": "noise.D", "start": start, "stop": stop,
                                 "count": 3, "scale": "log"}]})
        with pytest.raises(ConfigError, match=r"sweep\.axes\[0\]: log scale"):
            parse_config(d)

    @pytest.mark.parametrize("grid", [False, 0, "", []])
    def test_grid_is_an_object_or_null(self, grid):
        """sim.grid, like sim.psd, is an object, null or absent."""
        d = doc()
        d["sim"]["grid"] = grid
        with pytest.raises(ConfigError, match=r"sim\.grid: expected an object"):
            parse_config(d)
        d["sim"]["grid"] = None
        assert parse_config(d).sim.grid == parse_config(doc()).sim.grid

    @pytest.mark.parametrize("table, cls", [
        ("_SYSTEM", SystemParams), ("_EXCITATION", ExcitationParams),
        ("_SIM", SimConfig), ("_PSD", PsdSettings), ("_AXIS", SweepAxis),
        ("_OUTPUT", OutputSpec),
    ])
    def test_table_defaults_match_the_dataclasses(self, table, cls):
        """A key's default in its config table equals the default of the
        dataclass field it fills."""
        defaults = {k: default for k, (_, default) in getattr(config, table).items()}
        fields = [
            f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
        ]
        assert fields
        for f in fields:
            assert defaults[f.name] == f.default, f.name

    def test_grid_defaults_match_the_sim_default_grid(self):
        grid = SimConfig(dt=0.01, t_total=1.0).grid
        defaults = {k: default for k, (_, default) in config._GRID.items()}
        assert GridSpec(**defaults) == grid

    def test_minimal_document_takes_the_types_defaults(self):
        """Every key left out reads as its type's own default, so a run
        built in code and one read from a document agree."""
        axes = [{"param": "noise.D", "start": 0.001, "stop": 0.01, "count": 3}]
        cfg = parse_config({
            "system": {"delta1": 3.0, "delta3": 3.0},
            "noise": {"D": 0.005, "c": 0.3},
            "sweep": {"axes": axes},
        })
        assert cfg.system == SystemParams(delta1=3.0, delta3=3.0)
        assert cfg.excitation == ExcitationParams()
        assert cfg.sim == SimConfig()
        assert cfg.output == OutputSpec()
        assert cfg.sweep.quantities == SweepSpec(cfg.sweep.axes).quantities


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
        assert "lane" not in meta
        assert meta["exclusion_band"] > 0
        assert meta["tolerances"] == {
            "frequency_fixed_point": freq._TOL,
            "orbit_quadrature_rel": freq._ORBIT_REL_TOL,
            "significant_digits": 12,
        }
        cfg = parse_config(doc())
        acc = averaging.power_accuracy(cfg.system, cfg.noise)
        assert meta["report"] == {"power": {
            "rel_err": acc.rel_err, "band_share": acc.band_share,
            "top_share": acc.top_share,
            "rel_tol": averaging.POWER_REL_TOL, "flagged": False,
        }}

    def test_only_stepping_runs_build_the_step_loop(self, tmp_path, monkeypatch):
        """On an empty build cache, freq, spd, power, snr and an analytic
        sweep step no ensemble, so they build no step loop and record no
        lane; mcs and a sweep of v_rms record the lane they stepped with."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        _kernels._library.cache_clear()
        try:
            sweep = {"axes": [{"param": "noise.D", "start": 0.004, "stop": 0.006,
                               "count": 2}], "quantities": ["power"]}
            runs = [(sub, doc()) for sub in ("freq", "spd", "power", "snr")]
            runs.append(("sweep", doc(sweep=sweep)))
            for sub, document in runs:
                out = tmp_path / sub
                main([sub, "--config", write_cfg(tmp_path, document),
                      "--out", str(out), "--threads", "1"])
                assert not list(cache.glob("harvest/step-*.so")), sub
                meta = json.loads((out / f"harvest_{sub}.meta.json").read_text())
                assert "lane" not in meta, sub

            sweep["quantities"] = ["v_rms"]
            runs = [("mcs", doc()), ("sweep", doc(sweep=sweep))]
            for sub, document in runs:
                out = tmp_path / sub
                main([sub, "--config", write_cfg(tmp_path, document),
                      "--out", str(out), "--threads", "1"])
                meta = json.loads((out / f"harvest_{sub}.meta.json").read_text())
                assert meta["lane"] == mcs.lane(), sub
            built = list(cache.glob("harvest/step-*.so"))
            assert len(built) == 1
        finally:
            _kernels._library.cache_clear()

    def test_power_above_the_table_top_is_flagged(self, tmp_path):
        """At D = 1 the mass above the table top flags the power, and the
        run still writes its row and exits 0."""
        cfg_path = write_cfg(tmp_path, doc(noise={"D": 1.0, "c": 0.3}))
        assert main(["power", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "harvest_power.csv")
        assert float(rows[0][0]) > 0
        report = json.loads((tmp_path / "harvest_power.meta.json").read_text())["report"]
        power = report["power"]
        assert power["flagged"] and power["top_share"] > power["rel_tol"]
        assert max(power["rel_err"], power["band_share"]) <= power["rel_tol"]

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

    def test_density_rows_match_the_value_formatter(self):
        """A density CSV's rows are what _fmt writes for each value, nan,
        both infinities and a negative zero included."""
        values = np.linspace(-2e-3, 5.0, 12).reshape(3, 4)
        values[0, 1], values[1, 2], values[2, 0], values[2, 3] = (
            math.nan, math.inf, -math.inf, -0.0
        )
        fld = averaging.DensityField(
            x=np.array([-1.5, -0.0, 2.25e-7]), v=np.linspace(-1.0, 1.0, 4),
            values=values, norm_const=1.0,
        )
        header, body = cli._density_csv(fld)
        assert header == ["x", "v", "density"]
        assert body == "".join(
            ",".join(cli._fmt(c) for c in (x, v, values[i, j])) + "\n"
            for i, x in enumerate(fld.x) for j, v in enumerate(fld.v)
        )
        assert "nan" in body and "-inf" in body and "-0.00000000000e+00" in body

    def test_spd_output(self, tmp_path):
        """harvest spd writes joint_spd's (x, v, density) rows, x-major, at
        12 digits, and its norm_const in the meta."""
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["spd", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        cfg = parse_config(doc())
        fld = averaging.joint_spd(cfg.system, cfg.noise, cfg.sim.grid)
        header, rows = read_csv(tmp_path / "harvest_spd.csv")
        assert header == ["x", "v", "density"]
        assert rows == [
            [cli._fmt(x), cli._fmt(v), cli._fmt(fld.values[i, j])]
            for i, x in enumerate(fld.x) for j, v in enumerate(fld.v)
        ]
        meta = json.loads((tmp_path / "harvest_spd.meta.json").read_text())
        assert meta["subcommand"] == "spd"
        assert meta["norm_const"] == fld.norm_const

    def test_snr_output(self, tmp_path):
        cfg_path = write_cfg(tmp_path, doc())
        assert main(["snr", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "harvest_snr.csv")
        vals = dict(zip(header, rows[0]))
        assert float(vals["snr"]) > 0
        assert float(vals["x_s_plus"]) == -float(vals["x_s_minus"])

    def test_snr_without_linear_response_exits_1(self, tmp_path):
        """Where linear response fails the row is written with a NaN SNR and
        linear_response_ok 0, and the run exits 1, as a sweep over the same
        cell does."""
        d = doc(noise={"D": 0.01, "c": 0.3},
                excitation={"eps": 1.0, "G": 1.0, "Omega": 0.05})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["snr", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        header, rows = read_csv(tmp_path / "harvest_snr.csv")
        vals = dict(zip(header, rows[0]))
        assert vals["snr"] == "nan"
        assert vals["linear_response_ok"] == "0"

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
        meta = json.loads((out_a / "harvest_compare.meta.json").read_text())
        report = meta["report"]["power"]
        assert 0 <= report["rel_err"] <= report["rel_tol"] and not report["flagged"]

    def test_compare_ignores_the_psd_block(self, tmp_path):
        """compare reports no spectral SNR, so like sweep it drops sim.psd: a
        segment longer than the run is no error, and the row is the one of
        the same run without the block."""
        d = doc()
        d["sim"].update(t_total=50.0, t_transient=10.0)
        plain = tmp_path / "plain"
        assert main(["compare", "--config", write_cfg(tmp_path, d),
                     "--out", str(plain)]) == 0
        d["sim"]["psd"] = {"segment_time": 100.0}
        cfg = parse_config(d)
        with pytest.raises(ParameterError, match="must cover >= 10 drive periods"):
            mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
        assert main(["compare", "--config", write_cfg(tmp_path, d),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "harvest_compare.csv").read_bytes() == (
            plain / "harvest_compare.csv"
        ).read_bytes()

    def test_empty_histogram_fails_only_where_it_is_read(self, tmp_path, capsys):
        """With no sample on sim.grid, compare (which reads no histogram)
        writes its ensemble's values; mcs, which writes the histogram, exits
        2 and writes no CSV."""
        d = doc()
        d["sim"]["grid"] = OFF_GRID
        cfg_path = write_cfg(tmp_path, d)
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        cfg = parse_config(d)
        est = mcs.run_ensemble(cfg.system, cfg.noise, cfg.excitation, cfg.sim)
        assert est.n_samples > 0 and not est.counts.any()
        _, rows = read_csv(tmp_path / "harvest_compare.csv")
        assert rows[0][1] == cli._fmt(est.mean_power)
        assert rows[0][3:] == [
            cli._fmt(v) for v in (est.v_rms, est.efficiency_pct,
                                  est.n_divergent, est.n_samples)
        ]
        capsys.readouterr()
        assert main(["mcs", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: no in-grid samples collected; widen the grid\n"
        )
        assert list(tmp_path.glob("harvest_mcs*")) == []

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

    @pytest.mark.parametrize("subcommand, text, message", [
        ("power", "[1, 2]", "error: top level: expected a JSON object\n"),
        ("sweep", json.dumps(BASE_DOC), "error: config has no sweep block\n"),
    ], ids=["list_config", "sweep_without_sweep_block"])
    def test_config_rejected_after_reading_exits_2(self, tmp_path, capsys,
                                                  subcommand, text, message):
        path = tmp_path / "run.json"
        path.write_text(text)
        argv = [subcommand, "--config", str(path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert list(tmp_path.glob("harvest_*")) == []

    def test_main_calls_the_names_the_benchmark_wraps(self, tmp_path, monkeypatch):
        """The benchmark marks the end of set-up by wrapping cli.parse_config
        and times cli.emit_csv, cli._sweep_cell and cli.build_table by
        wrapping those module globals: main and the commands must call each
        by that name, parse_config once per run and emit_csv once per CSV."""
        counts = collections.Counter()
        for name in ("parse_config", "emit_csv", "_sweep_cell", "build_table"):
            def counted(*args, _fn=getattr(cli, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 0.004,
                                 "stop": 0.006, "count": 2}],
                       "quantities": ["power"]})
        argv = ["--config", write_cfg(tmp_path, d), "--out", str(tmp_path),
                "--threads", "1"]
        assert main(["freq", *argv]) == 0
        assert counts == {"parse_config": 1, "build_table": 1, "emit_csv": 1}
        counts.clear()
        assert main(["sweep", *argv]) == 0
        assert counts == {"parse_config": 1, "_sweep_cell": 2, "emit_csv": 1}

    def test_seed_override_fills_a_null_sim_block(self, tmp_path):
        """--seed N and --set sim.seed=N take one path: on a config whose sim
        block is null both write the same CSV and the same document."""
        cfg_path = write_cfg(tmp_path, doc(sim=None))
        for out, flags in (("a", ["--seed", "5"]), ("b", ["--set", "sim.seed=5"])):
            argv = ["snr", "--config", cfg_path, "--out", str(tmp_path / out)]
            assert main(argv + flags) == 0
        csv_a, csv_b = ((tmp_path / d / "harvest_snr.csv").read_bytes() for d in "ab")
        assert csv_a == csv_b
        meta_a, meta_b = (
            json.loads((tmp_path / d / "harvest_snr.meta.json").read_text()) for d in "ab"
        )
        assert meta_a["config"] == meta_b["config"]
        assert meta_a["seed"] == meta_b["seed"] == 5

    @pytest.mark.parametrize("flags", [["--seed", "5"], ["--set", "sim.seed=5"]])
    def test_seed_override_rejects_a_sim_block_that_is_not_an_object(
        self, tmp_path, capsys, flags
    ):
        cfg_path = write_cfg(tmp_path, doc(sim=[1]))
        argv = ["snr", "--config", cfg_path, "--out", str(tmp_path)]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'sim' is not an object" in err
        assert list(tmp_path.glob("harvest_*")) == []

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--set", "sim.seed=-3"]],
                             ids=["seed_flag", "set_sim_seed"])
    @pytest.mark.parametrize("subcommand", ["mcs", "power", "compare", "sweep"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, subcommand, flags):
        """A negative master seed is a parameter error on every subcommand,
        the analytic ones included: exit 2 with an error line, no CSV."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 0.004,
                                 "stop": 0.006, "count": 2}],
                       "quantities": ["v_rms", "efficiency"]})
        argv = [subcommand, "--config", write_cfg(tmp_path, d),
                "--out", str(tmp_path), "--threads", "1"]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0") and "Traceback" not in err
        assert list(tmp_path.glob("harvest_*")) == []

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("flag", ["--out", "output.dir"])
    def test_output_directory_that_is_a_file(self, tmp_path, capsys, flag, below):
        """An output directory that names an existing file, or a path under
        one, exits 2 with the output-file error instead of a traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "sub" if below else blocker)
        argv = ["snr", "--config", write_cfg(tmp_path, doc())]
        argv += ["--out", out] if flag == "--out" else ["--set", f"output.dir={out}"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file ")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("key, value", [
        ("prefix", "null"), ("dir", "[1]"), ("prefix", "7"), ("dir", "false"),
    ])
    def test_output_keys_must_be_strings(self, tmp_path, monkeypatch, capsys,
                                         key, value):
        """output.dir and output.prefix name the files a run writes: another
        JSON value exits 2 naming the key, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        argv = ["snr", "--config", write_cfg(tmp_path, doc()),
                "--set", f"output.{key}={value}"]
        assert main(argv) == 2
        assert f"output.{key}: expected a string" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.json"]

    @pytest.mark.parametrize("case", ["long_int_file", "bad_utf8_file",
                                      "long_int_set"])
    def test_unparseable_input_is_a_config_error(self, tmp_path, capsys, case):
        """Input that JSON decoding rejects with a ValueError other than
        JSONDecodeError exits 2 with a message naming the file or the key."""
        digits = "9" * 5000
        path = tmp_path / "run.json"
        argv = ["power", "--config", str(path), "--out", str(tmp_path)]
        if case == "long_int_file":
            path.write_text('{"system": {"delta1": %s}}' % digits)
            named = str(path)
        elif case == "bad_utf8_file":
            path.write_bytes(b'{"system": "\xff\xfe"}')
            named = str(path)
        else:
            path.write_text(json.dumps(doc()))
            argv += ["--set", f"system.delta1={digits}"]
            named = "system.delta1"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err

    def test_cli_runs_without_scipy_submodules(self, tmp_path):
        """A fresh interpreter that imports harvest.cli and runs power, mcs
        and a one-worker sweep never loads scipy, nor its integrate,
        interpolate, special or optimize."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 2, "scale": "log"}],
                       "quantities": ["power", "snr", "v_rms"]})
        cfg_path = write_cfg(tmp_path, d)
        script = textwrap.dedent(f"""
            import sys
            from harvest import cli
            for cmd in (["power"], ["mcs"], ["sweep", "--threads", "1"]):
                code = cli.main(cmd + ["--config", {cfg_path!r}, "--out", {str(tmp_path)!r}])
                assert code == 0, (cmd, code)
            heavy = ("scipy", "scipy.integrate", "scipy.interpolate",
                     "scipy.special", "scipy.optimize")
            print(",".join(m for m in heavy if m in sys.modules))
        """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
        assert (tmp_path / "harvest_sweep.csv").exists()

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

    def test_failed_linear_response_is_flagged(self, tmp_path):
        """A cell where linear response fails (q >= 1) reads NaN and names
        LinearResponseError in its error column; the other cells keep their
        SNR and the sweep exits 1."""
        d = doc(excitation={"eps": 1.0, "G": 1.0, "Omega": 0.05},
                sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["snr"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert [r[-1] for r in rows] == ["", "LinearResponseError", ""]
        assert rows[1][1] == "nan"
        assert all(math.isfinite(float(r[1])) for r in (rows[0], rows[2]))
        with open(tmp_path / "harvest_sweep.meta.json") as f:
            meta = json.load(f)
        assert [e["quantity"] for e in meta["cell_errors"]] == ["snr"]
        assert "q >= 1" in meta["cell_errors"][0]["message"]

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
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["power"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        assert len(calls) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_noise_sweep_solves_no_fields(self, tmp_path, monkeypatch):
        """The power is an energy integral: a one-worker sweep over noise.D
        solves no (x, v) field and builds the system's energy nodes once,
        and its meta holds one power report per cell."""
        calls = []
        solve = averaging._self_consistent_fields

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(averaging, "_self_consistent_fields", counting)
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["power"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        assert calls == []
        assert averaging._energy_nodes.cache_info().misses == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert len({r[1] for r in rows}) == 3
        meta = json.loads((tmp_path / "harvest_sweep.meta.json").read_text())
        reports = meta["report"]["power"]
        assert [r["cell"] for r in reports] == [{"noise.D": float(r[0])} for r in rows]
        assert not any(r["flagged"] for r in reports)

    def test_each_system_is_solved_once_at_any_axis_order(self, monkeypatch):
        """A 3 x 3 sweep over noise.D (outer) and system.mu (inner) visits
        its three systems in turn; the analytic cells are grouped by system,
        so each system's energy nodes are built once and its table built
        once, and each cell still reads the power of its own system and
        noise."""
        systems, tables = [], []
        moments, build_table = averaging._orbit_moments, averaging.build_table

        def counting_moments(p, *args):
            systems.append(p)
            return moments(p, *args)

        def counting_table(*args, **kwargs):
            tables.append(args)
            return build_table(*args, **kwargs)

        monkeypatch.setattr(averaging, "_orbit_moments", counting_moments)
        monkeypatch.setattr(averaging, "build_table", counting_table)
        d = doc(sweep={"axes": [
            {"param": "noise.D", "start": 0.004, "stop": 0.008, "count": 3},
            {"param": "system.mu", "start": -0.01, "stop": 0.0, "count": 3},
        ], "quantities": ["power"]})
        cfg = parse_config(d)
        _, rows, errors, _, reports = run_sweep(cfg, threads=1)
        assert errors == []
        # two regimes per system
        assert len(systems) == 6 and len(set(systems)) == 3
        assert len(tables) == 3
        assert len(reports) == 9
        for D, mu, power, _ in rows:
            cell = cli._cell_config(cfg, [("noise.D", D), ("system.mu", mu)])
            assert power == averaging.mean_power(cell.system, cell.noise)

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

    def test_transient_that_leaves_no_sample_stays_in_its_cell(self, tmp_path):
        """A transient that leaves no sample fails each cell's ensemble
        quantity with _batch_key's message; the analytic power survives."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 0.004,
                                 "stop": 0.006, "count": 2}],
                       "quantities": ["v_rms", "power"]})
        d["sim"].update(dt=0.01, t_total=0.01, t_transient=0.006)
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert [r[1] for r in rows] == ["nan", "nan"]
        assert all(float(r[2]) > 0 for r in rows)
        assert [r[-1] for r in rows] == ["ParameterError"] * 2
        meta = json.loads((tmp_path / "harvest_sweep.meta.json").read_text())
        assert [(e["quantity"], e["message"]) for e in meta["cell_errors"]] == [
            ("v_rms", "transient discard leaves no samples")
        ] * 2
        assert meta["mc_batches"] == []

    def test_omega_eq_is_the_two_state_frequency(self, tmp_path):
        d = doc(sweep={"axes": [{"param": "system.delta1", "start": 2.0,
                                 "stop": 3.0, "count": 2}],
                       "quantities": ["omega_eq"]})
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        system = parse_config(d).system
        assert [r[1] for r in rows] == [
            cli._fmt(resonance.snr_equilibria(
                dataclasses.replace(system, delta1=delta1))[2])
            for delta1 in (2.0, 3.0)
        ]

    def test_empty_histogram_keeps_the_ensemble_values(self, tmp_path):
        """A sweep reads no histogram: with no sample on sim.grid its
        ensemble quantities are still every cell's own run_ensemble."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 2, "scale": "log"}],
                       "quantities": ["v_rms", "efficiency"]})
        d["sim"]["grid"] = OFF_GRID
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        cfg = parse_config(d)
        for row, D in zip(rows, (1e-3, 1e-1), strict=True):
            cell = cli._cell_config(cfg, [("noise.D", D)])
            est = mcs.run_ensemble(cell.system, cell.noise, cell.excitation,
                                   cell.sim)
            assert row[1:] == [cli._fmt(est.v_rms), cli._fmt(est.efficiency_pct), ""]

    def test_failed_lockstep_pass_fails_its_batch(self, monkeypatch):
        """A system.tau1 axis steps one batch per delay offset.  When one
        batch's lockstep pass raises, each of its cells reads NaN with the
        error type and is named in cell_errors; the other rows are those of
        a clean run."""
        d = doc(sweep={"axes": [
            {"param": "system.tau1", "start": 0.2, "stop": 1.0, "count": 3},
            {"param": "noise.D", "start": 1e-3, "stop": 1e-1, "count": 2,
             "scale": "log"},
        ], "quantities": ["v_rms", "efficiency"]})
        d["sim"]["t_total"] = 40.0
        d["sim"]["t_transient"] = 10.0
        cfg = parse_config(d)
        _, clean, errors, batches, _ = run_sweep(cfg, threads=1)
        assert errors == [] and batches == [[0, 1], [2, 3], [4, 5]]
        step_cells = mcs._step_cells

        def failing(cells, *args, **kwargs):
            if cells[0][0].tau1 == pytest.approx(0.6):
                raise FloatingPointError("injected")
            return step_cells(cells, *args, **kwargs)

        monkeypatch.setattr(mcs, "_step_cells", failing)
        _, rows, cell_errors, _, _ = run_sweep(cfg, threads=1)
        assert [r[-1] for r in rows] == ["", "", "FloatingPointError",
                                         "FloatingPointError", "", ""]
        assert all(math.isnan(v) for r in rows[2:4] for v in r[2:4])
        for i in (0, 1, 4, 5):
            assert rows[i] == clean[i]
        assert [(e["cell"], e["quantity"], e["message"]) for e in cell_errors] == [
            ({"system.tau1": rows[i][0], "noise.D": rows[i][1]}, "v_rms", "injected")
            for i in (2, 3)
        ]

    @pytest.mark.parametrize("target", ["power", "v_rms"])
    def test_dead_worker_is_rerun(self, tmp_path, monkeypatch, target):
        """A forked worker that exits mid-sweep, in an analytic cell or in
        the ensemble pass, breaks the pool; the unfinished tasks are rerun
        in the main process, the rows match a one-worker run and each rerun
        is logged in cell_errors."""
        parent = os.getpid()
        module, name = ((averaging, "mean_power") if target == "power"
                        else (mcs, "run_batch"))
        original = getattr(module, name)

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args, **kwargs)

        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": ["power", "v_rms"]})
        cfg = parse_config(d)
        header, serial, errors, _, _ = run_sweep(cfg, threads=1)
        assert errors == []
        monkeypatch.setattr(module, name, dying)
        h2, rows, cell_errors, _, _ = run_sweep(cfg, threads=2)
        assert (h2, rows) == (header, serial)
        assert all(r[-1] == "" for r in rows)
        assert all(e["message"] == cli._RERUN_MESSAGE for e in cell_errors)
        # every task that calls the target dies in a worker, so each cell's
        # target is rerun; other tasks are rerun if the pool broke first
        rerun = {(e["cell"]["noise.D"], e["quantity"]) for e in cell_errors}
        assert {(r[0], target) for r in rows} <= rerun

    def test_pool_broken_while_submitting(self, monkeypatch):
        """A worker can die before the last task is submitted, and then
        submit itself raises; the tasks not yet submitted are rerun here."""
        pool_cls = concurrent.futures.process.ProcessPoolExecutor
        submit = pool_cls.submit
        calls = []

        def breaking(self, fn, *args):
            calls.append(fn)
            if len(calls) > 1:
                raise concurrent.futures.process.BrokenProcessPool("worker died")
            return submit(self, fn, *args)

        monkeypatch.setattr(pool_cls, "submit", breaking)
        results, rerun = cli._run_tasks([(abs, -1), (abs, -2), (abs, -3)], 2)
        assert results == [1, 2, 3]
        assert rerun == [1, 2]

    def test_divergent_trajectories_are_flagged(self, tmp_path):
        """A cell whose ensemble has divergent trajectories keeps its values
        and its empty error column, gets one cell_errors entry under its
        first ensemble quantity, and the sweep exits 1, as compare does on
        the same cell."""
        d = doc(system={"delta1": 3.0, "delta3": 3.0, "kappa": 0.3,
                        "alpha": 0.05, "beta": 0.02},
                excitation={"eps": 0.0, "G": 0.1, "Omega": 0.05},
                sweep={"axes": [{"param": "noise.D", "start": 0.004,
                                 "stop": 0.006, "count": 2}],
                       "quantities": ["v_rms", "efficiency"]})
        d["sim"].update(x0=51.3, n_traj=20, seed=3, t_total=40.0,
                        t_transient=10.0)
        cfg_path = write_cfg(tmp_path, d)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                     "--threads", "1"]) == 1
        _, rows = read_csv(tmp_path / "harvest_sweep.csv")
        assert [r[-1] for r in rows] == ["", ""]
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:3])
        meta = json.loads((tmp_path / "harvest_sweep.meta.json").read_text())
        assert meta["cell_errors"] == [
            {"cell": {"noise.D": 0.004}, "quantity": "v_rms",
             "message": "12 of 20 trajectories diverged"},
            {"cell": {"noise.D": 0.006}, "quantity": "v_rms",
             "message": "14 of 20 trajectories diverged"},
        ]
        out = tmp_path / "compare"
        assert main(["compare", "--config", cfg_path, "--out", str(out),
                     "--set", "noise.D=0.004"]) == 1
        header, rows = read_csv(out / "harvest_compare.csv")
        assert rows[0][header.index("n_divergent")] == "12"

    def test_sweep_plans_its_ensembles_once(self, monkeypatch):
        """The sweep plans its lockstep batches once and each batch task
        steps its cells without planning them again."""
        calls = []
        plan = mcs.plan

        def counting(*args, **kwargs):
            calls.append(args)
            return plan(*args, **kwargs)

        monkeypatch.setattr(mcs, "plan", counting)
        d = doc(sweep={"axes": [{"param": "noise.c", "start": 0.1,
                                 "stop": 0.3, "count": 3}],
                       "quantities": ["v_rms", "power"]})
        _, rows, cell_errors, batches, _ = run_sweep(parse_config(d), threads=1)
        assert len(calls) == 1
        assert batches == [[1, 2]]
        assert [r[-1] for r in rows] == ["ParameterError", "", ""]
        assert [e["quantity"] for e in cell_errors] == ["v_rms"]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of each pool that run_sweep makes, with a fake
        pool that starts no process and runs each task as it is submitted."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                future = concurrent.futures.Future()
                future.set_result(fn(arg))
                return future

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", FakePool)
        return sizes

    @pytest.mark.parametrize("threads, quantities, workers", [
        (8, ["power"], []),  # three analytic cells of one system: run inline
        (2, ["power", "v_rms"], [2]),  # one ensemble batch and one system
        (8, ["v_rms"], []),  # one ensemble batch: run inline
    ])
    def test_pool_is_capped_at_the_task_count(self, pool_sizes, threads,
                                              quantities, workers):
        """The pool starts no more workers than there are tasks, and none
        for a single task."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 3, "scale": "log"}],
                       "quantities": quantities})
        cfg = parse_config(d)
        serial = run_sweep(cfg, threads=1)
        assert run_sweep(cfg, threads=threads) == serial
        assert pool_sizes == workers

    def test_one_analytic_task_per_system(self, pool_sizes):
        """Three cells of three systems are three analytic tasks, one per
        worker."""
        d = doc(sweep={"axes": [{"param": "system.tau1", "start": 0.2,
                                 "stop": 1.0, "count": 3}],
                       "quantities": ["power"]})
        cfg = parse_config(d)
        serial = run_sweep(cfg, threads=1)
        assert run_sweep(cfg, threads=8) == serial
        assert pool_sizes == [3]

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
        h1, serial, e1, _, _ = run_sweep(cfg, threads=1)
        h2, parallel, e2, _, _ = run_sweep(cfg, threads=2)
        assert h1 == h2
        assert e1 == e2 == []
        for a, b in zip(serial, parallel):
            assert a == b

    def test_parallel_noise_sweep_matches_serial(self):
        """Each worker process solves and caches its own fields; its rows
        equal the one-process rows."""
        d = doc(sweep={"axes": [{"param": "noise.D", "start": 1e-3,
                                 "stop": 1e-1, "count": 4, "scale": "log"}],
                       "quantities": ["power", "v_rms"]})
        cfg = parse_config(d)
        # the pool first, so that its forked workers start with cold caches
        h2, parallel, e2, _, _ = run_sweep(cfg, threads=2)
        h1, serial, e1, _, _ = run_sweep(cfg, threads=1)
        assert h1 == h2
        assert e1 == e2 == []
        assert serial == parallel

    def test_quantity_whitelist_is_stable(self):
        assert SWEEP_QUANTITIES == (
            "power", "snr", "v_rms", "efficiency", "well_depth", "omega_eq"
        )
