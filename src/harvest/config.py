"""Run-configuration schema: strict JSON parsing with fail-closed validation.

A run document is one JSON object with blocks ``system``, ``noise``,
``excitation`` and optionally ``sim``, ``sweep``, ``output``.  Unknown keys are
rejected with a path-qualified message; omitted keys fall back to documented
defaults and every applied default is recorded for provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .averaging import GridSpec
from .errors import ConfigError
from .mcs import PsdSettings, SimConfig
from .model import ExcitationParams, NoiseParams, SystemParams

SWEEP_QUANTITIES = (
    "power",
    "snr",
    "v_rms",
    "efficiency",
    "well_depth",
    "omega_eq",
)

_SYSTEM_KEYS = {
    "delta1": None,
    "delta3": None,
    "kappa": 0.0,
    "alpha": 0.05,
    "beta": 0.0,
    "mu": 0.0,
    "nu": 0.0,
    "tau1": 0.0,
    "tau2": 0.0,
}
_NOISE_KEYS = {"D": None, "c": None}
_EXCITATION_KEYS = {"eps": 0.0, "G": 0.1, "Omega": 0.05}
_SIM_KEYS = {
    "dt": 0.01,
    "t_total": 2000.0,
    "t_transient": None,
    "n_traj": 100,
    "seed": 0,
    "x0": None,
    "v0": 0.0,
    "V0": 0.0,
    "grid": None,
    "psd": None,
}
_GRID_KEYS = {
    "x_min": -2.5,
    "x_max": 2.5,
    "nx": 64,
    "v_min": -3.0,
    "v_max": 3.0,
    "nv": 64,
}
_PSD_KEYS = {"segment_time": None, "overlap": 0.5, "n_bootstrap": 200}
_AXIS_KEYS = {"param": None, "start": None, "stop": None, "count": None, "scale": "linear"}
_SWEEP_KEYS = {"axes": None, "quantities": ["power"]}
_OUTPUT_KEYS = {"dir": ".", "prefix": "harvest"}

_AXIS_PARAMS = {
    f"system.{k}" for k in _SYSTEM_KEYS
} | {f"noise.{k}" for k in _NOISE_KEYS} | {f"excitation.{k}" for k in _EXCITATION_KEYS}


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: float
    stop: float
    count: int
    scale: str = "linear"


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...]


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "."
    prefix: str = "harvest"


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    noise: NoiseParams
    excitation: ExcitationParams
    sim: SimConfig
    sweep: SweepSpec | None
    output: OutputSpec
    defaults_applied: tuple[str, ...] = ()
    document: dict = field(default_factory=dict)


def _check_block(block: Any, schema: dict, path: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    out = {}
    applied = []
    for key, default in schema.items():
        if key in block:
            out[key] = block[key]
        else:
            if default is None and key in ("delta1", "delta3", "D", "c", "param",
                                           "start", "stop", "count", "axes",
                                           "segment_time"):
                raise ConfigError(f"{path}.{key}: required key missing")
            out[key] = default
            applied.append(f"{path}.{key}")
    return out, applied


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def parse_config(document: str | dict) -> RunConfig:
    """Parse and validate one JSON run document into a RunConfig.

    Physical-validity violations (negative stiffness and the like) surface as
    ParameterError from the domain types; schema violations as ConfigError.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    known_top = {"system", "noise", "excitation", "sim", "sweep", "output"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"top level: unknown key(s) {sorted(unknown)}")
    for req in ("system", "noise"):
        if req not in doc:
            raise ConfigError(f"top level: required block '{req}' missing")

    applied: list[str] = []

    sys_raw, a = _check_block(doc["system"], _SYSTEM_KEYS, "system")
    applied += a
    system = SystemParams(**{k: _number(v, f"system.{k}") for k, v in sys_raw.items()})

    noise_raw, a = _check_block(doc["noise"], _NOISE_KEYS, "noise")
    applied += a
    noise = NoiseParams(**{k: _number(v, f"noise.{k}") for k, v in noise_raw.items()})

    exc_raw, a = _check_block(doc.get("excitation", {}), _EXCITATION_KEYS, "excitation")
    applied += a
    excitation = ExcitationParams(
        **{k: _number(v, f"excitation.{k}") for k, v in exc_raw.items()}
    )

    sim_raw, a = _check_block(doc.get("sim", {}), _SIM_KEYS, "sim")
    applied += a
    grid_raw, a = _check_block(sim_raw.pop("grid") or {}, _GRID_KEYS, "sim.grid")
    applied += a
    grid = GridSpec(
        x_min=_number(grid_raw["x_min"], "sim.grid.x_min"),
        x_max=_number(grid_raw["x_max"], "sim.grid.x_max"),
        nx=int(grid_raw["nx"]),
        v_min=_number(grid_raw["v_min"], "sim.grid.v_min"),
        v_max=_number(grid_raw["v_max"], "sim.grid.v_max"),
        nv=int(grid_raw["nv"]),
    )
    psd_block = sim_raw.pop("psd")
    psd = None
    if psd_block is not None:
        psd_raw, a = _check_block(psd_block, _PSD_KEYS, "sim.psd")
        applied += a
        psd = PsdSettings(
            segment_time=_number(psd_raw["segment_time"], "sim.psd.segment_time"),
            overlap=_number(psd_raw["overlap"], "sim.psd.overlap"),
            n_bootstrap=int(psd_raw["n_bootstrap"]),
        )
    sim = SimConfig(
        dt=_number(sim_raw["dt"], "sim.dt"),
        t_total=_number(sim_raw["t_total"], "sim.t_total"),
        t_transient=(
            None
            if sim_raw["t_transient"] is None
            else _number(sim_raw["t_transient"], "sim.t_transient")
        ),
        n_traj=int(sim_raw["n_traj"]),
        seed=int(sim_raw["seed"]),
        x0=None if sim_raw["x0"] is None else _number(sim_raw["x0"], "sim.x0"),
        v0=_number(sim_raw["v0"], "sim.v0"),
        V0=_number(sim_raw["V0"], "sim.V0"),
        grid=grid,
        psd=psd,
    )

    sweep = None
    if "sweep" in doc:
        sweep_raw, a = _check_block(doc["sweep"], _SWEEP_KEYS, "sweep")
        applied += a
        axes_raw = sweep_raw["axes"]
        if not isinstance(axes_raw, list) or not 1 <= len(axes_raw) <= 2:
            raise ConfigError("sweep.axes: expected a list of 1 or 2 axis objects")
        axes = []
        for i, ax in enumerate(axes_raw):
            ax_raw, a = _check_block(ax, _AXIS_KEYS, f"sweep.axes[{i}]")
            applied += a
            param = ax_raw["param"]
            if param not in _AXIS_PARAMS:
                raise ConfigError(
                    f"sweep.axes[{i}].param: '{param}' is not a sweepable parameter"
                )
            count = int(ax_raw["count"])
            if count < 2:
                raise ConfigError(f"sweep.axes[{i}].count: must be >= 2, got {count}")
            scale = ax_raw["scale"]
            if scale not in ("linear", "log"):
                raise ConfigError(
                    f"sweep.axes[{i}].scale: must be 'linear' or 'log', got {scale!r}"
                )
            axes.append(
                SweepAxis(
                    param=param,
                    start=_number(ax_raw["start"], f"sweep.axes[{i}].start"),
                    stop=_number(ax_raw["stop"], f"sweep.axes[{i}].stop"),
                    count=count,
                    scale=scale,
                )
            )
        quantities = tuple(sweep_raw["quantities"])
        for q in quantities:
            if q not in SWEEP_QUANTITIES:
                raise ConfigError(
                    f"sweep.quantities: '{q}' not one of {SWEEP_QUANTITIES}"
                )
        if not quantities:
            raise ConfigError("sweep.quantities: at least one quantity required")
        sweep = SweepSpec(axes=tuple(axes), quantities=quantities)

    out_raw, a = _check_block(doc.get("output", {}), _OUTPUT_KEYS, "output")
    applied += a
    output = OutputSpec(dir=str(out_raw["dir"]), prefix=str(out_raw["prefix"]))

    return RunConfig(
        system=system,
        noise=noise,
        excitation=excitation,
        sim=sim,
        sweep=sweep,
        output=output,
        defaults_applied=tuple(applied),
        document=doc,
    )


def apply_override(doc: dict, dotted: str, raw_value: str) -> None:
    """Set a dotted key path in the raw document, parsing the value as JSON
    when possible and keeping it as a string otherwise."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"--set {dotted}: '{part}' is not an object")
        node = nxt
    node[parts[-1]] = value
