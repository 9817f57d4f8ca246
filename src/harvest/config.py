"""Run-configuration schema: strict JSON parsing with fail-closed validation.

A run document is one JSON object with blocks ``system``, ``noise``,
``excitation`` and optionally ``sim``, ``sweep``, ``output``.  Unknown keys are
rejected with a path-qualified message; omitted keys fall back to documented
defaults and every applied default is recorded for provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from .averaging import GridSpec
from .errors import ConfigError, ParameterError
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


# Each reader takes a value and its key path and returns the value read, or
# raises ConfigError naming the path.


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _optional_number(value: Any, path: str) -> float | None:
    return None if value is None else _number(value, path)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _nested(value: Any, path: str) -> Any:
    """A block inside a block, read by its own table after its parent."""
    return value


def _text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _param(value: Any, path: str) -> str:
    if not isinstance(value, str) or value not in _AXIS_PARAMS:
        raise ConfigError(f"{path}: {value!r} is not a sweepable parameter")
    return value


def _count(value: Any, path: str) -> int:
    count = _integer(value, path)
    if count < 2:
        raise ConfigError(f"{path}: must be >= 2, got {count}")
    return count


def _scale(value: Any, path: str) -> str:
    if not isinstance(value, str) or value not in ("linear", "log"):
        raise ConfigError(f"{path}: must be 'linear' or 'log', got {value!r}")
    return value


def _axes(value: Any, path: str) -> list:
    if not isinstance(value, list) or not 1 <= len(value) <= 2:
        raise ConfigError(f"{path}: expected a list of 1 or 2 axis objects")
    return value


def _quantities(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of quantity names")
    for q in value:
        if not isinstance(q, str) or q not in SWEEP_QUANTITIES:
            raise ConfigError(f"{path}: {q!r} not one of {SWEEP_QUANTITIES}")
    if not value:
        raise ConfigError(f"{path}: at least one quantity required")
    return tuple(value)


# One table per block, {key: (reader, default)}, in the order the keys are
# read and their defaults recorded.
_REQUIRED = object()

_SYSTEM = {
    "delta1": (_number, _REQUIRED), "delta3": (_number, _REQUIRED),
    "kappa": (_number, 0.0), "alpha": (_number, 0.05), "beta": (_number, 0.0),
    "mu": (_number, 0.0), "nu": (_number, 0.0),
    "tau1": (_number, 0.0), "tau2": (_number, 0.0),
}
_NOISE = {"D": (_number, _REQUIRED), "c": (_number, _REQUIRED)}
_EXCITATION = {"eps": (_number, 0.0), "G": (_number, 0.1), "Omega": (_number, 0.05)}
_SIM = {
    "dt": (_number, 0.01),
    "t_total": (_number, 2000.0),
    "t_transient": (_optional_number, None),
    "n_traj": (_integer, 100),
    "seed": (_integer, 0),
    "x0": (_optional_number, None),
    "v0": (_number, 0.0),
    "V0": (_number, 0.0),
    "grid": (_nested, None),
    "psd": (_nested, None),
}
_GRID = {
    "x_min": (_number, -2.5), "x_max": (_number, 2.5), "nx": (_integer, 64),
    "v_min": (_number, -3.0), "v_max": (_number, 3.0), "nv": (_integer, 64),
}
_PSD = {
    "segment_time": (_number, _REQUIRED), "overlap": (_number, 0.5),
    "n_bootstrap": (_integer, 200),
}
_AXIS = {
    "param": (_param, _REQUIRED), "start": (_number, _REQUIRED),
    "stop": (_number, _REQUIRED), "count": (_count, _REQUIRED),
    "scale": (_scale, "linear"),
}
_SWEEP = {"axes": (_axes, _REQUIRED), "quantities": (_quantities, ("power",))}
_OUTPUT = {"dir": (_text, "."), "prefix": (_text, "harvest")}

_AXIS_PARAMS = (
    {f"system.{k}" for k in _SYSTEM} | {f"noise.{k}" for k in _NOISE}
    | {f"excitation.{k}" for k in _EXCITATION}
)


def _block(raw: Any, table: dict, path: str, applied: list[str]) -> dict:
    """Read one block by its table: reject unknown keys and missing required
    ones, append to applied the path of each default used, and read each
    value given."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    out = {}
    for key, (read, default) in table.items():
        if key in raw:
            out[key] = read(raw[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required key missing")
        else:
            out[key] = default
            applied.append(f"{path}.{key}")
    return out


def parse_config(document: str | dict) -> RunConfig:
    """Parse and validate one JSON run document into a RunConfig.

    Physical-validity violations (negative stiffness and the like) surface as
    ParameterError from the domain types; schema violations as ConfigError,
    and so is a sweep axis with an end out of its parameter's range.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except ValueError as e:  # JSONDecodeError or the int-string limit
            raise ConfigError(f"invalid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = set(doc) - {"system", "noise", "excitation", "sim", "sweep", "output"}
    if unknown:
        raise ConfigError(f"top level: unknown key(s) {sorted(unknown)}")
    for req in ("system", "noise"):
        if req not in doc:
            raise ConfigError(f"top level: required block '{req}' missing")

    applied: list[str] = []
    system = SystemParams(**_block(doc["system"], _SYSTEM, "system", applied))
    noise = NoiseParams(**_block(doc["noise"], _NOISE, "noise", applied))
    excitation = ExcitationParams(
        **_block(doc.get("excitation", {}), _EXCITATION, "excitation", applied)
    )
    sim_raw = _block(doc.get("sim", {}), _SIM, "sim", applied)
    grid = {} if sim_raw["grid"] is None else sim_raw["grid"]
    sim_raw["grid"] = GridSpec(**_block(grid, _GRID, "sim.grid", applied))
    if sim_raw["psd"] is not None:
        sim_raw["psd"] = PsdSettings(**_block(sim_raw["psd"], _PSD, "sim.psd", applied))
    sim = SimConfig(**sim_raw)

    sweep = None
    blocks = {"system": system, "noise": noise, "excitation": excitation}
    if "sweep" in doc:
        sweep_raw = _block(doc["sweep"], _SWEEP, "sweep", applied)
        axes = []
        for i, raw in enumerate(sweep_raw["axes"]):
            path = f"sweep.axes[{i}]"
            ax = SweepAxis(**_block(raw, _AXIS, path, applied))
            if ax.scale == "log" and not (ax.start > 0 and ax.stop > 0):
                raise ConfigError(f"{path}: log scale needs positive bounds")
            block, key = ax.param.split(".", 1)
            for end in (ax.start, ax.stop):  # each domain check bounds one side
                try:
                    replace(blocks[block], **{key: end})
                except ParameterError as e:
                    raise ConfigError(f"{path}: {e}") from e
            if any(other.param == ax.param for other in axes):
                raise ConfigError(f"{path}.param: '{ax.param}' is swept twice")
            axes.append(ax)
        sweep = SweepSpec(axes=tuple(axes), quantities=sweep_raw["quantities"])

    return RunConfig(
        system=system,
        noise=noise,
        excitation=excitation,
        sim=sim,
        sweep=sweep,
        output=OutputSpec(**_block(doc.get("output", {}), _OUTPUT, "output", applied)),
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
    except ValueError as e:  # an integer literal beyond the int-string limit
        raise ConfigError(f"--set {dotted}: {e}") from e
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
