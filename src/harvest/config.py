"""Run-configuration schema: strict JSON parsing with fail-closed validation.

A run document is one JSON object with blocks ``system``, ``noise``,
``excitation`` and optionally ``sim``, ``sweep``, ``output``.  Unknown keys are
rejected with a path-qualified message.  An omitted key takes its type's
default (the field's own on SystemParams, SimConfig, ...), so the library and
the CLI share every default; each default applied is recorded for provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

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

# The spacing of an axis's coordinates, by its scale.
_SCALES = {"linear": np.linspace, "log": np.geomspace}


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        """The count coordinates of the axis, start to stop, by its scale."""
        return _SCALES[self.scale](self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...] = ("power",)


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
    if not isinstance(value, str) or value not in _SCALES:
        names = " or ".join(map(repr, _SCALES))
        raise ConfigError(f"{path}: must be {names}, got {value!r}")
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


def _table(source, **readers) -> dict:
    """The table of a block that fills the fields of the dataclass (or
    instance) source: one key per field, in field order, read by
    readers[key] or else _number, with source's value of the field as its
    default, or _REQUIRED where source has none."""
    return {
        f.name: (readers.get(f.name, _number), getattr(source, f.name, _REQUIRED))
        for f in fields(source)
    }


_SYSTEM = _table(SystemParams)
_NOISE = _table(NoiseParams)
_EXCITATION = _table(ExcitationParams)
# an omitted or null grid is read as {}, so its keys take the default grid's
_SIM = _table(
    SimConfig, t_transient=_optional_number, n_traj=_integer, seed=_integer,
    x0=_optional_number, psd=_nested,
) | {"grid": (_nested, None)}
_GRID = _table(SimConfig().grid, nx=_integer, nv=_integer)
_PSD = _table(PsdSettings, n_bootstrap=_integer)
_AXIS = _table(SweepAxis, param=_param, count=_count, scale=_scale)
_SWEEP = _table(SweepSpec, axes=_axes, quantities=_quantities)
_OUTPUT = _table(OutputSpec, dir=_text, prefix=_text)

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


def parse_config(doc: dict) -> RunConfig:
    """Parse and validate one run document (read_document) into a RunConfig.

    Physical-validity violations (negative stiffness and the like) surface as
    ParameterError from the domain types; schema violations as ConfigError,
    and so is a sweep axis with an end out of its parameter's range.
    """
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


def read_document(path: str, overrides: list[str], seed: int | None) -> dict:
    """The JSON object in the file at path, patched by each KEY=VALUE of
    overrides and then by the seed, if one is given, through apply_override."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e
    except ValueError as e:  # invalid UTF-8, or an integer beyond the digit limit
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"--set {override!r}: expected KEY=VALUE")
        apply_override(doc, *override.split("=", 1))
    if seed is not None:
        apply_override(doc, "sim.seed", str(seed))
    return doc


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
