"""Scenario documents: JSON serialization of a complete run description.

Field names carry their units (``_m`` meters, ``_s`` seconds, ``_mps``
meters/second, ``_db`` decibels).  One table (``_TABLE``) holds the format:
parsing, serialization and `sweep --param` follow it, the two round-trip
exactly, and scenario-level validation happens before any computation.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .config import FadingConfig, MobilityConfig, NetworkConfig
from .errors import ConfigurationError, UnsupportedGeometryError

__all__ = ["SimParams", "Scenario", "scenario_from_dict", "scenario_to_dict", "sweep_type",
           "load_scenario", "dump_scenario", "atomic_write_text"]


@dataclass(frozen=True)
class SimParams:
    """Monte Carlo campaign sizing and seeding."""

    n_snapshots: int = 200_000
    dt: float = 1.0
    stride: int = 10
    seed: int = 1
    chains: int = 128

    def __post_init__(self):
        if self.n_snapshots < 1:
            raise ConfigurationError("sim.n_snapshots must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"sim.dt_s must be finite and > 0, got {self.dt}")
        if self.stride < 1 or self.chains < 1:
            raise ConfigurationError("sim.stride, sim.chains must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"sim.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Scenario:
    """A full run description: model configs plus threshold grid and sizing."""

    network: NetworkConfig
    fading: FadingConfig
    mobility: MobilityConfig
    psi_grid_db: tuple[float, ...]
    sim: SimParams
    _psi_linear: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = tuple(map(float, self.psi_grid_db))
        if not grid:
            raise ConfigurationError("psi_grid_db must be non-empty")
        # b <= a, not a < b: a NaN fails the finite-threshold test below instead
        if any(map(float.__le__, grid[1:], grid)):
            raise ConfigurationError("psi_grid_db must be strictly increasing")
        object.__setattr__(self, "psi_grid_db", grid)
        try:
            linear = tuple([10.0 ** (db / 10.0) for db in grid])
        except OverflowError:
            linear = None
        if linear is None or not all(map(math.isfinite, linear)):
            for db in grid:  # value by value, to name the first without one
                try:
                    finite = math.isfinite(10.0 ** (db / 10.0))
                except OverflowError:
                    finite = False
                if not finite:
                    raise ConfigurationError(
                        f"psi_grid_db value {db!r} dB has no finite linear threshold")
        object.__setattr__(self, "_psi_linear", linear)
        if not self.network.height < self.network.radius:
            raise UnsupportedGeometryError(
                "scenario geometry unsupported: the piecewise distance laws and "
                f"closed forms require height < radius, got height="
                f"{self.network.height}, radius={self.network.radius}"
            )

    def psi_grid_linear(self) -> tuple[float, ...]:
        """dB thresholds on the linear scale, converted once by __post_init__."""
        return self._psi_linear


def _integral(value, name: str) -> int:
    """An integral JSON number as int; bools, fractions and strings are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number as float; bools, strings, other values and integers
    beyond the float range are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigurationError(f"{name} must be a number, got {value!r}")


def _flag(value, name: str) -> bool:
    """A JSON boolean; 0, 1, strings and null are rejected."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _bands(value, name: str) -> tuple:
    """The band table: (low edge, high edge, integral shape) per band."""
    return tuple((_real(lo, f"{name}[{i}] edge"), _real(hi, f"{name}[{i}] edge"),
                  _integral(m, f"{name}[{i}] shape")) for i, (lo, hi, m) in enumerate(value))


def _grid(value, name: str) -> tuple:
    """The threshold grid as floats, each value read as _real reads it: one
    type test and one conversion for the whole list, and value by value
    only to name the first that is not a number."""
    try:
        if set(map(type, value)) <= {int, float}:
            return tuple(map(float, value))
    except (TypeError, OverflowError):
        pass
    return tuple(_real(v, f"{name} value") for v in value)


def _reject_unknown(keys, known, where: str) -> None:
    """Raise ConfigurationError for the first of keys not in known, naming
    the closest known key where there is one."""
    for key in keys:
        if key not in known:
            import difflib  # on the error path only: its import takes about 1 ms

            close = difflib.get_close_matches(key, list(known), n=1)
            hint = f" (did you mean {where}{close[0]}?)" if close else ""
            raise ConfigurationError(f"unknown scenario field {where}{key}{hint}")


def _read(doc, section: str = ""):
    """The dataclass that `section` of the table builds from the JSON object
    doc.  A missing key leaves its field's default (a missing section reads
    as {}), null is read only where that default is null, and an unknown
    key is an error."""
    cls, keys = _TABLE[section]
    where = f"{section}." if section else ""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{section or 'scenario document'} must be a JSON object")
    retired = _RETIRED_SIM_KEYS if section == "sim" else ()
    _reject_unknown([key for key in doc if key not in retired], keys, where)
    defaults = _DEFAULTS[section]
    values = {}
    for key, (attr, read) in keys.items():
        value = doc.get(key, {} if read is _read else MISSING)
        if value is MISSING:
            if defaults[attr] is MISSING:
                raise ConfigurationError(f"scenario is missing field {where}{key}")
        elif value is not None or defaults[attr] is not None:
            values[attr] = read(value, where + key)
    return _fold_retired(doc, cls(**values)) if retired else cls(**values)


def _fold_retired(doc: dict, sim: SimParams) -> SimParams:
    """sim as the retired keys of its section doc amend it."""
    rule = doc.get("boundary_rule", "stay")
    if rule != "stay":
        raise ConfigurationError(f"sim.boundary_rule must be \"stay\", got {rule!r}")
    replications = _integral(doc.get("replications", 1), "sim.replications")
    if replications < 1:
        raise ConfigurationError(f"sim.replications must be >= 1, got {replications}")
    return sim if replications == 1 else replace(sim, chains=sim.chains * replications)


# The document format.  Each section names the dataclass it builds, and each
# JSON key the field it fills and the reader of its value; the top level ("")
# holds the sections, read by _read, and the threshold grid.
_TABLE = {
    "": (Scenario, {
        "network": ("network", _read), "fading": ("fading", _read),
        "mobility": ("mobility", _read), "psi_grid_db": ("psi_grid_db", _grid),
        "sim": ("sim", _read)}),
    "network": (NetworkConfig, {
        "radius_m": ("radius", _real), "height_m": ("height", _real),
        "serving_altitude_m": ("serving_altitude", _real),
        "n_interferers": ("n_interferers", _integral),
        "path_loss_exponent": ("path_loss_exponent", _real)}),
    "fading": (FadingConfig, {
        "serving_m": ("serving_m", _integral), "interferer_m": ("interferer_m", _integral),
        "altitude_dependent": ("altitude_dependent", _flag), "bands": ("bands", _bands)}),
    "mobility": (MobilityConfig, {
        "speed_min_mps": ("speed_min", _real), "speed_max_mps": ("speed_max", _real),
        "dwell_min_s": ("dwell_min", _real), "dwell_max_s": ("dwell_max", _real),
        "hop_range_m": ("hop_range", _real),
        "stay_probability_override": ("stay_probability_override", _real)}),
    "sim": (SimParams, {
        "n_snapshots": ("n_snapshots", _integral), "dt_s": ("dt", _real),
        "stride": ("stride", _integral), "seed": ("seed", _integral),
        "chains": ("chains", _integral)}),
}
# Keys of older documents, still read beside the table (_fold_retired):
# sim.warmup_steps is ignored, since campaigns start in the stationary law;
# sim.boundary_rule must be "stay"; and sim.replications sets of the chains
# run as one set of their product.
_RETIRED_SIM_KEYS = ("warmup_steps", "boundary_rule", "replications")
# Each section's field defaults (MISSING where a field has none), by field name.
_DEFAULTS = {section: {f.name: f.default for f in fields(cls)}
             for section, (cls, _) in _TABLE.items()}
_SWEPT_TYPES = {_real: float, _integral: int, _flag: bool}


def _json(value):
    """A field's value as JSON data: tuples as lists."""
    return [_json(v) for v in value] if isinstance(value, tuple) else value


def _write(obj, section: str = "") -> dict:
    """The JSON object of `section` of the table that obj, its dataclass, fills."""
    return {key: _write(getattr(obj, attr), key) if read is _read else _json(getattr(obj, attr))
            for key, (attr, read) in _TABLE[section][1].items()}


def sweep_type(dotted: str) -> type:
    """float, int or bool: the type of the field a dotted name
    (`network.n_interferers`) names.  A name outside the table, or a table
    (a section, the band table, the threshold grid), raises ConfigurationError."""
    section, _, key = dotted.rpartition(".")
    keys = _TABLE[section][1] if section in _TABLE else {}
    _reject_unknown([key], keys, f"{section}." if section else "")
    if keys[key][1] not in _SWEPT_TYPES:
        raise ConfigurationError(f"{dotted} is not sweepable: it holds a table, not a number")
    return _SWEPT_TYPES[keys[key][1]]


def scenario_from_dict(doc: dict, source: str = "scenario") -> Scenario:
    """The scenario a parsed document describes.  A field of the wrong type
    or form, or a key outside the format, raises ConfigurationError, naming
    `source` for a malformed value."""
    try:
        return _read(doc)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"{source} is malformed: {exc}") from exc


def scenario_to_dict(sc: Scenario) -> dict:
    return _write(sc)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, f"scenario {path!r}")


def dump_scenario(sc: Scenario, path: str) -> None:
    atomic_write_text(path, json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a new temporary file in the target directory, then rename,
    so the output gets the mode of any new file (0o666 less the umask); an
    OSError on the way raises ConfigurationError and leaves no temporary
    file.  The temporary is .tmp-<pid>-<n>.part, at the first n free."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        for n in itertools.count():
            try:
                fh = open(os.path.join(directory, f".tmp-{os.getpid()}-{n}.part"), "x",
                          encoding="utf-8", newline="\n")
                break
            except FileExistsError:
                pass
        with fh:
            tmp = fh.name
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigurationError(f"cannot write output {path!r}: {exc}") from exc
        raise
