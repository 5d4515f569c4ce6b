"""Scenario documents: JSON serialization of a complete run description.

Field names carry their units (``_m`` meters, ``_s`` seconds, ``_mps``
meters/second, ``_db`` decibels).  Parsing and serialization round-trip
exactly, and scenario-level validation happens before any computation.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from .config import FadingConfig, MobilityConfig, NetworkConfig
from .errors import ConfigurationError, UnsupportedGeometryError

__all__ = ["SimParams", "Scenario", "scenario_from_dict", "scenario_to_dict",
           "load_scenario", "dump_scenario", "atomic_write_text"]


@dataclass(frozen=True)
class SimParams:
    """Monte Carlo campaign sizing and seeding."""

    n_snapshots: int = 200_000
    dt: float = 1.0
    stride: int = 10
    seed: int = 1
    replications: int = 2
    chains: int = 64

    def __post_init__(self):
        if self.n_snapshots < 1:
            raise ConfigurationError("sim.n_snapshots must be >= 1")
        if not self.dt > 0:
            raise ConfigurationError("sim.dt_s must be > 0")
        if self.stride < 1 or self.replications < 1 or self.chains < 1:
            raise ConfigurationError("sim.stride, sim.replications, sim.chains must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """A full run description: model configs plus threshold grid and sizing."""

    network: NetworkConfig
    fading: FadingConfig
    mobility: MobilityConfig
    psi_grid_db: tuple[float, ...]
    sim: SimParams

    def __post_init__(self):
        grid = tuple(float(v) for v in self.psi_grid_db)
        if not grid:
            raise ConfigurationError("psi_grid_db must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("psi_grid_db must be strictly increasing")
        object.__setattr__(self, "psi_grid_db", grid)
        for db in grid:
            try:
                finite = math.isfinite(10.0 ** (db / 10.0))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigurationError(
                    f"psi_grid_db value {db!r} dB has no finite linear threshold"
                )
        if not self.network.height < self.network.radius:
            raise UnsupportedGeometryError(
                "scenario geometry unsupported: the piecewise distance laws and "
                f"closed forms require height < radius, got height="
                f"{self.network.height}, radius={self.network.radius}"
            )

    def psi_grid_linear(self) -> list[float]:
        """dB thresholds converted to linear scale (the one conversion point)."""
        return [10.0 ** (db / 10.0) for db in self.psi_grid_db]


_REQUIRED = object()


def _field(section: dict, section_name: str, key: str, default=_REQUIRED):
    if key in section:
        return section[key]
    if default is not _REQUIRED:
        return default
    raise ConfigurationError(f"scenario is missing field {section_name}.{key}")


def _integral(value, name: str) -> int:
    """An integral JSON number as int; bools, fractions and strings are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _int_field(section: dict, section_name: str, key: str, default=_REQUIRED) -> int:
    return _integral(_field(section, section_name, key, default), f"{section_name}.{key}")


def _bool_field(section: dict, section_name: str, key: str, default=_REQUIRED) -> bool:
    value = _field(section, section_name, key, default)
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"{section_name}.{key} must be true or false, got {value!r}"
        )
    return value


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a JSON object")
    for section in ("network", "fading", "mobility", "sim"):
        if section in doc and not isinstance(doc[section], dict):
            raise ConfigurationError(f"scenario section {section!r} must be an object")
    net_doc = doc.get("network", {})
    fad_doc = doc.get("fading", {})
    mob_doc = doc.get("mobility", {})
    sim_doc = doc.get("sim", {})

    network = NetworkConfig(
        radius=float(_field(net_doc, "network", "radius_m")),
        height=float(_field(net_doc, "network", "height_m")),
        serving_altitude=float(_field(net_doc, "network", "serving_altitude_m")),
        n_interferers=_int_field(net_doc, "network", "n_interferers"),
        path_loss_exponent=float(_field(net_doc, "network", "path_loss_exponent", 2.0)),
    )
    bands = _field(fad_doc, "fading", "bands", None)
    fading = FadingConfig(
        serving_m=_int_field(fad_doc, "fading", "serving_m", 1),
        interferer_m=_int_field(fad_doc, "fading", "interferer_m", 1),
        altitude_dependent=_bool_field(fad_doc, "fading", "altitude_dependent", False),
        bands=None if bands is None else tuple(
            (float(lo), float(hi), _integral(m, f"fading.bands[{i}] shape"))
            for i, (lo, hi, m) in enumerate(bands)
        ),
    )
    override = _field(mob_doc, "mobility", "stay_probability_override", None)
    mobility = MobilityConfig(
        speed_min=float(_field(mob_doc, "mobility", "speed_min_mps")),
        speed_max=float(_field(mob_doc, "mobility", "speed_max_mps")),
        dwell_min=float(_field(mob_doc, "mobility", "dwell_min_s")),
        dwell_max=float(_field(mob_doc, "mobility", "dwell_max_s")),
        hop_range=float(_field(mob_doc, "mobility", "hop_range_m")),
        stay_probability_override=None if override is None else float(override),
    )
    # sim.warmup_steps is no longer read: campaigns start in the stationary law
    rule = _field(sim_doc, "sim", "boundary_rule", "stay")
    if rule != "stay":
        raise ConfigurationError(f"sim.boundary_rule must be \"stay\", got {rule!r}")
    sim = SimParams(
        n_snapshots=_int_field(sim_doc, "sim", "n_snapshots", 200_000),
        dt=float(_field(sim_doc, "sim", "dt_s", 1.0)),
        stride=_int_field(sim_doc, "sim", "stride", 10),
        seed=_int_field(sim_doc, "sim", "seed", 1),
        replications=_int_field(sim_doc, "sim", "replications", 2),
        chains=_int_field(sim_doc, "sim", "chains", 64),
    )
    psi = _field(doc, "scenario", "psi_grid_db")
    return Scenario(network, fading, mobility, tuple(float(v) for v in psi), sim)


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "network": {
            "radius_m": sc.network.radius,
            "height_m": sc.network.height,
            "serving_altitude_m": sc.network.serving_altitude,
            "n_interferers": sc.network.n_interferers,
            "path_loss_exponent": sc.network.path_loss_exponent,
        },
        "fading": {
            "serving_m": sc.fading.serving_m,
            "interferer_m": sc.fading.interferer_m,
            "altitude_dependent": sc.fading.altitude_dependent,
            "bands": None
            if sc.fading.bands is None
            else [list(b) for b in sc.fading.bands],
        },
        "mobility": {
            "speed_min_mps": sc.mobility.speed_min,
            "speed_max_mps": sc.mobility.speed_max,
            "dwell_min_s": sc.mobility.dwell_min,
            "dwell_max_s": sc.mobility.dwell_max,
            "hop_range_m": sc.mobility.hop_range,
            "stay_probability_override": sc.mobility.stay_probability_override,
        },
        "psi_grid_db": list(sc.psi_grid_db),
        "sim": {
            "n_snapshots": sc.sim.n_snapshots,
            "dt_s": sc.sim.dt,
            "stride": sc.sim.stride,
            "seed": sc.sim.seed,
            "replications": sc.sim.replications,
            "chains": sc.sim.chains,
        },
    }


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    try:
        return scenario_from_dict(doc)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"scenario {path!r} is malformed: {exc}") from exc


def dump_scenario(sc: Scenario, path: str) -> None:
    atomic_write_text(path, json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
