"""Configuration types for the network, the fading model and the mobility model.

All values are plain SI units: meters, seconds, meters/second.  Instances are
frozen after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "NetworkConfig",
    "FadingConfig",
    "MobilityConfig",
    "derive_stay_probability",
    "kinematic_stay_probability",
    "resolve_fading_bands",
    "simulated_stay_probability",
]


def _require_finite(config, *names: str):
    """Raise ConfigurationError for the first named field that is not finite."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class NetworkConfig:
    """Geometry and population of the interference region.

    radius:              disk radius of the cylindrical region (m, > 0)
    height:              vertical extent of the region (m, > 0)
    serving_altitude:    fixed altitude of the serving node above the user (m, > 0)
    n_interferers:       number of mobile interferers (>= 0)
    path_loss_exponent:  free-space path loss exponent (>= 2)
    """

    radius: float
    height: float
    serving_altitude: float
    n_interferers: int
    path_loss_exponent: float = 2.0

    def __post_init__(self):
        _require_finite(self, "radius", "height", "serving_altitude", "n_interferers",
                        "path_loss_exponent")
        if not self.radius > 0:
            raise ConfigurationError(f"radius must be > 0, got {self.radius}")
        if not self.height > 0:
            raise ConfigurationError(f"height must be > 0, got {self.height}")
        if not self.serving_altitude > 0:
            raise ConfigurationError(
                f"serving_altitude must be > 0, got {self.serving_altitude}"
            )
        if self.n_interferers < 0 or int(self.n_interferers) != self.n_interferers:
            raise ConfigurationError(
                f"n_interferers must be a non-negative integer, got {self.n_interferers}"
            )
        if not self.path_loss_exponent >= 2:
            raise ConfigurationError(
                f"path_loss_exponent must be >= 2, got {self.path_loss_exponent}"
            )


@dataclass(frozen=True)
class FadingConfig:
    """Nakagami-m fading parameters.

    serving_m:           integer shape of the serving link gain (>= 1)
    interferer_m:        integer shape shared by all interferer links (>= 1)
    altitude_dependent:  if True, the simulator draws each interferer's shape
                         from the band containing its current altitude
                         (simulation-only mode: the analysis has no such
                         curve, and the CLI's analyze and sweep refuse it)
    bands:               optional ((low, high, m), ...) altitude bands, only
                         with altitude_dependent set; when None, equal thirds
                         of [0, H] with m = 1, 2, 3 are used
    """

    serving_m: int = 1
    interferer_m: int = 1
    altitude_dependent: bool = False
    bands: tuple[tuple[float, float, int], ...] | None = None

    def __post_init__(self):
        _require_finite(self, "serving_m", "interferer_m")
        for name, m in (("serving_m", self.serving_m), ("interferer_m", self.interferer_m)):
            if int(m) != m or m < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {m}")
        if self.bands is not None:
            if not self.altitude_dependent:
                raise ConfigurationError("fading.bands needs fading.altitude_dependent set")
            object.__setattr__(self, "bands", tuple(tuple(b) for b in self.bands))
            for low, high, m in self.bands:
                if not math.isfinite(m) or int(m) != m or m < 1:
                    raise ConfigurationError(f"band shape must be a positive integer, got {m}")
                if not low < high:
                    raise ConfigurationError(f"band interval [{low}, {high}) is empty")


def resolve_fading_bands(fading: FadingConfig, net: NetworkConfig):
    """Return the altitude bands as ((low, high, m), ...) covering [0, H].

    Explicit bands must partition [0, H] without gaps or overlap.  With no
    explicit bands, [0, H] is split into equal thirds with m = 1, 2, 3.
    """
    H = net.height
    if fading.bands is None:
        return ((0.0, H / 3, 1), (H / 3, 2 * H / 3, 2), (2 * H / 3, H, 3))
    bands = sorted(fading.bands)
    if not math.isclose(bands[0][0], 0.0, abs_tol=1e-9 * H):
        raise ConfigurationError("altitude bands must start at 0")
    if not math.isclose(bands[-1][1], H, rel_tol=1e-9):
        raise ConfigurationError(f"altitude bands must end at height {H}")
    for (_, hi_a, _), (lo_b, _, _) in zip(bands, bands[1:]):
        if not math.isclose(hi_a, lo_b, rel_tol=1e-9, abs_tol=1e-9 * H):
            raise ConfigurationError("altitude bands must tile [0, H] without gaps or overlap")
    return tuple(bands)


@dataclass(frozen=True)
class MobilityConfig:
    """Vertical waypoint mobility plus in-dwell spatial hopping.

    speed_min, speed_max:  vertical leg speed bounds (m/s, 0 < min < max)
    dwell_min, dwell_max:  waypoint dwell time bounds (s, 0 <= min <= max)
    hop_range:             radius of the uniform spatial hop disk (m, > 0)
    stay_probability_override:  when set, the analysis uses it verbatim instead
                           of the value derived from the dwell/speed
                           kinematics, so the stay probability can be swept
                           independently; a simulation runs the kinematics
                           and rejects an override that differs from them
    """

    speed_min: float
    speed_max: float
    dwell_min: float
    dwell_max: float
    hop_range: float
    stay_probability_override: float | None = None

    def __post_init__(self):
        _require_finite(self, "speed_min", "speed_max", "dwell_min", "dwell_max", "hop_range")
        if not 0 < self.speed_min < self.speed_max:
            raise ConfigurationError(
                f"need 0 < speed_min < speed_max, got [{self.speed_min}, {self.speed_max}]"
            )
        if not 0 <= self.dwell_min <= self.dwell_max:
            raise ConfigurationError(
                f"need 0 <= dwell_min <= dwell_max, got [{self.dwell_min}, {self.dwell_max}]"
            )
        if not self.hop_range > 0:
            raise ConfigurationError(f"hop_range must be > 0, got {self.hop_range}")
        if self.stay_probability_override is not None and not (
            0 <= self.stay_probability_override <= 1
        ):
            raise ConfigurationError(
                f"stay_probability_override must lie in [0, 1], got "
                f"{self.stay_probability_override}"
            )

    @property
    def mean_dwell_time(self) -> float:
        return 0.5 * (self.dwell_min + self.dwell_max)

    def mean_leg_length(self, height: float) -> float:
        """Mean vertical distance between consecutive waypoints, H/3."""
        return height / 3.0

    def mean_travel_time(self, height: float) -> float:
        """Mean leg duration E[L / V] for V uniform on [speed_min, speed_max]."""
        inv_speed_mean = math.log(self.speed_max / self.speed_min) / (
            self.speed_max - self.speed_min
        )
        return inv_speed_mean * self.mean_leg_length(height)

    @property
    def mean_hop_length(self) -> float:
        """Mean length of an unconstrained spatial hop, hop_range / 1.5."""
        return self.hop_range / 1.5


def kinematic_stay_probability(mob: MobilityConfig, net: NetworkConfig) -> float:
    """Long-run fraction of time an interferer spends dwelling at a waypoint.

    Ratio of the mean dwell time to the mean cycle time (dwell + vertical
    leg), p = E[D] / (E[D] + E[L/V]), whatever the override says.
    """
    e_dwell = mob.mean_dwell_time
    e_travel = mob.mean_travel_time(net.height)
    if e_dwell == 0:
        return 0.0
    return e_dwell / (e_dwell + e_travel)


def derive_stay_probability(mob: MobilityConfig, net: NetworkConfig) -> float:
    """The stay probability of the analysis: the override when set, else the kinematic one."""
    if mob.stay_probability_override is not None:
        return mob.stay_probability_override
    return kinematic_stay_probability(mob, net)


def simulated_stay_probability(mob: MobilityConfig, net: NetworkConfig) -> float:
    """The kinematic stay probability, which a simulation runs at; an
    override that differs from it cannot be simulated and is rejected."""
    p = kinematic_stay_probability(mob, net)
    if mob.stay_probability_override not in (None, p):
        raise ConfigurationError(
            f"stay_probability_override {mob.stay_probability_override!r} differs from the "
            f"kinematic stay probability {p!r} that the mobility process simulates"
        )
    return p
