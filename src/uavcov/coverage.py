"""Coverage probability of the reference user under gamma-distributed fading.

With the serving gain g0 ~ Gamma(m0, rate m0), the event SIR > psi is
g0 > psi h0^alpha I, and the integer-shape gamma tail turns the average over
the interference I into derivatives of its Laplace transform:

    P_cov = sum_{k=0}^{m0-1} (-s0)^k / k! * d^k/ds^k L_I(s) |_{s=s0},
    s0 = m0 psi h0^alpha.

All thresholds here are linear-scale; dB conversion belongs to the CLI
boundary and happens exactly once there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import FadingConfig, NetworkConfig
from .errors import ConfigurationError, ConsistencyError
from .interference import laplace_jet_and_phase_factors

__all__ = ["CoverageQuery", "SweepPoint", "coverage_probability", "coverage_sweep"]

_CLAMP_EPS = 1e-10


@dataclass(frozen=True)
class CoverageQuery:
    """One coverage evaluation point: linear SIR threshold plus model configs."""

    psi: float
    network: NetworkConfig
    fading: FadingConfig
    stay_probability: float

    def __post_init__(self):
        if not self.psi > 0:
            raise ConfigurationError(f"SIR threshold must be > 0 (linear), got {self.psi}")
        if not 0 <= self.stay_probability <= 1:
            raise ConfigurationError(
                f"stay probability must lie in [0, 1], got {self.stay_probability}"
            )


def coverage_probability(query: CoverageQuery) -> float:
    """Probability that the user's SIR exceeds the query threshold."""
    return _evaluate(query)[0]


def _evaluate(query: CoverageQuery) -> tuple[float, float | None, float | None]:
    """Coverage probability plus the static and moving phase factors at s0.

    The phase factors are None when the network has no interferers: the
    transform is then identically 1 and neither factor is evaluated.
    """
    net, fading = query.network, query.fading
    m0 = int(fading.serving_m)
    s0 = m0 * query.psi * net.serving_altitude**net.path_loss_exponent
    jet, phi_static, phi_moving = laplace_jet_and_phase_factors(
        s0, m0 - 1, net, fading, query.stay_probability
    )
    # jet.coeffs[k] = L^(k)(s0)/k!, so the sum telescopes to a plain
    # polynomial evaluation at -s0.  L_I is completely monotone, so every
    # term s0^k (-1)^k L^(k)(s0)/k! is >= 0 and the sum does not cancel.
    p = math.fsum(jet.coeffs[k] * (-s0) ** k for k in range(m0))
    if p < 0.0 or p > 1.0:
        if -_CLAMP_EPS <= p < 0.0:
            p = 0.0
        elif 1.0 < p <= 1.0 + _CLAMP_EPS:
            p = 1.0
        else:
            raise ConsistencyError(
                f"coverage probability {p} outside [0, 1] by more than round-off "
                f"(psi={query.psi}, m0={m0})"
            )
    return p, phi_static, phi_moving


@dataclass(frozen=True)
class SweepPoint:
    """One row of a threshold sweep; error is None unless the point failed.

    phi_static and phi_moving are the phase factors at the row's transform
    argument s0, as evaluated for the coverage; they are None on failed rows
    and when the network has no interferers.
    """

    psi: float
    coverage: float
    error: str | None = None
    phi_static: float | None = None
    phi_moving: float | None = None


def coverage_sweep(
    psi_values,
    net: NetworkConfig,
    fading: FadingConfig,
    stay_probability: float,
) -> list[SweepPoint]:
    """Evaluate the coverage probability over a grid of linear thresholds.

    Output order follows the input grid.  A failing point is reported in its
    row instead of aborting the sweep.
    """
    psi_values = list(psi_values)
    if not psi_values:
        raise ConfigurationError("threshold grid must be non-empty")
    points = []
    for psi in psi_values:
        try:
            p, phi_static, phi_moving = _evaluate(
                CoverageQuery(psi, net, fading, stay_probability)
            )
        except Exception as exc:  # surfaced per-row by contract
            points.append(SweepPoint(psi, math.nan, error=f"{type(exc).__name__}: {exc}"))
        else:
            points.append(SweepPoint(psi, p, phi_static=phi_static, phi_moving=phi_moving))
    return points
