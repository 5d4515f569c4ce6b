"""Coverage probability of the reference user under gamma-distributed fading.

With the serving gain g0 ~ Gamma(m0, rate m0), the event SIR > psi is
g0 > psi h0^alpha I, and the integer-shape gamma tail turns the average over
the interference I into derivatives of its Laplace transform:

    P_cov = sum_{k=0}^{m0-1} (-s0)^k / k! * d^k/ds^k L_I(s) |_{s=s0},
    s0 = m0 psi h0^alpha.

coverage_sweep is the one evaluator: a whole threshold grid goes through
one kernel call (interference.laplace_jets), which hands over each term
(-s0)^k L_I^(k)(s0) / k! already formed, so the sum never forms (-s0)^k,
which overflows a float at large thresholds.

All thresholds here are linear-scale; dB conversion belongs to the CLI
boundary and happens exactly once there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FadingConfig, NetworkConfig
from .errors import ConfigurationError, ConsistencyError
from .interference import laplace_jets

__all__ = ["SweepPoint", "coverage_sweep", "transform_argument"]

_CLAMP_EPS = 1e-10


def transform_argument(psi, net: NetworkConfig, fading: FadingConfig):
    """s0 = m0 psi h0^alpha, where the coverage sum at linear threshold psi
    (a float or an array) evaluates L_I and its derivatives."""
    return fading.serving_m * psi * net.serving_altitude**net.path_loss_exponent


@dataclass(frozen=True)
class SweepPoint:
    """One row of a threshold sweep; error is None unless the point failed.

    s0 is the row's transform argument, also on failed rows.  phi_static
    and phi_moving are the phase factors at s0, as evaluated for the
    coverage (also when the network has no interferers); they are None on
    failed rows only.
    """

    psi: float
    coverage: float
    s0: float
    error: str | None = None
    phi_static: float | None = None
    phi_moving: float | None = None


def coverage_sweep(
    psi_values,
    net: NetworkConfig,
    fading: FadingConfig,
    stay_probability: float,
) -> list[SweepPoint]:
    """The coverage probability at every linear threshold of a grid.

    Output order follows the input grid, and every threshold above 0 goes
    through one kernel call.  A failing point (a threshold not above 0, or
    the kernel's error for its s0 alone) is reported in its row instead of
    aborting the sweep; the other rows are those of the grid without it.
    """
    psi_values = list(psi_values)
    if not psi_values:
        raise ConfigurationError("threshold grid must be non-empty")
    if not 0 <= stay_probability <= 1:
        raise ConfigurationError(f"stay probability must lie in [0, 1], got {stay_probability}")
    psi = np.asarray(psi_values, dtype=float)
    with np.errstate(over="ignore"):  # an s0 beyond the float range is inf and fails its row
        s0 = transform_argument(psi, net, fading)
    valid = psi > 0
    m0 = int(fading.serving_m)
    rows = iter(laplace_jets(s0[valid], m0 - 1, net, fading, stay_probability))
    points = []
    for x, s, ok in zip(psi_values, s0.tolist(), valid.tolist()):
        row = next(rows) if ok else ConfigurationError(
            f"SIR threshold must be > 0 (linear), got {x}")
        if not isinstance(row, Exception):
            # row[0][k] = (-s0)^k L^(k)(s0)/k!, so the coverage sum is their
            # plain sum.  L_I is completely monotone, so every term is >= 0
            # and the sum does not cancel.
            p = math.fsum(row[0])
            if -_CLAMP_EPS <= p < 0.0:
                p = 0.0
            elif 1.0 < p <= 1.0 + _CLAMP_EPS:
                p = 1.0
            elif p < 0.0 or p > 1.0:
                row = ConsistencyError(f"coverage probability {p} outside [0, 1] by more "
                                       f"than round-off (psi={x}, m0={m0})")
        if isinstance(row, Exception):
            points.append(SweepPoint(x, math.nan, s, error=f"{type(row).__name__}: {row}"))
        else:
            points.append(SweepPoint(x, p, s, phi_static=row[1], phi_moving=row[2]))
    return points
