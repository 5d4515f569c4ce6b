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

__all__ = ["Sweep", "coverage_sweep", "transform_argument"]

_CLAMP_EPS = 1e-10


def transform_argument(psi, net: NetworkConfig, fading: FadingConfig):
    """s0 = m0 psi h0^alpha, where the coverage sum at linear threshold psi
    (a float or an array) evaluates L_I and its derivatives."""
    return fading.serving_m * psi * net.serving_altitude**net.path_loss_exponent


@dataclass(frozen=True, eq=False)
class Sweep:
    """A threshold sweep as columns, one row per threshold of the grid.

    psi, coverage, s0 (the transform argument, also on failed rows),
    phi_static and phi_moving (the phase factors at s0, as evaluated for
    the coverage, also when the network has no interferers) are float
    arrays; coverage and the phase factors are NaN on failed rows.
    errors[i] is None, or the text of row i's error.  Sweeps compare by
    identity; compare their columns for equal values.
    """

    psi: np.ndarray
    coverage: np.ndarray
    s0: np.ndarray
    phi_static: np.ndarray
    phi_moving: np.ndarray
    errors: list[str | None]


def coverage_sweep(
    psi_values,
    net: NetworkConfig,
    fading: FadingConfig,
    stay_probability: float,
) -> Sweep:
    """The coverage probability at every linear threshold of a grid.

    Output order follows the input grid, and the whole grid goes through
    one kernel call.  A failing point (a threshold not above 0, or the
    kernel's error for its s0 alone) is reported in its row instead of
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
    m0 = int(fading.serving_m)
    # The kernel fails a row whose s0 is not above 0 by itself, and the
    # other rows do not depend on which rows share the call.
    jets, phi, failures = laplace_jets(s0, m0 - 1, net, fading, stay_probability)
    # jets[i, k] = (-s0)^k L^(k)(s0)/k!, so the coverage sum is their plain
    # sum, exactly rounded.  L_I is completely monotone, so every term is
    # >= 0 and the sum does not cancel.  Failed rows are NaN and stay so.
    sums = list(map(math.fsum, jets.tolist()))
    coverage = np.array(sums, dtype=float)
    # min and max pass over NaN unless it comes first, which only sends the
    # grid through the array check below.
    if not 0.0 <= min(sums) <= max(sums) <= 1.0:
        outside = np.flatnonzero((coverage < -_CLAMP_EPS) | (coverage > 1.0 + _CLAMP_EPS))
        for i in outside.tolist():
            failures[i] = ConsistencyError(
                f"coverage probability {sums[i]} outside [0, 1] by more than round-off "
                f"(psi={psi_values[i]}, m0={m0})")
        coverage[outside] = phi[outside] = math.nan
        np.minimum(coverage, 1.0, out=coverage)  # within round-off of [0, 1]: onto it
        np.maximum(coverage, 0.0, out=coverage)
    errors = [f"ConfigurationError: SIR threshold must be > 0 (linear), got {x}" if not ok
              else None if failure is None else f"{type(failure).__name__}: {failure}"
              for x, ok, failure in zip(psi_values, (psi > 0).tolist(), failures)]
    return Sweep(psi, coverage, s0, phi[:, 0], phi[:, 1], errors)
