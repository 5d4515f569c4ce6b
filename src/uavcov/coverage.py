"""Coverage probability of the reference user under gamma-distributed fading.

With the serving gain g0 ~ Gamma(m0, rate m0), the event SIR > psi is
g0 > psi h0^alpha I, and the integer-shape gamma tail turns the average over
the interference I into derivatives of its Laplace transform:

    P_cov = sum_{k=0}^{m0-1} (-s0)^k / k! * d^k/ds^k L_I(s) |_{s=s0},
    s0 = m0 psi h0^alpha.

The interference layer hands over each term (-s0)^k L_I^(k)(s0) / k!
already formed (interference.laplace_jets), so the sum never forms (-s0)^k,
which overflows a float at large thresholds.

All thresholds here are linear-scale; dB conversion belongs to the CLI
boundary and happens exactly once there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FadingConfig, NetworkConfig
from .errors import ConfigurationError, ConsistencyError, DomainError
from .interference import laplace_jets

__all__ = ["CoverageQuery", "SweepPoint", "coverage_probability", "coverage_sweep",
           "transform_argument"]

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


def transform_argument(psi: float, net: NetworkConfig, fading: FadingConfig) -> float:
    """s0 = m0 psi h0^alpha, where the coverage sum at linear threshold psi
    evaluates L_I and its derivatives."""
    return fading.serving_m * psi * net.serving_altitude**net.path_loss_exponent


def coverage_probability(query: CoverageQuery) -> float:
    """Probability that the user's SIR exceeds the query threshold."""
    (row,) = _evaluate([query.psi], query.network, query.fading, query.stay_probability)
    if isinstance(row, Exception):
        raise row
    return row[0]


def _evaluate(psi_values, net: NetworkConfig, fading: FadingConfig, p_stay: float):
    """Per linear threshold: (coverage, phi_static, phi_moving) or its error.

    All thresholds share one kernel call (laplace_jets).  The phase factors
    are those at s0, with or without interferers.  A threshold so small
    that s0 / m rounds to 0 has no length scale to integrate at; it fails
    alone, and the other rows are those of the grid without it.
    """
    m0 = int(fading.serving_m)
    s0 = np.array([transform_argument(psi, net, fading) for psi in psi_values])
    kept = s0 / fading.interferer_m > 0.0
    rows = laplace_jets(s0[kept], m0 - 1, net, fading, p_stay)
    if not kept.all():
        computed = iter(rows)
        rows = [next(computed) if ok else DomainError(
                    f"threshold psi={psi!r} gives s0={s!r}, whose s0/m underflows to 0")
                for psi, s, ok in zip(psi_values, s0.tolist(), kept.tolist())]
    out = []
    for psi, row in zip(psi_values, rows):
        if isinstance(row, Exception):
            out.append(row)
            continue
        # row[0][k] = (-s0)^k L^(k)(s0)/k!, so the coverage sum is their plain
        # sum.  L_I is completely monotone, so every term is >= 0 and the sum
        # does not cancel.
        p = math.fsum(row[0])
        if p < 0.0 or p > 1.0:
            if -_CLAMP_EPS <= p < 0.0:
                p = 0.0
            elif 1.0 < p <= 1.0 + _CLAMP_EPS:
                p = 1.0
            else:
                out.append(ConsistencyError(
                    f"coverage probability {p} outside [0, 1] by more than round-off "
                    f"(psi={psi}, m0={m0})"
                ))
                continue
        out.append((p, row[1], row[2]))
    return out


@dataclass(frozen=True)
class SweepPoint:
    """One row of a threshold sweep; error is None unless the point failed.

    phi_static and phi_moving are the phase factors at the row's transform
    argument s0, as evaluated for the coverage (also when the network has
    no interferers); they are None on failed rows only.
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

    Output order follows the input grid, and every valid threshold shares
    one kernel call.  A failing point is reported in its row instead of
    aborting the sweep.
    """
    psi_values = list(psi_values)
    if not psi_values:
        raise ConfigurationError("threshold grid must be non-empty")
    results, valid = [None] * len(psi_values), []
    for i, psi in enumerate(psi_values):
        try:
            CoverageQuery(psi, net, fading, stay_probability)
        except ConfigurationError as exc:
            results[i] = exc
        else:
            valid.append(i)
    try:
        rows = _evaluate([psi_values[i] for i in valid], net, fading, stay_probability)
    except Exception as exc:  # surfaced per-row by contract
        rows = [exc] * len(valid)
    for i, row in zip(valid, rows):
        results[i] = row
    points = []
    for psi, row in zip(psi_values, results):
        if isinstance(row, Exception):
            points.append(SweepPoint(psi, math.nan, error=f"{type(row).__name__}: {row}"))
        else:
            points.append(SweepPoint(psi, row[0], phi_static=row[1], phi_moving=row[2]))
    return points
