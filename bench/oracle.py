"""Independent coverage oracle for checking the program's analysis.

Built from the model's definitions alone; it imports nothing from
``uavcov``.  One interferer at horizontal offset z (density 2z/R^2 on
[0, R]) and altitude x (uniform on [0, H] while dwelling,
6x/H^2 - 6x^2/H^3 while moving) lies at distance w = sqrt(z^2 + x^2).  Under
Nakagami-m fading its received power g w^-alpha, g ~ Gamma(m, 1/m), has the
Laplace transform

    phi(s) = E[(1 + s w^-alpha / m)^-m],

whose k-th derivative in s is

    phi^(k)(s) = (-1)^k (m)_k m^-k E[w^(-alpha k) (1 + s w^-alpha / m)^-(m+k)].

Both expectations are integrated in 2D over (z, x) with tensor Gauss-Legendre
panels.  The integrand is analytic except near the origin, where its length
scale is (s/m)^(1/alpha), so the panels are graded geometrically toward the
origin around that scale.  The mixture p phi_static + (1 - p) phi_moving is
raised to the M-th power as a truncated power series (J.C.P. Miller's
recurrence), and coverage under serving shape m0 is

    P = sum_{k<m0} (-s0)^k / k! L^(k)(s0),   s0 = m0 psi h0^alpha.

Every term of that sum is non-negative (L is completely monotone), so the
sum has no cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Geometry", "phase_derivatives", "coverage", "stay_probability"]

_NODES = 16
_GRADING = 12   # panels below the integrand's length scale, halving each time


@dataclass(frozen=True)
class Geometry:
    """Cylinder radius R, height H, serving altitude h0, exponent alpha."""

    radius: float
    height: float
    serving_altitude: float
    alpha: float = 2.0


def stay_probability(speed_min, speed_max, dwell_min, dwell_max, height) -> float:
    """E[dwell] / (E[dwell] + E[leg] E[1/V]) with E[leg] = H/3, V ~ U[vmin, vmax]."""
    e_dwell = 0.5 * (dwell_min + dwell_max)
    e_travel = (height / 3.0) * math.log(speed_max / speed_min) / (speed_max - speed_min)
    return e_dwell / (e_dwell + e_travel)


def _nodes(upper: float, scale: float, nodes: int):
    """Gauss-Legendre nodes and weights on [0, upper], graded toward 0."""
    cuts = [scale * 2.0 ** j for j in range(-_GRADING, 64)]
    cuts = [c for c in cuts if c < upper]
    edges = np.array([0.0] + cuts + [upper])
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def phase_derivatives(s: float, m: int, order: int, geo: Geometry, nodes: int = _NODES):
    """phi^(k)(s) for k = 0..order, for the dwelling and the moving phase.

    Returns a dict {"static": array, "moving": array}.
    """
    if not s > 0:
        raise ValueError(f"need s > 0, got {s}")
    R, H, alpha = geo.radius, geo.height, geo.alpha
    scale = (s / m) ** (1.0 / alpha)
    z, wz = _nodes(R, scale, nodes)
    x, wx = _nodes(H, scale, nodes)
    wz = wz * 2.0 * z / R**2
    w_alpha = (z[:, None] ** 2 + x[None, :] ** 2) ** (alpha / 2.0)
    # w^(-alpha k) (1 + s w^-alpha/m)^-(m+k) = t^m (m / (m w^alpha + s))^k
    denom = m * w_alpha + s
    t_m = (m * w_alpha / denom) ** m
    ratio = m / denom
    densities = {
        "static": wx / H,
        "moving": wx * (6.0 * x / H**2 - 6.0 * x**2 / H**3),
    }
    out = {phase: np.empty(order + 1) for phase in densities}
    g = t_m
    for k in range(order + 1):
        factor = (-1.0) ** k * math.prod(m + i for i in range(k)) / float(m) ** k
        for phase, dens in densities.items():
            out[phase][k] = factor * float(wz @ g @ dens)
        g = g * ratio
    return out


def _series_power(a: np.ndarray, n: int) -> np.ndarray:
    """Taylor coefficients of f^n from those of f (a[0] != 0), truncated."""
    b = np.zeros_like(a)
    b[0] = a[0] ** n
    for k in range(1, a.size):
        b[k] = sum((n * j - k + j) * a[j] * b[k - j] for j in range(1, k + 1)) / (k * a[0])
    return b


def coverage(psi: float, n_interferers: int, m0: int, m1: int, p_stay: float,
             geo: Geometry, nodes: int = _NODES) -> float:
    """Coverage probability P(SIR > psi) at a linear threshold psi."""
    if n_interferers == 0:
        return 1.0
    s0 = m0 * psi * geo.serving_altitude**geo.alpha
    phi = phase_derivatives(s0, m1, m0 - 1, geo, nodes)
    mix = p_stay * phi["static"] + (1.0 - p_stay) * phi["moving"]
    mix = mix / np.array([math.factorial(k) for k in range(m0)])
    series = _series_power(mix, n_interferers)
    return math.fsum(series[k] * (-s0) ** k for k in range(m0))
