"""Closed-form altitude and 3D distance laws of an interferer, by mobility phase.

An interferer's altitude h is uniform on [0, H] while parked at a waypoint
("static" phase) and follows the stationary random-waypoint parabola
f(x) = 6x/H^2 - 6x^2/H^3 mid-leg ("moving" phase).  Its horizontal offset Z
is the norm of a uniform point on the disk of radius R, independent of h.
The one phase-specific datum is _ALTITUDE_CDF, each phase's altitude cdf
F_h as coefficients in u = x/H; every law here is derived from it.  With
v = sqrt(max(w^2 - R^2, 0)) the distance W = sqrt(h^2 + Z^2) has

    f_W(w) = (2w/R^2) [F_h(min(w, H)) - F_h(v)],

three polynomial pieces with breakpoints w = H and w = R (the order needs
H < R), the top one in v (piece_polynomials, the kernel's form).  The cdf
pieces are their antiderivatives.  Nothing here draws: the simulator's launch
(simulator.initial_state) samples these laws, and validation holds its draws
to the cdfs by Kolmogorov-Smirnov.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, UnsupportedGeometryError

__all__ = [
    "PHASES",
    "AltitudeDistribution",
    "DistanceDistribution",
    "smoothstep_inverse",
]

# Each phase's altitude cdf on [0, H]: coefficients of u^0, u^1, ... in u = x/H.
# Uniform while dwelling; the random-waypoint parabola's 3u^2 - 2u^3 mid-leg.
_ALTITUDE_CDF = {"static": (0.0, 1.0), "moving": (0.0, 0.0, 3.0, -2.0)}
PHASES = tuple(_ALTITUDE_CDF)

# Round-off smaller than this is clamped at the [0, 1] probability boundary;
# anything larger is a genuine bug and raises instead.
_CLAMP_EPS = 1e-14


def _check_phase(phase: str):
    if phase not in PHASES:
        raise DomainError(f"phase must be one of {PHASES}, got {phase!r}")


def _clamp_unit(p: np.ndarray) -> np.ndarray:
    low = p.min() if p.size else 0.0
    high = p.max() if p.size else 0.0
    if low < -_CLAMP_EPS or high > 1.0 + _CLAMP_EPS:
        raise ConsistencyError(
            f"probability outside [0,1] by more than round-off: range [{low}, {high}]"
        )
    return np.clip(p, 0.0, 1.0)


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule: plain arithmetic, so floats and
    arrays alike."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _antiderivative(coeffs) -> tuple:
    """The coefficients of the antiderivative that vanishes at 0."""
    return (0.0, *(c / (j + 1) for j, c in enumerate(coeffs)))


def smoothstep_inverse(p) -> np.ndarray:
    """Solve 3u^2 - 2u^3 = p for u in [0, 1] in closed form (vectorized).

    The left side is strictly increasing on [0, 1], so the root is unique.
    With q = min(p, 1 - p) the triple-angle identity gives
    u = 2 sin(phi) cos(phi - pi/6), phi = arcsin(sqrt(q)) / 3, which loses
    no digits as q -> 0; the symmetry u(p) = 1 - u(1 - p) covers p > 1/2,
    where 1 - p is exact.
    """
    p = np.asarray(p, dtype=float)
    if p.size and not (p.min() >= 0 and p.max() <= 1):  # NaN fails both
        raise DomainError("smoothstep_inverse expects probabilities in [0, 1]")
    upper = p > 0.5
    phi = np.arcsin(np.sqrt(np.where(upper, 1.0 - p, p))) / 3.0
    u = 2.0 * np.sin(phi) * np.cos(phi - np.pi / 6.0)
    return np.where(upper, 1.0 - u, u)


@dataclass(frozen=True)
class AltitudeDistribution:
    """Altitude law of an interferer conditioned on its mobility phase."""

    phase: str
    height: float

    def __post_init__(self):
        _check_phase(self.phase)
        if not self.height > 0:
            raise DomainError(f"height must be > 0, got {self.height}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DomainError("altitude must not be NaN")
        out = _horner(_ALTITUDE_CDF[self.phase], np.clip(x / self.height, 0.0, 1.0))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DistanceDistribution:
    """User-to-interferer 3D distance law, conditioned on mobility phase.

    Support is [0, sqrt(R^2 + H^2)]; the cdf is continuous across the
    segment breakpoints w = H and w = R.
    """

    phase: str
    radius: float
    height: float

    def __post_init__(self):
        _check_phase(self.phase)
        if not (self.radius > 0 and self.height > 0):
            raise DomainError("radius and height must be > 0")
        if not self.height < self.radius:
            raise UnsupportedGeometryError(
                f"piecewise distance law requires height < radius, got "
                f"H={self.height}, R={self.radius}"
            )

    @property
    def support_max(self) -> float:
        return math.hypot(self.radius, self.height)

    def _checked(self, w) -> tuple[np.ndarray, bool]:
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(np.asarray(w, dtype=float))
        wmax = self.support_max
        if w.size and not (w.min() >= 0 and w.max() <= wmax * (1 + 1e-12)):  # NaN fails both
            raise DomainError(
                f"distance outside support [0, {wmax}]: range [{w.min()}, {w.max()}]"
            )
        return np.minimum(w, wmax), scalar

    def _shell_offset(self, w: np.ndarray) -> np.ndarray:
        """v = sqrt(max(w^2 - R^2, 0)), from (w - R)(w + R) for the digits near R."""
        R = self.radius
        return np.sqrt(np.maximum((w - R) * (w + R), 0.0))

    def cdf(self, w):
        """The antiderivatives of piece_polynomials' pieces; the top one is 1
        minus the shell's integral from v to H, so cdf(support_max) is 1."""
        w, scalar = self._checked(w)
        R, H = self.radius, self.height
        low, mid, shell = map(_antiderivative, self.piece_polynomials())
        low_H, mid_H, shell_H = _horner(low, H), _horner(mid, H), _horner(shell, H)
        out = np.piecewise(w, [w < H, (w >= H) & (w < R), w >= R], [
            lambda x: _horner(low, x),
            lambda x: low_H + (_horner(mid, x) - mid_H),
            lambda x: 1.0 - (shell_H - _horner(shell, self._shell_offset(x)))])
        out = _clamp_unit(out)
        return float(out[0]) if scalar else out

    def piece_polynomials(self):
        """The pdf pieces as polynomials: (low, mid, shell), each the
        coefficients of x^0..x^4 (F_h is at most cubic).

        low = (2x/R^2) F_h(x), whose x^(k+1) coefficient is 2 c_k / (R^2 H^k)
        for F_h's u^k coefficient c_k, and mid = 2x/R^2 are the [0, H] and
        [H, R] pieces in x = w.  shell = mid - low is the top piece pulled
        back through w = sqrt(R^2 + v^2), in x = v on [0, H]: the density of
        v, pdf(w) v / w.  In v it has no square-root kink at v = 0 (w = R)
        and loses no digits to w^2 - R^2 near there.
        """
        R2, H = self.radius**2, self.height
        low = [0.0] * 5
        for k, c in enumerate(_ALTITUDE_CDF[self.phase]):
            # R^2 H^k in the hand-written forms' order: the paper's phases keep their bits
            low[k + 1] = 2.0 * c / (R2 * H * H ** (k - 1))
        mid = (0.0, 2.0 / R2, 0.0, 0.0, 0.0)
        return tuple(low), mid, tuple(a - b for a, b in zip(mid, low))

    def pdf(self, w):
        w, scalar = self._checked(w)
        H, F = self.height, _ALTITUDE_CDF[self.phase]
        out = 2.0 * w / self.radius**2 * (_horner(F, np.minimum(w, H) / H)
                                          - _horner(F, self._shell_offset(w) / H))
        out = np.maximum(out, 0.0)
        return float(out[0]) if scalar else out
