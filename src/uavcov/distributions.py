"""Closed-form altitude and 3D distance laws of an interferer, by mobility phase.

An interferer sits at horizontal offset Z (norm of a uniform point on the
disk of radius R, so f_Z(z) = 2z/R^2) and altitude h.  While parked at a
waypoint ("static" phase) the altitude is uniform on [0, H]; mid-leg
("moving" phase) it follows the parabolic steady-state law
f(x) = 6x/H^2 - 6x^2/H^3.  The user-to-interferer distance is
W = sqrt(h^2 + Z^2), whose cdf/pdf take a three-segment piecewise form with
breakpoints at w = H and w = R (the case ordering requires H < R).  The pdf
pieces are written in plain arithmetic and serve both the array pdf and the
phase-factor quadrature oracle.  The phase-factor kernel reads the same law
as polynomial coefficients (piece_polynomials, held to the pieces by the
tests), with the top piece written in v = sqrt(w^2 - R^2), where it is a
polynomial.

Sampling counterparts draw by inverse transform so that empirical and
closed-form laws can be cross-validated at scale.
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

PHASES = ("static", "moving")

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


def smoothstep_inverse(p) -> np.ndarray:
    """Solve 3u^2 - 2u^3 = p for u in [0, 1] in closed form (vectorized).

    The left side is strictly increasing on [0, 1], so the root is unique.
    With q = min(p, 1 - p) the triple-angle identity gives
    u = 2 sin(phi) cos(phi - pi/6), phi = arcsin(sqrt(q)) / 3, which loses
    no digits as q -> 0; the symmetry u(p) = 1 - u(1 - p) covers p > 1/2,
    where 1 - p is exact.
    """
    p = np.asarray(p, dtype=float)
    if p.size and (p.min() < 0 or p.max() > 1):
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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        H = self.height
        inside = (x >= 0) & (x <= H)
        if self.phase == "static":
            out = np.where(inside, 1.0 / H, 0.0)
        else:
            out = np.where(inside, 6.0 * x / H**2 - 6.0 * x**2 / H**3, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip(x / self.height, 0.0, 1.0)
        if self.phase == "static":
            out = u
        else:
            out = u * u * (3.0 - 2.0 * u)
        return out if out.ndim else float(out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        if self.phase == "static":
            return self.height * u
        return self.height * smoothstep_inverse(u)


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
        if w.size and (w.min() < 0 or w.max() > wmax * (1 + 1e-12)):
            raise DomainError(
                f"distance outside support [0, {wmax}]: range [{w.min()}, {w.max()}]"
            )
        return np.minimum(w, wmax), scalar

    def cdf(self, w):
        w, scalar = self._checked(w)
        R, H = self.radius, self.height
        R2 = R * R
        out = np.empty_like(w)

        low = w < H
        mid = (w >= H) & (w < R)
        top = w >= R
        if self.phase == "static":
            out[low] = (2.0 / 3.0) * w[low] ** 3 / (R2 * H)
            out[mid] = w[mid] ** 2 / R2 - H * H / (3.0 * R2)
            shell = w[top] ** 2 - R2
            out[top] = (
                w[top] ** 2 / R2
                - H * H / (3.0 * R2)
                - (2.0 / 3.0) * shell**1.5 / (R2 * H)
            )
        else:
            out[low] = (
                -(4.0 / 5.0) * w[low] ** 5 / (R2 * H**3)
                + (3.0 / 2.0) * w[low] ** 4 / (R2 * H * H)
            )
            out[mid] = w[mid] ** 2 / R2 - 0.3 * H * H / R2
            shell = w[top] ** 2 - R2
            out[top] = (
                w[top] ** 2 / R2
                - 0.3 * H * H / R2
                - 1.5 * shell**2 / (R2 * H * H)
                + 0.8 * shell**2.5 / (R2 * H**3)
            )
        out = _clamp_unit(out)
        return float(out[0]) if scalar else out

    def pdf_pieces(self):
        """The pdf as (lo, hi, piece) on [0, H], [H, R] and [R, support_max].

        Each piece is plain arithmetic, so it takes a float or a numpy array
        alike; it holds the law only on its own segment.
        """
        R, H = self.radius, self.height
        R2 = R * R
        if self.phase == "static":
            def low(w):
                return 2.0 * w * w / (R2 * H)

            def top(w):
                shell = (w * w - R2) ** 0.5
                return 2.0 * w / R2 - 2.0 * w * shell / (R2 * H)
        else:
            def low(w):
                return -4.0 * w**4 / (R2 * H**3) + 6.0 * w**3 / (R2 * H * H)

            def top(w):
                shell = w * w - R2
                return (
                    2.0 * w / R2
                    - 6.0 * w * shell / (R2 * H * H)
                    + 4.0 * w * shell**1.5 / (R2 * H**3)
                )

        def mid(w):
            return 2.0 * w / R2

        return ((0.0, H, low), (H, R, mid), (R, self.support_max, top))

    def piece_polynomials(self):
        """The pdf pieces as polynomials: (low, mid, shell), each the
        coefficients of x^0..x^4.

        low and mid are the [0, H] and [H, R] pieces in x = w.  shell is the
        top piece pulled back through w = sqrt(R^2 + v^2), in x = v on
        [0, H]: the density of v, pdf(w) dw/dv = pdf(w) v / w.  In v it has
        no square-root kink at v = 0 (w = R), and it loses no digits to
        w^2 - R^2 near there.  They hold the law of pdf_pieces, in the form
        the phase-factor kernel evaluates at its nodes.
        """
        R2, H = self.radius**2, self.height
        mid = (0.0, 2.0 / R2, 0.0, 0.0, 0.0)
        if self.phase == "static":
            return ((0.0, 0.0, 2.0 / (R2 * H), 0.0, 0.0), mid,
                    (0.0, 2.0 / R2, -2.0 / (R2 * H), 0.0, 0.0))
        return ((0.0, 0.0, 0.0, 6.0 / (R2 * H * H), -4.0 / (R2 * H**3)), mid,
                (0.0, 2.0 / R2, 0.0, -6.0 / (R2 * H * H), 4.0 / (R2 * H**3)))

    def pdf(self, w):
        w, scalar = self._checked(w)
        (_, H, low), (_, R, mid), (_, _, top) = self.pdf_pieces()
        out = np.piecewise(w, [w < H, (w >= H) & (w < R), w >= R], [low, mid, top])
        out = np.maximum(out, 0.0)
        return float(out[0]) if scalar else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw distances as sqrt(h^2 + z^2) with z = R sqrt(U) on the disk."""
        z = self.radius * np.sqrt(rng.random(n))
        h = AltitudeDistribution(self.phase, self.height).sample(n, rng)
        return np.hypot(h, z)
