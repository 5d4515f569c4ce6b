"""The paper's closed form of the phase factors at path-loss exponent 2, and
the Gauss hypergeometric function it reduces to.

This module is the Gauss-Legendre kernel's oracle (interference.
scaled_phase_jets): no production result goes through it, and importing the
CLI does not load it.  Only the `validate` checks and the tests call it.

At exponent 2, expanding the phase factor's integrand binomially in l and
integrating the three distance-law segments after the substitution y = w^2
yields sums of two primitive integrals,

    power segment:  ell/(2 R^2) * int_a^b y^(kappa/2 - 1) (1 + m y / s)^-l dy
    shell segment:  ell/(2 R^2) * int_{R^2}^{R^2+H^2}
                        (y - R^2)^(kappa/2) (1 + m y / s)^-l dy

both Gauss hypergeometric terms.  The kernel is the more accurate of the
two: against bench/oracle.py at R/H = 100/5 it stays within 9e-15
relative, where the closed form misses by up to 4.6e-11 at m = 12.  That
error comes from the integer-b large-z path below: its error of about
1e-14 is amplified by cancellation in the segment sum (with mpmath's exact
2F1 the closed form still sits 1.8-3.6e-13 from the oracle there).

Every hyp2f1 call has the shape 2F1(l, b; b + 1; z) with l a non-negative
integer, b a positive (half-)integer and real z <= 0, so hyp2f1 takes
(l, b, z) and serves c = b + 1 only.  On that domain the function is
positive, bounded by 1 for l >= 1, and decays algebraically as z -> -inf.

Two evaluation paths cover the argument range:

* z in (-8, 0]: Pfaff transformation (Abramowitz & Stegun 15.3.5)
      2F1(a, b; b+1; z) = (1-z)^(-a) 2F1(a, 1; b+1; z/(z-1)),
  mapping the argument into [0, 8/9) where the transformed series has
  all-positive terms (no cancellation); it needs at most ~520 terms
  (a = 12, b = 1/2).
* z <= -8: the Pfaff-mapped argument approaches 1 and that series slows
  down like |z| (~3800 terms at z = -64 for a = 12), so the large
  argument connection at 1/z is used instead.  For non-integer b,
      2F1(l, b; b+1; z) = G1 (-z)^(-l) 2F1(l, l-b; l-b+1; 1/z)
                        + G2 (-z)^(-b),
  where the second term's series 2F1(b, 0; b-l+1; 1/z) is 1 and the first
  converges in a handful of terms.  For integer b that connection
  degenerates; the Euler integral is instead reduced by the substitution
  u = 1 - z t to an exact finite sum of elementary integrals.

Accuracy, measured against mpmath at 40 digits over a = 1..12,
b in {0.5, 1, ..., 14.5} and z at ten points of (-0.5, 0] (-1e-6 to
-0.4999, geometric), at -0.7, -2, -4, -6, -7, -7.75, on [-64, -8] (steps
of 0.25 down to -20, then 2) and at -64.5, -100, -300, -1e3, -1e4, -1e6:
the worst relative error is 2.6e-12 (a = 12, b = 8, z = -13.5), from
cancellation in the integer-b finite form; for a <= 8 it is 3.6e-14.  The
Pfaff path stays within 6.5e-15 on all of (-8, 0]; on (-0.5, 0] it reads
1.3e-15 where the defining series, whose terms alternate there, read
3.7e-12 (a = 12, b = 12, z = -0.4999).  With the Pfaff path reaching down
to -64 the worst on the same grid was 1.5e-12 (a = 12, b = 9, z = -100).
Over the same a and b, Pfaff and large-z agree to 1.4e-12 at z = -8, -10,
-16, -32 and -64.
"""

from __future__ import annotations

import math

from .config import NetworkConfig
from .distributions import PHASES
from .errors import DomainError, NumericalError, UnsupportedGeometryError

__all__ = ["closed_phase_factor", "hyp2f1"]

SERIES_MAX_TERMS = 10_000
SERIES_TOL = 1e-16

# Dispatch threshold between the two evaluation paths.
_PFAFF_LIMIT = -8.0


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    """Sum the defining series sum_n (a)_n (b)_n / ((c)_n n!) z^n for |z| < 1."""
    term = 1.0
    total = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= SERIES_TOL * abs(total):
            return total
    raise NumericalError(
        f"hypergeometric series did not converge within {SERIES_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})",
        partial=total,
        error_bound=abs(term),
    )


def _large_z_integer_b(l: int, b: int, z: float) -> float:
    """Exact finite form for integer b and very negative z.

    Reduces the Euler integral b * int_0^1 t^(b-1) (1-zt)^(-l) dt with the
    substitution u = 1 - z t to elementary power/log integrals.  Only used
    for mu = -z large, where none of the terms cancel catastrophically.
    """
    mu = -z
    total = 0.0
    # t^(b-1) expanded in powers of u = 1 + mu t: t = (u-1)/mu
    p = b - 1
    for j in range(p + 1):
        cj = math.comb(p, j) * (-1.0) ** (p - j)
        e = j - l + 1
        if e == 0:
            integral = math.log1p(mu)
        else:
            integral = ((1.0 + mu) ** e - 1.0) / e
        total += cj * integral / mu ** (p + 1)
    return b * total


def _large_z_connection(l: int, b: float, z: float) -> float:
    """1/z connection formula for non-integer b (so no degenerate Gamma poles)."""
    c = b + 1.0
    g1 = (
        math.gamma(c)
        * math.gamma(b - l)
        / (math.gamma(b) * math.gamma(c - l))
        * (-z) ** (-l)
        * _gauss_series(l, l - c + 1.0, l - b + 1.0, 1.0 / z)
    )
    # The companion series 2F1(b, 0; b-l+1; 1/z) is 1.
    g2 = math.gamma(c) * math.gamma(l - b) / math.gamma(l) * (-z) ** (-b)
    return g1 + g2


def _pfaff(a: int, b: float, z: float) -> float:
    """Pfaff transformation: an all-positive series at z/(z-1) in [0, 1)."""
    return (1.0 - z) ** (-a) * _gauss_series(a, 1.0, b + 1.0, z / (z - 1.0))


def _large_z(a: int, b: float, z: float) -> float:
    """Large-argument path: exact finite form for integer b, else the 1/z connection."""
    if abs(b - round(b)) < 1e-12:
        return _large_z_integer_b(a, int(round(b)), z)
    return _large_z_connection(a, b, z)


def hyp2f1(a: int, b: float, z: float) -> float:
    """Evaluate 2F1(a, b; b + 1; z) for integer a >= 0, b > 0, z <= 0.

    Relative accuracy is as measured in the module docstring; raises
    NumericalError with the partial sum attached if a series fails to
    converge within the iteration cap.
    """
    if a < 0 or int(a) != a:
        raise DomainError(f"first parameter must be a non-negative integer, got {a}")
    if not b > 0:
        raise DomainError(f"second parameter must be positive, got {b}")
    if z > 0:
        raise DomainError(f"argument must be <= 0, got {z}")
    a = int(a)

    if a == 0 or z == 0.0:
        return 1.0
    if z > _PFAFF_LIMIT:
        return _pfaff(a, b, z)
    return _large_z(a, b, z)


def _power_segment_integral(l, a, b, ell, kappa, s, m, net: NetworkConfig) -> float:
    """ell/(2 R^2) * int_a^b y^(kappa/2-1) (1 + m y/s)^-l dy, for 0 <= a < b
    and s > 0.

    The antiderivative is (ell/R^2) y^(kappa/2)/kappa * 2F1(l, kappa/2;
    kappa/2+1; -m y / s), taken at the endpoints; the lower endpoint
    contributes nothing when a = 0.
    """
    R2 = net.radius**2
    half_k = kappa / 2.0
    out = ell / R2 * b**half_k / kappa * hyp2f1(l, half_k, -m * b / s)
    if a > 0:
        out -= ell / R2 * a**half_k / kappa * hyp2f1(l, half_k, -m * a / s)
    return out


def _shell_segment_integral(l, ell, kappa, s, m, net: NetworkConfig) -> float:
    """The outer-shell segment integral, for s > 0:

    ell/(2 R^2) * int_{R^2}^{R^2+H^2} (y - R^2)^(kappa/2) (1 + m y/s)^-l dy
      = ell H^(kappa+2) / ((kappa+2) R^2 (1 + m R^2/s)^l)
        * 2F1(l, kappa/2+1; kappa/2+2; -H^2 / (R^2 + s/m)).
    """
    R2 = net.radius**2
    H = net.height
    base = ell * H ** (kappa + 2) / ((kappa + 2) * R2)
    z = -H * H / (R2 + s / m)
    return base / (1.0 + m * R2 / s) ** l * hyp2f1(l, kappa / 2.0 + 1.0, z)


def _phase_segments(phase: str, net: NetworkConfig):
    """Signed (sign, a, b, ell, kappa) power segments and the (sign, ell,
    kappa) shell term of one phase.

    These are the paper's distance-law pdf pieces after the y = w^2
    substitution: breakpoints 0, H^2, R^2 and R^2 + H^2, and the pieces'
    prefactors 2/H, 6/H^2, 4/H^3 and 6R^2/H^2.  The shell term carries the
    (y - R^2)^(kappa/2) factor of the outermost pdf piece.  Written by hand,
    not read from distributions' altitude cdf table: an independent oracle.
    """
    R, H = net.radius, net.height
    a2, a3, a4 = H**2, R**2, R * R + H * H
    if phase == "static":
        power = ((1.0, 0.0, a2, 2.0 / H, 3), (1.0, a2, a3, 2.0, 2), (1.0, a3, a4, 2.0, 2))
        return power, (-1.0, 2.0 / H, 1)
    ell3, ell4 = 6.0 / H**2, 4.0 / H**3
    power = (
        (1.0, 0.0, a2, ell3, 4),
        (-1.0, 0.0, a2, ell4, 5),
        (1.0, a2, a3, 2.0, 2),
        (1.0, a3, a4, 2.0, 2),
        (-1.0, a3, a4, ell3, 4),
        (1.0, a3, a4, 6.0 * R * R / H**2, 2),
    )
    return power, (1.0, ell4, 3)


def closed_phase_factor(phase: str, s: float, m: int, net: NetworkConfig) -> float:
    """The phase factor by its hyp2f1 closed form, exponent 2 only.

    The oracle of the kernel's order-0 terms (scaled_phase_jets); no
    production path calls it.  The expanded form sums C(m, l) (-1)^l over
    segment integrals; at large s those O(1) terms cancel down to residuals
    as small as ~1e-8, destroying double precision.  Collapsing the sum
    first,

        sum_l C(m,l) (-1)^l (1 + c y)^-l = (c y)^m (1 + c y)^-m,  c = m/s,

    shifts the power-segment exponents by 2m (and binomially splits y^m over
    the shell factor), leaving the same primitive integrals evaluated without
    any large-scale cancellation.  Raises DomainError for an unknown phase,
    s < 0, a shape m that is not a positive integer or an exponent other
    than 2, UnsupportedGeometryError unless H < R (the breakpoint
    ordering), and NumericalError where a term overflows, at small s (on a
    decade grid at R/H = 40/30, 100/5 and 10/9: from 1e-99 down at m = 1,
    from 1e-17 down at m = 12).
    """
    if phase not in PHASES:
        raise DomainError(f"phase must be one of {PHASES}, got {phase!r}")
    if s < 0:
        raise DomainError(f"transform argument must be >= 0, got s={s}")
    if int(m) != m or m < 1:
        raise DomainError(f"fading shape must be a positive integer, got {m}")
    if not net.height < net.radius:
        raise UnsupportedGeometryError(
            f"closed forms require height < radius (breakpoint ordering), got "
            f"H={net.height}, R={net.radius}"
        )
    if net.path_loss_exponent != 2.0:
        raise DomainError(
            "closed-form segment integrals are only available for path-loss "
            f"exponent 2, got {net.path_loss_exponent}"
        )
    if s == 0.0:
        return 1.0
    m = int(m)
    R2 = net.radius**2
    c = m / s
    power, (shell_sign, shell_ell, shell_kappa) = _phase_segments(phase, net)
    try:
        contributions = [
            sign * c**m * _power_segment_integral(m, a, b, ell, kappa + 2 * m, s, m, net)
            for sign, a, b, ell, kappa in power
        ]
        # y^m = ((y - R^2) + R^2)^m expanded binomially over the shell factor.
        contributions += [
            shell_sign * c**m * math.comb(m, j) * R2 ** (m - j)
            * _shell_segment_integral(m, shell_ell, shell_kappa + 2 * j, s, m, net)
            for j in range(m + 1)
        ]
    except OverflowError as exc:  # c^m and the large-z form's mu^b, at small s
        raise NumericalError(
            f"closed form overflows for phase={phase}, s={s}, m={m}") from exc
    return math.fsum(contributions)

