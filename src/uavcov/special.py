"""Gauss hypergeometric evaluation on the domain the closed forms need.

The exponent-2 closed forms of the phase factors
(interference.closed_phase_factor) are the oracle of the Gauss-Legendre
kernel: no production result goes through this module.

Every use in this package has the shape 2F1(l, b; c; z) with l a non-negative
integer, b a positive (half-)integer, c = b + 1 (c = b + 2 is also accepted so
the Gauss contiguous identity can be checked), and real z <= 0.  On that
domain the function is positive, bounded by 1 for l >= 1, and decays
algebraically as z -> -inf.

Three evaluation paths cover the argument range:

* z in (-0.5, 0]: the defining Gauss series, geometric convergence.
* z in (-8, -0.5]: Pfaff transformation
      2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
  mapping the argument into [1/3, 8/9) where the transformed series has
  all-positive terms (no cancellation); it needs at most ~520 terms
  (a = 12, b = 1/2).
* z <= -8: the Pfaff-mapped argument approaches 1 and that series slows
  down like |z| (~3800 terms at z = -64 for a = 12), so the large
  argument connection at 1/z is used instead.  For non-integer b,
      2F1(l, b; b+1; z) = G1 (-z)^(-l) 2F1(l, l-b; l-b+1; 1/z)
                        + G2 (-z)^(-b),
  where the second series terminates identically (an upper parameter is a
  non-positive integer) and the first converges in a handful of terms.  For
  integer b that connection degenerates; the Euler integral is instead
  reduced by the substitution u = 1 - z t to an exact finite sum of
  elementary integrals.

Accuracy, measured against mpmath at 40 digits over a = 1..12,
b in {0.5, 1, ..., 14.5}, c in {b+1, b+2} and z on [-64, -8] (steps of
0.25 down to -20, then 2), at -0.3, -0.7, -2, -4, -6, -7, -7.75 and at
-64.5, -100, -300, -1e3, -1e4, -1e6: the worst relative error is 3.5e-12
(a = 12, b = 8, c = b+2, z = -13.5), from cancellation in the integer-b
finite form; for a <= 8 it is 8.7e-14.  With the Pfaff branch reaching
down to -64 the worst on the same grid was 1.6e-12 (a = 12, b = 9,
c = b+2, z = -100).  Over the same a, b and c, Pfaff and large-z agree to
1.9e-12 at z = -8, -10, -16, -32 and -64.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError

__all__ = ["hyp2f1", "pochhammer"]

SERIES_MAX_TERMS = 10_000
SERIES_TOL = 1e-16

# Dispatch thresholds between the three evaluation paths.
_DIRECT_LIMIT = -0.5
_PFAFF_LIMIT = -8.0


def pochhammer(x: float, k: int) -> float:
    """Rising factorial x (x+1) ... (x+k-1); the empty product (k = 0) is 1."""
    if k < 0 or int(k) != k:
        raise DomainError(f"pochhammer order must be a non-negative integer, got {k}")
    out = 1.0
    for i in range(int(k)):
        out *= x + i
    return out


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


def _large_z_integer_b(l: int, b: int, n_extra: int, z: float) -> float:
    """Exact finite form for integer b and very negative z.

    Reduces the Euler integral of t^(b-1) (1-t)^(n_extra) (1-zt)^(-l) with the
    substitution u = 1 - z t to elementary power/log integrals.  Only used for
    mu = -z large, where none of the terms cancel catastrophically.
    """
    mu = -z
    prefac = math.gamma(b + n_extra + 1) / (math.gamma(b) * math.gamma(n_extra + 1))
    total = 0.0
    # (1-t)^(n_extra) expanded binomially: sum_i C(n_extra, i) (-t)^i
    for i in range(n_extra + 1):
        ci = math.comb(n_extra, i) * (-1.0) ** i
        # t^(b-1+i) expanded in powers of u = 1 + mu t: t = (u-1)/mu
        p = b - 1 + i
        for j in range(p + 1):
            cj = math.comb(p, j) * (-1.0) ** (p - j)
            e = j - l + 1
            if e == 0:
                integral = math.log1p(mu)
            else:
                integral = ((1.0 + mu) ** e - 1.0) / e
            total += ci * cj * integral / mu ** (p + 1)
    return prefac * total


def _large_z_connection(l: int, b: float, c: float, z: float) -> float:
    """1/z connection formula for non-integer b (so no degenerate Gamma poles)."""
    g1 = (
        math.gamma(c)
        * math.gamma(b - l)
        / (math.gamma(b) * math.gamma(c - l))
        * (-z) ** (-l)
        * _gauss_series(l, l - c + 1.0, l - b + 1.0, 1.0 / z)
    )
    # The companion series 2F1(b, b-c+1; b-l+1; 1/z) terminates because
    # b - c + 1 is a non-positive integer (c = b+1 or b+2).
    n_terms = int(round(c - b - 1.0)) + 1
    companion = 1.0
    term = 1.0
    for n in range(1, n_terms):
        term *= (b + n - 1.0) * (b - c + n) / ((b - l + n) * n) / z
        companion += term
    g2 = (
        math.gamma(c)
        * math.gamma(l - b)
        / (math.gamma(l) * math.gamma(c - b))
        * (-z) ** (-b)
        * companion
    )
    return g1 + g2


def _pfaff(a: int, b: float, c: float, z: float) -> float:
    """Pfaff transformation: an all-positive series at z/(z-1) in [1/3, 1)."""
    return (1.0 - z) ** (-a) * _gauss_series(a, c - b, c, z / (z - 1.0))


def _large_z(a: int, b: float, c: float, z: float) -> float:
    """Large-argument path: exact finite form for integer b, else the 1/z connection."""
    if abs(b - round(b)) < 1e-12:
        return _large_z_integer_b(a, int(round(b)), int(round(c - b)) - 1, z)
    return _large_z_connection(a, b, c, z)


def hyp2f1(a: int, b: float, c: float, z: float) -> float:
    """Evaluate 2F1(a, b; c; z) for integer a >= 0, b > 0, c - b in {1, 2}, z <= 0.

    Relative accuracy is as measured in the module docstring (worst 3.5e-12
    at a = 12); raises NumericalError with the partial sum attached if a
    series fails to converge within the iteration cap.
    """
    if a < 0 or int(a) != a:
        raise DomainError(f"first parameter must be a non-negative integer, got {a}")
    if not b > 0:
        raise DomainError(f"second parameter must be positive, got {b}")
    n_extra = round(c - b) - 1
    if n_extra not in (0, 1) or abs(c - b - (n_extra + 1)) > 1e-12:
        raise DomainError(f"third parameter must be b+1 or b+2, got c={c} for b={b}")
    if z > 0:
        raise DomainError(f"argument must be <= 0, got {z}")
    a = int(a)

    if a == 0 or z == 0.0:
        return 1.0
    if z > _DIRECT_LIMIT:
        return _gauss_series(a, b, c, z)
    if z > _PFAFF_LIMIT:
        return _pfaff(a, b, c, z)
    return _large_z(a, b, c, z)
