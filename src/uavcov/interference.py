"""Laplace transform of the aggregate interference power and its derivatives.

Per-interferer factor, conditioned on mobility phase:

    Phi_phase(s) = E_W[ (1 + s W^-alpha / m)^-m ],

the Laplace transform at s of one interferer's faded received power, with W
following the phase's distance law and m the integer Nakagami shape.  With
n of the M interferers dwelling (a Binomial(M, p_stay) count) the aggregate
transform collapses to

    L_I(s) = [ p_stay Phi_static(s) + (1 - p_stay) Phi_moving(s) ]^M.

For path-loss exponent 2 the phase factors have closed forms: expanding the
integrand binomially in l and integrating the three distance-law segments
(after the substitution y = w^alpha) yields sums of two primitive integrals,

    power segment:  ell/(alpha R^2) * int_a^b y^(kappa/alpha - 1) (1 + m y / s)^-l dy
    shell segment:  ell/(alpha R^2) * int_{R^alpha}^{(R^2+H^2)^(alpha/2)}
                        y^(2/alpha - 1) (y^(2/alpha) - R^2)^(kappa/2) (1 + m y / s)^-l dy

both reducible to Gauss hypergeometric terms.  For any other exponent the
expectation is evaluated by adaptive quadrature, one integral per
distance-law segment [0, H], [H, R] and [R, sqrt(R^2 + H^2)], each against
that segment's pdf piece (DistanceDistribution.pdf_pieces), so the
integrand is plain float arithmetic and no panel straddles a kink; the
same quadrature doubles as the independent cross-check of the closed forms.

Derivatives of L_I (needed by the gamma-fading coverage sum) are carried as
jets: each phase factor's k-th derivative has the exact integral form

    Phi^(k)(s) = (-1)^k (m)_k m^-k E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ],

evaluated by the same quadrature and assembled through truncated-series
algebra into the M-th power.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .config import FadingConfig, NetworkConfig
from .distributions import PHASES, DistanceDistribution
from .errors import DomainError, NumericalError, UnsupportedGeometryError
from .special import hyp2f1, pochhammer
from .taylor import Jet

__all__ = [
    "SegmentScheme",
    "segment_scheme",
    "power_segment_integral",
    "shell_segment_integral",
    "phase_laplace_factor",
    "laplace_transform",
    "laplace_transform_phase_sum",
    "phase_factor_derivative",
    "laplace_derivative_jet",
    "laplace_jet_and_phase_factors",
]

# Quadrature tolerances.  The relative tolerance dominates: at large s the
# factors decay to ~1e-7 and the closed-form comparison is relative, so a
# fixed absolute floor of 1e-12 would be far too loose there.
_QUAD_EPSABS = 1e-300
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200

@dataclass(frozen=True)
class SegmentScheme:
    """Integration breakpoints (in y = w^alpha) and segment coefficients.

    Breakpoints are 0, H^alpha, R^alpha, (R^2+H^2)^(alpha/2); the
    coefficients are the distance-law polynomial prefactors 2/H, 6/H^2,
    4/H^3 and 6R^2/H^2 shared by the two phases.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    ell1: float
    ell3: float
    ell4: float
    ell5: float

    @property
    def ell2(self) -> float:
        return self.ell1


def segment_scheme(net: NetworkConfig) -> SegmentScheme:
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    if not H < R:
        raise UnsupportedGeometryError(
            f"closed forms require height < radius (breakpoint ordering), got "
            f"H={H}, R={R}"
        )
    return SegmentScheme(
        a1=0.0,
        a2=H**alpha,
        a3=R**alpha,
        a4=(R * R + H * H) ** (alpha / 2.0),
        ell1=2.0 / H,
        ell3=6.0 / H**2,
        ell4=4.0 / H**3,
        ell5=6.0 * R * R / H**2,
    )


def _require_alpha2(net: NetworkConfig):
    if net.path_loss_exponent != 2.0:
        raise DomainError(
            "closed-form segment integrals are only available for path-loss "
            f"exponent 2, got {net.path_loss_exponent}"
        )


def power_segment_integral(l, a, b, ell, kappa, s, m, net: NetworkConfig) -> float:
    """Closed form of ell/(2 R^2) * int_a^b y^(kappa/2-1) (1 + m y/s)^-l dy.

    Valid for exponent 2; the antiderivative is (ell/R^2) y^(kappa/2)/kappa *
    2F1(l, kappa/2; kappa/2+1; -m y / s) evaluated at the endpoints.  The
    lower endpoint contributes nothing when a = 0, and l = 0 collapses to the
    plain power integral.
    """
    _require_alpha2(net)
    if int(kappa) != kappa or kappa < 1:
        raise DomainError(f"kappa must be a positive integer, got {kappa}")
    if not 0 <= a < b:
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    R2 = net.radius**2
    half_k = kappa / 2.0
    if l == 0:
        return ell / R2 * (b**half_k - a**half_k) / kappa
    if s == 0.0:
        return 0.0  # integrand (1 + m y / s)^-l vanishes pointwise as s -> 0+
    out = ell / R2 * b**half_k / kappa * hyp2f1(l, half_k, half_k + 1.0, -m * b / s)
    if a > 0:
        out -= ell / R2 * a**half_k / kappa * hyp2f1(l, half_k, half_k + 1.0, -m * a / s)
    return out


def shell_segment_integral(l, ell, kappa, s, m, net: NetworkConfig) -> float:
    """Closed form of the outer-shell segment integral for exponent 2.

    ell/(2 R^2) * int_{R^2}^{R^2+H^2} (y - R^2)^(kappa/2) (1 + m y/s)^-l dy
      = ell H^(kappa+2) / ((kappa+2) R^2 (1 + m R^2/s)^l)
        * 2F1(l, kappa/2+1; kappa/2+2; -H^2 / (R^2 + s/m)).

    The s -> 0 limit is exact: 0 for l >= 1 (the prefactor denominator blows
    up while the hypergeometric argument tends to the finite -H^2/R^2) and
    the plain power integral for l = 0.
    """
    _require_alpha2(net)
    if int(kappa) != kappa or kappa < 1 or kappa % 2 == 0:
        raise DomainError(f"shell segment needs odd positive kappa, got {kappa}")
    R2 = net.radius**2
    H = net.height
    base = ell * H ** (kappa + 2) / ((kappa + 2) * R2)
    if l == 0:
        return base
    if s == 0.0:
        return 0.0
    z = -H * H / (R2 + s / m)
    return base / (1.0 + m * R2 / s) ** l * hyp2f1(l, kappa / 2.0 + 1.0, kappa / 2.0 + 2.0, z)


def _phase_segments(phase: str, scheme: SegmentScheme):
    """Signed (a, b, ell, kappa) power segments and the (ell, kappa) shell term.

    These mirror the distance-law pdf pieces after the y = w^alpha
    substitution; the shell term carries the (y - R^2)^(kappa/2) factor of
    the outermost pdf segment.
    """
    if phase == "static":
        power = (
            (1.0, scheme.a1, scheme.a2, scheme.ell1, 3),
            (1.0, scheme.a2, scheme.a3, 2.0, 2),
            (1.0, scheme.a3, scheme.a4, 2.0, 2),
        )
        shell = (-1.0, scheme.ell2, 1)
    else:
        power = (
            (1.0, scheme.a1, scheme.a2, scheme.ell3, 4),
            (-1.0, scheme.a1, scheme.a2, scheme.ell4, 5),
            (1.0, scheme.a2, scheme.a3, 2.0, 2),
            (1.0, scheme.a3, scheme.a4, 2.0, 2),
            (-1.0, scheme.a3, scheme.a4, scheme.ell3, 4),
            (1.0, scheme.a3, scheme.a4, scheme.ell5, 2),
        )
        shell = (1.0, scheme.ell4, 3)
    return power, shell


def _closed_phase_factor(phase: str, s: float, m: int, net: NetworkConfig) -> float:
    """Closed form of the phase factor with the binomial sum pre-collapsed.

    The expanded form sums C(m, l) (-1)^l over segment integrals; at large s
    those O(1) terms cancel down to residuals as small as ~1e-8, destroying
    double precision.  Collapsing the sum first,

        sum_l C(m,l) (-1)^l (1 + c y)^-l = (c y)^m (1 + c y)^-m,  c = m/s,

    shifts the power-segment exponents by 2m (and binomially splits y^m over
    the shell factor), leaving the same primitive integrals evaluated without
    any large-scale cancellation.
    """
    scheme = segment_scheme(net)
    R2 = net.radius**2
    c = m / s
    power, shell = _phase_segments(phase, scheme)
    contributions = []
    for sign, a, b, ell, kappa in power:
        contributions.append(
            sign * c**m * power_segment_integral(m, a, b, ell, kappa + 2 * m, s, m, net)
        )
    shell_sign, shell_ell, shell_kappa = shell
    # y^m = ((y - R^2) + R^2)^m expanded binomially over the shell factor.
    for j in range(m + 1):
        contributions.append(
            shell_sign
            * c**m
            * math.comb(m, j)
            * R2 ** (m - j)
            * shell_segment_integral(m, shell_ell, shell_kappa + 2 * j, s, m, net)
        )
    return math.fsum(contributions)


def _closed_phase_factor_expanded(phase: str, s: float, m: int, net: NetworkConfig) -> float:
    """Literal alternating-binomial closed form (test oracle for the algebra).

    Numerically safe only while the sum does not cancel severely, i.e. for
    s well below ~R^alpha * 1e4; the production path collapses the sum.
    """
    scheme = segment_scheme(net)
    power, shell = _phase_segments(phase, scheme)
    contributions = []
    for l in range(m + 1):
        outer = math.comb(m, l) * (-1.0) ** l
        for sign, a, b, ell, kappa in power:
            contributions.append(
                outer * sign * power_segment_integral(l, a, b, ell, kappa, s, m, net)
            )
        shell_sign, shell_ell, shell_kappa = shell
        contributions.append(
            outer * shell_sign * shell_segment_integral(l, shell_ell, shell_kappa, s, m, net)
        )
    return math.fsum(contributions)


def _quadrature_phase_factor(
    phase: str, s: float, m: int, net: NetworkConfig, k: int = 0
) -> float:
    """E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ] by adaptive quadrature.

    Each of the distance law's three segments [0, H], [H, R] and
    [R, sqrt(R^2 + H^2)] is integrated on its own, against that segment's
    pdf piece, so the integrand is float arithmetic with no kink inside a
    panel.  The three values and their error estimates are summed, and the
    summed error is held to 1e-8 relative.
    """
    dist = DistanceDistribution(phase, net.radius, net.height)
    alpha = net.path_loss_exponent

    def integrand(w, piece):
        wa = w**alpha
        return piece(w) * wa ** (-k) * (1.0 + s / (m * wa)) ** (-(m + k))

    value = abserr = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for lo, hi, piece in dist.pdf_pieces():
            try:
                part, err = integrate.quad(
                    integrand,
                    lo,
                    hi,
                    args=(piece,),
                    limit=_QUAD_LIMIT,
                    epsabs=_QUAD_EPSABS,
                    epsrel=_QUAD_EPSREL,
                )
            except integrate.IntegrationWarning as exc:
                raise NumericalError(
                    f"phase factor quadrature failed for phase={phase}, s={s}, m={m}, "
                    f"derivative order k={k}, segment [{lo:g}, {hi:g}]: {exc}"
                ) from exc
            value += part
            abserr += err
    if value != 0.0 and abserr / abs(value) > 1e-8:
        raise NumericalError(
            f"phase factor quadrature too inaccurate (rel err {abserr / abs(value):.2e}) "
            f"for phase={phase}, s={s}, m={m}, k={k}",
            partial=value,
            error_bound=abserr,
        )
    return value


def phase_laplace_factor(
    phase: str, s: float, m: int, net: NetworkConfig, method: str = "auto"
) -> float:
    """Laplace transform at s of a single interferer's faded power, by phase.

    method: "auto" uses the closed form when the exponent is 2 and quadrature
    otherwise; "closed" and "quadrature" force a path (closed requires
    exponent 2).
    """
    if phase not in PHASES:
        raise DomainError(f"phase must be one of {PHASES}, got {phase!r}")
    if s < 0:
        raise DomainError(f"transform argument must be >= 0, got s={s}")
    if int(m) != m or m < 1:
        raise DomainError(f"fading shape must be a positive integer, got {m}")
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    segment_scheme(net)  # geometry guard applies to every path
    if s == 0.0:
        return 1.0
    m = int(m)
    if method == "quadrature" or (method == "auto" and net.path_loss_exponent != 2.0):
        return _quadrature_phase_factor(phase, s, m, net)
    return _closed_phase_factor(phase, s, m, net)


def _phase_factors(s, net, fading, method="auto"):
    m = int(fading.interferer_m)
    return (
        phase_laplace_factor("static", s, m, net, method),
        phase_laplace_factor("moving", s, m, net, method),
    )


def laplace_transform(
    s: float,
    net: NetworkConfig,
    fading: FadingConfig,
    p_stay: float,
    method: str = "auto",
) -> float:
    """L_I(s) for M interferers: the phase mixture raised to the M-th power."""
    if not 0 <= p_stay <= 1:
        raise DomainError(f"stay probability must lie in [0, 1], got {p_stay}")
    M = net.n_interferers
    if M == 0:
        return 1.0
    if s == 0.0:
        return 1.0
    phi_static, phi_moving = _phase_factors(s, net, fading, method)
    return (p_stay * phi_static + (1.0 - p_stay) * phi_moving) ** M


def laplace_transform_phase_sum(
    s: float,
    net: NetworkConfig,
    fading: FadingConfig,
    p_stay: float,
    method: str = "auto",
) -> float:
    """L_I(s) as the explicit sum over the number of dwelling interferers.

    Mathematically identical to laplace_transform by the binomial theorem;
    kept as an independently structured oracle for tests.
    """
    if not 0 <= p_stay <= 1:
        raise DomainError(f"stay probability must lie in [0, 1], got {p_stay}")
    M = net.n_interferers
    if M == 0:
        return 1.0
    if s == 0.0:
        return 1.0
    phi_static, phi_moving = _phase_factors(s, net, fading, method)
    return math.fsum(
        math.comb(M, n)
        * (p_stay * phi_static) ** n
        * ((1.0 - p_stay) * phi_moving) ** (M - n)
        for n in range(M + 1)
    )


def phase_factor_derivative(
    phase: str, s: float, m: int, net: NetworkConfig, k: int
) -> float:
    """k-th derivative of the per-interferer phase factor at s > 0.

    Differentiation under the integral sign is exact here; the resulting
    expectation is evaluated by the same breakpoint-aware quadrature.
    """
    if k == 0:
        return phase_laplace_factor(phase, s, m, net)
    if s <= 0:
        raise DomainError("phase factor derivatives need s > 0")
    sign = (-1.0) ** k
    coeff = pochhammer(float(m), k) / float(m) ** k
    return sign * coeff * _quadrature_phase_factor(phase, s, int(m), net, k=k)


def laplace_derivative_jet(
    s0: float,
    order: int,
    net: NetworkConfig,
    fading: FadingConfig,
    p_stay: float,
) -> Jet:
    """Taylor coefficients of L_I at s0 up to the given order."""
    return laplace_jet_and_phase_factors(s0, order, net, fading, p_stay)[0]


def laplace_jet_and_phase_factors(
    s0: float,
    order: int,
    net: NetworkConfig,
    fading: FadingConfig,
    p_stay: float,
) -> tuple[Jet, float | None, float | None]:
    """Taylor jet of L_I at s0 plus the static and moving phase factors at s0.

    The order-0 coefficient takes the same evaluation path as
    laplace_transform so both agree exactly; higher coefficients come from
    the exact derivative integrals pushed through the M-th power by jet
    algebra.  With no interferers the jet is constant and no phase factor is
    evaluated, so both factors come back as None.
    """
    if order < 0 or int(order) != order:
        raise DomainError(f"jet order must be a non-negative integer, got {order}")
    if not 0 <= p_stay <= 1:
        raise DomainError(f"stay probability must lie in [0, 1], got {p_stay}")
    order = int(order)
    M = net.n_interferers
    if M == 0:
        return Jet.constant(1.0, order), None, None
    m = int(fading.interferer_m)

    phi_static, phi_moving = _phase_factors(s0, net, fading)
    coeffs = np.zeros(order + 1)
    coeffs[0] = p_stay * phi_static + (1.0 - p_stay) * phi_moving
    for k in range(1, order + 1):
        try:
            dk = p_stay * phase_factor_derivative("static", s0, m, net, k) + (
                1.0 - p_stay
            ) * phase_factor_derivative("moving", s0, m, net, k)
        except NumericalError as exc:
            raise NumericalError(
                f"phase factor derivative failed at order k={k}: {exc}",
                partial=exc.partial,
                error_bound=exc.error_bound,
            ) from exc
        coeffs[k] = dk / math.factorial(k)
    return Jet(coeffs) ** M, phi_static, phi_moving
