"""Laplace transform of the aggregate interference power and its derivatives.

Per-interferer factor, conditioned on mobility phase:

    Phi_phase(s) = E_W[ (1 + s W^-alpha / m)^-m ],

the Laplace transform at s of one interferer's faded received power, with W
following the phase's distance law and m the integer Nakagami shape.  With
n of the M interferers dwelling (a Binomial(M, p_stay) count) the aggregate
transform collapses to

    L_I(s) = [ p_stay Phi_static(s) + (1 - p_stay) Phi_moving(s) ]^M.

Derivatives of L_I (needed by the gamma-fading coverage sum) are carried as
jets: each phase factor's k-th derivative has the exact integral form

    Phi^(k)(s) = (-1)^k (m)_k m^-k E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ].

One vectorized Gauss-Legendre kernel (scaled_phase_jets) is the only
production evaluator of these, at every exponent and every order k >= 0,
the phase factors themselves included (k = 0).  It integrates fixed panels
per distance-law segment [0, H], [H, R] and [R, sqrt(R^2 + H^2)] (the last
mapped through w = sqrt(R^2 + v^2), which removes its square-root kink),
graded geometrically toward the integrand's length scale (s/m)^(1/alpha),
with an n-vs-2n-node error estimate held to 1e-10 relative.  It carries
the scaled coefficients (-s)^k Phi^(k)(s) / k!, which lie in [0, 1] for
every s, and J.C.P. Miller's power-series recurrence raises their phase
mixture to the M-th power.

For path-loss exponent 2 the phase factors also have closed forms, kept as
the kernel's oracle (method="closed"): expanding the integrand binomially
in l and integrating the three distance-law segments (after the
substitution y = w^alpha) yields sums of two primitive integrals,

    power segment:  ell/(alpha R^2) * int_a^b y^(kappa/alpha - 1) (1 + m y / s)^-l dy
    shell segment:  ell/(alpha R^2) * int_{R^alpha}^{(R^2+H^2)^(alpha/2)}
                        y^(2/alpha - 1) (y^(2/alpha) - R^2)^(kappa/2) (1 + m y / s)^-l dy

both reducible to Gauss hypergeometric terms.  The kernel is the more
accurate of the two: against bench/oracle.py at R/H = 100/5 it stays
within 8e-15 relative, where hyp2f1's alternating sums cost the closed form
up to 5e-11 at m = 12.  No scipy is imported here; its adaptive quadrature
serves as the kernel's oracle for k >= 1 in `validate` and the tests.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import FadingConfig, NetworkConfig
from .distributions import PHASES, DistanceDistribution
from .errors import DomainError, NumericalError, UnsupportedGeometryError
from .special import hyp2f1
from .taylor import Jet

__all__ = [
    "SegmentScheme",
    "segment_scheme",
    "power_segment_integral",
    "shell_segment_integral",
    "phase_laplace_factor",
    "laplace_transform",
    "laplace_transform_phase_sum",
    "scaled_phase_jets",
    "laplace_jets",
    "laplace_derivative_jet",
]

# Gauss-Legendre kernel.  Each panel takes _GL_NODES nodes, and 2 * _GL_NODES
# for the error estimate, which must stay within _GL_RTOL relative.  Panels
# are graded geometrically, ceil(a(m + k) / _PANELS_PER_STEEPNESS) per
# doubling, down to _GRADING doublings below the integrand's length scale.
# Rows share a pass _ROWS_PER_PASS at a time, which bounds a pass's arrays to
# about 150 KB: each row adds about 70 KB.
_GL_NODES = 16
_GL_RTOL = 1e-10
_PANELS_PER_STEEPNESS = 16
_GRADING = 8
_ROWS_PER_PASS = 2

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
    s well below ~R^alpha * 1e4; _closed_phase_factor collapses the sum.
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


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [0, 1], read-only.

    Each root x of P_n in [0, 1) comes from Newton's iteration started at
    Tricomi's estimate (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013)
    and gives the nodes (1 -+ x) / 2, each with weight
    1 / ((1 - x^2) P_n'(x)^2).  Plain floats: no eigensolver runs.
    """
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = 0.0 if 2 * i + 1 == n else math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, slope = _legendre(n, x)
            step = p / slope
            x -= step
            if abs(step) <= 1e-15:
                break
        else:
            raise NumericalError(f"Gauss-Legendre root {i} of P_{n} did not converge")
        _, slope = _legendre(n, x)
        nodes[i], nodes[n - 1 - i] = 0.5 * (1.0 - x), 0.5 * (1.0 + x)
        weights[i] = weights[n - 1 - i] = 1.0 / ((1.0 - x * x) * slope * slope)
    nodes, weights = np.array(nodes), np.array(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_edges(s: float, m: int, order: int, net: NetworkConfig) -> np.ndarray:
    """Panel edges on [0, sqrt(R^2 + H^2)] for the kernel at one s.

    The integrand t^m u^k, t = m w^a / (m w^a + s), turns over around the
    length scale (s/m)^(1/a) and is steep there in proportion to a(m + k),
    so the edges are geometric, ceil(a(m + order) / _PANELS_PER_STEEPNESS)
    per doubling, from the top of the support down to _GRADING doublings
    below that scale (or below the top, when the scale lies beyond it).
    H and R are edges too, since the pdf changes piece there.
    """
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    w_max = math.hypot(R, H)
    per_doubling = math.ceil(alpha * (m + order) / _PANELS_PER_STEEPNESS)
    scale = min((s / m) ** (1.0 / alpha), w_max)
    lowest = math.floor(per_doubling * (math.log2(scale) - _GRADING))
    highest = math.ceil(per_doubling * math.log2(w_max))
    ladder = (math.exp2(j / per_doubling) for j in range(lowest, highest))
    return np.array(sorted({0.0, H, R, w_max, *(w for w in ladder if w < w_max)}))


def scaled_phase_jets(s, m: int, order: int, net: NetworkConfig):
    """Scaled derivatives of both phase factors at every s, by Gauss-Legendre.

    Returns (coeffs, failures).  coeffs[i, p, k] = (-s_i)^k Phi_p^(k)(s_i) / k!
    for p = 0 (static) and 1 (moving) and k = 0..order, which by the
    derivative formula of the module docstring is

        C(m + k - 1, k) E_W[ t^m u^k ],  t = m W^a / (m W^a + s),  u = 1 - t.

    Every node value C(m + k - 1, k) t^m u^k lies in [0, 1] (their sum over
    all k is 1), so no coefficient can overflow however large s is; each
    order is the previous one times u (m + k - 1) / k.  Both phases and all
    orders come from one pass over the nodes of a row's panels
    (_panel_edges): the bottom two segments are integrated in w, the top one
    in v = sqrt(w^2 - R^2) against DistanceDistribution.shell_piece, where
    the integrand has no kink.  Rows share a pass _ROWS_PER_PASS at a time,
    which bounds the working set; a row's value does not depend on the rows
    that share its pass.

    Each panel is integrated with n and with 2n nodes; the 2n value is kept
    and their difference is its error estimate.  failures[i] is None, or a
    NumericalError naming the phase, s, m and k of the first coefficient of
    row i whose estimate exceeds _GL_RTOL relative.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    m = int(m)
    dists = [DistanceDistribution(phase, net.radius, net.height) for phase in PHASES]
    pieces = [[piece for _, _, piece in dist.pdf_pieces()[:2]] + [dist.shell_piece()]
              for dist in dists]
    coeffs, failures = np.empty((s.size, 2, order + 1)), []
    for start in range(0, s.size, _ROWS_PER_PASS):
        rows = slice(start, start + _ROWS_PER_PASS)
        coeffs[rows], more = _kernel_pass(s[rows], m, order, net, pieces)
        failures += more
    return coeffs, failures


def _pass_nodes(s: np.ndarray, m: int, order: int, net: NetworkConfig, pieces):
    """The nodes of a kernel pass: per node its bin, its row's s, w^alpha and
    each phase's pdf times quadrature weight.  Kept apart from _kernel_pass,
    so that the panel and node arrays are freed before its arithmetic runs.
    """
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    # Panels grouped by pdf piece ([0, H], [H, R], [R, top]), each row's in
    # ascending order within a group: every piece is then one contiguous run
    # of nodes, and each bin below still sums its row's panels bottom up.
    edges = [_panel_edges(si, m, order, net).tolist() for si in s.tolist()]
    cuts = [(0, bisect.bisect_left(e, H), bisect.bisect_left(e, R), len(e) - 1)
            for e in edges]
    lo, hi, row, ends = [], [], [], []
    for j in range(3):
        for i, (e, c) in enumerate(zip(edges, cuts)):
            lo += e[c[j]:c[j + 1]]
            hi += e[c[j] + 1:c[j + 1] + 1]
            row += [i] * (c[j + 1] - c[j])
        ends.append(len(lo))
    lo, hi, row = np.array(lo), np.array(hi), np.array(row)
    top = slice(ends[1], None)
    # Top panels go to v; lo * lo - R^2 would lose digits next to R.
    lo[top] = np.sqrt(np.maximum(lo[top] - R, 0.0) * (lo[top] + R))
    hi[top] = np.sqrt(np.maximum(hi[top] - R, 0.0) * (hi[top] + R))

    # Nodes of both rules side by side; bin 2i holds row i's n-node sum and
    # bin 2i + 1 its 2n-node sum.
    n = _GL_NODES
    x = np.concatenate([_gauss_legendre(n)[0], _gauss_legendre(2 * n)[0]])
    wx = np.concatenate([_gauss_legendre(n)[1], _gauss_legendre(2 * n)[1]])
    level = np.repeat([0, 1], [n, 2 * n])
    width = (hi - lo)[:, None]
    y = (lo[:, None] + width * x).ravel()
    weight = (width * wx).ravel()
    bins = (2 * row[:, None] + level).ravel()
    runs = [slice(3 * n * a, 3 * n * b) for a, b in zip([0] + ends, ends)]
    w_alpha = np.empty_like(y)
    w_alpha[: runs[2].start] = y[: runs[2].start] ** alpha
    w_alpha[runs[2]] = (R * R + y[runs[2]] * y[runs[2]]) ** (alpha / 2.0)
    density = np.empty((2, y.size))
    for p, phase_pieces in enumerate(pieces):
        for run, pdf in zip(runs, phase_pieces):
            density[p, run] = pdf(y[run]) * weight[run]
    return bins, s[row].repeat(3 * n), w_alpha, density


def _kernel_pass(s: np.ndarray, m: int, order: int, net: NetworkConfig, pieces):
    """scaled_phase_jets for the rows s, given each phase's pdf pieces."""
    R, alpha = net.radius, net.path_loss_exponent
    bins, s_node, w_alpha, density = _pass_nodes(s, m, order, net, pieces)
    # t^m is taken relative to its value at the top of the support, where
    # it is largest: the sums then keep their digits at any s, and only the
    # final product with t_top^m may underflow (to a coefficient of 0).
    # An infinite s gives NaN here, which the error test below reports.
    w_alpha_top = (R * R + net.height**2) ** (alpha / 2.0)
    denom_top = m * w_alpha_top + s
    sums = np.empty((2 * s.size, 2, order + 1))
    with np.errstate(invalid="ignore"):
        denom = m * w_alpha + s_node
        u = s_node / denom
        g = (w_alpha / w_alpha_top * (denom_top[bins // 2] / denom)) ** m
        for k in range(order + 1):
            if k:
                g = g * u * ((m + k - 1) / k)
            for p in range(2):
                sums[:, p, k] = np.bincount(bins, density[p] * g, minlength=2 * s.size)
    coarse, fine = sums[0::2], sums[1::2]
    err = np.abs(fine - coarse)
    bad = ~(err <= _GL_RTOL * fine)  # NaN counts as bad
    t_top_m = (m * w_alpha_top / denom_top) ** m
    coeffs = fine * t_top_m[:, None, None]
    failures = [None] * s.size
    for i, p, k in zip(*np.nonzero(bad)):
        if failures[i] is None:
            rel = err[i, p, k] / fine[i, p, k] if fine[i, p, k] else math.inf
            failures[i] = NumericalError(
                f"Gauss-Legendre estimate {rel:.2e} above {_GL_RTOL:g} relative for "
                f"phase={PHASES[p]}, s={s[i]:.17g}, m={m}, derivative order k={k}",
                partial=float(coeffs[i, p, k]),
                error_bound=float(err[i, p, k] * t_top_m[i]),
            )
    return coeffs, failures


def phase_laplace_factor(
    phase: str, s: float, m: int, net: NetworkConfig, method: str = "auto"
) -> float:
    """Laplace transform at s of a single interferer's faded power, by phase.

    method: "auto" and "quadrature" take the Gauss-Legendre kernel
    (scaled_phase_jets at order 0) at every exponent; "closed" takes the
    hyp2f1 closed form, which exists for exponent 2 only and serves as the
    kernel's oracle.
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
    if method == "closed":
        return _closed_phase_factor(phase, s, m, net)
    coeffs, (failure,) = scaled_phase_jets([s], m, 0, net)
    if failure is not None:
        raise failure
    return float(coeffs[0, PHASES.index(phase), 0])


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


def _series_power(a: list[float], n: int) -> list[float]:
    """Taylor coefficients of f^n from those a of f, truncated at len(a).

    J.C.P. Miller's recurrence, from f (f^n)' = n f' f^n:
    b_k = sum_{j=1..k} ((n + 1) j - k) a_j b_(k-j) / (k a_0).  Scaling
    coefficient k by (-s0)^k commutes with it, so scaled jets go through
    as they are.  Once a_0^n leaves the normal float range (a transform
    below ~1e-290) the recurrence loses digits; an a_0 of 0 gives 0s.
    """
    if a[0] == 0.0:
        return [0.0] * len(a) if n > 1 else list(a)
    b = [a[0] ** n]
    for k in range(1, len(a)):
        b.append(sum(((n + 1) * j - k) * a[j] * b[k - j] for j in range(1, k + 1))
                 / (k * a[0]))
    return b


def laplace_jets(s0, order: int, net: NetworkConfig, fading: FadingConfig, p_stay: float):
    """Scaled Taylor jet of L_I and the two phase factors at every s0.

    Returns one entry per s0: either (coeffs, phi_static, phi_moving), with
    coeffs[k] = (-s0)^k L_I^(k)(s0) / k! for k = 0..order, or the
    NumericalError of that s0 alone.  Every coeffs[k] is >= 0 (L_I is
    completely monotone) and their sum is at most 1.  The Gauss-Legendre
    kernel (scaled_phase_jets) gives both phases' scaled jets at every
    exponent, the phase factors being their order-0 terms; their mixture
    goes through the M-th power by _series_power.  With no interferers the
    jet is constant and no phase factor is evaluated: both come back as
    None.
    """
    if order < 0 or int(order) != order:
        raise DomainError(f"jet order must be a non-negative integer, got {order}")
    if not 0 <= p_stay <= 1:
        raise DomainError(f"stay probability must lie in [0, 1], got {p_stay}")
    s0 = [float(s) for s in s0]
    if any(not s > 0 for s in s0):
        raise DomainError("Laplace jets need s0 > 0")
    order, M, m = int(order), net.n_interferers, int(fading.interferer_m)
    if M == 0 or not s0:
        return [([1.0] + [0.0] * order, None, None) for _ in s0]
    coeffs, failures = scaled_phase_jets(s0, m, order, net)
    out = []
    for (static, moving), failure in zip(coeffs.tolist(), failures):
        if failure is not None:
            out.append(failure)
            continue
        mix = [p_stay * a + (1.0 - p_stay) * b for a, b in zip(static, moving)]
        out.append((_series_power(mix, M), static[0], moving[0]))
    return out


def laplace_derivative_jet(
    s0: float,
    order: int,
    net: NetworkConfig,
    fading: FadingConfig,
    p_stay: float,
) -> Jet:
    """Taylor coefficients L_I^(k)(s0) / k! of L_I at s0 up to the given order.

    Unscaled from laplace_jets; a coefficient below the float range at a
    very large s0 comes back as 0.
    """
    (row,) = laplace_jets([s0], order, net, fading, p_stay)
    if isinstance(row, NumericalError):
        raise row
    return Jet(np.array(row[0]) * np.power(-1.0 / s0, np.arange(order + 1)))
