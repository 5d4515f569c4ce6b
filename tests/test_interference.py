import importlib.util
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import uavcov.interference as interference
import uavcov.validation as validation
from uavcov.config import FadingConfig, NetworkConfig
from uavcov.errors import DomainError, NumericalError, UnsupportedGeometryError
from uavcov.interference import laplace_jets, scaled_phase_jets
from uavcov.special import (
    _phase_segments,
    _power_segment_integral as power_segment_integral,
    _shell_segment_integral as shell_segment_integral,
    closed_phase_factor,
)


def net_with(M=2, h0=10.0, alpha=2.0):
    return NetworkConfig(40.0, 30.0, h0, M, alpha)


def closed_phase_factor_expanded(phase: str, s: float, m: int, net: NetworkConfig) -> float:
    """Literal alternating-binomial closed form (the reference for the algebra).

    Numerically safe only while the sum does not cancel severely, i.e. for
    s well below ~R^alpha * 1e4; closed_phase_factor collapses the sum.
    """
    power, (shell_sign, shell_ell, shell_kappa) = _phase_segments(phase, net)
    contributions = []
    for l in range(m + 1):
        outer = math.comb(m, l) * (-1.0) ** l
        for sign, a, b, ell, kappa in power:
            contributions.append(
                outer * sign * power_segment_integral(l, a, b, ell, kappa, s, m, net)
            )
        contributions.append(
            outer * shell_sign * shell_segment_integral(l, shell_ell, shell_kappa, s, m, net)
        )
    return math.fsum(contributions)


def phase_factors(s_values, m, net):
    """(static, moving) phase factors at every s, from one kernel call;
    a failed row raises its error."""
    coeffs, failures = scaled_phase_jets(s_values, m, 0, net)
    for failure in failures:
        if failure is not None:
            raise failure
    return coeffs[:, :, 0].tolist()


def transform(s_values, net, fading, p_stay):
    """L_I at every s, from one order-0 laplace_jets call; a failed row
    raises its error."""
    jets, _, failures = laplace_jets(s_values, 0, net, fading, p_stay)
    for failure in failures:
        if failure is not None:
            raise failure
    return jets[:, 0].tolist()


NET = net_with()
R2 = NET.radius**2
H = NET.height


def quad_power_segment(l, a, b, ell, kappa, s, m):
    """Direct numerical quadrature of the power-segment integrand."""
    val, _ = integrate.quad(
        lambda y: ell / (2 * R2) * y ** (kappa / 2.0 - 1.0) / (1 + m * y / s) ** l,
        a, b, limit=200, epsabs=1e-14, epsrel=1e-12,
    )
    return val


def quad_shell_segment(l, ell, kappa, s, m):
    a3, a4 = R2, R2 + H * H
    val, _ = integrate.quad(
        lambda y: ell / (2 * R2) * (y - R2) ** (kappa / 2.0) / (1 + m * y / s) ** l,
        a3, a4, limit=200, epsabs=1e-14, epsrel=1e-12,
    )
    return val


class TestSegmentScheme:
    def test_tall_cylinder_rejected(self):
        """The segment breakpoints H^2 < R^2 must be ordered."""
        tall = NetworkConfig(30.0, 40.0, 10.0, 2, 2.0)
        with pytest.raises(UnsupportedGeometryError):
            closed_phase_factor("static", 1.0, 1, tall)


class TestPowerSegmentIntegral:
    def test_order_zero_is_plain_power_integral(self):
        val = power_segment_integral(0, 0.0, H**2, 2 / H, 3, 123.0, 1, NET)
        exact = (2 / H) / R2 * (H**2) ** 1.5 / 3.0
        assert val == pytest.approx(exact, rel=1e-14)

    def test_zero_lower_endpoint_single_term(self):
        # identical whether the a-term is skipped or evaluated at a -> 0+
        v0 = power_segment_integral(2, 0.0, 900.0, 1.0, 3, 50.0, 2, NET)
        v_eps = power_segment_integral(2, 1e-12, 900.0, 1.0, 3, 50.0, 2, NET)
        assert v0 == pytest.approx(v_eps, rel=1e-9)

    @pytest.mark.parametrize("l,a,b,ell,kappa,s,m", [
        (1, 1.0, 2.0, 1.0, 2, 1.0, 1),          # log-form segment
        (1, 0.0, 900.0, 2 / 30, 3, 100.0, 1),
        (2, 900.0, 1600.0, 2.0, 2, 10.0, 2),
        (3, 1600.0, 2500.0, 2.0, 2, 1e5, 3),
        (2, 0.0, 900.0, 4 / 27000.0, 5, 0.3, 2),
        (3, 1600.0, 2500.0, 6 / 900.0, 4, 7.0, 3),
    ])
    def test_matches_quadrature(self, l, a, b, ell, kappa, s, m):
        closed = power_segment_integral(l, a, b, ell, kappa, s, m, NET)
        reference = quad_power_segment(l, a, b, ell, kappa, s, m)
        assert closed == pytest.approx(reference, rel=1e-10)


class TestShellSegmentIntegral:
    def test_order_zero_closed_value(self):
        ell = 2 / H
        val = shell_segment_integral(0, ell, 1, 55.0, 1, NET)
        assert val == pytest.approx(ell * H**3 / (3 * R2), rel=1e-14)

    @pytest.mark.parametrize("l,ell,kappa,s,m", [
        (1, 2 / 30, 1, 10.0, 1),
        (2, 2 / 30, 1, 1e3, 2),
        (1, 4 / 27000.0, 3, 0.5, 1),
        (3, 4 / 27000.0, 3, 1e6, 3),
    ])
    def test_matches_quadrature(self, l, ell, kappa, s, m):
        closed = shell_segment_integral(l, ell, kappa, s, m, NET)
        reference = quad_shell_segment(l, ell, kappa, s, m)
        assert closed == pytest.approx(reference, rel=1e-10)


class TestPhaseFactor:
    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_monotone_non_increasing(self, phase):
        p = ("static", "moving").index(phase)
        values = [row[p] for row in phase_factors(np.logspace(-2, 7, 30), 1, NET)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_matches_quadrature(self, phase, m):
        p = ("static", "moving").index(phase)
        s_values = np.logspace(-2, 6, 9)
        for s, row in zip(s_values.tolist(), phase_factors(s_values, m, NET)):
            closed = closed_phase_factor(phase, s, m, NET)
            assert abs(closed - row[p]) / row[p] <= 1e-8

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_collapsed_matches_expanded_binomial_sum(self, phase):
        """The closed form pre-collapses the alternating binomial sum;
        the literal expanded sum must agree where it is well conditioned."""
        for m in (1, 2, 3):
            for s in np.logspace(-1, 3.5, 8):
                collapsed = closed_phase_factor(phase, float(s), m, NET)
                expanded = closed_phase_factor_expanded(phase, float(s), m, NET)
                assert collapsed == pytest.approx(expanded, rel=1e-11)

    def test_general_exponent_uses_quadrature(self):
        net3 = net_with(alpha=3.0)
        with pytest.raises(DomainError):
            closed_phase_factor("static", 100.0, 2, net3)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            closed_phase_factor("static", -1.0, 1, NET)
        with pytest.raises(DomainError):
            closed_phase_factor("static", 1.0, 0, NET)
        with pytest.raises(DomainError):
            closed_phase_factor("parked", 1.0, 1, NET)


    @pytest.mark.parametrize("m", [2, 8, 12])
    def test_matches_independent_oracle_on_a_wide_flat_cylinder(self, m):
        """R/H = 100/5 at exponent 2: the factors analyze prints against
        bench/oracle.py at 64 nodes, to 1e-13.  The hyp2f1 closed form
        misses by 7e-13 (m = 2) to 5e-11 (m = 12) on this grid."""
        oracle = _bench_oracle()
        net = NetworkConfig(100.0, 5.0, 10.0, 2, 2.0)
        geo = oracle.Geometry(net.radius, net.height, net.serving_altitude, 2.0)
        s_values = np.logspace(-3, 9, 13)
        for s, row in zip(s_values.tolist(), phase_factors(s_values, m, net)):
            ref = oracle.phase_derivatives(s, m, 0, geo, nodes=64)
            for phase, got in zip(("static", "moving"), row):
                assert abs(got - ref[phase][0]) <= 1e-13 * ref[phase][0], (phase, s)


class TestLaplaceTransform:
    def test_no_interferers(self):
        assert transform([5.0], net_with(M=0), FadingConfig(1, 1), 0.4) == [1.0]

    def test_many_interferers_at_a_vanishing_argument(self):
        """2000 interferers at s = 1e-30: every factor rounds to about 1, and
        so must their 2000th power (the scaling by a_0^M must not underflow)."""
        (L,) = transform([1e-30], net_with(M=2000), FadingConfig(1, 1), 0.5)
        assert L == pytest.approx(1.0, abs=1e-9)

    def test_phase_sum_equals_power_form(self, rng):
        """L_I of a laplace_jets row against the binomial sum over the
        dwelling count of that row's phase factors."""
        for M in range(1, 11):
            net = net_with(M=M)
            for _ in range(3):
                s = float(10 ** rng.uniform(-1, 4))
                p = float(rng.uniform(0, 1))
                fading = FadingConfig(1, int(rng.integers(1, 4)))
                jets, phi, _ = laplace_jets([s], 0, net, fading, p)
                ((power,),), ((static, moving),) = jets.tolist(), phi.tolist()
                summed = validation._laplace_transform_phase_sum(static, moving, M, p)
                assert abs(power - summed) / power <= 1e-13

    def test_monotone_and_bounded(self):
        vals = transform(np.logspace(-2, 6, 50), NET, FadingConfig(1, 2), 0.5)
        assert all(0 < v <= 1 for v in vals)
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_stay_probability_validated(self):
        with pytest.raises(DomainError):
            laplace_jets([1.0], 0, NET, FadingConfig(1, 1), 1.2)


def exact_power(a, n):
    """Taylor coefficients of f^n, truncated at len(a), exactly.

    Every float is an integer over a power of 2, so the coefficients are
    integers A_j over one common 2^D; f^n is then the integer polynomial
    (sum A_j x^j)^n over 2^(nD), and no rational arithmetic runs until the
    final Fractions."""
    def times(f, g):
        return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(len(f))]

    D = max(Fraction(x).denominator.bit_length() - 1 for x in a)
    base = [int(Fraction(x) * 2**D) for x in a]
    out = [1] + [0] * (len(a) - 1)
    denominator = 2 ** (n * D)
    while n:
        if n & 1:
            out = times(out, base)
        base, n = times(base, base), n >> 1
    return [Fraction(c, denominator) for c in out]


@pytest.mark.parametrize("alpha", [2.0, 3.0, 7.5])
def test_jet_matches_exact_power_of_the_phase_mixture(alpha):
    """The M-th power of the kernel's phase mixture, coefficient by
    coefficient, against the same mixture raised exactly, to 1e-13 relative
    wherever the exact value lies in the normal float range.  At m1 = 6 and
    s0 = 1e10..1e12 a_0^8 falls to ~1e-280, below where the recurrence may
    start from it."""
    p = 0.4
    for m, s0, (M, order) in itertools.product(
            (1, 3, 6), (1e-3, 1.0, 1e4, 1e8, 1e10, 1e12), ((8, 5), (3, 13))):
        net = net_with(M=M, alpha=alpha)
        coeffs, (failure,) = scaled_phase_jets([s0], m, order, net)
        if failure is not None:
            continue
        static, moving = coeffs[0].tolist()
        mix = [p * a + (1.0 - p) * b for a, b in zip(static, moving)]
        jets, _, _ = laplace_jets([s0], order, net, FadingConfig(1, m), p)
        for k, (got, exact) in enumerate(zip(jets[0].tolist(), exact_power(mix, M))):
            if exact >= Fraction(sys.float_info.min):
                assert abs(Fraction(got) - exact) <= Fraction(1e-13) * exact, (m, s0, M, k)


@pytest.mark.parametrize("n", [1022, 1500, 4000])
@pytest.mark.parametrize("a", [[0.62, 0.62, 0.31, 0.05], [0.9, 0.09, 0.004, 1e-4],
                               [1.0000000000000007, 1e-3, 1e-6, 1e-9]])
def test_series_power_of_many_factors_matches_exact_power(a, n):
    """Thousands of factors: a_0^n may fall far below the float range (0.62^4000
    ~ 1e-830) or sit just above 1, and no intermediate may overflow on the way.
    Every coefficient is the exact one to 1e-13 relative, or to the smallest
    subnormal where the exact one lies below the normal range."""
    (got,) = interference._series_power(np.array([a]), n).tolist()
    for k, exact in enumerate(exact_power(a, n)):
        tol = Fraction(1e-13) * abs(exact) + Fraction(2.0**-1074)
        assert abs(Fraction(got[k]) - exact) <= tol, (n, k, got[k], float(exact))


def series_power_of_one_row(a, n):
    """Miller's recurrence on one row in Python floats: the reference the
    array form must equal bit for bit, since it does the same arithmetic."""
    if a[0] == 0.0:
        return [0.0] * len(a) if n > 1 else list(a)
    b = [1.0]
    for k in range(1, len(a)):
        b.append(sum(((n + 1) * j - k) * a[j] * b[k - j] for j in range(1, k + 1))
                 / (k * a[0]))
    mantissa, exponent = math.frexp(a[0])
    scale, shift, left = 1.0, n * exponent, n
    while left:
        step = min(left, 1021)
        scale, e = math.frexp(scale * mantissa**step)
        shift, left = shift + e, left - step
    return [math.ldexp(x * scale, shift) for x in b]


@pytest.mark.parametrize("n", [1, 2, 8, 1021, 4000])
def test_series_power_rows_equal_the_one_row_loop(n):
    """The array form, row by row, against the per-row loop: random rows in
    [0, 1], a row with a_0 = 0 and a row just above 1, bit for bit."""
    a = np.random.default_rng(n).uniform(0.0, 1.0, (40, 6))
    a[3, 0] = 0.0
    a[7] = [1.0000000000000007, 1e-3, 1e-6, 1e-9, 0.0, 1e-300]
    got = interference._series_power(a, n).tolist()
    assert got == [series_power_of_one_row(row, n) for row in a.tolist()]


def test_thousands_of_interferers_give_a_finite_jet_at_every_threshold():
    """4000 interferers over s0 = 1e-3..1e9: wherever the phase mixture's a_0
    lies, the jet is a row of finite coefficients in [0, 1], never an
    OverflowError, and coverage_sweep computes every row."""
    from uavcov.coverage import coverage_sweep

    net, fading = net_with(M=4000), FadingConfig(1, 2)
    s0 = np.logspace(-3, 9, 97)
    jets, _, failures = laplace_jets(s0, 3, net, fading, 0.5)
    assert failures == [None] * s0.size
    assert all(0.0 <= c <= 1.0 for c in jets.ravel().tolist())
    sweep = coverage_sweep(np.logspace(-6, 6, 49), net, FadingConfig(3, 2), 0.5)
    for coverage, error in zip(sweep.coverage.tolist(), sweep.errors):
        assert error is None and 0.0 <= coverage <= 1.0, (coverage, error)


class TestDerivativeJet:
    """laplace_jets' scaled jet, c_k = (-s0)^k L_I^(k)(s0) / k!."""

    def test_order_zero_equals_transform(self):
        """At order 0 the jet is L_I(s0), the M-th power of the mixture of
        the row's own phase factors."""
        jets, phi, _ = laplace_jets([100.0], 0, NET, FadingConfig(1, 1), 0.5)
        ((L,),), ((static, moving),) = jets.tolist(), phi.tolist()
        assert L == pytest.approx((0.5 * static + 0.5 * moving) ** 2, rel=1e-15)

    def test_no_interferers_is_constant_one(self):
        jets, _, _ = laplace_jets([3.0], 4, net_with(M=0), FadingConfig(1, 1), 0.5)
        assert jets.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("m_i,p_stay", [(1, 0.5), (2, 0.3), (3, 0.9)])
    def test_first_derivative_matches_finite_difference(self, m_i, p_stay):
        fading = FadingConfig(1, m_i)
        s0 = 100.0
        ((_, c1),) = laplace_jets([s0], 1, NET, fading, p_stay)[0].tolist()
        delta = 1e-5 * s0
        up, down = transform([s0 + delta, s0 - delta], NET, fading, p_stay)
        assert -c1 / s0 == pytest.approx((up - down) / (2 * delta), rel=1e-5)

    def test_second_derivative_matches_finite_difference(self):
        fading = FadingConfig(1, 1)
        s0 = 200.0
        ((_, _, c2),) = laplace_jets([s0], 2, NET, fading, 0.5)[0].tolist()
        delta = 3e-4 * s0
        up, mid, down = transform([s0 + delta, s0, s0 - delta], NET, fading, 0.5)
        fd = (up - 2 * mid + down) / delta**2
        assert 2 * c2 / s0**2 == pytest.approx(fd, rel=1e-5)

    def test_single_interferer_rayleigh_signs_alternate(self):
        """One interferer with unit shape: the transform is completely
        monotone, so Taylor coefficients alternate in sign through order 3,
        and every scaled coefficient is positive."""
        jets, _, _ = laplace_jets([50.0], 3, net_with(M=1), FadingConfig(1, 1), 0.5)
        signs = np.sign(jets[0] * (-1.0) ** np.arange(4))
        assert signs.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_quadrature_failure_names_offending_order(self, monkeypatch):
        # Two nodes per panel against four: the error estimate far exceeds 1e-10.
        monkeypatch.setattr(interference, "_GL_NODES", 2)
        _, _, (failure,) = laplace_jets([100.0], 2, NET, FadingConfig(1, 1), 0.5)
        assert isinstance(failure, NumericalError) and "k=" in str(failure)


def _bench_oracle():
    """Load bench/oracle.py, a 2D Gauss-Legendre oracle that imports nothing
    from uavcov, by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# alpha: (interferer shapes, transform arguments, highest order, oracle nodes).
# The steep case is the 0 dB row of alpha = 7.5, m0 = 14, m1 = 6, h0 = 10 m;
# panel grading that ignores the steepness alpha (m + k) fails it.
_ORACLE_CASES = {
    2.0: ((1, 2, 3), (1.0, 10.0, 1e3, 1e6), 4, 16),
    3.0: ((1, 2, 3), (1.0, 10.0, 1e3, 1e6), 4, 16),
    4.0: ((1, 2, 3), (1.0, 10.0, 1e3, 1e6), 4, 16),
    7.5: ((6,), (14 * 10**7.5,), 13, 32),
}


@pytest.mark.parametrize("alpha", sorted(_ORACLE_CASES))
def test_derivative_quadrature_matches_independent_oracle(alpha):
    """Every scaled derivative (-s)^k Phi^(k)(s) / k! of the Gauss-Legendre
    kernel against a 2D integral over offset and altitude that shares no
    code with it."""
    oracle = _bench_oracle()
    shapes, s_values, order, nodes = _ORACLE_CASES[alpha]
    net = net_with(alpha=alpha)
    geo = oracle.Geometry(net.radius, net.height, net.serving_altitude, alpha)
    for m in shapes:
        coeffs, failures = scaled_phase_jets(s_values, m, order, net)
        assert failures == [None] * len(s_values)
        for i, s in enumerate(s_values):
            ref = oracle.phase_derivatives(s, m, order, geo, nodes=nodes)
            for p, phase in enumerate(("static", "moving")):
                for k in range(order + 1):
                    expected = ref[phase][k] * (-s) ** k / math.factorial(k)
                    mine = coeffs[i, p, k]
                    assert abs(mine - expected) <= 1e-10 * abs(expected), (phase, m, s, k)


@pytest.mark.parametrize("n", [2, 12, 16, 24, 32])
def test_gauss_legendre_rule_matches_numpy(n):
    """Nodes and weights from Newton's iteration against numpy's
    eigenvalue-based leggauss, both mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = interference._gauss_legendre(n)
    assert np.max(np.abs(nodes - 0.5 * (x + 1.0))) <= 1e-15
    assert np.max(np.abs(weights - 0.5 * w)) <= 1e-15


# (cylinder, exponent, (m, order), thresholds, oracle nodes) of the oracle
# audit.  Below s = 1e-10 the oracle's ladder runs to about 70 panels a side
# at exponent 2, so those cases take 16 oracle nodes (within 2e-15 there);
# exponent 7.5 needs 32, where 16 miss by 2e-12 at m = 6.
_ORACLE_AUDIT = [
    (cylinder, alpha, shape, np.logspace(-4, 10, 4), 32)
    for cylinder, alpha, shape in itertools.product(
        ((40.0, 30.0), (100.0, 5.0), (10.0, 9.0)), (2.0, 2.5, 3.0, 4.0),
        ((1, 0), (2, 0), (3, 0), (1, 3), (2, 3), (4, 1)))
] + [
    ((40.0, 30.0), alpha, shape, np.array([1e-30, 1e-20, 1e-10]), 16)
    for alpha in (2.0, 4.0) for shape in ((1, 0), (2, 1))
] + [
    ((40.0, 30.0), 7.5, shape, np.array([1e-30, 1e-20, 1e-10, 1e-4, 1.0, 1e4, 1e10]), 32)
    for shape in ((1, 0), (2, 1), (6, 1))
]


def test_kernel_matches_independent_oracle_over_geometries_and_exponents():
    """The kernel's 12/24-node rule, every scaled coefficient, against
    bench/oracle.py: three cylinders (R/H = 40/30, 100/5, 10/9), four
    exponents and six (m, order) pairs at thresholds from 1e-4 to 1e10,
    then thresholds down to 1e-30 at exponents up to 7.5 and exponent 7.5
    itself, at low orders.  No row fails, and all agree to 1e-13 relative."""
    oracle = _bench_oracle()
    worst, worst_at = 0.0, None
    for (radius, height), alpha, (m, order), s_values, nodes in _ORACLE_AUDIT:
        net = NetworkConfig(radius, height, 5.0, 2, alpha)
        geo = oracle.Geometry(radius, height, 5.0, alpha)
        coeffs, failures = scaled_phase_jets(s_values, m, order, net)
        assert failures == [None] * s_values.size, (radius, height, alpha, m, order)
        for i, s in enumerate(s_values.tolist()):
            ref = oracle.phase_derivatives(s, m, order, geo, nodes=nodes)
            for p, phase in enumerate(("static", "moving")):
                for k in range(order + 1):
                    expected = ref[phase][k] * (-s) ** k / math.factorial(k)
                    rel = abs(coeffs[i, p, k] - expected) / expected
                    if rel > worst:
                        worst, worst_at = rel, (radius, height, alpha, m, s, phase, k)
    assert worst <= 1e-13, (worst, worst_at)


def test_rule_agrees_with_the_16_node_rule_it_replaced(monkeypatch):
    """The kernel against itself under the rule it replaced (16/32 nodes, 16
    panels per unit of steepness, ladder 8 doublings below the length scale)
    on acceptance criterion 14's grid, and at steep (m, order) over s =
    1e-30..1e200: no row fails that passes under the old rule, and every
    coefficient agrees to 1e-13 relative (to a few of the smallest
    subnormals below the normal range, where only absolute digits remain).
    12 nodes at 16 panels per unit of steepness fail rows at m = 12."""
    psi = 10 ** (np.linspace(-20.0, 30.0, 81) / 10)
    cases = [(alpha, h0, m, order, psi * h0**alpha)
             for alpha, order in ((2.0, 0), (3.0, 4), (4.0, 4))
             for m in (1, 2, 3) for h0 in (5.0, 10.0, 30.0)]
    cases += [(alpha, 10.0, m, order, np.logspace(-30, 200, 47))
              for alpha in (4.0, 7.5) for m, order in ((12, 0), (6, 9))]

    def run():
        return [scaled_phase_jets(s_values, m, order, net_with(M=8, h0=h0, alpha=alpha))
                for alpha, h0, m, order, s_values in cases]

    new = run()
    for name, value in (("_GL_NODES", 16), ("_PANELS_PER_STEEPNESS", 16), ("_GRADING", 8)):
        monkeypatch.setattr(interference, name, value)
    old = run()
    for case, (coeffs, failures), (old_coeffs, old_failures) in zip(cases, new, old):
        for s, failure, old_failure in zip(case[-1], failures, old_failures):
            assert failure is None or old_failure is not None, (case[:4], s, failure)
        both = [i for i, (f, g) in enumerate(zip(failures, old_failures))
                if f is None and g is None]
        gap = np.abs(coeffs[both] - old_coeffs[both])
        assert np.all(gap <= 1e-13 * old_coeffs[both] + 8 * 2.0**-1074), (case[:4], gap.max())


def test_kernel_coefficients_stay_in_unit_interval_at_any_threshold():
    """Every scaled coefficient lies in [0, 1] and their sum over all orders
    is 1, so nothing overflows even where s^k would; far out they underflow
    to 0 without an error."""
    net = net_with(M=8, alpha=7.5)
    s_values = np.logspace(-6, 120, 43)
    coeffs, failures = scaled_phase_jets(s_values, 6, 13, net)
    assert failures == [None] * s_values.size
    assert np.all((coeffs >= 0.0) & (coeffs <= 1.0))
    assert np.all(coeffs.sum(axis=2) <= 1.0 + 1e-12)
    assert coeffs[-1].max() == 0.0


def test_failing_row_leaves_the_other_rows(monkeypatch):
    """A row whose estimate fails carries its own NumericalError; the rows
    around it keep their values."""
    original = interference._ladder_edges
    _, (bottom_at_10,), _, _ = interference._panel_plan(np.array([10.0]), 2, 3, NET)

    def coarse_at_one_row(ladder, per_doubling, net):
        edge_sets = original(ladder, per_doubling, net)
        # one panel over the support for the rows whose bottom is that of s = 10
        return [[edges[0], edges[-1]] if bottom == bottom_at_10 else edges
                for bottom, edges in zip(ladder, edge_sets)]

    s_values = [1.0, 10.0, 100.0]
    good, _ = scaled_phase_jets(s_values, 2, 3, NET)
    monkeypatch.setattr(interference, "_ladder_edges", coarse_at_one_row)
    coeffs, failures = scaled_phase_jets(s_values, 2, 3, NET)
    assert failures[0] is None and failures[2] is None
    assert isinstance(failures[1], NumericalError)
    assert "s=10" in str(failures[1]) and "m=2" in str(failures[1]) and "k=" in str(failures[1])
    assert np.array_equal(coeffs[[0, 2]], good[[0, 2]])


def _recorded_grids(monkeypatch, s_values, m, order, net):
    """One kernel call with its _panel_nodes calls and its grids recorded:
    (coeffs, tables, grids), each grid as (rows, node values per row)."""
    tables, grids = [], []
    panel_nodes, grid_sums = interference._panel_nodes, interference._grid_sums

    def counting_nodes(*args):
        tables.append(args)
        return panel_nodes(*args)

    def recording_grid(rows, s, m, ratios, *rest):
        nodes = rest[1]
        grids.append((rows.tolist(), (ratios.size + 1) * nodes.shape[1]))
        return grid_sums(rows, s, m, ratios, *rest)

    monkeypatch.setattr(interference, "_panel_nodes", counting_nodes)
    monkeypatch.setattr(interference, "_grid_sums", recording_grid)
    coeffs, _ = scaled_phase_jets(s_values, m, order, net)
    monkeypatch.undo()
    return coeffs, tables, grids


@pytest.mark.parametrize("alpha, m, order, s_values", [
    (2.0, 1, 0, np.logspace(-3, 9, 400)),
    (3.0, 3, 4, np.logspace(-3, 7, 41)),
    (7.5, 6, 13, np.array([1e-3, 1e-30, 1.0, 1e-30, 1e-30, 10.0])),  # 1e-30: over the budget
])
def test_one_panel_table_and_grids_within_the_node_budget(monkeypatch, alpha, m, order,
                                                          s_values):
    """A call builds its panel table with a single _panel_nodes call.  Each
    grid holds rows of one ladder bottom and at most _NODE_BUDGET node
    values (rows x orders x nodes), filled until the next row of its bottom
    would not fit; only a row alone may exceed the budget.  Every row goes
    through exactly one grid, and the rows keep their values."""
    net = net_with(alpha=alpha)
    expected, _ = scaled_phase_jets(s_values, m, order, net)
    coeffs, tables, grids = _recorded_grids(monkeypatch, s_values, m, order, net)
    assert coeffs.tobytes() == expected.tobytes()
    assert len(tables) == 1
    budget = interference._NODE_BUDGET
    row_sets = interference._panel_plan(s_values, m, order, net)[0]
    assert sorted(i for rows, _ in grids for i in rows) == list(range(s_values.size))
    for rows, per_row in grids:
        assert len(set(row_sets[rows].tolist())) == 1, grids
        assert len(rows) * per_row <= budget or len(rows) == 1, grids
    for (rows, per_row), (after, _) in itertools.pairwise(grids):
        if row_sets[rows[0]] == row_sets[after[0]]:  # not the last grid of its bottom
            assert (len(rows) + 1) * per_row > budget, grids
    if alpha == 7.5:  # the 1e-30 rows are among those over the budget alone
        over = [s_values[rows].tolist() for rows, per_row in grids if per_row > budget]
        assert over.count([1e-30]) == 3, grids


def test_rows_of_one_bottom_over_several_grids_equal_their_threshold_alone(monkeypatch):
    """300 thresholds close enough to share one ladder bottom fill several
    grids; each row is, bit for bit, the kernel at its threshold alone."""
    net = net_with(alpha=3.0)
    s_values = np.linspace(50.0, 50.5, 300)
    assert len(interference._panel_plan(s_values, 3, 4, net)[1]) == 1
    _, _, grids = _recorded_grids(monkeypatch, s_values, 3, 4, net)
    assert len(grids) > 3
    assert validation.kernel_rows_apart(s_values, 3, 4, net) == []


def test_threshold_with_vanishing_s_over_m_fails_its_row_alone():
    """s/m = 0 (1e-323 / 6 rounds to 0) leaves the row no length scale: it
    fails with a DomainError naming s and m, and the other rows are those
    of a call without it.  laplace_jets returns that error in the row."""
    net = NetworkConfig(40.0, 30.0, 1.0, 8, 2.0)
    good, _ = scaled_phase_jets([1.0, 2.0], 6, 0, net)
    coeffs, failures = scaled_phase_jets([1.0, 1e-323, 2.0], 6, 0, net)
    assert failures[0] is None and failures[2] is None
    assert isinstance(failures[1], DomainError)
    assert "s=9.8813129168249309e-324" in str(failures[1]) and "m=6" in str(failures[1])
    assert coeffs[[0, 2]].tobytes() == good.tobytes()
    assert np.isnan(coeffs[1]).all()
    (_,), (only,) = scaled_phase_jets([1e-323], 6, 0, net)
    assert isinstance(only, DomainError)
    jets, phi, (failure,) = laplace_jets([1e-323], 0, net, FadingConfig(1, 6), 0.5)
    assert isinstance(failure, DomainError) and "m=6" in str(failure)
    assert np.isnan(jets).all() and np.isnan(phi).all()


def test_threshold_without_a_ladder_agrees_only_with_the_row_edges_error(monkeypatch):
    """A row whose s/m is not above 0 has no ladder bottom, and its own
    edges (_panel_edges) raise the kernel's DomainError: ladder_rows_apart
    counts it as agreeing, and as apart once _panel_edges builds edges
    for it."""
    net = NetworkConfig(40.0, 30.0, 1.0, 8, 2.0)
    with pytest.raises(DomainError, match=r"needs s/m > 0, got s=0, m=6"):
        validation._panel_edges(0.0, 6, 0, net)
    s_values = [1.0, 0.0, 1e-323, 2.0]
    assert validation.ladder_rows_apart(s_values, 6, 0, net) == []
    edges = validation._panel_edges
    monkeypatch.setattr(validation, "_panel_edges",
                        lambda s, *args: edges(max(s, 1.0), *args))
    assert validation.ladder_rows_apart(s_values, 6, 0, net) == [0.0, 1e-323]


def test_vanishing_threshold_fails_its_row_without_a_warning():
    """At exponent 7.5, m = 6 and order 13, s = 1e-300 overflows next to
    w = 0.  The row fails alone with a NumericalError and numpy warns of
    nothing; its neighbours keep their bits."""
    net = net_with(M=8, alpha=7.5)
    good, _ = scaled_phase_jets([1e-3, 1.0], 6, 13, net)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs, failures = scaled_phase_jets([1e-3, 1e-300, 1.0], 6, 13, net)
    assert failures[0] is None and failures[2] is None
    assert isinstance(failures[1], NumericalError) and "s=1e-300" in str(failures[1])
    assert coeffs[[0, 2]].tobytes() == good.tobytes()


def test_rows_do_not_depend_on_the_rest_of_the_call():
    """Each call builds its own table of panels, yet a row comes out as the
    same bits whichever thresholds share its call: the rows of a shuffled
    grid and of a sub-grid equal those of the full grid."""
    net = net_with(alpha=3.0)
    s_values = np.logspace(-3, 7, 41)
    full, full_failures = scaled_phase_jets(s_values, 3, 4, net)
    assert full_failures == [None] * s_values.size
    shuffle = np.random.default_rng(3).permutation(s_values.size)
    shuffled, _ = scaled_phase_jets(s_values[shuffle], 3, 4, net)
    assert shuffled.tobytes() == full[shuffle].tobytes()
    sub = slice(5, 30, 3)
    part, _ = scaled_phase_jets(s_values[sub], 3, 4, net)
    assert part.tobytes() == full[sub].tobytes()


@pytest.mark.parametrize("alpha, m, order", [(2.0, 3, 3), (4.0, 6, 9), (2.0, 1, 0)])
def test_kernel_working_set_does_not_grow_with_the_grid(alpha, m, order):
    """Beyond its output the kernel holds one table of the call's distinct
    panels, one grid of rows and one index per row, so its peak memory
    grows with the number of thresholds by little more than that index
    (numpy reports its buffers to tracemalloc)."""
    def extra_bytes(n):
        s_values = np.logspace(-3, 9, n)
        tracemalloc.start()
        try:
            coeffs, failures = scaled_phase_jets(s_values, m, order, net_with(alpha=alpha))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - coeffs.nbytes - sys.getsizeof(failures)

    large, small = extra_bytes(20_000), extra_bytes(2_000)
    assert large <= 1.5e6, large
    assert abs(large - small) <= 0.25e6, (large, small)
