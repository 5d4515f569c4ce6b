import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import uavcov.interference as interference
from uavcov.config import FadingConfig, NetworkConfig
from uavcov.errors import DomainError, NumericalError, UnsupportedGeometryError
from uavcov.interference import (
    _closed_phase_factor_expanded,
    laplace_derivative_jet,
    laplace_transform,
    laplace_transform_phase_sum,
    phase_laplace_factor,
    power_segment_integral,
    scaled_phase_jets,
    segment_scheme,
    shell_segment_integral,
)


def net_with(M=2, h0=10.0, alpha=2.0):
    return NetworkConfig(40.0, 30.0, h0, M, alpha)


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
    def test_breakpoints_ordered(self):
        scheme = segment_scheme(NET)
        assert scheme.a1 < scheme.a2 < scheme.a3 < scheme.a4
        assert scheme.a2 == pytest.approx(H**2)
        assert scheme.a4 == pytest.approx(R2 + H * H)
        assert scheme.ell1 == scheme.ell2 == pytest.approx(2 / H)
        assert scheme.ell5 == pytest.approx(6 * R2 / H**2)

    def test_tall_cylinder_rejected(self):
        tall = NetworkConfig(30.0, 40.0, 10.0, 2, 2.0)
        with pytest.raises(UnsupportedGeometryError):
            segment_scheme(tall)
        with pytest.raises(UnsupportedGeometryError):
            phase_laplace_factor("static", 1.0, 1, tall)


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

    def test_s_zero_limits(self):
        assert power_segment_integral(1, 0.0, 900.0, 1.0, 3, 0.0, 1, NET) == 0.0
        assert power_segment_integral(0, 0.0, 900.0, 1.0, 3, 0.0, 1, NET) > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_segment_integral(1, 0.0, 900.0, 1.0, 0, 1.0, 1, NET)
        with pytest.raises(DomainError):
            power_segment_integral(1, 5.0, 2.0, 1.0, 3, 1.0, 1, NET)
        with pytest.raises(DomainError):
            power_segment_integral(1, 0.0, 900.0, 1.0, 3, 1.0, 1, net_with(alpha=3.0))


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

    def test_continuity_at_s_zero(self):
        for l in (1, 2):
            tiny = shell_segment_integral(l, 2 / H, 1, 1e-8, 1, NET)
            limit = shell_segment_integral(l, 2 / H, 1, 0.0, 1, NET)
            assert abs(tiny - limit) <= 1e-8

    def test_domain_error_even_kappa(self):
        with pytest.raises(DomainError):
            shell_segment_integral(1, 1.0, 2, 1.0, 1, NET)


class TestPhaseFactor:
    def test_unit_at_zero(self):
        for phase in ("static", "moving"):
            assert phase_laplace_factor(phase, 0.0, 3, NET) == 1.0

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_monotone_non_increasing(self, phase):
        values = [phase_laplace_factor(phase, s, 1, NET)
                  for s in np.logspace(-2, 7, 30)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_matches_quadrature(self, phase, m):
        for s in np.logspace(-2, 6, 9):
            closed = phase_laplace_factor(phase, float(s), m, NET, "closed")
            quad = phase_laplace_factor(phase, float(s), m, NET, "quadrature")
            assert abs(closed - quad) / quad <= 1e-8

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_collapsed_matches_expanded_binomial_sum(self, phase):
        """The closed form pre-collapses the alternating binomial sum;
        the literal expanded sum must agree where it is well conditioned."""
        for m in (1, 2, 3):
            for s in np.logspace(-1, 3.5, 8):
                collapsed = phase_laplace_factor(phase, float(s), m, NET, "closed")
                expanded = _closed_phase_factor_expanded(phase, float(s), m, NET)
                assert collapsed == pytest.approx(expanded, rel=1e-11)

    def test_general_exponent_uses_quadrature(self):
        net3 = net_with(alpha=3.0)
        val = phase_laplace_factor("static", 100.0, 2, net3)
        ref = phase_laplace_factor("static", 100.0, 2, net3, "quadrature")
        assert val == ref
        with pytest.raises(DomainError):
            phase_laplace_factor("static", 100.0, 2, net3, "closed")

    def test_input_validation(self):
        with pytest.raises(DomainError):
            phase_laplace_factor("static", -1.0, 1, NET)
        with pytest.raises(DomainError):
            phase_laplace_factor("static", 1.0, 0, NET)
        with pytest.raises(DomainError):
            phase_laplace_factor("parked", 1.0, 1, NET)


    @pytest.mark.parametrize("m", [2, 8, 12])
    def test_matches_independent_oracle_on_a_wide_flat_cylinder(self, m):
        """R/H = 100/5 at exponent 2: the factors analyze prints against
        bench/oracle.py at 64 nodes, to 1e-13.  The hyp2f1 closed form
        misses by 3e-13 (m = 2) to 5e-11 (m = 12) on this grid."""
        oracle = _bench_oracle()
        net = NetworkConfig(100.0, 5.0, 10.0, 2, 2.0)
        geo = oracle.Geometry(net.radius, net.height, net.serving_altitude, 2.0)
        for s in np.logspace(-3, 9, 13):
            ref = oracle.phase_derivatives(float(s), m, 0, geo, nodes=64)
            for phase in ("static", "moving"):
                got = phase_laplace_factor(phase, float(s), m, net)
                assert abs(got - ref[phase][0]) <= 1e-13 * ref[phase][0], (phase, s)


class TestLaplaceTransform:
    def test_no_interferers(self):
        assert laplace_transform(5.0, net_with(M=0), FadingConfig(1, 1), 0.4) == 1.0

    def test_unit_at_zero(self):
        assert laplace_transform(0.0, NET, FadingConfig(1, 1), 0.4) == 1.0

    def test_phase_sum_equals_power_form(self, rng):
        for M in range(1, 11):
            net = net_with(M=M)
            for _ in range(3):
                s = float(10 ** rng.uniform(-1, 4))
                p = float(rng.uniform(0, 1))
                fading = FadingConfig(1, int(rng.integers(1, 4)))
                power = laplace_transform(s, net, fading, p)
                summed = laplace_transform_phase_sum(s, net, fading, p)
                assert abs(power - summed) / power <= 1e-13

    def test_monotone_and_bounded(self):
        fading = FadingConfig(1, 2)
        vals = [laplace_transform(s, NET, fading, 0.5)
                for s in np.logspace(-2, 6, 50)]
        assert all(0 < v <= 1 for v in vals)
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_stay_probability_validated(self):
        with pytest.raises(DomainError):
            laplace_transform(1.0, NET, FadingConfig(1, 1), 1.2)


class TestDerivativeJet:
    def test_order_zero_equals_transform(self):
        fading = FadingConfig(1, 1)
        jet = laplace_derivative_jet(100.0, 0, NET, fading, 0.5)
        assert jet.value == laplace_transform(100.0, NET, fading, 0.5)

    def test_no_interferers_is_constant_one(self):
        jet = laplace_derivative_jet(3.0, 4, net_with(M=0), FadingConfig(1, 1), 0.5)
        assert jet.coeffs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m_i,p_stay", [(1, 0.5), (2, 0.3), (3, 0.9)])
    def test_first_derivative_matches_finite_difference(self, m_i, p_stay):
        fading = FadingConfig(1, m_i)
        s0 = 100.0
        jet = laplace_derivative_jet(s0, 1, NET, fading, p_stay)
        delta = 1e-5 * s0
        fd = (laplace_transform(s0 + delta, NET, fading, p_stay)
              - laplace_transform(s0 - delta, NET, fading, p_stay)) / (2 * delta)
        assert jet.derivative(1) == pytest.approx(fd, rel=1e-5)

    def test_second_derivative_matches_finite_difference(self):
        fading = FadingConfig(1, 1)
        s0 = 200.0
        jet = laplace_derivative_jet(s0, 2, NET, fading, 0.5)
        delta = 3e-4 * s0
        L = lambda s: laplace_transform(s, NET, fading, 0.5)
        fd = (L(s0 + delta) - 2 * L(s0) + L(s0 - delta)) / delta**2
        assert jet.derivative(2) == pytest.approx(fd, rel=1e-5)

    def test_single_interferer_rayleigh_signs_alternate(self):
        """One interferer with unit shape: the transform is completely
        monotone, so Taylor coefficients alternate in sign through order 3."""
        jet = laplace_derivative_jet(50.0, 3, net_with(M=1), FadingConfig(1, 1), 0.5)
        signs = np.sign(jet.coeffs)
        assert signs.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_quadrature_failure_names_offending_order(self, monkeypatch):
        # Two nodes per panel against four: the error estimate far exceeds 1e-10.
        monkeypatch.setattr(interference, "_GL_NODES", 2)
        with pytest.raises(NumericalError) as info:
            laplace_derivative_jet(100.0, 2, NET, FadingConfig(1, 1), 0.5)
        assert "k=" in str(info.value)


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


@pytest.mark.parametrize("n", [2, 16, 32])
def test_gauss_legendre_rule_matches_numpy(n):
    """Nodes and weights from Newton's iteration against numpy's
    eigenvalue-based leggauss, both mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = interference._gauss_legendre(n)
    assert np.max(np.abs(nodes - 0.5 * (x + 1.0))) <= 1e-15
    assert np.max(np.abs(weights - 0.5 * w)) <= 1e-15


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
    original = interference._panel_edges

    def coarse_at_one_row(s, m, order, net):
        edges = original(s, m, order, net)
        return edges[[0, -1]] if s == 10.0 else edges  # one panel over the support

    s_values = [1.0, 10.0, 100.0]
    good, _ = scaled_phase_jets(s_values, 2, 3, NET)
    monkeypatch.setattr(interference, "_panel_edges", coarse_at_one_row)
    coeffs, failures = scaled_phase_jets(s_values, 2, 3, NET)
    assert failures[0] is None and failures[2] is None
    assert isinstance(failures[1], NumericalError)
    assert "s=10" in str(failures[1]) and "m=2" in str(failures[1]) and "k=" in str(failures[1])
    assert np.array_equal(coeffs[[0, 2]], good[[0, 2]])
