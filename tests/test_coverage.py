import math
import warnings

import pytest

from uavcov.config import FadingConfig, NetworkConfig
from uavcov.coverage import coverage_sweep, transform_argument
from uavcov.errors import ConfigurationError, DomainError
from uavcov.interference import laplace_jets, scaled_phase_jets

P_STAY = 0.5005092550523872  # benchmark kinematics


def net_with(M=2, h0=10.0):
    return NetworkConfig(40.0, 30.0, h0, M, 2.0)


def curve(psis, M=2, h0=10.0, m0=1, m1=1, p_stay=P_STAY):
    points = coverage_sweep(psis, net_with(M, h0), FadingConfig(m0, m1), p_stay)
    assert all(p.error is None for p in points)
    return [p.coverage for p in points]


DB_GRID = [10 ** (d / 10) for d in range(-20, 31, 5)]


class TestAnchors:
    def test_no_interferers_gives_one(self):
        (point,) = coverage_sweep([7.0], net_with(M=0), FadingConfig(3, 1), 0.5)
        assert point.coverage == 1.0

    def test_vanishing_threshold_gives_one(self):
        (point,) = coverage_sweep([1e-9], net_with(), FadingConfig(2, 1), 0.5)
        assert point.coverage == pytest.approx(1.0, abs=1e-9)

    def test_query_validation(self):
        """A threshold not above 0 fails its own row; a stay probability
        outside [0, 1] rejects the whole sweep."""
        (point,) = coverage_sweep([0.0], net_with(), FadingConfig(1, 1), 0.5)
        assert point.error == "ConfigurationError: SIR threshold must be > 0 (linear), got 0.0"
        assert math.isnan(point.coverage) and point.s0 == 0.0
        with pytest.raises(ConfigurationError, match="stay probability"):
            coverage_sweep([1.0], net_with(), FadingConfig(1, 1), -0.1)


class TestTrends:
    def test_decreasing_in_threshold(self):
        for m0 in (1, 2):
            vals = curve(DB_GRID, m0=m0)
            assert all(x > y for x, y in zip(vals, vals[1:]))
            assert all(0 <= v <= 1 for v in vals)

    def test_more_interferers_hurt(self):
        few = curve(DB_GRID, M=2)
        many = curve(DB_GRID, M=5)
        assert all(m <= f for f, m in zip(few, many))

    def test_higher_serving_altitude_hurts(self):
        low = curve(DB_GRID, h0=10.0)
        high = curve(DB_GRID, h0=20.0)
        assert all(h <= l for l, h in zip(low, high))

    def test_stronger_interferer_fading_shape_hurts(self):
        soft = curve(DB_GRID, m1=1)
        hard = curve(DB_GRID, m1=3)
        assert all(h <= s for s, h in zip(soft, hard))

    def test_serving_shape_helps_at_moderate_thresholds(self):
        """m0 = 2 beats m0 = 1 below ~10 dB for the benchmark geometry; the
        ordering provably reverses in the far tail (around 15 dB), so it is
        asserted only on the moderate range."""
        moderate = [10 ** (d / 10) for d in (-10, -5, 0, 5, 10)]
        base = curve(moderate, m0=1)
        diversity = curve(moderate, m0=2)
        assert all(d >= b for b, d in zip(base, diversity))


class TestSweep:
    def test_preserves_grid_order(self):
        pts = coverage_sweep(DB_GRID, net_with(), FadingConfig(1, 1), P_STAY)
        assert [p.psi for p in pts] == DB_GRID
        assert all(p.error is None for p in pts)

    def test_points_carry_the_phase_factors_at_s0(self):
        """Each row carries its s0 = m0 psi h0^alpha, and the phase factors
        at s0, bit for bit the kernel's at that threshold alone; its
        coverage is that of the threshold swept alone."""
        net, fading = net_with(), FadingConfig(2, 3)
        pts = coverage_sweep([0.1, 10.0], net, fading, P_STAY)
        for p in pts:
            assert p.s0 == 2 * p.psi * net.serving_altitude**2
            (alone,) = coverage_sweep([p.psi], net, fading, P_STAY)
            assert p.coverage == alone.coverage
            coeffs, _ = scaled_phase_jets([p.s0], 3, 0, net)
            assert [p.phi_static, p.phi_moving] == coeffs[0, :, 0].tolist()

    def test_no_interferers_still_carries_the_phase_factors(self):
        pts = coverage_sweep([1.0], net_with(M=0), FadingConfig(1, 1), P_STAY)
        (two,) = coverage_sweep([1.0], net_with(M=2), FadingConfig(1, 1), P_STAY)
        assert pts[0].coverage == 1.0
        assert (pts[0].phi_static, pts[0].phi_moving) == (two.phi_static, two.phi_moving)

    def test_per_point_errors_reported_inline(self):
        pts = coverage_sweep([1.0, -3.0, 2.0], net_with(), FadingConfig(1, 1), P_STAY)
        assert pts[0].error is None and pts[2].error is None
        assert pts[1].error is not None and math.isnan(pts[1].coverage)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_sweep([], net_with(), FadingConfig(1, 1), P_STAY)

    def test_a_million_interferers_at_a_vanishing_threshold(self):
        """The phase factors are at most 1, so at s0 = 1e-30 a million
        interferers leave the coverage at exactly 1.  A factor rounded to
        1 + 7e-16 would raise it to 1 + 7e-10, beyond round-off."""
        (point,) = coverage_sweep([1e-32], net_with(M=10**6), FadingConfig(1, 1), P_STAY)
        assert point.error is None and point.coverage == 1.0
        assert point.phi_static <= 1.0 and point.phi_moving <= 1.0

    @pytest.mark.parametrize("net, fading, tiny", [
        (NetworkConfig(40.0, 30.0, 0.5, 8, 7.5), FadingConfig(1, 2), 1e-322),  # s0 = 0
        (NetworkConfig(40.0, 30.0, 1.0, 8, 2.0), FadingConfig(1, 6), 1e-323),  # s0/m = 0
    ])
    def test_underflowing_threshold_fails_alone(self, net, fading, tiny):
        """A threshold whose s0, or s0/m, rounds to 0 fails in its own row
        with the kernel's typed error naming its s0; the other rows are, bit
        for bit, the rows of the grid without it.  laplace_jets returns that
        error in the row instead of raising it."""
        pts = coverage_sweep([1.0, tiny, 2.0], net, fading, 0.5)
        assert [pts[0], pts[2]] == coverage_sweep([1.0, 2.0], net, fading, 0.5)
        assert pts[0].error is None and pts[2].error is None
        s0 = transform_argument(tiny, net, fading)
        assert pts[1].s0 == s0
        assert pts[1].error.startswith("DomainError") and f"s={s0:.17g}," in pts[1].error
        (row,) = laplace_jets([s0], 0, net, fading, 0.5)
        assert isinstance(row, DomainError) and f"s={s0:.17g}," in str(row)

    def test_singleton_vanishing_threshold(self):
        pts = coverage_sweep([1e-10], net_with(), FadingConfig(1, 1), P_STAY)
        assert pts[0].coverage == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m0", [9, 12])
def test_large_serving_shape_sum_has_no_cancellation(m0):
    """L_I is completely monotone, so every term s0^k (-1)^k L^(k)(s0)/k! of
    the coverage sum is >= 0: a large serving shape loses no precision to
    cancellation and raises no warning."""
    net, fading = net_with(M=4), FadingConfig(m0, 2)
    for db in (-10, 10, 30):
        psi = 10 ** (db / 10)
        s0 = m0 * psi * net.serving_altitude**2
        (row,) = laplace_jets([s0], m0 - 1, net, fading, 0.4)
        assert all(c >= 0.0 for c in row[0])  # c_k = (-s0)^k L^(k)(s0) / k!
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (point,) = coverage_sweep([psi], net, fading, 0.4)
        assert point.error is None and 0.0 <= point.coverage <= 1.0


def test_extreme_threshold_is_finite_or_a_typed_error():
    """At 200 dB with a steep path loss, s0 ~ 4e28 and (-s0)^k overflows a
    float from k = 11 on; the scaled jet never forms it.  The row gives a
    finite coverage (0 here, as bench/oracle.py does) or a typed error."""
    net, fading = NetworkConfig(40.0, 30.0, 10.0, 8, 7.5), FadingConfig(14, 6)
    points = coverage_sweep([1.0, 1e12, 1e20], net, fading, 0.5)
    for point in points:
        if point.error is None:
            assert 0.0 <= point.coverage <= 1.0
        else:
            assert point.error.startswith(("NumericalError", "ConsistencyError"))
    assert points[2].coverage == 0.0
