import math
import warnings

import numpy as np
import pytest

import uavcov.coverage as coverage_module
from uavcov.config import FadingConfig, NetworkConfig
from uavcov.coverage import coverage_sweep, transform_argument
from uavcov.errors import ConfigurationError, DomainError
from uavcov.interference import laplace_jets, scaled_phase_jets

P_STAY = 0.5005092550523872  # benchmark kinematics


def net_with(M=2, h0=10.0):
    return NetworkConfig(40.0, 30.0, h0, M, 2.0)


def curve(psis, M=2, h0=10.0, m0=1, m1=1, p_stay=P_STAY):
    sweep = coverage_sweep(psis, net_with(M, h0), FadingConfig(m0, m1), p_stay)
    assert sweep.errors == [None] * len(psis)
    return sweep.coverage.tolist()


def rows_of(sweep, rows):
    """Every column of a sweep at the given rows: the float columns as
    bytes, so that equal means bit for bit (NaN included)."""
    floats = [getattr(sweep, name)[rows].tobytes()
              for name in ("psi", "coverage", "s0", "phi_static", "phi_moving")]
    return floats, [sweep.errors[i] for i in rows]


DB_GRID = [10 ** (d / 10) for d in range(-20, 31, 5)]


class TestAnchors:
    def test_no_interferers_gives_one(self):
        sweep = coverage_sweep([7.0], net_with(M=0), FadingConfig(3, 1), 0.5)
        assert sweep.coverage.tolist() == [1.0]

    def test_vanishing_threshold_gives_one(self):
        (coverage,) = coverage_sweep([1e-9], net_with(), FadingConfig(2, 1), 0.5).coverage
        assert coverage == pytest.approx(1.0, abs=1e-9)

    def test_query_validation(self):
        """A threshold not above 0 fails its own row; a stay probability
        outside [0, 1] rejects the whole sweep."""
        sweep = coverage_sweep([0.0], net_with(), FadingConfig(1, 1), 0.5)
        assert sweep.errors == ["ConfigurationError: SIR threshold must be > 0 (linear), got 0.0"]
        assert math.isnan(sweep.coverage[0]) and sweep.s0.tolist() == [0.0]
        with pytest.raises(ConfigurationError, match="stay probability"):
            coverage_sweep([1.0], net_with(), FadingConfig(1, 1), -0.1)

    def test_sweeps_compare_by_identity(self):
        """== on two sweeps of several rows answers instead of raising on
        the ambiguous truth value of an array comparison."""
        sweep = coverage_sweep([1.0, 2.0], net_with(), FadingConfig(1, 1), 0.5)
        again = coverage_sweep([1.0, 2.0], net_with(), FadingConfig(1, 1), 0.5)
        assert sweep == sweep and sweep != again
        assert rows_of(sweep, [0, 1]) == rows_of(again, [0, 1])


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
        sweep = coverage_sweep(DB_GRID, net_with(), FadingConfig(1, 1), P_STAY)
        assert sweep.psi.tolist() == DB_GRID
        assert sweep.errors == [None] * len(DB_GRID)

    def test_points_carry_the_phase_factors_at_s0(self):
        """Each row carries its s0 = m0 psi h0^alpha, and the phase factors
        at s0, bit for bit the kernel's at that threshold alone; its
        coverage is that of the threshold swept alone."""
        net, fading = net_with(), FadingConfig(2, 3)
        sweep = coverage_sweep([0.1, 10.0], net, fading, P_STAY)
        for psi, coverage, s0, static, moving in zip(
                sweep.psi.tolist(), sweep.coverage.tolist(), sweep.s0.tolist(),
                sweep.phi_static.tolist(), sweep.phi_moving.tolist()):
            assert s0 == 2 * psi * net.serving_altitude**2
            alone = coverage_sweep([psi], net, fading, P_STAY)
            assert alone.coverage.tolist() == [coverage]
            coeffs, _ = scaled_phase_jets([s0], 3, 0, net)
            assert [static, moving] == coeffs[0, :, 0].tolist()

    def test_no_interferers_still_carries_the_phase_factors(self):
        none = coverage_sweep([1.0], net_with(M=0), FadingConfig(1, 1), P_STAY)
        two = coverage_sweep([1.0], net_with(M=2), FadingConfig(1, 1), P_STAY)
        assert none.coverage.tolist() == [1.0]
        assert ((none.phi_static.tolist(), none.phi_moving.tolist())
                == (two.phi_static.tolist(), two.phi_moving.tolist()))

    def test_per_point_errors_reported_inline(self):
        sweep = coverage_sweep([1.0, -3.0, 2.0], net_with(), FadingConfig(1, 1), P_STAY)
        assert sweep.errors[0] is None and sweep.errors[2] is None
        assert sweep.errors[1] is not None and math.isnan(sweep.coverage[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_sweep([], net_with(), FadingConfig(1, 1), P_STAY)

    def test_a_million_interferers_at_a_vanishing_threshold(self):
        """The phase factors are at most 1, so at s0 = 1e-30 a million
        interferers leave the coverage at exactly 1.  A factor rounded to
        1 + 7e-16 would raise it to 1 + 7e-10, beyond round-off."""
        sweep = coverage_sweep([1e-32], net_with(M=10**6), FadingConfig(1, 1), P_STAY)
        assert sweep.errors == [None] and sweep.coverage.tolist() == [1.0]
        assert sweep.phi_static[0] <= 1.0 and sweep.phi_moving[0] <= 1.0

    @pytest.mark.parametrize("net, fading, tiny", [
        (NetworkConfig(40.0, 30.0, 0.5, 8, 7.5), FadingConfig(1, 2), 1e-322),  # s0 = 0
        (NetworkConfig(40.0, 30.0, 1.0, 8, 2.0), FadingConfig(1, 6), 1e-323),  # s0/m = 0
    ])
    def test_underflowing_threshold_fails_alone(self, net, fading, tiny):
        """A threshold whose s0, or s0/m, rounds to 0 fails in its own row
        with the kernel's typed error naming its s0; the other rows are, bit
        for bit, the rows of the grid without it.  laplace_jets returns that
        error in the row instead of raising it."""
        sweep = coverage_sweep([1.0, tiny, 2.0], net, fading, 0.5)
        assert rows_of(sweep, [0, 2]) == rows_of(coverage_sweep([1.0, 2.0], net, fading, 0.5),
                                                 [0, 1])
        assert sweep.errors[0] is None and sweep.errors[2] is None
        s0 = transform_argument(tiny, net, fading)
        assert sweep.s0[1] == s0
        assert sweep.errors[1].startswith("DomainError") and f"s={s0:.17g}," in sweep.errors[1]
        _, _, (failure,) = laplace_jets([s0], 0, net, fading, 0.5)
        assert isinstance(failure, DomainError) and f"s={s0:.17g}," in str(failure)

    def test_each_failing_row_stays_in_its_own_row(self):
        """psi = 0 and psi = -3 (no kernel call), a threshold whose s0/m
        underflows at m = 6 and one at 3080 dB whose s0 overflows, among
        ordinary thresholds: every ordinary row is, in every column and bit
        for bit, its row of the sweep without the failing ones, and each
        failing row has NaN coverage and phase factors and its own error."""
        net, fading = NetworkConfig(40.0, 30.0, 1.0, 8, 2.0), FadingConfig(2, 6)
        grid = [0.5, 0.0, 5e-324, 2.0, -3.0, 10 ** (3080 / 10), 30.0]
        ordinary, failing = [0, 3, 6], [1, 2, 4, 5]
        sweep = coverage_sweep(grid, net, fading, 0.5)
        alone = coverage_sweep([grid[i] for i in ordinary], net, fading, 0.5)
        assert rows_of(sweep, ordinary) == rows_of(alone, [0, 1, 2])
        assert alone.errors == [None] * 3
        assert sweep.s0[failing].tolist() == [0.0, 1e-323, -6.0, math.inf]
        for column in (sweep.coverage, sweep.phi_static, sweep.phi_moving):
            assert np.isnan(column[failing]).all()
        assert [sweep.errors[i] for i in failing] == [
            "ConfigurationError: SIR threshold must be > 0 (linear), got 0.0",
            "DomainError: Gauss-Legendre kernel needs s/m > 0, got s=9.8813129168249309e-324, "
            "m=6",
            "ConfigurationError: SIR threshold must be > 0 (linear), got -3.0",
            "NumericalError: Gauss-Legendre estimate nan above 1e-10 relative for "
            "phase=static, s=inf, m=6, derivative order k=0",
        ]

    def test_coverage_within_round_off_goes_onto_the_unit_interval(self, monkeypatch):
        """A coverage sum within 1e-10 outside [0, 1] is set onto it; one
        further out fails its row with a ConsistencyError naming the sum,
        and its phase factors are NaN."""
        jets = np.array([[1.0, 5e-11], [-5e-11, 0.0], [1.0, 0.5], [0.25, 0.25]])
        phi = np.full((4, 2), 0.5)
        monkeypatch.setattr(coverage_module, "laplace_jets",
                            lambda *args: (jets, phi, [None] * 4))
        sweep = coverage_sweep([1.0, 2.0, 3.0, 4.0], net_with(), FadingConfig(2, 1), 0.5)
        assert sweep.coverage[[0, 1, 3]].tolist() == [1.0, 0.0, 0.5]
        assert math.isnan(sweep.coverage[2])
        assert sweep.errors == [None, None, "ConsistencyError: coverage probability 1.5 outside "
                                "[0, 1] by more than round-off (psi=3.0, m0=2)", None]
        assert np.isnan(sweep.phi_static[2]) and sweep.phi_moving[[0, 1, 3]].tolist() == [0.5] * 3

    def test_singleton_vanishing_threshold(self):
        sweep = coverage_sweep([1e-10], net_with(), FadingConfig(1, 1), P_STAY)
        assert sweep.coverage[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m0", [9, 12])
def test_large_serving_shape_sum_has_no_cancellation(m0):
    """L_I is completely monotone, so every term s0^k (-1)^k L^(k)(s0)/k! of
    the coverage sum is >= 0: a large serving shape loses no precision to
    cancellation and raises no warning."""
    net, fading = net_with(M=4), FadingConfig(m0, 2)
    for db in (-10, 10, 30):
        psi = 10 ** (db / 10)
        s0 = m0 * psi * net.serving_altitude**2
        jets, _, _ = laplace_jets([s0], m0 - 1, net, fading, 0.4)
        assert all(c >= 0.0 for c in jets[0].tolist())  # c_k = (-s0)^k L^(k)(s0) / k!
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = coverage_sweep([psi], net, fading, 0.4)
        assert sweep.errors == [None] and 0.0 <= sweep.coverage[0] <= 1.0


def test_extreme_threshold_is_finite_or_a_typed_error():
    """At 200 dB with a steep path loss, s0 ~ 4e28 and (-s0)^k overflows a
    float from k = 11 on; the scaled jet never forms it.  The row gives a
    finite coverage (0 here, as bench/oracle.py does) or a typed error."""
    net, fading = NetworkConfig(40.0, 30.0, 10.0, 8, 7.5), FadingConfig(14, 6)
    sweep = coverage_sweep([1.0, 1e12, 1e20], net, fading, 0.5)
    for coverage, error in zip(sweep.coverage.tolist(), sweep.errors):
        if error is None:
            assert 0.0 <= coverage <= 1.0
        else:
            assert error.startswith(("NumericalError", "ConsistencyError"))
    assert sweep.coverage[2] == 0.0
