import math

import pytest

from uavcov.config import (
    FadingConfig,
    MobilityConfig,
    NetworkConfig,
    derive_stay_probability,
    resolve_fading_bands,
)
from uavcov.errors import ConfigurationError


class TestStayProbability:
    def test_benchmark_kinematics_give_half(self, baseline_network, baseline_mobility):
        """Speeds [0.2, 10], dwells [2, 6], H = 30 land within 1e-3 of 0.5."""
        p = derive_stay_probability(baseline_mobility, baseline_network)
        assert abs(p - 0.5) < 1e-3
        # frozen value for regression: 4 / (4 + ln(50)/9.8 * 10)
        expected = 4.0 / (4.0 + math.log(50.0) / 9.8 * 10.0)
        assert p == pytest.approx(expected, rel=1e-12)

    def test_zero_dwell_means_never_staying(self, baseline_network):
        mob = MobilityConfig(0.2, 10.0, 0.0, 0.0, 10.0)
        assert derive_stay_probability(mob, baseline_network) == 0.0

    def test_balanced_dwell_gives_half(self, baseline_network):
        # With speeds [1, e], the mean leg time is H/3 / (e - 1); a dwell of
        # exactly that duration balances the cycle, forcing 0.5.
        travel = (baseline_network.height / 3.0) / (math.e - 1.0)
        mob = MobilityConfig(1.0, math.e, travel, travel, 10.0)
        p = derive_stay_probability(mob, baseline_network)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_override_wins(self, baseline_network, baseline_mobility):
        mob = MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0, stay_probability_override=0.9)
        assert derive_stay_probability(mob, baseline_network) == 0.9

    def test_monotone_in_dwell_and_speed(self, baseline_network):
        """Longer dwells raise the stay probability; slower legs lower it."""
        base = derive_stay_probability(
            MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0), baseline_network
        )
        longer_dwell = derive_stay_probability(
            MobilityConfig(0.2, 10.0, 4.0, 8.0, 10.0), baseline_network
        )
        slower_legs = derive_stay_probability(
            MobilityConfig(0.1, 5.0, 2.0, 6.0, 10.0), baseline_network
        )
        assert longer_dwell > base
        assert slower_legs < base


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(radius=0.0, height=30.0, serving_altitude=10.0, n_interferers=2),
            dict(radius=40.0, height=-1.0, serving_altitude=10.0, n_interferers=2),
            dict(radius=40.0, height=30.0, serving_altitude=0.0, n_interferers=2),
            dict(radius=40.0, height=30.0, serving_altitude=10.0, n_interferers=-1),
            dict(radius=40.0, height=30.0, serving_altitude=10.0, n_interferers=2,
                 path_loss_exponent=1.5),
            dict(radius=40.0, height=30.0, serving_altitude=10.0, n_interferers=math.inf),
        ],
    )
    def test_network_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 10.0, 2.0, 6.0, 10.0),     # zero speed_min
            (10.0, 0.2, 2.0, 6.0, 10.0),     # inverted speeds
            (0.2, 10.0, 6.0, 2.0, 10.0),     # inverted dwells
            (0.2, 10.0, -1.0, 6.0, 10.0),    # negative dwell
            (0.2, 10.0, 2.0, 6.0, 0.0),      # zero hop range
        ],
    )
    def test_mobility_rejects_bad_ranges(self, args):
        with pytest.raises(ConfigurationError):
            MobilityConfig(*args)

    def test_mobility_rejects_bad_override(self):
        with pytest.raises(ConfigurationError):
            MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0, stay_probability_override=1.5)

    @pytest.mark.parametrize("m0,m1", [(0, 1), (1, 0), (1.5, 1), (-2, 3), (math.inf, 1),
                                       (1, math.nan)])
    def test_fading_rejects_bad_shapes(self, m0, m1):
        with pytest.raises(ConfigurationError):
            FadingConfig(serving_m=m0, interferer_m=m1)

    def test_configs_are_immutable(self, baseline_network):
        with pytest.raises(AttributeError):
            baseline_network.radius = 10.0


class TestFadingBands:
    def test_default_bands_are_thirds(self, baseline_network):
        bands = resolve_fading_bands(FadingConfig(1, 1, altitude_dependent=True),
                                     baseline_network)
        assert bands == ((0.0, 10.0, 1), (10.0, 20.0, 2), (20.0, 30.0, 3))

    def test_explicit_bands_must_tile(self, baseline_network):
        good = FadingConfig(1, 1, altitude_dependent=True,
                            bands=((0.0, 15.0, 1), (15.0, 30.0, 2)))
        assert resolve_fading_bands(good, baseline_network)[1] == (15.0, 30.0, 2)
        gap = FadingConfig(1, 1, altitude_dependent=True,
                           bands=((0.0, 10.0, 1), (12.0, 30.0, 2)))
        with pytest.raises(ConfigurationError):
            resolve_fading_bands(gap, baseline_network)
        short = FadingConfig(1, 1, altitude_dependent=True, bands=((0.0, 20.0, 1),))
        with pytest.raises(ConfigurationError):
            resolve_fading_bands(short, baseline_network)

    def test_band_shape_must_be_positive_integer(self):
        for m in (0, math.inf):
            with pytest.raises(ConfigurationError):
                FadingConfig(1, 1, altitude_dependent=True, bands=((0.0, 30.0, m),))
