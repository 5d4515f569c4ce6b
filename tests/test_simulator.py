import numpy as np
import pytest
from scipy import stats

from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig
from uavcov.coverage import CoverageQuery, coverage_probability
from uavcov.errors import ConfigurationError
from uavcov.simulator import (
    UavState,
    _interferer_shapes,
    initial_state,
    run_campaign,
    sample_snapshot,
    step,
)
from uavcov.validation import check_stationary_start

NET = NetworkConfig(40.0, 30.0, 10.0, 2, 2.0)
MOB = MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0)
FAD = FadingConfig(1, 1)


def single_uav(xy, altitude, moving, waypoint, speed, dwell_remaining) -> UavState:
    """One interferer at clock 0, its leg or dwell starting now."""
    tev = abs(waypoint - altitude) / speed if moving else dwell_remaining
    return UavState(
        xy=np.array([xy], dtype=float),
        h0=np.array([altitude], dtype=float),
        t0=np.zeros(1),
        tev=np.array([tev], dtype=float),
        waypoint=np.array([waypoint], dtype=float),
        speed=np.array([speed], dtype=float),
        moving=np.array([moving]),
    )


STATE_FIELDS = ("xy", "h0", "t0", "tev", "waypoint", "speed", "moving")


def assert_blocks_step_as_each_alone(mob, steps=60):
    """Block r of a two-block state draws only from generator r, so
    stepping both together equals stepping each alone, bit for bit."""
    seeds = (3, 4)
    both = initial_state(80, NET, mob, [np.random.default_rng(s) for s in seeds])
    alone = [initial_state(40, NET, mob, np.random.default_rng(s)) for s in seeds]
    both_rngs = [np.random.default_rng(s + 10) for s in seeds]
    alone_rngs = [np.random.default_rng(s + 10) for s in seeds]
    tally = np.zeros(2)
    for _ in range(steps):
        tally += step(both, 1.0, both_rngs, NET, mob)
        for block, g in zip(alone, alone_rngs):
            tally -= step(block, 1.0, g, NET, mob)
    for name in STATE_FIELDS:
        joined = np.concatenate([getattr(block, name) for block in alone])
        assert np.array_equal(getattr(both, name), joined), name
    for name in ("altitude", "dwell_remaining"):
        joined = np.concatenate([getattr(block, name)() for block in alone])
        assert np.array_equal(getattr(both, name)(), joined), name
    assert both.t == alone[0].t == alone[1].t
    assert tally[1] == 0  # hop count
    assert abs(tally[0]) < 1e-9  # hop-length sum, up to summation order
    for a, b in zip(both_rngs, alone_rngs):
        assert a.bit_generator.state == b.bit_generator.state


class TestStep:
    def test_dwelling_persists_and_hops(self, rng):
        state = single_uav((0.0, 0.0), 12.0, False, 12.0, 1.0, 5.0)
        new = state.copy()
        step(new, 1.0, rng, NET, MOB)
        assert not new.moving[0]
        assert new.dwell_remaining()[0] == pytest.approx(4.0)
        assert new.altitude()[0] == 12.0
        hop = np.hypot(*(new.xy[0] - state.xy[0]))
        assert 0.0 < hop <= MOB.hop_range

    def test_arrival_clamps_to_waypoint(self, rng):
        state = single_uav((0.0, 0.0), 10.0, True, 10.5, 2.0, 0.0)
        new = state.copy()
        step(new, 1.0, rng, NET, MOB)
        assert not new.moving[0]
        assert new.altitude()[0] == 10.5
        # arrival took 0.25 s, so 0.75 s of the fresh dwell is already spent
        drawn_dwell = new.dwell_remaining()[0] + 0.75
        assert MOB.dwell_min <= drawn_dwell <= MOB.dwell_max

    def test_cruising_advances_by_speed_times_dt(self, rng):
        state = single_uav((0.0, 0.0), 5.0, True, 25.0, 3.0, 0.0)
        new = state.copy()
        step(new, 1.0, rng, NET, MOB)
        assert new.moving[0]
        assert new.altitude()[0] == pytest.approx(8.0)
        assert np.array_equal(new.xy, state.xy)  # no hop while climbing

    def test_dwell_expiry_relaunches(self, rng):
        state = single_uav((0.0, 0.0), 12.0, False, 12.0, 1.0, 0.25)
        new = state.copy()
        step(new, 1.0, rng, NET, MOB)
        assert new.moving[0]
        assert 0.0 <= new.waypoint[0] <= NET.height
        assert MOB.speed_min <= new.speed[0] <= MOB.speed_max
        # 0.25 s of dwell then 0.75 s of climbing at the fresh speed
        gap = abs(new.altitude()[0] - 12.0)
        assert gap == pytest.approx(0.75 * new.speed[0], rel=1e-12) or not new.moving[0]

    def test_containment_over_long_run(self, rng):
        state = initial_state(300, NET, MOB, rng)
        for _ in range(300):
            step(state, 1.0, rng, NET, MOB)
            state.check_containment(NET)  # callers check containment, not step
        radii = np.hypot(state.xy[:, 0], state.xy[:, 1])
        assert radii.max() <= NET.radius * (1 + 1e-12)
        assert state.altitude().min() >= 0.0
        assert state.altitude().max() <= NET.height

    def test_two_blocks_step_as_each_block_alone(self):
        assert_blocks_step_as_each_alone(MOB)

    @pytest.mark.parametrize("dwell", [(0.1, 0.6), (0.0, 0.0)], ids=["short", "zero"])
    def test_repeat_events_step_as_each_block_alone(self, dwell):
        """Dwells shorter than dt give some interferers a third event in a
        step, which draws afresh for just those interferers."""
        mob = MobilityConfig(0.2, 10.0, *dwell, 10.0)
        assert_blocks_step_as_each_alone(mob)

    def test_fixed_draw_budget_per_step(self):
        """With dwell_min >= dt, a step draws exactly one
        (block, 5) array of uniforms per block, whatever the phases."""
        seeds, block, k = (5, 6), 40, 25
        state = initial_state(2 * block, NET, MOB, [np.random.default_rng(s) for s in seeds])
        rngs = [np.random.default_rng(s) for s in seeds]
        for _ in range(k):
            step(state, 1.0, rngs, NET, MOB)
        for s, g in zip(seeds, rngs):
            fresh = np.random.default_rng(s)
            fresh.random(k * block * 5)
            assert g.bit_generator.state == fresh.bit_generator.state

    def test_state_must_split_into_equal_blocks(self, rng):
        state = initial_state(5, NET, MOB, rng)
        with pytest.raises(ConfigurationError, match="equal blocks"):
            step(state, 1.0, [rng, np.random.default_rng(1)], NET, MOB)

    def test_rejects_bad_dt_and_rule(self, rng):
        state = initial_state(1, NET, MOB, rng)
        with pytest.raises(ConfigurationError):
            step(state, 0.0, rng, NET, MOB)


class TestSnapshot:
    def test_interference_identity(self, rng):
        state = initial_state(5, NetworkConfig(40.0, 30.0, 10.0, 5, 2.0), MOB, rng)
        snap = sample_snapshot(state, NetworkConfig(40.0, 30.0, 10.0, 5, 2.0), FAD, rng)
        expected = float(np.sum(snap.interferer_gains * snap.distances**-2.0))
        assert snap.interference == pytest.approx(expected, rel=1e-15)
        assert snap.sir == pytest.approx(
            snap.serving_gain * 10.0**-2.0 / snap.interference, rel=1e-15
        )

    def test_empty_network_has_infinite_sir(self, rng):
        net0 = NetworkConfig(40.0, 30.0, 10.0, 0, 2.0)
        snap = sample_snapshot(initial_state(0, net0, MOB, rng), net0, FAD, rng)
        assert snap.interference == 0.0
        assert np.isinf(snap.sir)

    def test_gains_have_unit_mean(self, rng):
        for m in (1, 2, 3):
            draws = rng.gamma(m, 1.0 / m, 200_000)
            se = draws.std() / np.sqrt(draws.size)
            assert abs(draws.mean() - 1.0) < 3 * se


class TestCampaign:
    def test_no_interferers_always_covered(self):
        net0 = NetworkConfig(40.0, 30.0, 10.0, 0, 2.0)
        res = run_campaign(net0, FAD, MOB, 2000, seed=3, chains=8)
        assert np.all(res.coverage() == 1.0)

    def test_deterministic_given_seed(self):
        a = run_campaign(NET, FAD, MOB, 4000, seed=11, chains=8,
                         replications=2)
        b = run_campaign(NET, FAD, MOB, 4000, seed=11, chains=8,
                         replications=2)
        assert np.array_equal(a.batch_success, b.batch_success)
        assert np.array_equal(a.dwelling_count_hist, b.dwelling_count_hist)

    def test_seed_reuse_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            run_campaign(NET, FAD, MOB, 1000, replications=2,
                         seeds=[7, 7])
        with pytest.raises(ConfigurationError):
            run_campaign(NET, FAD, MOB, 1000, replications=2,
                         seeds=[1, 2, 3])

    def test_campaign_agrees_with_analysis_at_small_scale(self):
        res = run_campaign(NET, FAD, MOB, 60_000, seed=27,
                           chains=50, replications=2)
        psi = res.psi_grid
        analytical = np.array([
            coverage_probability(CoverageQuery(float(p), NET, FAD, res.stay_probability))
            for p in psi
        ])
        assert np.max(np.abs(res.coverage() - analytical)) < 0.02


class TestLockstepReplications:
    """Oracle for the lockstep campaign: each replication's block equals a
    one-replication campaign with the same seed."""

    SEEDS = (101, 202, 303)

    @pytest.mark.parametrize("fading", [
        FAD,
        FadingConfig(2, 1),
        FadingConfig(1, 1, altitude_dependent=True),
    ], ids=["stay", "serving-shape-2", "altitude-bands"])
    def test_each_replication_matches_its_run_alone(self, fading):
        net = NetworkConfig(40.0, 30.0, 10.0, 3, 2.0)
        common = dict(seed=0, chains=5, stride=3)
        lockstep = run_campaign(net, fading, MOB, 3 * 5 * 60, replications=3,
                                seeds=self.SEEDS, n_batches=12,
                                max_kept_samples=3 * 400, **common)
        alone = [run_campaign(net, fading, MOB, 5 * 60, replications=1, seeds=[s],
                              n_batches=4, max_kept_samples=400, **common)
                 for s in self.SEEDS]
        for name in ("batch_success", "batch_snapshots", "batch_dwelling",
                     "static_distances", "moving_distances",
                     "static_altitudes", "moving_altitudes"):
            joined = np.concatenate([getattr(r, name) for r in alone])
            assert np.array_equal(getattr(lockstep, name), joined), name
        # the quota keeps whole snapshots: ceil(400 / 15) = 27 of 60 per replication
        assert lockstep.static_distances.size + lockstep.moving_distances.size == 3 * 27 * 15
        assert np.array_equal(lockstep.dwelling_count_hist,
                              sum(r.dwelling_count_hist for r in alone))
        assert lockstep.hop_count == sum(r.hop_count for r in alone) > 0
        assert lockstep.hop_length_sum == pytest.approx(
            sum(r.hop_length_sum for r in alone), rel=1e-12, abs=0)
        assert lockstep.seed_info == tuple(s for r in alone for s in r.seed_info)

    def test_one_in_place_step_per_time_step(self, monkeypatch):
        import uavcov.simulator as simulator

        widths = []
        real_step = simulator.step

        def counting_step(state, *args, **kwargs):
            widths.append(state.n)
            return real_step(state, *args, **kwargs)

        def no_copy(self):
            raise AssertionError("a campaign must step in place")

        monkeypatch.setattr(simulator, "step", counting_step)
        monkeypatch.setattr(UavState, "copy", no_copy)
        run_campaign(NET, FAD, MOB, 3 * 5 * 4, chains=5, stride=2,
                     replications=3, seeds=self.SEEDS)
        assert widths == [3 * 5 * NET.n_interferers] * (4 * 2)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(NET, FAD, MOB, 120_000, seed=97,
                        chains=60, replications=2)


class TestSteadyState:
    def test_dwelling_fraction_matches_stay_probability(self, campaign):
        se = campaign.dwelling_fraction_se()
        assert abs(campaign.dwelling_fraction() - campaign.stay_probability) < 3 * se

    def test_dwelling_count_is_binomial(self, campaign):
        pmf = campaign.dwelling_count_pmf()
        ref = stats.binom.pmf(np.arange(3), 2, campaign.stay_probability)
        assert 0.5 * np.abs(pmf - ref).sum() < 0.02

    def test_dwelling_altitude_is_uniform(self, campaign):
        ks = stats.kstest(campaign.static_altitudes,
                          lambda x: np.clip(x / NET.height, 0, 1)).statistic
        assert ks < 0.01

    def test_moving_altitude_matches_parabola(self, campaign):
        h = campaign.moving_altitudes[:30_000]
        edges = np.linspace(0.0, NET.height, 31)
        counts, _ = np.histogram(h, bins=edges)
        u = edges / NET.height
        cdf = 3 * u**2 - 2 * u**3
        expected = np.diff(cdf) * h.size
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_dwelling_distance_matches_closed_form(self, campaign):
        from uavcov.distributions import DistanceDistribution

        w = campaign.static_distances[:100_000]
        dist = DistanceDistribution("static", NET.radius, NET.height)
        assert stats.kstest(w, dist.cdf).statistic < 0.01

    def test_mean_interior_hop_length(self, campaign):
        # mean of a uniform-disk hop of range 10 is 10/1.5; 3-sigma band with
        # the hop-length sd sqrt(R'^2/2 - (2R'/3)^2)
        n = campaign.hop_count
        sd = np.sqrt(MOB.hop_range**2 / 2 - MOB.mean_hop_length**2)
        assert abs(campaign.mean_interior_hop_length() - MOB.mean_hop_length) < \
            3 * sd / np.sqrt(n)


class TestBoundaryRules:
    def test_stay_rule_preserves_uniform_disk_law(self, rng):
        """Reject-and-stay is Metropolis for the uniform law: the horizontal
        radius keeps the cdf (r/R)^2 over many parallel walkers' final
        positions.  KS noise floor at 2e4 iid samples is about 0.010."""
        state = initial_state(20_000, NET, MOB, rng)
        for _ in range(400):
            step(state, 1.0, rng, NET, MOB)
        radii = np.hypot(state.xy[:, 0], state.xy[:, 1])
        ks = stats.kstest(radii, lambda r: np.clip((r / NET.radius) ** 2, 0, 1))
        assert ks.statistic < 0.015


def _relaunch_legs(state, idx):
    """Restart the legs of idx at the clock after their waypoint or speed changed."""
    state.tev[idx] = np.abs(state.waypoint[idx] - state.h0[idx]) / state.speed[idx]


def _uniform_speed(state, g):
    idx = state.moving.nonzero()[0]
    state.speed[idx] = g.uniform(MOB.speed_min, MOB.speed_max, idx.size)
    _relaunch_legs(state, idx)


def _raw_dwell(state, g):
    idx = (~state.moving).nonzero()[0]
    state.tev[idx] = g.uniform(MOB.dwell_min, MOB.dwell_max, idx.size)


def _waypoint_ignoring_altitude(state, g):
    idx = state.moving.nonzero()[0]
    state.waypoint[idx] = g.uniform(0.0, NET.height, idx.size)
    _relaunch_legs(state, idx)


def _uniform_moving_altitude(state, g):
    idx = state.moving.nonzero()[0]
    up = state.waypoint[idx] > state.h0[idx]
    h = g.uniform(0.0, NET.height, idx.size)
    far = g.random(idx.size)
    state.h0[idx] = h
    state.waypoint[idx] = np.where(up, h + (NET.height - h) * far, h * far)
    _relaunch_legs(state, idx)


class TestStationaryStart:
    """`initial_state` draws the stationary law exactly; the stationary-start
    check passes on it and fails on each planted mutation of the sampler,
    applied here to a copy of a correct launch."""

    @pytest.fixture(scope="class")
    def launched(self):
        return initial_state(100_000, NET, MOB, np.random.default_rng(8))

    def test_launch_passes(self, launched):
        result = check_stationary_start(launched, NET, MOB, NET.n_interferers)
        assert result.passed, result.detail

    @pytest.mark.parametrize("mutate", [
        _uniform_speed, _raw_dwell, _waypoint_ignoring_altitude, _uniform_moving_altitude,
    ], ids=["uniform-speed", "raw-dwell", "waypoint-ignoring-altitude",
            "uniform-moving-altitude"])
    def test_mutated_launch_fails(self, launched, mutate):
        state = launched.copy()
        mutate(state, np.random.default_rng(9))
        result = check_stationary_start(state, NET, MOB, NET.n_interferers)
        assert not result.passed, result.detail

    def test_launch_draws_one_block_array_per_generator(self):
        seeds, block = (5, 6), 40
        both = initial_state(2 * block, NET, MOB, [np.random.default_rng(s) for s in seeds])
        for r, s in enumerate(seeds):
            g = np.random.default_rng(s)
            alone = initial_state(block, NET, MOB, g)
            for name in STATE_FIELDS:
                part = getattr(both, name)[r * block:(r + 1) * block]
                assert np.array_equal(part, getattr(alone, name)), name
            fresh = np.random.default_rng(s)
            fresh.random(block * 9)
            assert g.bit_generator.state == fresh.bit_generator.state
        assert np.all(both.t0 == 0.0) and both.t == 0.0
        both.check_containment(NET)


class TestAltitudeDependentFading:
    def test_band_shapes_follow_altitude(self, rng):
        fading = FadingConfig(1, 1, altitude_dependent=True)
        h = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
        shapes = _interferer_shapes(h, fading, NET)
        assert shapes.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0]

    def test_default_band_edges_open_the_upper_band(self):
        fading = FadingConfig(1, 1, altitude_dependent=True)
        h = np.array([NET.height / 3, 2 * NET.height / 3, NET.height])
        h = np.concatenate((np.nextafter(h, -np.inf), h))
        shapes = _interferer_shapes(h, fading, NET)
        assert shapes.tolist() == [1.0, 2.0, 3.0, 2.0, 3.0, 3.0]

    def test_altitudes_in_a_tolerated_gap_take_the_band_below(self):
        bands = ((0.0, 10.0, 1), (10.00000002, 20.0, 2), (20.0, 30.0, 3))
        fading = FadingConfig(1, 1, altitude_dependent=True, bands=bands)
        h = np.array([0.0, 10.0, 10.00000001, 10.00000002, 19.999, 20.0, 30.0])
        shapes = _interferer_shapes(h, fading, NET)
        assert shapes.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        gains = np.random.default_rng(1).gamma(shapes, 1.0 / shapes)
        assert np.all(np.isfinite(gains)) and np.all(gains > 0)

    def test_plain_mode_uses_single_shape(self, rng):
        shapes = _interferer_shapes(np.array([1.0, 29.0]), FadingConfig(1, 2), NET)
        assert shapes.tolist() == [2.0, 2.0]
