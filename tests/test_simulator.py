import copy
import dataclasses
import inspect
import math

import numpy as np
import pytest
from scipy import stats

import uavcov.simulator as simulator
import uavcov.validation as validation

from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig, resolve_fading_bands
from uavcov.coverage import coverage_sweep
from uavcov.errors import ConfigurationError, ConsistencyError
from uavcov.simulator import (
    UavState,
    _check_contained,
    _fade,
    _interferer_shapes,
    advance,
    default_psi_grid,
    initial_state,
    run_campaign,
)
from uavcov.validation import (
    check_buffered_snapshots,
    check_event_tape,
    check_stationary_start,
)

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


class TestStep:
    def test_dwelling_persists_and_hops(self, rng):
        state = single_uav((0.0, 0.0), 12.0, False, 12.0, 1.0, 5.0)
        new = copy.deepcopy(state)
        advance(new, 1, 1.0, rng, NET, MOB)
        assert not new.moving[0]
        assert new.dwell_remaining()[0] == pytest.approx(4.0)
        assert new.altitude()[0] == 12.0
        hop = np.hypot(*(new.xy[0] - state.xy[0]))
        assert 0.0 < hop <= MOB.hop_range

    def test_arrival_clamps_to_waypoint(self, rng):
        state = single_uav((0.0, 0.0), 10.0, True, 10.5, 2.0, 0.0)
        new = copy.deepcopy(state)
        advance(new, 1, 1.0, rng, NET, MOB)
        assert not new.moving[0]
        assert new.altitude()[0] == 10.5
        # arrival took 0.25 s, so 0.75 s of the fresh dwell is already spent
        drawn_dwell = new.dwell_remaining()[0] + 0.75
        assert MOB.dwell_min <= drawn_dwell <= MOB.dwell_max

    def test_cruising_advances_by_speed_times_dt(self, rng):
        state = single_uav((0.0, 0.0), 5.0, True, 25.0, 3.0, 0.0)
        new = copy.deepcopy(state)
        advance(new, 1, 1.0, rng, NET, MOB)
        assert new.moving[0]
        assert new.altitude()[0] == pytest.approx(8.0)
        assert np.array_equal(new.xy, state.xy)  # no hop while climbing

    def test_dwell_expiry_relaunches(self, rng):
        state = single_uav((0.0, 0.0), 12.0, False, 12.0, 1.0, 0.25)
        new = copy.deepcopy(state)
        advance(new, 1, 1.0, rng, NET, MOB)
        assert new.moving[0]
        assert 0.0 <= new.waypoint[0] <= NET.height
        assert MOB.speed_min <= new.speed[0] <= MOB.speed_max
        # 0.25 s of dwell then 0.75 s of climbing at the fresh speed
        gap = abs(new.altitude()[0] - 12.0)
        assert gap == pytest.approx(0.75 * new.speed[0], rel=1e-12) or not new.moving[0]

    def test_containment_over_long_run(self, rng):
        state = initial_state(300, NET, MOB, rng)
        for _ in range(300):
            advance(state, 1, 1.0, rng, NET, MOB)
            # callers check containment, not advance
            _check_contained(state.radius2(), state.altitude(), NET)
        radii = np.hypot(state.xy[:, 0], state.xy[:, 1])
        assert radii.max() <= NET.radius * (1 + 1e-12)
        assert state.altitude().min() >= 0.0
        assert state.altitude().max() <= NET.height

    def test_stride_draws_pass_rows_then_one_hop_array(self, monkeypatch):
        """Per call, the generator draws one array for the k interferers
        that each vertical pass runs, then one (hops, 2) array, one row per
        hop the stride makes: the sum of the hop counts.  A narrow batch (40
        interferers) draws (Q, k, 3) per pass, Q cycles of each, and its
        2-6 s dwells finish a 10-step stride in at most two passes: a third
        would need 2Q >= 6 dwells, at least 12 s, within it.  A wide batch
        (600, with dwells under a step, so several passes) draws (k, 3)."""
        class Recorder:
            def __init__(self, seed):
                self.g, self.shapes = np.random.default_rng(seed), []

            def random(self, size=None, out=None):
                self.shapes.append(size if out is None else out.shape)
                return self.g.random(size, out=out)

        counts = []
        real_vertical = simulator._advance_vertical
        monkeypatch.setattr(simulator, "_advance_vertical",
                            lambda *args: counts.append(real_vertical(*args)) or counts[-1])
        short = MobilityConfig(0.2, 10.0, 0.1, 0.6, 10.0)
        for n, mob, stride, cycles in ((40, MOB, 10, (simulator._CYCLES,)),
                                       (600, short, 7, ())):
            state = initial_state(n, NET, mob, np.random.default_rng(5))
            rec = Recorder(6)
            for _ in range(4):
                first = (state.tev <= state.t + stride).sum()
                rec.shapes.clear()
                advance(state, stride, 1.0, rec, NET, mob)
                passes = rec.shapes[:-1]
                rows = [shape[len(cycles)] for shape in passes]
                assert rec.shapes[-1] == (int(counts[-1].sum()), 2)
                assert 0 < counts[-1].sum() < stride * n
                assert passes == [cycles + (k, 3) for k in rows]
                assert rows[0] == first
                assert rows == sorted(rows, reverse=True) and rows[-1] > 0
                assert len(rows) <= 2 if cycles else len(rows) > 1

    def test_rejects_bad_dt_and_rule(self, rng):
        state = initial_state(1, NET, MOB, rng)
        with pytest.raises(ConfigurationError, match="dt"):
            advance(state, 1, 0.0, rng, NET, MOB)
        with pytest.raises(ConfigurationError, match="steps"):
            advance(state, 0, 1.0, rng, NET, MOB)


@pytest.mark.parametrize("dt", [1.0, 1e-3])
@pytest.mark.parametrize("clock", [0.0, 1e6, 1e9])
@pytest.mark.parametrize("steps", [1, 10, 255, 256, 1000])
def test_event_rows_match_a_search_of_the_step_ends(steps, clock, dt):
    """Each event time goes to the first step whose end is at or after it,
    steps + 1 past the last end, exactly as a search of [-inf, ends] puts
    it: at every end, one float either side of it, at the clock, just and
    far past the last end, and at random times of the call."""
    ends, t = np.empty(steps), clock
    for j in range(steps):  # the step ends `advance` makes
        t += dt
        ends[j] = t
    x = np.concatenate((
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        [clock, np.nextafter(clock, np.inf), np.nextafter(t, np.inf), t + dt / 2, t + 1e3 * dt,
         1e300],
        np.random.default_rng(steps).uniform(clock, t, 10_000)))
    expected = np.concatenate(([-np.inf], ends)).searchsorted(x)
    assert np.array_equal(simulator._event_rows(clock, ends)(x), expected)


def test_a_clock_too_large_for_its_step_is_refused(rng):
    """At t = 1e15 a float cannot tell steps of 1 s apart well enough to
    place events on them."""
    state = initial_state(4, NET, MOB, rng)
    state.t = 1e15
    with pytest.raises(ConsistencyError, match="cannot be told apart"):
        advance(state, 10, 1.0, rng, NET, MOB)


@pytest.mark.parametrize("u", [
    np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 1e-300]),
    np.random.default_rng(22).random(100_000),
], ids=["edges", "random"])
def test_hop_unit_vector_matches_cos_and_sin(u):
    """The half-angle tangent form of exp(2 pi i u) stays finite, and each
    part within 1e-15 of cos and sin of 2 pi u, up to u's ends and around
    the quarter turns, where the tangent is 0, 1 or near its pole."""
    e = simulator._unit(u)
    assert np.isfinite(e.real).all() and np.isfinite(e.imag).all()
    theta = 2.0 * math.pi * u
    assert np.abs(e.real - np.cos(theta)).max() <= 1e-15
    assert np.abs(e.imag - np.sin(theta)).max() <= 1e-15


def observed(state):
    """A launched state's distances and altitudes, as one buffer row each."""
    altitude = state.altitude()
    return np.sqrt(altitude**2 + state.radius2())[None], altitude[None]


class TestSnapshot:
    def test_interference_identity(self, rng):
        net = NetworkConfig(40.0, 30.0, 10.0, 5, 2.0)
        w, altitude = observed(initial_state(5, net, MOB, rng))
        g0, gains, interference, sir = _fade(
            w, altitude, 1, net, 1, _interferer_shapes(FAD, net), rng, rng)
        assert interference[0, 0] == pytest.approx(np.sum(gains * w**-2.0), rel=1e-15)
        assert sir[0, 0] == pytest.approx(g0[0, 0] * 10.0**-2.0 / interference[0, 0],
                                          rel=1e-15)

    def test_empty_network_has_infinite_sir(self, rng):
        net0 = NetworkConfig(40.0, 30.0, 10.0, 0, 2.0)
        w, altitude = observed(initial_state(0, net0, MOB, rng))
        _, _, interference, sir = _fade(
            w, altitude, 1, net0, 1, _interferer_shapes(FAD, net0), rng, rng)
        assert interference.tolist() == [[0.0]]
        assert np.isinf(sir[0, 0])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scalar_shape_gains_equal_the_array_shape_draw(self, m):
        """Without altitude bands the interferer gains are drawn with one
        scalar shape: bit for bit the array-shape draw gamma(m_i, 1/m_i),
        the interferer generator left where that draw leaves it."""
        net = NetworkConfig(40.0, 30.0, 10.0, 64, 2.0)
        w, altitude = observed(initial_state(128, net, MOB, np.random.default_rng(0)))
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        _, gains, _, _ = _fade(w, altitude, 2, net, 1,
                               _interferer_shapes(FadingConfig(1, m), net),
                               np.random.default_rng(2), rng)
        shapes = np.full(128, float(m))
        assert gains.tobytes() == ref.gamma(shapes, 1.0 / shapes).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_gains_are_the_gamma_draws_bit_for_bit(self, seed):
        """Both gains are drawn as standard_gamma(m) times 1/m: bit for bit
        gamma(m, 1/m), each generator left where gamma leaves it, for scalar
        shapes 1, 2, 3 and 5 and for a 4,096-element band-shape array."""
        net = NetworkConfig(40.0, 30.0, 10.0, 8, 2.0)
        w, altitude = observed(initial_state(4096, net, MOB, np.random.default_rng(seed)))
        for fading in [FadingConfig(m, m) for m in (1, 2, 3, 5)] + [
                FadingConfig(2, 1, altitude_dependent=True)]:
            shapes = _interferer_shapes(fading, net)
            rngs = [np.random.default_rng(seed + k) for k in (0, 10, 0, 10)]
            g0, gains, _, _ = _fade(w, altitude, 512, net, fading.serving_m, shapes, *rngs[:2])
            m0, m = fading.serving_m, shapes(altitude[0])
            assert g0.tobytes() == rngs[2].gamma(m0, 1.0 / m0, 512).tobytes()
            assert gains.tobytes() == rngs[3].gamma(m, 1.0 / m, 4096).tobytes()
            assert [g.bit_generator.state for g in rngs[:2]] == [
                g.bit_generator.state for g in rngs[2:]]

    def test_a_buffer_draws_what_its_rows_draw_one_at_a_time(self):
        """k rows at once draw, row by row, what k one-row calls draw, under
        altitude bands too: the gains of row r are the r-th call's."""
        net = NetworkConfig(40.0, 30.0, 10.0, 3, 2.0)
        rows = [observed(initial_state(12, net, MOB, np.random.default_rng(r)))
                for r in range(5)]
        w, altitude = (np.concatenate(parts) for parts in zip(*rows))
        for fading in (FadingConfig(2, 1), FadingConfig(1, 1, altitude_dependent=True)):
            shapes = _interferer_shapes(fading, net)
            block = _fade(w, altitude, 4, net, fading.serving_m, shapes,
                          np.random.default_rng(1), np.random.default_rng(2))
            serving, interfering = np.random.default_rng(1), np.random.default_rng(2)
            alone = [_fade(*row, 4, net, fading.serving_m, shapes, serving, interfering)
                     for row in rows]
            for got, parts in zip(block, zip(*alone)):
                assert got.tobytes() == np.concatenate(parts).tobytes()

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
        """A seed gives the same tallies, histograms and hops every run.
        The histograms bin every snapshot, 250 per chain of 32 interferers,
        and the dwellers make interior hops."""
        a, b = (run_campaign(NET, FAD, MOB, 4000, seed=11, chains=16) for _ in range(2))
        for name in ("chain_success", "chain_dwelling", "dwelling_count_hist", "histograms",
                     "histogram_edges"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.hop_length_sum, a.hop_count) == (b.hop_length_sum, b.hop_count)
        assert a.hop_count > 0
        assert a.histograms.sum(axis=(1, 2)).tolist() == [250 * 32] * 2

    def test_campaign_agrees_with_analysis_at_small_scale(self):
        res = run_campaign(NET, FAD, MOB, 60_000, seed=27, chains=100)
        sweep = coverage_sweep(res.psi_grid.tolist(), NET, FAD, res.stay_probability)
        assert sweep.errors == [None] * res.psi_grid.size
        assert np.max(np.abs(res.coverage() - sweep.coverage)) < 0.02

    def test_one_chain_campaign_checks_against_the_floor(self):
        """With one chain there is no spread between chains, so no SE (NaN,
        with no numpy warning): the analysis check prints it as n/a and
        holds the gap to the floor alone, and the mobility check holds the
        dwelling fraction to its floor alone."""
        res = run_campaign(NET, FAD, MOB, 4000, seed=3, chains=1)
        assert np.isnan(res.coverage_se()).all() and math.isnan(res.dwelling_fraction_se())
        cases = [(NET, FAD, res)]
        result = validation.check_analysis_vs_simulation(cases, floor=0.05, k_se=5)
        assert result.passed, result.detail
        assert "max SE=n/a, SE/binomial SE n/a" in result.detail
        assert "tol 0.0500" in result.detail
        assert not validation.check_analysis_vs_simulation(cases, floor=1e-6, k_se=5).passed
        mobility = validation.check_steady_state_mobility(res, MOB, k_se=4, floor=0.05)
        assert mobility.passed and "max(4SE, 0.05)=0.05000" in mobility.detail, mobility.detail

    def test_hop_range_of_r_leaves_the_hop_check_out(self):
        """A hop range of R leaves no interior: no hop is interior, so the
        mobility check reports the mean hop length as n/a, not NaN, and
        passes on its other parts.  16 chains of 1,000 snapshots: at 4
        chains the phase-count TV misses its fixed 0.02 on about 2% of
        seeds."""
        mob = dataclasses.replace(MOB, hop_range=NET.radius)
        res = run_campaign(NET, FAD, mob, 16_000, seed=3, chains=16)
        assert res.hop_count == 0 and math.isnan(res.mean_interior_hop_length())
        mobility = validation.check_steady_state_mobility(res, mob, k_se=4, floor=0.05)
        assert mobility.passed, mobility.detail
        assert mobility.detail.endswith("; hop mean n/a (no interior hops)"), mobility.detail

    def test_no_interferers_leave_the_dwelling_fraction_and_its_se_nan(self):
        """Eight chains of no interferers: no interferer-snapshot dwells or
        moves, so the dwelling fraction and its SE are both undefined, while
        every chain covers every threshold (coverage 1, SE 0)."""
        res = run_campaign(dataclasses.replace(NET, n_interferers=0), FAD, MOB, 64, seed=3,
                           chains=8)
        assert math.isnan(res.dwelling_fraction()) and math.isnan(res.dwelling_fraction_se())
        assert (res.coverage() == 1.0).all() and (res.coverage_se() == 0.0).all()

    def test_four_chain_campaign_has_standard_errors(self):
        """Four chains, as the edge grid's scenarios run, give a finite,
        positive SE at every threshold the chains do not all agree on, and
        the analysis check states its ratio to the binomial SE."""
        res = run_campaign(NET, FAD, MOB, 4000, seed=3, chains=4)
        assert res.chain_success.shape == (4, res.psi_grid.size)
        assert res.n_snapshots == 4 * res.chain_snapshots == 4000
        se = res.coverage_se()
        spread = res.chain_success.min(axis=0) < res.chain_success.max(axis=0)
        assert spread.any() and (se[spread] > 0).all() and (se[~spread] == 0).all()
        assert 0 < res.dwelling_fraction_se() < 0.05
        result = validation.check_analysis_vs_simulation([(NET, FAD, res)], floor=0.05, k_se=5)
        assert result.passed and "SE/binomial SE n/a" not in result.detail, result.detail


class TestChainStandardErrors:
    """The coverage SE, from the spread of a campaign's independent chains,
    against the spread of the coverage across seeds.  The network starts in
    its stationary law, so at the baseline geometry the analysis gives each
    campaign's expected coverage exactly, and the spread is measured around
    it: over K seeds, spread^2 / var ~ chi^2_K / K.  The chains' SE^2 is
    var chi^2_(c-1) / (c - 1) for c chains, so the mean of K of them is
    var chi^2_(K(c-1)) / (K(c-1)), independent of the spread (normal chain
    estimates).  So (RMS SE / spread)^2 follows F(K(c-1), K), and each
    threshold's ratio must lie inside its two-sided 1e-3 band, split over
    the thresholds with 0.05 < p < 0.95 (near 0 or 1 a run where every
    chain counts alike gives SE 0)."""

    SEEDS, CHAINS, PER_CHAIN, ALPHA = range(150), 32, 25, 1e-3

    @pytest.fixture(scope="class")
    def runs(self):
        """Each seed's coverage and SE, and the analysis, at the thresholds used."""
        results = [run_campaign(NET, FAD, MOB, self.CHAINS * self.PER_CHAIN, seed=seed,
                                chains=self.CHAINS) for seed in self.SEEDS]
        psi = results[0].psi_grid
        exact = coverage_sweep(psi.tolist(), NET, FAD, results[0].stay_probability).coverage
        used = (exact > 0.05) & (exact < 0.95)
        coverage = np.array([r.coverage()[used] for r in results])
        se = np.array([r.coverage_se()[used] for r in results])
        return coverage, se, exact[used]

    def within_band(self, coverage, se, exact):
        K, used = coverage.shape
        ratio = np.sqrt((se**2).mean(axis=0) / ((coverage - exact) ** 2).mean(axis=0))
        tail = self.ALPHA / (2 * used)
        dof = (K * (self.CHAINS - 1), K)
        low, high = np.sqrt(stats.f.ppf([tail, 1 - tail], *dof))
        return (low <= ratio) & (ratio <= high), ratio, (low, high)

    def test_rms_se_matches_the_spread_across_seeds(self, runs):
        inside, ratio, band = self.within_band(*runs)
        assert ratio.size >= 4
        assert inside.all(), (ratio, band)

    def test_an_se_half_too_small_fails(self, runs):
        coverage, se, exact = runs
        inside, ratio, band = self.within_band(coverage, se / 2, exact)
        assert not inside.any(), (ratio, band)


class TestInPlaceCampaign:
    """A campaign steps all its chains together, in place, as one array, and
    observes its snapshots a buffer of fixed size at a time."""

    def test_one_in_place_stride_call_per_snapshot(self, monkeypatch):
        calls, states = [], set()
        real_advance = simulator.advance

        def counting_advance(state, steps, *args, **kwargs):
            calls.append((state.n, steps))
            states.add(id(state))
            return real_advance(state, steps, *args, **kwargs)

        monkeypatch.setattr(simulator, "advance", counting_advance)
        run_campaign(NET, FAD, MOB, 15 * 4, chains=15, stride=2)
        assert calls == [(15 * NET.n_interferers, 2)] * 4
        assert len(states) == 1  # one state, stepped in place

    def test_working_set_does_not_grow_with_the_snapshots(self):
        """In the baseline layout (128 chains, M = 2) a campaign of 8N
        snapshots per chain peaks at the traced memory of one of N: every
        buffer of observed radii, altitudes and phases reuses one scratch
        buffer of fixed size, each flush's fading draws, SIRs and histogram
        indices are as large as that buffer, and the hops reuse one
        workspace (numpy reports its buffers to tracemalloc)."""
        import tracemalloc

        peaks = []
        for per_chain in (80, 640):
            tracemalloc.start()
            try:
                run_campaign(NET, FAD, MOB, 128 * per_chain, seed=5, chains=128)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks


class TestHopWorkspace:
    """The hops take their stride-sized arrays from one workspace, which a
    campaign makes once and reuses (`simulator.HopWorkspace`)."""

    def test_a_shared_workspace_moves_as_calls_without_one(self):
        """Strides of 10, 1, 40 and 3 steps through one workspace, which
        grows and is then read in part, move the interferers and sum their
        hops bit for bit as calls that make their own workspace."""
        states, sums = [], []
        for work in (None, simulator.HopWorkspace()):
            rng = np.random.default_rng(3)
            state = initial_state(64, NET, MOB, rng)
            sums.append([advance(state, steps, 1.0, rng, NET, MOB, work)
                         for steps in (10, 1, 40, 3)])
            states.append(state)
        assert sums[0] == sums[1]
        assert states[0].xy.tobytes() == states[1].xy.tobytes()
        assert states[0].h0.tobytes() == states[1].h0.tobytes()

    def test_a_long_stride_peaks_below_per_call_temporaries(self):
        """One 1000-step `advance` of 1024 interferers (287k accepted
        interior hops) peaks at 34.3 MB of traced memory: the workspace's
        uniforms, lengths, two tangent arrays, offsets and masks.  With
        `_unit`'s temporaries made per call and each hop's complex start
        kept for the interior test, the same call peaked at 36.9 MB."""
        import tracemalloc

        rng = np.random.default_rng(5)
        state = initial_state(1024, NET, MOB, rng)
        tracemalloc.start()
        try:
            _, count = advance(state, 1000, 1.0, rng, NET, MOB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 286_745
        assert peak < 36.0e6, peak

    def test_a_fresh_campaign_takes_few_page_faults(self):
        """One 30-snapshot campaign of 512 chains of M = 8 under altitude
        bands (width 4096) in a fresh interpreter takes about 1,430 minor
        page faults (getrusage).  When the hops made their stride-sized
        arrays, over 128 KiB each, on every stride, the allocator trimmed
        and faulted them back in: about 11,500."""
        pytest.importorskip("resource")
        import os
        import subprocess
        import sys

        import uavcov

        src = os.path.dirname(os.path.dirname(uavcov.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import resource\n"
            "from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig\n"
            "from uavcov.simulator import run_campaign\n"
            "net = NetworkConfig(40.0, 30.0, 10.0, 8, 2.0)\n"
            "fading = FadingConfig(1, 1, altitude_dependent=True)\n"
            "mob = MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_campaign(net, fading, mob, 30 * 512, seed=1, chains=512)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert int(out) < 3000, out


def result_bytes(result) -> dict:
    """Every field of a CampaignResult but its meta, as bytes."""
    return {name: np.asarray(value).tobytes() for name, value in vars(result).items()
            if name != "meta"}


BUFFER_CASES = [("M=2", NET, FAD),
                ("M=8 bands", NetworkConfig(40.0, 30.0, 10.0, 8, 2.0),
                 FadingConfig(1, 1, altitude_dependent=True)),
                ("M=0", NetworkConfig(40.0, 30.0, 10.0, 0, 2.0), FAD)]


class TestSnapshotBuffers:
    """A campaign observes its snapshots a buffer at a time: the buffer
    length changes no result, and the buffered campaign is byte-identical
    to the same campaign observed one snapshot at a time
    (validation.check_buffered_snapshots), its histograms included, with
    the last buffer part filled; planted faults of the flush fail the
    check."""

    @pytest.fixture
    def small_buffers(self, monkeypatch):
        """Buffers of at most 256 values: at 16 chains and M = 2 (width
        32), buffers of 8 snapshots."""
        monkeypatch.setattr(simulator, "_BUFFER_VALUES", 256)

    @pytest.mark.parametrize("name, net, fading", BUFFER_CASES, ids=[c[0] for c in BUFFER_CASES])
    def test_results_do_not_depend_on_the_buffer_length(self, monkeypatch, name, net, fading):
        """Buffers of 1 row, 7 rows and the default give the same bytes;
        45 snapshots per chain leave the last 7-row buffer part filled."""
        results = []
        for rows in (1, 7, simulator._BUFFER_ROWS):
            monkeypatch.setattr(simulator, "_BUFFER_ROWS", rows)
            results.append(result_bytes(run_campaign(net, fading, MOB, 16 * 45, seed=9,
                                                     chains=16)))
        assert results[0] == results[1] == results[2]

    def test_buffered_snapshots_match_one_at_a_time(self, small_buffers):
        result = check_buffered_snapshots(BUFFER_CASES, MOB, 16, 3.5, 10, 1.0, 4,
                                          default_psi_grid())
        assert result.passed, result.detail
        assert "M=2: 28 snapshots per chain in buffers of 8, identical" in result.detail

    @pytest.mark.parametrize("name, old, new, what", [
        # every chain's counts in chain 0: coverage() stays the same, the SE does not
        ("run_campaign", "chain_success[:] += (sir[:, :, None] > psi_grid).sum(axis=0)",
         "chain_success[0] += (sir[:, :, None] > psi_grid).sum(axis=(0, 1))", "chain_success"),
        ("_fade", "interfering.standard_gamma(m_i, k * n)",
         "interfering.standard_gamma(m_i, (n, k)).T.ravel()", "chain_success"),
        ("run_campaign", "offset = moving.view(np.uint8) * np.uint8(_N_BINS)",
         "offset = (~moving).view(np.uint8) * np.uint8(_N_BINS)", "histograms"),
        ("run_campaign", "tops = math.hypot(net.radius, net.height), net.height",
         "tops = math.hypot(net.radius, net.height), net.radius", "histograms, histogram_edges"),
    ], ids=["all-counts-in-chain-0", "gains-drawn-chain-major",
            "phase-offset-swapped", "altitudes-binned-on-the-radius"])
    def test_planted_flush_fault_fails(self, monkeypatch, small_buffers, name, old, new, what):
        TestEventTape.plant(monkeypatch, name, old, new)
        result = check_buffered_snapshots(BUFFER_CASES[:1], MOB, 16, 3.5, 10, 1.0, 4,
                                          default_psi_grid())
        assert not result.passed
        assert f"M=2: 28 snapshots per chain in buffers of 8, {what}" in result.detail


class TestContainmentAtTheFlush:
    """Containment is checked once per buffer, on every row of it: an
    interferer out of the disk, or above H, at the third snapshot of a
    ten-snapshot buffer and back in place by the fourth, fails the
    campaign, though the state ends contained."""

    @staticmethod
    def corrupt_third_snapshot(monkeypatch, corrupt):
        real_hop, states = simulator._hop, []

        def hop(state, *args):
            lengths = real_hop(state, *args)
            states.append(state)
            if len(states) in (3, 4):
                corrupt(state, undo=len(states) == 4)
            return lengths

        monkeypatch.setattr(simulator, "_hop", hop)
        return states

    def run(self, monkeypatch, mob, corrupt, match):
        states = self.corrupt_third_snapshot(monkeypatch, corrupt)
        assert simulator._buffer_rows(16, 8) > 10
        with pytest.raises(ConsistencyError, match=match):
            run_campaign(NET, FAD, mob, 8 * 10, chains=8)
        assert len(states) == 10
        _check_contained(states[-1].radius2(), states[-1].altitude(), NET)

    def test_an_escape_inside_a_buffer_is_caught(self, monkeypatch):
        saved = []

        def corrupt(state, undo):
            if undo:
                state.xy[0] = saved.pop()
            else:
                saved.append(state.xy[0].copy())
                state.xy[0] = (2.0 * NET.radius, 0.0)

        self.run(monkeypatch, MOB, corrupt, "escaped the disk")

    def test_an_altitude_above_h_inside_a_buffer_is_caught(self, monkeypatch):
        """A dweller whose dwell outlasts the next stride is lifted by 2H,
        its dwell altitude and waypoint alike, and set down again."""
        mob = MobilityConfig(0.2, 10.0, 50.0, 60.0, 10.0)
        lifted = []

        def corrupt(state, undo):
            if not undo:
                lifted.append(((~state.moving) & (state.tev > state.t + 10.0)).nonzero()[0][0])
            i = lifted[0]
            lift = -2.0 * NET.height if undo else 2.0 * NET.height
            state.h0[i] += lift
            state.waypoint[i] += lift

        self.run(monkeypatch, mob, corrupt, r"altitude left \[0, H\]")


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(NET, FAD, MOB, 120_000, seed=97, chains=120)


@pytest.fixture(scope="module")
def stepped():
    """The distances, altitudes and dwelling flags that the campaign fixture
    observes, one row per snapshot: `initial_state`, then 1000 `advance`
    calls of 10 steps, on its mobility generator, child 0 of
    SeedSequence(97).spawn(3)."""
    moves = np.random.default_rng(np.random.SeedSequence(97).spawn(3)[0])
    state = initial_state(120 * NET.n_interferers, NET, MOB, moves)
    w, h, dwelling = [], [], []
    for _ in range(1000):
        advance(state, 10, 1.0, moves, NET, MOB)
        h.append(state.altitude())
        w.append(np.sqrt(h[-1]**2 + state.radius2()))
        dwelling.append(~state.moving)
    return np.array(w), np.array(h), np.array(dwelling)


class TestSteadyState:
    def test_dwelling_fraction_matches_stay_probability(self, campaign):
        se = campaign.dwelling_fraction_se()
        assert abs(campaign.dwelling_fraction() - campaign.stay_probability) < 3 * se

    def test_dwelling_count_is_binomial(self, campaign):
        pmf = campaign.dwelling_count_pmf()
        ref = stats.binom.pmf(np.arange(3), 2, campaign.stay_probability)
        assert 0.5 * np.abs(pmf - ref).sum() < 0.02

    def test_stepped_samples_are_the_campaigns(self, campaign, stepped):
        """The helper steps the campaign's own mobility: its dwelling flags
        sum to the campaign's dwelling count, and the campaign's histograms
        are numpy's histograms of its samples, per phase, on the fixed
        ranges [0, sqrt(R^2 + H^2)] and [0, H]."""
        w, h, dwelling = stepped
        chains = campaign.chain_dwelling.size
        assert np.array_equal(dwelling.reshape(1000, chains, -1).sum(axis=(0, 2)),
                              campaign.chain_dwelling)
        tops = [math.hypot(NET.radius, NET.height), NET.height]
        assert campaign.histogram_edges[:, -1].tolist() == tops
        for hists, edges, x, top in zip(campaign.histograms, campaign.histogram_edges,
                                        (w, h), tops):
            for counts, phase in zip(hists, (dwelling, ~dwelling)):
                expected, expected_edges = np.histogram(x[phase], bins=40, range=(0, top))
                assert counts.tolist() == expected.tolist()
                assert edges.tobytes() == expected_edges.tobytes()

    def test_dwelling_altitude_is_uniform(self, stepped):
        _, h, dwelling = stepped
        ks = stats.kstest(h[dwelling], lambda x: np.clip(x / NET.height, 0, 1)).statistic
        assert ks < 0.01

    def test_moving_altitude_matches_parabola(self, stepped):
        _, h, dwelling = stepped
        h = h[~dwelling][:30_000]
        edges = np.linspace(0.0, NET.height, 31)
        counts, _ = np.histogram(h, bins=edges)
        u = edges / NET.height
        cdf = 3 * u**2 - 2 * u**3
        expected = np.diff(cdf) * h.size
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_dwelling_distance_matches_closed_form(self, stepped):
        from uavcov.distributions import DistanceDistribution

        w, _, dwelling = stepped
        w = w[dwelling][:100_000]
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
            advance(state, 1, 1.0, rng, NET, MOB)
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
        state = copy.deepcopy(launched)
        mutate(state, np.random.default_rng(9))
        result = check_stationary_start(state, NET, MOB, NET.n_interferers)
        assert not result.passed, result.detail

    def test_launch_draws_nine_uniforms_per_interferer(self):
        g, fresh = np.random.default_rng(5), np.random.default_rng(5)
        state = initial_state(80, NET, MOB, g)
        fresh.random(80 * 9)
        assert g.bit_generator.state == fresh.bit_generator.state
        assert np.all(state.t0 == 0.0) and state.t == 0.0
        _check_contained(state.radius2(), state.altitude(), NET)


class TestKolmogorovSmirnov:
    """The stationary-start check's numpy Kolmogorov-Smirnov test and
    binomial probabilities against scipy's."""

    SIZES = [1, 2, 3, 10, 11, 20, 21, 22, 100, 500, 1000, 10_000, 100_000]

    def test_statistic_is_scipys_bit_for_bit(self):
        """Draws that follow the law and draws that do not, n = 1 to 200k."""
        rng = np.random.default_rng(21)
        uniform = lambda x: np.clip(x, 0.0, 1.0)  # noqa: E731
        for n in (1, 2, 3, 10, 11, 57, 1000, 10_000, 200_000):
            for power in (1.0, 1.01, 1.5):
                x = rng.random(n) ** power
                assert validation.ks_test(x, uniform)[0] == stats.kstest(x, uniform).statistic

    @pytest.mark.parametrize("n", SIZES + [1_000_000])
    def test_pvalue_is_twice_the_one_sided_tail(self, n):
        """Within 1e-8 relative of 2 ksone.sf (clipped at 1), at the D of
        two-sided p-values 1e-3 to 0.9 and at D = k/n, the statistic's
        lattice, where 1 - D - j/n can round below 0 (n = 11, D = 2/11).
        At 1e6 draws ksone.sf takes about 1 s a point, so there only
        D = 2000/n (p about 7e-4) is compared."""
        root = math.ceil(math.sqrt(n))
        d_values = [2 * root / n]
        if n < 1_000_000:
            d_values += [float(stats.kstwo.isf(p, n)) for p in (1e-3, 0.01, 0.1, 0.5, 0.9)]
            d_values += [k / n for k in sorted({1, 2, root, 3 * root, n // 2, n}) if 0 < k <= n]
        for d in d_values:
            expected = min(1.0, 2.0 * float(stats.ksone.sf(d, n)))
            assert validation.ks_pvalue(d, n) == pytest.approx(expected, rel=1e-8, abs=1e-300), d

    @pytest.mark.parametrize("n", SIZES)
    def test_pvalue_is_exact_at_the_gate(self, n):
        """At the D where the exact two-sided p-value is 1e-3 the bound
        exceeds that p-value by under 1e-11, so the 1e-3 gate decides as
        the exact test would.  (kstwo.isf itself misses 1e-3 by up to
        1.4e-9 near n = 500, so the bound is held to kstwo.sf at that D.)"""
        d = float(stats.kstwo.isf(1e-3, n))
        assert abs(validation.ks_pvalue(d, n) - float(stats.kstwo.sf(d, n))) < 1e-11

    @pytest.mark.parametrize("n, p", [(1, 0.3), (2, 0.5), (5, 0.0), (12, 1.0), (20, 0.1),
                                      (40, 0.5005), (2000, 0.37)])
    def test_binomial_total_variation(self, n, p):
        expected = stats.binom.pmf(np.arange(n + 1), n, p)
        assert validation._binomial_tv(expected, p) <= 1e-12
        law = np.random.default_rng(n).random(n + 1)
        law /= law.sum()
        tv = 0.5 * np.abs(law - expected).sum()
        assert validation._binomial_tv(law, p) == pytest.approx(tv, rel=1e-12)


class TestEventTape:
    """The oracle of `advance`: its stride calls against the time-stepped
    vertical integrator and a real-arithmetic hop stepped once per step
    (validation.check_event_tape) pass on the simulator and fail on planted
    mutations of the event-to-step bookkeeping and of the hop."""

    CASES = [("benchmark", MOB, False),
             ("short-dwell", MobilityConfig(0.2, 10.0, 0.1, 0.6, 10.0), True)]

    @staticmethod
    def plant(monkeypatch, name, old, new, module=simulator):
        source = inspect.getsource(getattr(module, name))
        planted = source.replace(old, new)
        assert planted != source
        namespace = dict(vars(module))
        exec(planted, namespace)
        monkeypatch.setattr(module, name, namespace[name])

    def test_stride_calls_match_the_time_stepped_reference(self):
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert result.passed, result.detail

    def test_second_event_put_at_the_first_event_step_fails(self, monkeypatch):
        """Every event of a pass put at its first event's step, in both
        pass shapes: 300 interferers run the cycle pass, 600 the pair pass."""
        for name in ("_pair_pass", "_cycle_pass"):
            self.plant(monkeypatch, name, "place(times.reshape(-1))",
                       "place(np.resize(times[0], times.size))")
        for n in (300, 600):
            result = check_event_tape(NET, self.CASES, n, 48, 12, 1.0, 4)
            assert not result.passed
            assert "calls with hop-count mismatches" in result.detail

    def test_flips_counted_first_event_minus_second_fail(self, monkeypatch):
        """A pass adds each cycle's second event's step row minus its
        first's: the step ends between them.  Reversed, in both pass
        shapes, the counts come out negative."""
        for name in ("_pair_pass", "_cycle_pass"):
            self.plant(monkeypatch, name, "rows[k:] - rows[:k]", "rows[:k] - rows[k:]")
        for n in (300, 600):
            result = check_event_tape(NET, self.CASES, n, 48, 12, 1.0, 4)
            assert not result.passed
            assert "calls with hop-count mismatches" in result.detail

    @staticmethod
    def pass_gaps(dwell, cycles, n=300, strides=40):
        """One batch of n interferers driven through both pass shapes,
        stride after stride of 10 steps: the cycle pass at `cycles` cycles
        and the pair pass, each reading its own reader of one `_EventTape`.
        Returns the names of the fields that ever differ in a bit: h0, t0,
        tev, waypoint, phase, movers' speed, hop counts, tape rows used."""
        mob = MobilityConfig(0.2, 10.0, *dwell, 10.0)
        rng = np.random.default_rng(8)
        narrow = initial_state(n, NET, mob, rng)
        wide = copy.deepcopy(narrow)
        tape = validation._EventTape(n, rng)
        apart = set()
        for _ in range(strides):
            ends, t = [], narrow.t
            for _ in range(10):
                t += 1.0
                ends.append(t)
            counts = []
            for reader, (state, limit) in enumerate(((narrow, n), (wide, n - 1))):
                draw = validation._TapeReader(tape, state, NET.height, reader)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(simulator, "_CYCLES", cycles)
                    patch.setattr(simulator, "_NARROW", limit)
                    counts.append(simulator._advance_vertical(state, np.array(ends), draw, NET,
                                                              mob))
                draw.settle()
            for name in ("h0", "t0", "tev", "waypoint", "moving"):
                if getattr(narrow, name).tobytes() != getattr(wide, name).tobytes():
                    apart.add(name)
            if not np.array_equal(narrow.moving, wide.moving) or (
                    narrow.speed[narrow.moving].tobytes() != wide.speed[wide.moving].tobytes()):
                apart.add("speed")
            if counts[0].tobytes() != counts[1].tobytes():
                apart.add("counts")
            if not np.array_equal(tape.taken[0], tape.taken[1]):
                apart.add("tape")
        return sorted(apart)

    @pytest.mark.parametrize("cycles", sorted({2, 3, simulator._CYCLES}))
    @pytest.mark.parametrize("dwell", [(2.0, 6.0), (0.1, 0.6), (0.0, 0.0)])  # criterion 11's
    def test_cycle_pass_equals_the_pair_pass_on_one_tape(self, dwell, cycles):
        assert self.pass_gaps(dwell, cycles) == []

    def test_legs_chained_from_the_first_altitude_fail(self, monkeypatch):
        """Every leg of a cycle pass timed from the pass's first altitude,
        not from the previous cycle's waypoint: the pass shapes part, and
        the event tape fails at width 256, the cycle pass's, but passes at
        criterion 11's wide scales, which run the pair pass."""
        self.plant(monkeypatch, "_cycle_pass", "np.abs(altitude[1:] - altitude[:-1])",
                   "np.abs(altitude[1:] - altitude[:1])")
        assert self.pass_gaps((2.0, 6.0), simulator._CYCLES) != []
        narrow = check_event_tape(NET, self.CASES, 256, 100, 10, 1.0, 4)
        assert not narrow.passed and "3-cycle" in narrow.detail, narrow.detail
        for n, steps, stride in ((1000, 100, 10), (5000, 40, 40)):
            wide = check_event_tape(NET, self.CASES, n, steps, stride, 1.0, 4)
            assert wide.passed and "1-cycle" in wide.detail, wide.detail

    def test_one_300_step_call_matches_the_time_stepped_reference(self):
        """Events placed among 300 step ends at once, and 300 interferers
        hopping up to 300 ranks in one call."""
        result = check_event_tape(NET, self.CASES, 300, 300, 300, 1.0, 4)
        assert result.passed, result.detail

    def test_event_rows_without_their_correction_fail(self, monkeypatch):
        """Without the correction, the rounded estimate alone puts about
        half the events a step early."""
        self.plant(monkeypatch, "_event_rows", "rows += upper.take(rows) < times", "pass")
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with hop-count mismatches" in result.detail

    @pytest.mark.parametrize("counts", ["flips", "np.where(dwelling, flips, steps - flips)"])
    def test_counts_without_the_complement_of_the_dwellers_at_the_start_fail(
            self, monkeypatch, counts):
        """An interferer dwelling at the start hops at the step ends that
        its events do not flip to moving: steps minus the flipped ones.
        Left uncomplemented, or with the movers complemented instead, its
        count is wrong."""
        self.plant(monkeypatch, "_advance_vertical", "np.where(dwelling, steps - flips, flips)",
                   counts)
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with hop-count mismatches" in result.detail

    def test_hop_length_without_its_square_root_fails(self, monkeypatch):
        self.plant(monkeypatch, "_hop", "np.sqrt(u[:, 0], out=length)",
                   "np.copyto(length, u[:, 0])")
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with hop-length mismatches" in result.detail

    def test_hop_angle_from_the_full_angle_tangent_fails(self, monkeypatch):
        """tan(2 pi u) in place of tan(pi u) still draws a uniform angle,
        but not the one the proposal's uniform names."""
        self.plant(monkeypatch, "_unit", "np.multiply(u, math.pi, out=t)",
                   "np.multiply(u, 2.0 * math.pi, out=t)")
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with position mismatches" in result.detail

    def test_same_wrong_identity_on_both_sides_fails_on_the_unit_gap(self, monkeypatch):
        """A wrong identity planted in the simulator and in the reference
        alike keeps the tape exact; only the gap from cos and sin shows it."""
        self.plant(monkeypatch, "_unit", "np.subtract(1.0, t2, out=t2)",
                   "np.subtract(1.0, 0.5 * t2, out=t2)")
        self.plant(monkeypatch, "_reference_hop", "1.0 - t2", "1.0 - 0.5 * t2",
                   module=validation)
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "hop counts, tape rows, xy and hops identical" in result.detail
        assert "mismatches" not in result.detail

    def test_unstable_rank_order_fails(self, monkeypatch):
        """Rank r's proposals go to the interferers with more than r hops,
        ties by index; an unstable sort hands them to other interferers."""
        self.plant(monkeypatch, "_hop", 'kind="stable"', 'kind="quicksort"')
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with position mismatches" in result.detail

    def test_proposals_shifted_by_one_rank_fail(self, monkeypatch):
        """Each rank must read its own proposal rows: here every rank reads
        from where the next rank's rows begin."""
        self.plant(monkeypatch, "_hop", "    z = state.xy",
                   "    u = np.roll(u, -int((counts > 0).sum()), axis=0)\n    z = state.xy")
        result = check_event_tape(NET, self.CASES, 300, 48, 12, 1.0, 4)
        assert not result.passed
        assert "calls with position mismatches" in result.detail


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("stride", [1, 10, 1000])
def test_hop_counts_equal_the_time_stepped_dwelling_steps(n, stride):
    """Each interferer's hop count from one `_advance_vertical` call equals
    the steps at whose end the time-stepped reference has it dwelling, over
    20 one-step calls, two 10-step calls or one 1000-step call."""
    gaps = validation.event_tape_gaps(NET, MOB, n, max(stride, 20), stride, 1.0, stride)
    assert gaps["count_calls"] == [] and gaps["xy_calls"] == [], gaps
    assert gaps["hops"] > 0


class TestAltitudeDependentFading:
    def test_band_shapes_follow_altitude(self, rng):
        fading = FadingConfig(1, 1, altitude_dependent=True)
        h = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
        shapes = _interferer_shapes(fading, NET)(h)
        assert shapes.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0]

    def test_default_band_edges_open_the_upper_band(self):
        fading = FadingConfig(1, 1, altitude_dependent=True)
        h = np.array([NET.height / 3, 2 * NET.height / 3, NET.height])
        h = np.concatenate((np.nextafter(h, -np.inf), h))
        shapes = _interferer_shapes(fading, NET)(h)
        assert shapes.tolist() == [1.0, 2.0, 3.0, 2.0, 3.0, 3.0]

    def test_altitudes_in_a_tolerated_gap_take_the_band_below(self):
        bands = ((0.0, 10.0, 1), (10.00000002, 20.0, 2), (20.0, 30.0, 3))
        fading = FadingConfig(1, 1, altitude_dependent=True, bands=bands)
        h = np.array([0.0, 10.0, 10.00000001, 10.00000002, 19.999, 20.0, 30.0])
        shapes = _interferer_shapes(fading, NET)(h)
        assert shapes.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        gains = np.random.default_rng(1).gamma(shapes, 1.0 / shapes)
        assert np.all(np.isfinite(gains)) and np.all(gains > 0)

    @pytest.mark.parametrize("bands", [
        None,
        ((0.0, 10.0, 1), (10.00000002, 20.0, 2), (20.0, 30.0, 3)),
        tuple((30.0 * k / 300, 30.0 * (k + 1) / 300, 1 + k % 7) for k in range(300)),
    ], ids=["thirds", "tolerated-gap", "300-bands"])
    def test_band_count_matches_a_search_of_the_lower_edges(self, bands):
        """Counting the upper bands' lower edges at or below an altitude
        picks the band a search of the lower edges picks, on random
        altitudes and one float either side of every edge, with more bands
        than a uint8 count holds."""
        fading = FadingConfig(1, 1, altitude_dependent=True, bands=bands)
        table = resolve_fading_bands(fading, NET)
        lows = np.array([low for low, _, _ in table])
        shapes = np.array([float(m) for _, _, m in table])
        edges = np.array([edge for low, high, _ in table for edge in (low, high)])
        h = np.concatenate((np.random.default_rng(3).uniform(0.0, NET.height, 100_000), edges,
                            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
        expected = shapes[np.maximum(np.searchsorted(lows, h, side="right") - 1, 0)]
        lookup = _interferer_shapes(fading, NET)
        got = np.concatenate([lookup(part) for part in np.array_split(h, 50)])
        assert np.array_equal(got, expected)

    def test_plain_mode_uses_single_shape(self, rng):
        shapes = _interferer_shapes(FadingConfig(1, 2), NET)(np.array([1.0, 29.0]))
        assert type(shapes) is float and shapes == 2.0
