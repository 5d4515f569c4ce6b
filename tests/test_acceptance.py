"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
PASS/FAIL report lines.  The heavy Monte Carlo campaigns (criteria 6, 8, 9)
are shared through module-scoped fixtures; total runtime is a few minutes.
"""

import math

import numpy as np
import pytest
from scipy import stats

from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig, derive_stay_probability
from uavcov.coverage import CoverageQuery, coverage_probability, coverage_sweep
from uavcov.distributions import AltitudeDistribution, DistanceDistribution
from uavcov.interference import (
    laplace_derivative_jet,
    laplace_transform,
    laplace_transform_phase_sum,
    phase_laplace_factor,
    scaled_phase_jets,
)
from uavcov.simulator import initial_state, run_campaign
from uavcov.special import hyp2f1
from uavcov.validation import check_stationary_start, event_tape_gaps, quad_phase_moment

R, H = 40.0, 30.0
MOBILITY = MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0)  # benchmark kinematics
END_TO_END_PSI_DB = (-20.0, -10.0, 0.0, 10.0)
END_TO_END_CONFIGS = ((2, 1, 1, 10.0), (5, 1, 1, 10.0), (2, 2, 1, 10.0), (2, 1, 1, 20.0))

# Reference coverage table for low/high stay probability (benchmark geometry,
# thresholds -20..30 dB in 10 dB steps).  The generating parameters are not
# stated alongside the table; the grid search in docs/reference_table.md
# recovered M=2, serving shape 1, interferer shape 1, serving altitude 20 m,
# which reproduces every entry to at least 6 significant figures.
REFERENCE_PARAMS = dict(M=2, m0=1, m1=1, h0=20.0)
REFERENCE_TABLE = {
    0.1: (0.988266, 0.898597, 0.468978, 0.0413881, 0.000674683, 7.14876e-6),
    0.9: (0.987466, 0.896137, 0.471149, 0.0426635, 0.000703855, 7.47065e-6),
}


def net_with(M, h0, alpha=2.0):
    return NetworkConfig(R, H, h0, M, alpha)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def analytical_curve(psis, M, m0, m1, h0, p_stay):
    net, fading = net_with(M, h0), FadingConfig(m0, m1)
    return np.array([
        coverage_probability(CoverageQuery(float(p), net, fading, p_stay)) for p in psis
    ])


@pytest.fixture(scope="module")
def p_stay():
    return derive_stay_probability(MOBILITY, net_with(2, 10.0))


@pytest.fixture(scope="module")
def end_to_end_campaigns():
    psi = np.array([10 ** (d / 10) for d in END_TO_END_PSI_DB])
    campaigns = {}
    for M, m0, m1, h0 in END_TO_END_CONFIGS:
        campaigns[(M, m0, m1, h0)] = run_campaign(
            net_with(M, h0), FadingConfig(m0, m1), MOBILITY,
            n_snapshots=1_000_000, dt=1.0,
            seed=415 + M + 10 * m0 + int(h0),
            psi_grid=psi, stride=10, replications=4, chains=125,
        )
    return campaigns


def test_criterion_1_trivial_anchors(p_stay):
    fading = FadingConfig(2, 1)
    checks = {
        "L_I(0)": laplace_transform(0.0, net_with(3, 10.0), fading, p_stay) == 1.0,
        "P_cov(M=0)": coverage_probability(
            CoverageQuery(2.0, net_with(0, 10.0), fading, p_stay)) == 1.0,
        "2F1(a=0)": hyp2f1(0, 1.5, 2.5, -9.0) == 1.0,
        "2F1(z=0)": hyp2f1(4, 2.5, 3.5, 0.0) == 1.0,
    }
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, R, H)
        checks[f"F_{phase}(0)"] = dist.cdf(0.0) == 0.0
        checks[f"F_{phase}(max)"] = dist.cdf(dist.support_max) == 1.0
    bad = [k for k, ok in checks.items() if not ok]
    report("1 trivial-anchors", not bad, f"{len(checks)} exact identities" +
           (f"; failed: {bad}" if bad else ""))


def test_criterion_2_closed_form_vs_quadrature():
    net = net_with(2, 10.0)
    worst = 0.0
    worst_at = None
    for phase in ("static", "moving"):
        for m in (1, 2, 3):
            for s in np.logspace(-2, 6, 50):
                closed = phase_laplace_factor(phase, float(s), m, net, "closed")
                quad = phase_laplace_factor(phase, float(s), m, net, "quadrature")
                rel = abs(closed - quad) / quad
                if rel > worst:
                    worst, worst_at = rel, (phase, m, float(s))
    report("2 closed-vs-quadrature", worst <= 1e-8,
           f"worst rel gap {worst:.2e} at {worst_at} (tol 1e-8, 300 points)")


def test_criterion_3_binomial_collapse():
    rng = np.random.default_rng(77)
    fading = FadingConfig(1, 2)
    worst = 0.0
    for M in range(1, 11):
        net = net_with(M, 10.0)
        for _ in range(20):
            s = float(10 ** rng.uniform(-2, 5))
            p = float(rng.uniform(0.0, 1.0))
            power = laplace_transform(s, net, fading, p)
            summed = laplace_transform_phase_sum(s, net, fading, p)
            worst = max(worst, abs(power - summed) / power)
    report("3 binomial-collapse", worst <= 1e-13,
           f"worst rel gap {worst:.2e} over M=1..10 x 20 points (tol 1e-13)")


def test_criterion_4_jet_derivatives(p_stay):
    net = net_with(2, 10.0)
    worst = 0.0
    for m1 in (1, 2, 3):
        fading = FadingConfig(1, m1)
        L = lambda s: laplace_transform(s, net, fading, p_stay)
        for s0 in (10.0, 100.0, 1000.0):
            jet = laplace_derivative_jet(s0, 2, net, fading, p_stay)
            d1 = 1e-5 * s0
            fd1 = (L(s0 + d1) - L(s0 - d1)) / (2 * d1)
            d2 = 3e-4 * s0
            fd2 = (L(s0 + d2) - 2 * L(s0) + L(s0 - d2)) / d2**2
            worst = max(worst,
                        abs(jet.derivative(1) - fd1) / abs(fd1),
                        abs(jet.derivative(2) - fd2) / abs(fd2))
    report("4 jet-derivatives", worst <= 1e-5,
           f"worst rel gap vs central differences {worst:.2e} (tol 1e-5, k in {{1,2}})")


def test_criterion_5_distribution_oracle():
    rng = np.random.default_rng(2718)
    n = 1_000_000
    worst_ks = 0.0
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, R, H)
        ks = stats.kstest(dist.sample(n, rng), dist.cdf).statistic
        worst_ks = max(worst_ks, ks)
    alt = AltitudeDistribution("moving", H)
    draws = alt.sample(n, rng)
    edges = np.linspace(0.0, H, 31)
    counts, _ = np.histogram(draws, bins=edges)
    expected = np.diff(alt.cdf(edges)) * n
    pvalue = stats.chisquare(counts, expected).pvalue
    ok = worst_ks < 0.005 and pvalue > 0.01
    report("5 distribution-oracle", ok,
           f"KS {worst_ks:.5f} (<0.005) at 1e6/phase; altitude chi2 p={pvalue:.3f} (>0.01)")


def test_criterion_6_analysis_vs_simulation(end_to_end_campaigns, p_stay):
    psi = np.array([10 ** (d / 10) for d in END_TO_END_PSI_DB])
    lines = []
    worst_gap = 0.0
    for (M, m0, m1, h0), res in end_to_end_campaigns.items():
        analytical = analytical_curve(psi, M, m0, m1, h0, p_stay)
        gap = np.abs(res.coverage() - analytical)
        se = res.coverage_se()
        worst_gap = max(worst_gap, float(gap.max()))
        lines.append(
            f"(M={M},m0={m0},m1={m1},h0={h0:g}): max|sim-ana|={gap.max():.4f}, "
            f"max SE={np.nanmax(se):.4f}"
        )

    # qualitative orderings on the same grid
    base = end_to_end_campaigns[(2, 1, 1, 10.0)].coverage()
    more = end_to_end_campaigns[(5, 1, 1, 10.0)].coverage()
    high = end_to_end_campaigns[(2, 1, 1, 20.0)].coverage()
    order_ok = (np.all(more <= base) and np.all(high <= base)
                and np.all(np.diff(base) < 0))
    ana_base = analytical_curve(psi, 2, 1, 1, 10.0, p_stay)
    ana_more = analytical_curve(psi, 5, 1, 1, 10.0, p_stay)
    ana_high = analytical_curve(psi, 2, 1, 1, 20.0, p_stay)
    order_ok &= bool(np.all(ana_more < ana_base) and np.all(ana_high < ana_base)
                     and np.all(np.diff(ana_base) < 0))
    ok = worst_gap <= 0.01 and order_ok
    report("6 analysis-vs-simulation", ok,
           f"worst |sim-ana| {worst_gap:.4f} (tol 0.01) over 4 configs x 1e6 "
           f"snapshots; orderings in M, serving altitude, threshold "
           f"{'hold' if order_ok else 'VIOLATED'}; " + "; ".join(lines))


def test_criterion_7_reference_table_reproduction():
    p = REFERENCE_PARAMS
    net, fading = net_with(p["M"], p["h0"]), FadingConfig(p["m0"], p["m1"])
    worst = 0.0
    for stay, row in REFERENCE_TABLE.items():
        for db, target in zip((-20, -10, 0, 10, 20, 30), row):
            value = coverage_probability(
                CoverageQuery(10 ** (db / 10), net, fading, stay))
            worst = max(worst, abs(value - target) / target)
    # three significant figures demands rel error below 5e-4
    report("7 reference-table", worst <= 5e-4,
           f"recovered params {p}; worst rel dev {worst:.2e} over 12 table "
           f"entries (3-sig-fig tol 5e-4)")


def test_criterion_8_altitude_fading_sandwich(p_stay):
    psi_db = np.arange(-20.0, 31.0, 5.0)
    psi = 10 ** (psi_db / 10)
    res = run_campaign(
        net_with(2, 10.0), FadingConfig(1, 1, altitude_dependent=True), MOBILITY,
        n_snapshots=600_000, dt=1.0, seed=888,
        psi_grid=psi, stride=10, replications=4, chains=125,
    )
    low = analytical_curve(psi, 2, 1, 1, 10.0, p_stay)   # interferer shape 1
    high = analytical_curve(psi, 2, 1, 3, 10.0, p_stay)  # interferer shape 3
    lower = np.minimum(low, high)
    upper = np.maximum(low, high)
    emp = res.coverage()
    slack = 2 * np.nan_to_num(res.coverage_se(), nan=0.0)
    inside = (emp >= lower - slack) & (emp <= upper + slack)
    margin = np.minimum(emp - (lower - slack), (upper + slack) - emp)
    report("8 altitude-fading-sandwich", bool(inside.all()),
           f"empirical curve inside [min,max] of shape-1/shape-3 curves "
           f"(+/-2 SE) at all {psi.size} thresholds; min margin {margin.min():.2e}")


def test_criterion_9_steady_state_mobility(end_to_end_campaigns):
    res = end_to_end_campaigns[(5, 1, 1, 10.0)]  # M=5 gives a rich count law
    p_stay = res.stay_probability
    frac = res.dwelling_fraction()
    se = res.dwelling_fraction_se()
    frac_ok = abs(frac - p_stay) <= 3 * se
    pmf = res.dwelling_count_pmf()
    ref = stats.binom.pmf(np.arange(6), 5, p_stay)
    tv = 0.5 * float(np.abs(pmf - ref).sum())
    ok = frac_ok and tv < 0.02
    report("9 steady-state-mobility", ok,
           f"dwelling fraction {frac:.5f} vs {p_stay:.5f} "
           f"(|diff|={abs(frac - p_stay):.5f} <= 3SE={3 * se:.5f}); "
           f"phase-count TV {tv:.4f} (<0.02)")


def test_criterion_10_kernel_vs_adaptive_quadrature():
    """The Gauss-Legendre kernel, which carries every derivative order of the
    analysis, against scipy's adaptive quadrature of each moment."""
    worst, worst_at, count = 0.0, None, 0
    s_values = np.logspace(-3, 6, 4)
    for alpha in (2.0, 3.0, 4.0):
        net = net_with(2, 10.0, alpha)
        for m in (1, 2, 3, 4):
            coeffs, failures = scaled_phase_jets(s_values, m, 4, net)
            assert failures == [None] * s_values.size
            for i, s in enumerate(s_values):
                for p, phase in enumerate(("static", "moving")):
                    for k in range(5):
                        moment = quad_phase_moment(phase, float(s), m, net, k)
                        expected = math.comb(m + k - 1, k) * (s / m) ** k * moment
                        rel = abs(coeffs[i, p, k] - expected) / expected
                        count += 1
                        if rel > worst:
                            worst, worst_at = rel, (alpha, phase, m, float(s), k)
    report("10 gl-vs-quad", worst <= 1e-9,
           f"worst rel gap {worst:.2e} at {worst_at} (tol 1e-9, {count} coefficients)")


@pytest.mark.parametrize("dwell", [(2.0, 6.0), (0.1, 0.6), (0.0, 0.0)],
                         ids=["benchmark", "short-dwell", "zero-dwell"])
def test_criterion_11_event_tape(dwell):
    """The event-time vertical kinematics against the time-stepped
    integrator they replaced, both reading one per-interferer tape of
    (dwell, waypoint, speed) draws.  Dwells shorter than the 1 s step give
    interferers three or more events in one step."""
    mob = MobilityConfig(MOBILITY.speed_min, MOBILITY.speed_max, *dwell, MOBILITY.hop_range)
    gaps = event_tape_gaps(net_with(2, 10.0), mob, n=500, steps=1000, dt=1.0, seed=11)
    ok = (not gaps["phase_steps"] and gaps["altitude_gap"] <= 1e-9
          and gaps["dwell_gap"] <= 1e-9 and (dwell[0] >= 1.0 or gaps["repeats"] > 0))
    report(f"11 event-tape ({dwell[0]:g}-{dwell[1]:g} s dwell)", ok,
           f"{len(gaps['phase_steps'])} steps with phase mismatches (exact), altitude gap "
           f"{gaps['altitude_gap']:.1e} and dwell gap {gaps['dwell_gap']:.1e} (<=1e-9) "
           f"over 500 interferers x 1000 steps, {gaps['events']} events, "
           f"{gaps['repeats']} drawn in a repeat pass")


def test_criterion_12_stationary_start():
    """The launch every campaign starts from, at step 0, against the
    closed-form stationary laws: 1e6 interferers in networks of 5."""
    net = net_with(5, 10.0)
    state = initial_state(1_000_000, net, MOBILITY, np.random.default_rng(12))
    result = check_stationary_start(state, net, MOBILITY, 5)
    report("12 stationary-start", result.passed, result.detail)


def test_criterion_13_kernel_coverage_vs_closed_form(p_stay):
    """At exponent 2 and serving shape 1 the coverage is L_I(s0) =
    (p Phi_static(s0) + (1 - p) Phi_moving(s0))^M, with the phase factors
    from the Gauss-Legendre kernel.  Built from the hyp2f1 closed forms
    instead, it must agree to 1e-12 relative: the reference-table case on a
    0.5 dB grid, and every (m1, h0) pair of the benchmark's closed-form
    workload on an 81-point grid with M = 8."""
    ref = REFERENCE_PARAMS
    cases = [(ref["M"], ref["m1"], ref["h0"], stay, np.linspace(-20.0, 30.0, 101))
             for stay in REFERENCE_TABLE]
    cases += [(8, m1, h0, p_stay, np.linspace(-20.0, 30.0, 81))
              for m1 in (1, 2, 3) for h0 in (5.0, 10.0, 30.0)]
    worst, worst_at, count = 0.0, None, 0
    for M, m1, h0, stay, psi_db in cases:
        net = net_with(M, h0)
        for point in coverage_sweep(10 ** (psi_db / 10), net, FadingConfig(1, m1), stay):
            s0 = point.psi * h0**2
            static, moving = (phase_laplace_factor(phase, s0, m1, net, "closed")
                              for phase in ("static", "moving"))
            expected = (stay * static + (1.0 - stay) * moving) ** M
            rel = abs(point.coverage - expected) / expected
            count += 1
            if rel > worst:
                worst, worst_at = rel, (M, m1, h0, float(point.psi))
    report("13 kernel-vs-closed-coverage", worst <= 1e-12,
           f"worst rel gap {worst:.2e} at (M, m1, h0, psi) = {worst_at} "
           f"(tol 1e-12, {count} thresholds)")
