"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
PASS/FAIL report lines.  Criteria 1-6, 9-12, 14 and 15 call the functions
of `uavcov.validation` that `uavcov validate` runs at a reduced scale, here
at the gate's full grids, sizes, seeds and tolerances.  The four
1e6-snapshot campaigns of criteria 6 and 9 are shared through a
module-scoped fixture; criterion 8 runs its own.  The module takes about
30 s on two cores.
"""

import numpy as np
import pytest

from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig, derive_stay_probability
from uavcov.coverage import coverage_sweep, transform_argument
from uavcov.simulator import initial_state, run_campaign
from uavcov.special import closed_phase_factor
from uavcov.validation import (
    check_analysis_vs_simulation, check_binomial_collapse, check_closed_vs_quadrature,
    check_derivative_jet, check_distribution_laws, check_event_tape, check_gl_vs_quad,
    check_kernel_batch_vs_row, check_ladder_vs_row_edges, check_stationary_start,
    check_steady_state_mobility, check_trivial_anchors,
)

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
    sweep = coverage_sweep(psis, net_with(M, h0), FadingConfig(m0, m1), p_stay)
    assert sweep.errors == [None] * len(sweep.errors), sweep
    return sweep.coverage


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
    result = check_trivial_anchors(net_with(3, 10.0), FadingConfig(2, 1), p_stay)
    report("1 trivial-anchors", result.passed, result.detail)


def test_criterion_2_closed_form_vs_quadrature():
    points = [(m, float(s)) for m in (1, 2, 3) for s in np.logspace(-2, 6, 50)]
    result = check_closed_vs_quadrature(net_with(2, 10.0), points)
    report("2 closed-vs-quadrature", result.passed, result.detail)


def test_criterion_3_binomial_collapse():
    result = check_binomial_collapse(net_with(1, 10.0), FadingConfig(1, 2), 10, 20, (-2, 5), 77)
    report("3 binomial-collapse", result.passed, result.detail)


def test_criterion_4_jet_derivatives(p_stay):
    cases = [(FadingConfig(1, m1), s0) for m1 in (1, 2, 3) for s0 in (10.0, 100.0, 1000.0)]
    result = check_derivative_jet(net_with(2, 10.0), p_stay, cases)
    report("4 jet-derivatives", result.passed, result.detail)


def test_criterion_5_distribution_oracle():
    result = check_distribution_laws(net_with(2, 10.0), 1_000_000, 2718, ks_max=0.005)
    report("5 distribution-oracle", result.passed, result.detail)


def test_criterion_6_analysis_vs_simulation(end_to_end_campaigns, p_stay):
    result = check_analysis_vs_simulation(
        [(net_with(M, h0), FadingConfig(m0, m1), res)
         for (M, m0, m1, h0), res in end_to_end_campaigns.items()], floor=0.01, k_se=0)

    # qualitative orderings on the same grid
    psi = np.array([10 ** (d / 10) for d in END_TO_END_PSI_DB])
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
    report("6 analysis-vs-simulation", result.passed and order_ok,
           f"orderings in M, serving altitude, threshold "
           f"{'hold' if order_ok else 'VIOLATED'}; {result.detail}")


def test_criterion_7_reference_table_reproduction():
    p = REFERENCE_PARAMS
    net, fading = net_with(p["M"], p["h0"]), FadingConfig(p["m0"], p["m1"])
    worst = 0.0
    for stay, row in REFERENCE_TABLE.items():
        sweep = coverage_sweep([10 ** (db / 10) for db in (-20, -10, 0, 10, 20, 30)],
                               net, fading, stay)
        for coverage, target in zip(sweep.coverage.tolist(), row):
            worst = max(worst, abs(coverage - target) / target)
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
    result = check_steady_state_mobility(res, MOBILITY, k_se=3, floor=0.0)
    report("9 steady-state-mobility", result.passed, result.detail)


def test_criterion_10_kernel_vs_adaptive_quadrature():
    """The Gauss-Legendre kernel, which carries every derivative order of the
    analysis, against scipy's adaptive quadrature of each moment."""
    result = check_gl_vs_quad([(net_with(2, 10.0, alpha), m, np.logspace(-3, 6, 4))
                               for alpha in (2.0, 3.0, 4.0) for m in (1, 2, 3, 4)], 4)
    report("10 gl-vs-quad", result.passed, result.detail)


@pytest.mark.parametrize("dwell, must_repeat", [((2.0, 6.0), False), ((0.1, 0.6), True),
                                                ((0.0, 0.0), True)],
                         ids=["benchmark", "short-dwell", "zero-dwell"])
def test_criterion_11_event_tape(dwell, must_repeat):
    """The event-time vertical kinematics against the time-stepped
    integrator they replaced, both reading one per-interferer tape of
    (dwell, waypoint, speed) draws.  Dwells shorter than the 1 s step must
    give interferers three or more events in one step."""
    mob = MobilityConfig(MOBILITY.speed_min, MOBILITY.speed_max, *dwell, MOBILITY.hop_range)
    name = f"{dwell[0]:g}-{dwell[1]:g} s dwell"
    result = check_event_tape(net_with(2, 10.0), [(name, mob, must_repeat)],
                              n=500, steps=1000, dt=1.0, seed=11)
    report(f"11 event-tape ({name})", result.passed, result.detail)


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
        sweep = coverage_sweep(10 ** (psi_db / 10), net, FadingConfig(1, m1), stay)
        for psi, coverage in zip(sweep.psi.tolist(), sweep.coverage.tolist()):
            s0 = psi * h0**2
            static, moving = (closed_phase_factor(phase, s0, m1, net)
                              for phase in ("static", "moving"))
            expected = (stay * static + (1.0 - stay) * moving) ** M
            rel = abs(coverage - expected) / expected
            count += 1
            if rel > worst:
                worst, worst_at = rel, (M, m1, h0, psi)
    report("13 kernel-vs-closed-coverage", worst <= 1e-12,
           f"worst rel gap {worst:.2e} at (M, m1, h0, psi) = {worst_at} "
           f"(tol 1e-12, {count} thresholds)")


def kernel_grid():
    """Criteria 14 and 15's (net, m1, order, s0 values): the closed-form
    workload's grid (m1 in 1..3, h0 in {5, 10, 30}, 81 points, M = 8) at
    exponent 2 and order 0, then at exponents 3 and 4 and order 4."""
    psi = 10 ** (np.linspace(-20.0, 30.0, 81) / 10)
    cases = []
    for alpha, order in ((2.0, 0), (3.0, 4), (4.0, 4)):
        for m1 in (1, 2, 3):
            for h0 in (5.0, 10.0, 30.0):
                net = net_with(8, h0, alpha)
                s0 = [transform_argument(p, net, FadingConfig(1, m1)) for p in psi]
                cases.append((net, m1, order, s0))
    return cases


def test_criterion_14_kernel_batch_vs_row():
    """The rows of one Gauss-Legendre kernel call share a table of panels.
    Every row of a batched call against the kernel at that threshold alone,
    bit for bit."""
    result = check_kernel_batch_vs_row(kernel_grid())
    report("14 kernel-batch-vs-row", result.passed, result.detail)


def test_criterion_15_ladder_vs_row_edges():
    """One kernel call builds each distinct ladder bottom's panel edges
    once.  Every row's panels in the call's shared table against the
    panels of its own edges built alone (_panel_edges)."""
    result = check_ladder_vs_row_edges(kernel_grid())
    report("15 ladder-vs-row-edges", result.passed, result.detail)
