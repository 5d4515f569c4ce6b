"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
PASS/FAIL report lines.  Criteria 1-6, 9-12 and 14-16 call the functions
of `uavcov.validation` that `uavcov validate` runs at a reduced scale, here
at the gate's full grids, sizes, seeds and tolerances.  The four
1e6-snapshot campaigns of criteria 6 and 9 are shared through a
module-scoped fixture; criterion 8 runs its own.  The module takes about
30 s on two cores.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from uavcov.config import FadingConfig, MobilityConfig, NetworkConfig, derive_stay_probability
from uavcov.coverage import coverage_sweep, transform_argument
from uavcov.distributions import DistanceDistribution
from uavcov.interference import scaled_phase_jets
from uavcov.simulator import initial_state, run_campaign
from uavcov.special import closed_phase_factor
from uavcov.validation import (
    check_analysis_vs_simulation, check_binomial_collapse, check_buffered_snapshots,
    check_closed_vs_quadrature,
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
            psi_grid=psi, stride=10, chains=500,
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
    result = check_distribution_laws(net_with(2, 10.0))
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
        psi_grid=psi, stride=10, chains=500,
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


def quad_phase_moment(phase, s, m, net, k):
    """E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ] by scipy's adaptive
    quadrature: each of the distance law's three segments [0, H], [H, R]
    and [R, sqrt(R^2 + H^2)] is integrated in w against that segment's
    polynomial of piece_polynomials, and the summed error estimate is held
    to 1e-8 relative.  It reads the kernel's law, so it checks the
    kernel's rule only."""
    dist = DistanceDistribution(phase, net.radius, net.height)
    R2, alpha = net.radius**2, net.path_loss_exponent
    low, mid, shell = dist.piece_polynomials()
    # On the top segment pdf(w) = shell(v) w / v with v = sqrt(w^2 - R^2);
    # shell has no constant term, so shell(v) / v is shell one power down.
    pieces = ((0.0, net.height, (False, *low)), (net.height, net.radius, (False, *mid)),
              (net.radius, dist.support_max, (True, *shell[1:], 0.0)))

    def integrand(w, in_v, c0, c1, c2, c3, c4):
        x = (w * w - R2) ** 0.5 if in_v else w
        poly = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        wa = w**alpha
        return (w * poly if in_v else poly) * wa ** (-k) * (1.0 + s / (m * wa)) ** (-(m + k))

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        parts = [integrate.quad(integrand, lo, hi, args=args, limit=200, epsabs=1e-300,
                                epsrel=1e-11) for lo, hi, args in pieces]
    value, abserr = map(sum, zip(*parts))
    assert abserr <= 1e-8 * value, (phase, s, m, k, value, abserr)
    return value


def test_criterion_10_kernel_vs_adaptive_quadrature():
    """The Gauss-Legendre kernel, which carries every derivative order of the
    analysis, against the from-definition moments of check_gl_vs_quad and
    against scipy's adaptive quadrature of each moment, both to 1e-9."""
    cases = [(net_with(2, 10.0, alpha), m, np.logspace(-3, 6, 4))
             for alpha in (2.0, 3.0, 4.0) for m in (1, 2, 3, 4)]
    result = check_gl_vs_quad(cases, 4)
    quad_worst = 0.0
    for net, m, s_values in cases:
        coeffs, failures = scaled_phase_jets(s_values, m, 4, net)
        assert failures == [None] * len(s_values)
        for (i, s), (p, phase), k in itertools.product(
                enumerate(s_values), enumerate(("static", "moving")), range(5)):
            expected = math.comb(m + k - 1, k) * (s / m) ** k * quad_phase_moment(
                phase, s, m, net, k)
            quad_worst = max(quad_worst, abs(coeffs[i, p, k] - expected) / expected)
    report("10 gl-vs-quad", result.passed and quad_worst <= 1e-9,
           f"{result.detail}; adaptive quadrature: worst relative gap {quad_worst:.2e} (<=1e-9)")


DWELL_CASES = (((2.0, 6.0), False, "benchmark"), ((0.1, 0.6), True, "short-dwell"),
               ((0.0, 0.0), True, "zero-dwell"))


@pytest.mark.parametrize("dwell, must_repeat, n, steps, stride, seed", [
    pytest.param(dwell, must_repeat, *scale, id=name + suffix)
    for scale, suffix in (((500, 1000, 1, 11), ""), ((5000, 40, 40, 16), "-stride-40"),
                          ((1000, 100, 10, 21), "-stride-10"), ((256, 400, 10, 26), "-width-256"))
    for dwell, must_repeat, name in DWELL_CASES])
def test_criterion_11_event_tape(dwell, must_repeat, n, steps, stride, seed):
    """The simulator's kinematics, in calls of `stride` steps as a campaign
    makes them, against the time-stepped vertical integrator and a
    real-arithmetic hop stepped once per step, both sides reading one
    per-interferer tape of (dwell, waypoint, speed) draws and, per call, one
    hop proposal per interferer and hop rank: 1000 one-step calls of 500
    interferers, one 40-step call of 5000, ten 10-step calls of 1000, and
    forty 10-step calls of 256, the shipped campaigns' width.  Batches of
    up to 512 interferers run several cycles per vertical pass, wider ones
    one (the detail names which).  The reference's half-angle unit vectors
    must lie within 1e-15 of cos and sin, and dwells shorter than the 1 s
    step must give interferers three or more events in one step."""
    mob = MobilityConfig(MOBILITY.speed_min, MOBILITY.speed_max, *dwell, MOBILITY.hop_range)
    name = f"{dwell[0]:g}-{dwell[1]:g} s dwell"
    result = check_event_tape(net_with(2, 10.0), [(name, mob, must_repeat)],
                              n=n, steps=steps, stride=stride, dt=1.0, seed=seed)
    report(f"11 event-tape ({name}, width {n}, stride {stride})", result.passed, result.detail)


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



def test_criterion_16_buffered_snapshots():
    """Campaigns observe a buffer of snapshots at a time: one containment
    check, fading draw, SIR and tally per buffer.  Against the same
    campaigns observed one snapshot at a time, byte for byte, at 500 chains
    and 3.5 buffers per chain: M = 2 and M = 5 with one fading shape, M = 8
    under altitude bands, and no interferers."""
    psi = np.array([10 ** (d / 10) for d in END_TO_END_PSI_DB])
    cases = [("M=2", net_with(2, 10.0), FadingConfig(1, 1)),
             ("M=5, m0=2", net_with(5, 10.0), FadingConfig(2, 1)),
             ("M=8 bands", net_with(8, 10.0), FadingConfig(1, 1, altitude_dependent=True)),
             ("M=0", net_with(0, 10.0), FadingConfig(1, 1))]
    result = check_buffered_snapshots(cases, MOBILITY, 500, 3.5, 10, 1.0, 1600, psi)
    report("16 buffered-snapshots", result.passed, result.detail)

def test_every_check_runs_in_validate_and_in_the_tests():
    """Each cross-check is one `check_*` function that both `validate` and
    the tests call: every public check_* of uavcov.validation is called in
    run_validation and in some module under tests/."""
    import ast
    import inspect
    from pathlib import Path

    import uavcov.validation as validation

    def called(source):
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}

    checks = {name for name in vars(validation) if name.startswith("check_")}
    in_tests = set().union(*(called(path.read_text())
                             for path in Path(__file__).parent.glob("*.py")))
    assert checks == {name for name in validation.__all__ if name.startswith("check_")}
    assert checks - called(inspect.getsource(validation.run_validation)) == set()
    assert checks - in_tests == set()
