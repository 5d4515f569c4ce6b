"""Cross-checks of the two routes, each written once and run at two scales.

Each check pits one evaluation route against an independent one: exact
anchors, closed forms against the Gauss-Legendre kernel, the kernel against
scipy's adaptive quadrature, each row of a batched kernel call against the
same threshold alone, the panels the kernel's shared table gives each row
against that row's own edges, inverse-transform samples against closed-form
laws, derivative jets against finite differences, the analysis against the
end-to-end simulation, the stationary launch against the closed-form
stationary laws, the lockstep campaign against its replications run one at
a time, and the event-time vertical kinematics against the time-stepped
integrator they replaced.

A check is one function whose grid, sizes, seeds and tolerances are its
arguments, and each seeded check draws from a generator of its own.
`run_validation`, behind the `validate` subcommand, calls every check at a
reduced scale taken from the scenario, so a full run takes seconds while
each comparison stays far away from its statistical noise floor; the
acceptance gate (tests/test_acceptance.py) calls the same functions at its
full scale.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from . import interference
from .config import (
    derive_stay_probability, kinematic_stay_probability, simulated_stay_probability,
)
from .coverage import coverage_sweep, transform_argument
from .distributions import AltitudeDistribution, DistanceDistribution
from .scenario import Scenario
from . import simulator
from .simulator import run_campaign
from .errors import ConsistencyError, DomainError, NumericalError
from .special import _large_z, _pfaff, closed_phase_factor, hyp2f1

__all__ = ["CheckResult", "check_analysis_vs_simulation", "check_binomial_collapse",
           "check_closed_vs_quadrature", "check_derivative_jet", "check_distribution_laws",
           "check_event_tape", "check_gl_vs_quad", "check_hyp2f1_consistency",
           "check_kernel_batch_vs_row", "check_ladder_vs_row_edges", "check_stationary_start",
           "check_steady_state_mobility", "check_trivial_anchors", "event_tape_gaps",
           "kernel_rows_apart", "ladder_rows_apart", "quad_phase_moment", "run_validation"]

# Adaptive-quadrature oracle tolerances.  The relative tolerance dominates:
# at large s the moments decay by many orders of magnitude.
_QUAD_EPSABS = 1e-300
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200
_MAX_EVENT_PASSES = 10_000
# smallest KS p-value the stationary launch may show against a closed-form law
_STATIONARY_KS_PMIN = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def quad_phase_moment(phase: str, s: float, m: int, net, k: int = 0) -> float:
    """E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ] by scipy's adaptive quadrature.

    The oracle for the Gauss-Legendre kernel, which shares neither its
    integrand form nor its rule: each of the distance law's three segments
    [0, H], [H, R] and [R, sqrt(R^2 + H^2)] is integrated in w against that
    segment's pdf piece, and the summed error estimate is held to 1e-8
    relative.  Phi^(k)(s) = (-1)^k (m)_k m^-k times this moment.
    """
    dist = DistanceDistribution(phase, net.radius, net.height)
    alpha = net.path_loss_exponent

    def integrand(w, piece):
        wa = w**alpha
        return piece(w) * wa ** (-k) * (1.0 + s / (m * wa)) ** (-(m + k))

    value = abserr = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for lo, hi, piece in dist.pdf_pieces():
            try:
                part, err = integrate.quad(
                    integrand, lo, hi, args=(piece,), limit=_QUAD_LIMIT,
                    epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL,
                )
            except integrate.IntegrationWarning as exc:
                raise NumericalError(
                    f"phase factor quadrature failed for phase={phase}, s={s}, m={m}, "
                    f"derivative order k={k}, segment [{lo:g}, {hi:g}]: {exc}"
                ) from exc
            value += part
            abserr += err
    if value != 0.0 and abserr / abs(value) > 1e-8:
        raise NumericalError(
            f"phase factor quadrature too inaccurate (rel err {abserr / abs(value):.2e}) "
            f"for phase={phase}, s={s}, m={m}, k={k}",
            partial=value,
            error_bound=abserr,
        )
    return value


def _time_left_vertical(h, moving, wp, v, rem, dt: float, dwell, leg) -> None:
    """The time-stepped vertical integrator, in place: the reference for `simulator`.

    It spends each interferer's dt of wall time pass after pass, with a
    time-left mask over the whole width, on the arrays of altitude, phase,
    waypoint, speed and residual dwell.  `dwell(idx)` gives the fresh dwell
    of each arriving interferer and `leg(idx)` the (waypoint, speed) of each
    one whose dwell expires.
    """
    time_left = np.full(h.size, float(dt))
    for _ in range(_MAX_EVENT_PASSES):
        active = time_left > 0.0
        if not active.any():
            return

        idx = (active & moving).nonzero()[0]
        if idx.size:
            gap = wp[idx] - h[idx]
            t_arrive = np.abs(gap) / v[idx]
            tl = time_left[idx]
            hit = t_arrive <= tl
            short = ~hit
            cruise = idx[short]
            h[cruise] += np.sign(gap[short]) * v[cruise] * tl[short]
            time_left[cruise] = 0.0
            arrive = idx[hit]
            h[arrive] = wp[arrive]
            time_left[arrive] = tl[hit] - t_arrive[hit]
            moving[arrive] = False
            if arrive.size:
                rem[arrive] = dwell(arrive)

        idx = ((time_left > 0.0) & ~moving).nonzero()[0]
        if idx.size:
            left, tl = rem[idx], time_left[idx]
            consumed = np.minimum(left, tl)
            left -= consumed
            rem[idx] = left
            time_left[idx] = tl - consumed
            expired = idx[left <= 0.0]
            if expired.size:
                wp[expired], v[expired] = leg(expired)
                moving[expired] = True
    raise ConsistencyError("vertical event resolution did not terminate")


class _EventTape:
    """Per-interferer sequences of uniforms that both vertical integrators read.

    Interferer i's j-th dwell comes from u[i, j, 0] and its j-th leg from
    the waypoint and speed uniforms u[i, j, 1:3], whichever integrator
    (reader) asks and in whatever pass it asks; the tape grows as the
    sequences are used.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.rng = rng
        self.u = np.empty((n, 0, 3))
        self.taken = np.zeros((2, 2, n), dtype=int)  # per reader: dwells, legs used

    def peek(self, reader: int, kind: int, idx: np.ndarray) -> np.ndarray:
        """The reader's next row of each interferer in idx, for kind 0 (dwell) or 1 (leg)."""
        j = self.taken[reader, kind, idx]
        while j.size and j.max() >= self.u.shape[1]:
            self.u = np.concatenate([self.u, self.rng.random((self.u.shape[0], 8, 3))], axis=1)
        return self.u[idx, j]

    def take(self, reader: int, kind: int, idx: np.ndarray) -> np.ndarray:
        row = self.peek(reader, kind, idx)
        self.taken[reader, kind, idx] += 1
        return row


def event_tape_gaps(net, mob, n: int, steps: int, dt: float, seed: int) -> dict:
    """Step n interferers with `simulator`'s event-time kinematics and with the
    time-stepped reference, both reading one `_EventTape`, and compare them
    after every step.

    Returns the steps after which the phases or the per-interferer counts of
    dwells and legs differ, the worst altitude and residual dwell gaps, the
    number of events, and how many times the event-time integrator drew
    afresh for an interferer in a repeat pass (a third or later event in
    one step).
    """
    rng = np.random.default_rng(seed)
    state = simulator.initial_state(n, net, mob, rng)
    h, moving = state.altitude(), state.moving.copy()
    wp, v, rem = state.waypoint.copy(), state.speed.copy(), state.dwell_remaining()
    tape = _EventTape(n, rng)
    repeats, last = 0, None

    def settle():
        # a pass runs the first event of each interferer it is given and the
        # second only if that falls within the step; after two events the
        # phase is back where it was.  Count what the last pass used.
        nonlocal last
        if last is not None:
            idx, arriving = last
            two = state.moving[idx] == arriving
            tape.taken[0, 0, idx[arriving | two]] += 1
            tape.taken[0, 1, idx[~arriving | two]] += 1
            last = None

    def draw(idx, p):
        nonlocal repeats, last
        settle()
        last = idx, state.moving[idx]
        repeats += idx.size if p else 0
        u = tape.peek(0, 1, idx)
        u[:, 0] = tape.peek(0, 0, idx)[:, 0]
        return u

    def dwell(idx):
        return mob.dwell_min + (mob.dwell_max - mob.dwell_min) * tape.take(1, 0, idx)[:, 0]

    def leg(idx):
        u = tape.take(1, 1, idx)
        return net.height * u[:, 1], mob.speed_min + (mob.speed_max - mob.speed_min) * u[:, 2]

    phase_steps, h_gap, dwell_gap = [], 0.0, 0.0
    for k in range(steps):
        simulator._advance_vertical(state, state.t + dt, draw, net, mob)
        settle()
        _time_left_vertical(h, moving, wp, v, rem, dt, dwell, leg)
        if not (np.array_equal(state.moving, moving)
                and np.array_equal(tape.taken[0], tape.taken[1])):
            phase_steps.append(k)
        h_gap = max(h_gap, float(np.abs(state.altitude() - h).max()))
        dwell_gap = max(dwell_gap, float(np.abs(state.dwell_remaining() - rem).max()))
    return {"phase_steps": phase_steps, "altitude_gap": h_gap, "dwell_gap": dwell_gap,
            "events": int(tape.taken[1].sum()), "repeats": repeats}


def check_event_tape(net, cases, n: int, steps: int, dt: float, seed: int) -> CheckResult:
    """The event-time vertical kinematics against the time-stepped reference
    (event_tape_gaps), n interferers over `steps` steps of dt, for each
    (name, mobility, must_repeat) of cases: phases and dwell and leg counts
    equal after every step, altitude and residual dwell gaps within 1e-9,
    and, where must_repeat is set, some interferer drawn afresh in a repeat
    pass."""
    ok, parts = True, []
    for name, mob, must_repeat in cases:
        gaps = event_tape_gaps(net, mob, n, steps, dt, seed)
        ok &= (not gaps["phase_steps"] and gaps["altitude_gap"] <= 1e-9
               and gaps["dwell_gap"] <= 1e-9 and (gaps["repeats"] > 0 or not must_repeat))
        parts.append(f"{name}: {len(gaps['phase_steps'])} steps with phase mismatches, "
                     f"altitude gap {gaps['altitude_gap']:.1e}, dwell gap "
                     f"{gaps['dwell_gap']:.1e} over {gaps['events']} events "
                     f"({gaps['repeats']} repeat)")
    return CheckResult("event-tape", ok, f"{n} interferers x {steps} steps vs the time-stepped "
                       "integrator (phases exact, gaps <=1e-9); " + "; ".join(parts))


def check_trivial_anchors(net, fading, p_stay: float) -> CheckResult:
    """Exact identities: coverage 1 with net's interferers removed, 2F1 = 1
    at a = 0 and at z = 0, and each phase's distance cdf 0 at 0 and 1 at the
    top of its support."""
    no_interferers = dataclasses.replace(net, n_interferers=0)
    sweep = coverage_sweep([2.0], no_interferers, fading, p_stay)
    checks = {
        "P_cov(M=0)": sweep.coverage.tolist() == [1.0],
        "2F1(a=0)": hyp2f1(0, 1.5, 2.5, -9.0) == 1.0,
        "2F1(z=0)": hyp2f1(4, 2.5, 3.5, 0.0) == 1.0,
    }
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        checks[f"F_{phase}(0)"] = dist.cdf(0.0) == 0.0
        checks[f"F_{phase}(max)"] = dist.cdf(dist.support_max) == 1.0
    bad = [k for k, ok in checks.items() if not ok]
    return CheckResult("trivial-anchors", not bad, f"{len(checks)} exact identities"
                       + (f"; failed: {bad}" if bad else " hold"))


def check_hyp2f1_consistency(contiguous, overlap) -> CheckResult:
    """hyp2f1 against itself.  The Gauss contiguous relation
    c(1 - z) F - c F(a - 1) + (c - b) z F(c + 1) = 0, F = 2F1(a, b; c; z),
    at c = b + 1 and every (a, b, z) of the grid contiguous (a tuple of a,
    b and z values), to 1e-9 of its largest term; and the Pfaff path
    against the large-z path, both valid below the dispatch threshold, at
    every (a, b, z) of the grid overlap with c in {b + 1, b + 2}, to 1e-11
    relative."""
    worst = 0.0
    for a, b, z in itertools.product(*contiguous):
        c = b + 1.0
        f = hyp2f1(a, b, c, z)
        f_down = hyp2f1(a - 1, b, c, z)
        f_up = hyp2f1(a, b, c + 1.0, z)
        resid = c * (1 - z) * f - c * f_down + (c - b) * z * f_up
        scale = max(abs(c * (1 - z) * f), abs(c * f_down), abs((c - b) * z * f_up))
        worst = max(worst, abs(resid) / scale)
    large_worst = 0.0
    for a, b, z in itertools.product(*overlap):
        for c in (b + 1.0, b + 2.0):
            pfaff = _pfaff(a, b, c, z)
            large_worst = max(large_worst, abs(_large_z(a, b, c, z) - pfaff) / pfaff)
    return CheckResult(
        "hyp2f1-consistency", worst <= 1e-9 and large_worst <= 1e-11,
        f"contiguous residual {worst:.2e} (<=1e-9), Pfaff/large-z overlap "
        f"{large_worst:.2e} (<=1e-11)",
    )


def check_distribution_laws(net, n: int, seed: int, ks_max: float) -> CheckResult:
    """The samplers and pdfs against the closed-form cdfs.  n draws of each
    phase's distance by Kolmogorov-Smirnov (statistic below ks_max), each
    phase's pdf integrated by quadrature against its cdf at 20 points
    (1e-9), and n moving-phase altitudes by their mean (3 SE) and a 30-bin
    chi-square test (p > 0.01)."""
    rng = np.random.default_rng(seed)
    worst_ks = pdf_gap = 0.0
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        worst_ks = max(worst_ks, stats.kstest(dist.sample(n, rng), dist.cdf).statistic)
        for w in np.linspace(0, dist.support_max, 21)[1:]:
            quad, _ = integrate.quad(
                dist.pdf, 0, w, points=[x for x in (net.height, net.radius) if x < w],
                limit=200,
            )
            pdf_gap = max(pdf_gap, abs(quad - dist.cdf(w)))
    alt = AltitudeDistribution("moving", net.height)
    draws = alt.sample(n, rng)
    se = draws.std() / math.sqrt(n)
    edges = np.linspace(0.0, net.height, 31)
    counts, _ = np.histogram(draws, bins=edges)
    pvalue = stats.chisquare(counts, np.diff(alt.cdf(edges)) * n).pvalue
    ok = bool(worst_ks < ks_max and pdf_gap <= 1e-9 and pvalue > 0.01
              and abs(draws.mean() - net.height / 2) < 3 * se)
    return CheckResult(
        "distribution-laws", ok,
        f"KS {worst_ks:.5f} (<{ks_max:g}) at {n} draws per phase; pdf/cdf gap "
        f"{pdf_gap:.1e} (<=1e-9); moving-altitude mean {draws.mean():.3f} vs "
        f"{net.height / 2:.3f} (3SE={3 * se:.3f}), chi2 p={pvalue:.3f} (>0.01)",
    )


def check_closed_vs_quadrature(net, points, fault_bias: float = 0.0) -> CheckResult:
    """The exponent-2 closed phase factors against the Gauss-Legendre
    kernel's, both phases at every (m, s) of points, to 1e-8 relative.
    fault_bias is added to the closed form, to show that the check fails
    on a wrong one."""
    if net.path_loss_exponent != 2.0:
        return CheckResult(
            "closed-vs-quadrature", True,
            "skipped: no closed form for this path-loss exponent",
        )
    # One kernel call per shape; each row is, bit for bit, its threshold alone.
    kernel = {}
    for m in {m for m, _ in points}:
        s_values = [s for shape, s in points if shape == m]
        coeffs, failures = interference.scaled_phase_jets(s_values, m, 0, net)
        failed = [failure for failure in failures if failure is not None]
        if failed:
            return CheckResult("closed-vs-quadrature", False, f"kernel failed: {failed[0]}")
        kernel.update(zip([(m, s) for s in s_values], coeffs[:, :, 0].tolist()))
    worst, worst_at = 0.0, None
    for p, phase in enumerate(("static", "moving")):
        for m, s in points:
            closed = closed_phase_factor(phase, s, m, net) + fault_bias
            quad = kernel[m, s][p]
            if abs(closed - quad) / quad > worst:
                worst, worst_at = abs(closed - quad) / quad, (phase, m, s)
    return CheckResult(
        "closed-vs-quadrature", worst <= 1e-8,
        f"worst relative gap {worst:.2e} at {worst_at} (<=1e-8, {2 * len(points)} points)",
    )


def check_gl_vs_quad(cases, order: int) -> CheckResult:
    """The kernel's scaled coefficients (-s)^k Phi^(k)(s) / k! against
    C(m + k - 1, k) (s/m)^k times the adaptive-quadrature moment, both
    phases and k <= order, at every (net, m, s_values) of cases, to 1e-9
    relative.  A moment the quadrature cannot reach fails the check: its
    coefficient goes unverified."""
    worst, worst_at, compared, unreached = 0.0, None, 0, []
    for net, m, s_values in cases:
        coeffs, failures = interference.scaled_phase_jets(s_values, m, order, net)
        for i, s in enumerate(map(float, s_values)):
            if failures[i] is not None:
                return CheckResult("gl-vs-quad", False, f"kernel failed: {failures[i]}")
            for p, phase in enumerate(("static", "moving")):
                for k in range(order + 1):
                    try:
                        moment = quad_phase_moment(phase, s, m, net, k)
                    except NumericalError:
                        unreached.append(f"{phase} s={s:.3g} k={k}")
                        continue
                    got = float(coeffs[i, p, k])
                    if moment > 0.0:  # in logs: (s/m)^k alone may overflow
                        expected = math.exp(math.log(math.comb(m + k - 1, k))
                                            + k * math.log(s / m) + math.log(moment))
                        gap = abs(got - expected) / expected
                    else:
                        gap = abs(got)
                    if gap > worst:
                        worst, worst_at = gap, (net.path_loss_exponent, phase, m, s, k)
                    compared += 1
    detail = (f"worst relative gap {worst:.2e} at {worst_at} (<=1e-9) over {compared} "
              f"coefficients, k <= {order}")
    if unreached:
        detail += f"; quadrature failed, not compared: {', '.join(unreached)}"
    return CheckResult("gl-vs-quad", worst <= 1e-9 and not unreached, detail)


def kernel_rows_apart(s_values, m: int, order: int, net) -> list[float]:
    """The thresholds whose row of one batched kernel call is not, bit for
    bit, the kernel called at that threshold alone (which builds its own
    panel table): coefficients and failure alike."""
    coeffs, failures = interference.scaled_phase_jets(s_values, m, order, net)
    apart = []
    for s, row, failure in zip(s_values, coeffs, failures):
        alone, (alone_failure,) = interference.scaled_phase_jets([s], m, order, net)
        if alone.tobytes() != row.tobytes() or str(alone_failure) != str(failure):
            apart.append(float(s))
    return apart


def ladder_rows_apart(s_values, m: int, order: int, net) -> list[float]:
    """The thresholds whose panels in one kernel call's shared table (rows
    mapped to their ladder bottom's edge set) are not the panels of
    _panel_edges built at that threshold alone."""
    row_sets, _, panels, columns = interference._panel_plan(
        np.asarray(s_values, dtype=float), m, order, net)
    apart = []
    for s, j in zip(s_values, row_sets.tolist()):
        try:
            alone = list(itertools.pairwise(interference._panel_edges(s, m, order, net).tolist()))
        except DomainError:  # s/m not above 0: no ladder, as row_sets must say
            alone = None
        if (None if j < 0 else [panels[c] for c in columns[j]]) != alone:
            apart.append(float(s))
    return apart


def check_kernel_batch_vs_row(cases) -> CheckResult:
    """Every row of one batched kernel call against the kernel at that
    threshold alone, bit for bit (kernel_rows_apart), for each
    (net, m, order, s_values) of cases."""
    return _rows_apart_check("kernel-batch-vs-row", kernel_rows_apart, cases,
                             "differ from their threshold alone (bit for bit)")


def check_ladder_vs_row_edges(cases) -> CheckResult:
    """Every row's panels in one kernel call's shared table against the
    panels of its own edges (ladder_rows_apart), for each
    (net, m, order, s_values) of cases."""
    return _rows_apart_check("ladder-vs-row-edges", ladder_rows_apart, cases,
                             "get panels other than their own edges'")


def _rows_apart_check(name: str, rows_apart, cases, what: str) -> CheckResult:
    apart, count = [], 0
    for net, m, order, s_values in cases:
        apart += [(net.path_loss_exponent, m, net.serving_altitude, s)
                  for s in rows_apart(s_values, m, order, net)]
        count += len(s_values)
    return CheckResult(name, not apart, f"{len(apart)} of {count} rows {what}"
                       + (f", first at (alpha, m1, h0, s0) = {apart[0]}" if apart else ""))


def _laplace_transform_phase_sum(phi_static: float, phi_moving: float, M: int,
                                 p_stay: float) -> float:
    """L_I as the explicit sum over the number n of dwelling interferers,
    from the two phase factors: the binomial theorem makes it the M-th power
    of their mixture, which it shares no arithmetic with."""
    return math.fsum(
        math.comb(M, n)
        * (p_stay * phi_static) ** n
        * ((1.0 - p_stay) * phi_moving) ** (M - n)
        for n in range(M + 1)
    )


def check_binomial_collapse(net, fading, max_m: int, per_m: int, log10_s,
                            seed: int) -> CheckResult:
    """L_I from laplace_jets, the M-th power of the phase mixture, against
    the explicit binomial sum over the dwelling count of the same row's
    phase factors, to 1e-13 relative, for net with M = 1..max_m interferers
    at per_m points each: s log-uniform over 10^log10_s and the stay
    probability uniform on [0, 1]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in range(1, max_m + 1):
        trial_net = dataclasses.replace(net, n_interferers=M)
        for _ in range(per_m):
            s = float(10 ** rng.uniform(*log10_s))
            p = float(rng.uniform(0.0, 1.0))
            jets, phi, (failure,) = interference.laplace_jets([s], 0, trial_net, fading, p)
            if failure is not None:
                return CheckResult("binomial-collapse", False, f"kernel failed: {failure}")
            ((power,),), ((phi_static, phi_moving),) = jets.tolist(), phi.tolist()
            summed = _laplace_transform_phase_sum(phi_static, phi_moving, M, p)
            worst = max(worst, abs(power - summed) / power)
    return CheckResult(
        "binomial-collapse", worst <= 1e-13,
        f"worst relative gap {worst:.2e} (<=1e-13) over M=1..{max_m} x {per_m} points",
    )


def check_derivative_jet(net, p_stay: float, cases) -> CheckResult:
    """L_I' and L_I'' from the kernel's order-2 jet of L_I against central
    differences of L_I, all taken from one order-0 call, at every
    (fading, s0) of cases, steps 1e-5 s0 for k = 1 and 3e-4 s0 for k = 2,
    to 1e-5 relative."""
    gaps = []
    for fading, s0 in cases:
        h1, h2 = 1e-5 * s0, 3e-4 * s0
        jet, _, jet_failures = interference.laplace_jets([s0], 2, net, fading, p_stay)
        steps, _, step_failures = interference.laplace_jets(
            [s0 + h1, s0 - h1, s0 + h2, s0, s0 - h2], 0, net, fading, p_stay)
        failed = [f for f in jet_failures + step_failures if f is not None]
        if failed:
            return CheckResult("derivative-jet", False, f"kernel failed: {failed[0]}")
        # The jet's coefficient k is (-s0)^k L_I^(k)(s0) / k!.
        (_, c1, c2), = jet.tolist()
        up1, down1, up2, mid, down2 = steps[:, 0].tolist()
        inv = -1.0 / s0
        fd1 = (up1 - down1) / (2 * h1)
        fd2 = (up2 - 2 * mid + down2) / h2**2
        gaps.append((abs(c1 * inv - fd1) / abs(fd1), abs(c2 * inv**2 * 2 - fd2) / abs(fd2)))
    r1, r2 = np.max(gaps, axis=0)  # NaN propagates
    return CheckResult(
        "derivative-jet", bool(r1 <= 1e-5 and r2 <= 1e-5),
        f"worst rel gap vs central differences {np.max(gaps):.2e} (k=1 {r1:.2e}, "
        f"k=2 {r2:.2e}; <=1e-5) over {len(cases)} points",
    )


def _check_lockstep_replications(sc: Scenario) -> CheckResult:
    # A campaign steps all its replications as one array, one block each;
    # every block must give exactly what its replication gives run alone.
    # Only the hop-length sum may differ, by summation order.
    chains, per_chain, seeds = 4, 20, [sc.sim.seed, sc.sim.seed + 1]
    quota = per_chain // 2 * chains * sc.network.n_interferers  # keep half the samples
    common = dict(dt=sc.sim.dt, psi_grid=np.asarray(sc.psi_grid_linear()),
                  stride=sc.sim.stride, chains=chains)
    args = (sc.network, sc.fading, sc.mobility)
    both = run_campaign(*args, 2 * chains * per_chain, replications=2, seeds=seeds,
                        n_batches=4, max_kept_samples=2 * quota, **common)
    alone = [run_campaign(*args, chains * per_chain, seeds=[s], n_batches=2,
                          max_kept_samples=quota, **common) for s in seeds]
    mismatched = [
        name for name in ("batch_success", "batch_snapshots", "batch_dwelling",
                          "static_distances", "moving_distances",
                          "static_altitudes", "moving_altitudes")
        if not np.array_equal(getattr(both, name),
                              np.concatenate([getattr(r, name) for r in alone]))
    ]
    if not np.array_equal(both.dwelling_count_hist, sum(r.dwelling_count_hist for r in alone)):
        mismatched.append("dwelling_count_hist")
    if both.hop_count != sum(r.hop_count for r in alone):
        mismatched.append("hop_count")
    hop_sum = sum(r.hop_length_sum for r in alone)
    hop_gap = abs(both.hop_length_sum - hop_sum) / hop_sum if hop_sum else 0.0
    ok = not mismatched and hop_gap <= 1e-12
    detail = (f"mismatched {', '.join(mismatched)}; " if mismatched else
              "batch rows, histogram and kept samples identical; ")
    return CheckResult(
        "lockstep-replications", ok,
        f"2 replications x {chains} chains x {per_chain} snapshots vs each alone: "
        f"{detail}hop-length sum gap {hop_gap:.1e} (<=1e-12)",
    )


def check_analysis_vs_simulation(cases, floor: float, k_se: float) -> CheckResult:
    """Each campaign's coverage against the analysis at the campaign's
    thresholds and stay probability, for every (net, fading, campaign) of
    cases: |sim - ana| within max(floor, k_se batch-means SE) at every
    threshold.  The analysis has no altitude-dependent fading, so a case
    with it skips the check."""
    if any(fading.altitude_dependent for _, fading, _ in cases):
        return CheckResult("analysis-vs-simulation", True,
                           "skipped: altitude-dependent fading is simulation-only")
    ok, worst_gap, worst, lines = True, 0.0, (-math.inf, ""), []
    for net, fading, result in cases:
        label = (f"M={net.n_interferers},m0={fading.serving_m},m1={fading.interferer_m},"
                 f"h0={net.serving_altitude:g}")
        sweep = coverage_sweep(result.psi_grid.tolist(), net, fading, result.stay_probability)
        failed = [error for error in sweep.errors if error is not None]
        if failed:
            return CheckResult("analysis-vs-simulation", False,
                               f"analysis failed ({label}): {failed[0]}")
        gap = np.abs(result.coverage() - sweep.coverage)
        se = np.nan_to_num(result.coverage_se(), nan=0.0)
        tol = np.maximum(floor, k_se * se)
        ok &= bool((gap <= tol).all())
        worst_gap = max(worst_gap, float(gap.max()))
        i = int((gap - tol).argmax())
        if gap[i] - tol[i] > worst[0]:
            worst = (gap[i] - tol[i], f"{10 * math.log10(result.psi_grid[i]):g} dB of "
                     f"({label}) (gap {gap[i]:.4f}, tol {tol[i]:.4f}")
        lines.append(f"({label}): max|sim-ana|={gap.max():.4f}, max SE={se.max():.4f}, "
                     f"{result.n_snapshots} snapshots")
    return CheckResult(
        "analysis-vs-simulation", ok,
        f"worst |sim-ana| {worst_gap:.4f}; worst margin {worst[0]:+.4f} at {worst[1]} = "
        f"max({floor:g}, {k_se:g} SE)); " + "; ".join(lines),
    )


def check_stationary_start(state, net, mob, group: int) -> CheckResult:
    """Hold a launched state to the closed-form stationary laws, at step 0.

    Consecutive groups of `group` interferers form one network.  Checks the
    dwelling fraction against the kinematic stay probability (4 SE), the
    per-network dwelling count against Binomial(group, p) (TV < 0.02), and
    by KS (p-value >= 1e-3) per phase the altitude and distance against
    `distributions.py`, the moving speeds against ln(v/v_min)/ln(v_max/v_min),
    the residual dwells against the equilibrium residual of the dwell law,
    (1/E[D]) int_0^x P(D > y) dy, and the remaining leg length against
    U L*, L*/H ~ Beta(2, 2), whose cdf is 1 - (1 - x/H)^3.
    """
    H, n = net.height, state.n
    p = kinematic_stay_probability(mob, net)
    dwelling = ~state.moving
    frac = float(dwelling.mean())
    frac_tol = 4 * math.sqrt(p * (1 - p) / n)
    counts = dwelling.reshape(-1, group).sum(axis=1)
    pmf = np.bincount(counts, minlength=group + 1) / counts.size
    tv = 0.5 * float(np.abs(pmf - stats.binom.pmf(np.arange(group + 1), group, p)).sum())

    a, b = mob.dwell_min, mob.dwell_max
    log_span = math.log(mob.speed_max / mob.speed_min)

    def residual_cdf(x):
        over = np.clip(x - a, 0.0, b - a)
        tail = over - over**2 / (2 * (b - a)) if b > a else 0.0
        return np.clip((np.minimum(x, a) + tail) / mob.mean_dwell_time, 0.0, 1.0)

    altitude = state.altitude()
    w = np.sqrt(altitude**2 + np.einsum("ij,ij->i", state.xy, state.xy))
    moving = state.moving
    laws = {}
    for phase, sel in (("static", dwelling), ("moving", moving)):
        laws[f"{phase} altitude"] = (altitude[sel], AltitudeDistribution(phase, H).cdf)
        laws[f"{phase} distance"] = (
            w[sel], DistanceDistribution(phase, net.radius, H).cdf)
    laws["speed"] = (state.speed[moving],
                     lambda v: np.clip(np.log(v / mob.speed_min) / log_span, 0.0, 1.0))
    laws["residual dwell"] = (state.dwell_remaining()[dwelling], residual_cdf)
    laws["remaining leg"] = (np.abs(state.waypoint - state.h0)[moving],
                             lambda x: 1.0 - (1.0 - np.clip(x / H, 0.0, 1.0)) ** 3)
    pvalues = {name: float(stats.kstest(x, cdf).pvalue)
               for name, (x, cdf) in laws.items() if x.size}
    ok = (abs(frac - p) <= frac_tol and tv < 0.02
          and min(pvalues.values()) >= _STATIONARY_KS_PMIN)
    return CheckResult(
        "stationary-start", ok,
        f"{n} interferers at step 0: dwelling {frac:.4f} vs {p:.4f} (4SE {frac_tol:.4f}), "
        f"phase-count TV {tv:.4f} (<0.02), KS p-values (>={_STATIONARY_KS_PMIN:g}) "
        + ", ".join(f"{k} {v:.3f}" for k, v in pvalues.items()),
    )


def _check_stationary_start(sc: Scenario) -> CheckResult:
    group = max(sc.network.n_interferers, 1)
    n = group * -(-100_000 // group)
    state = simulator.initial_state(n, sc.network, sc.mobility,
                                    np.random.default_rng(sc.sim.seed))
    return check_stationary_start(state, sc.network, sc.mobility, group)


def check_steady_state_mobility(result, mob, k_se: float, floor: float) -> CheckResult:
    """A campaign's mobility against its stationary law: the dwelling
    fraction against the stay probability within max(k_se SE, floor), the
    per-snapshot dwelling count against Binomial(M, p) (TV < 0.02), and the
    mean interior hop length against mob's (5%)."""
    if result.n_interferers == 0:
        return CheckResult("steady-state-mobility", True, "skipped: no interferers simulated")
    p_stay, frac = result.stay_probability, result.dwelling_fraction()
    frac_tol = max(k_se * result.dwelling_fraction_se(), floor)
    ref = stats.binom.pmf(np.arange(result.n_interferers + 1), result.n_interferers, p_stay)
    tv = 0.5 * float(np.abs(result.dwelling_count_pmf() - ref).sum())
    hop_gap = abs(result.mean_interior_hop_length() - mob.mean_hop_length)
    hop_tol = 0.05 * mob.mean_hop_length
    ok = abs(frac - p_stay) <= frac_tol and tv < 0.02 and hop_gap < hop_tol
    return CheckResult(
        "steady-state-mobility", ok,
        f"dwelling fraction {frac:.5f} vs {p_stay:.5f} (|diff|={abs(frac - p_stay):.5f} <= "
        f"max({k_se:g}SE, {floor:g})={frac_tol:.5f}); phase-count TV {tv:.4f} (<0.02); "
        f"hop mean gap {hop_gap:.1e} (<{hop_tol:.3f})",
    )


def run_validation(sc: Scenario, fault_bias: float = 0.0) -> list[CheckResult]:
    """Run every check at the reduced scale, sized from the scenario.

    `fault_bias` is added to the closed form inside the closed-vs-quadrature
    check only, to show that the check fails on a wrong closed form.
    A stay-probability override the simulation cannot honour is rejected
    before any check runs.  One campaign feeds both simulation checks.
    """
    net, fading, mob, sim = sc.network, sc.fading, sc.mobility, sc.sim
    simulated_stay_probability(mob, net)
    p_stay = derive_stay_probability(mob, net)
    psi = sc.psi_grid_linear()
    s0 = [transform_argument(p, net, fading) for p in psi]
    m, order = fading.interferer_m, max(fading.serving_m - 1, 2)
    # A log grid over shapes 1..3 and the scenario's, then the s0 of every
    # threshold at the scenario's shape: the factors `analyze` prints.
    closed_points = [(k, float(s)) for k in sorted({1, m, 3}) for s in np.logspace(-2, 6, 15)]
    campaign = run_campaign(
        net, fading, mob, min(sim.n_snapshots, 200_000), dt=sim.dt, seed=sim.seed,
        psi_grid=np.asarray(psi), stride=sim.stride, replications=sim.replications,
        chains=sim.chains,
    )
    return [
        check_trivial_anchors(net, fading, p_stay),
        check_hyp2f1_consistency(
            ((1, 2, 3), (1.0, 1.5, 2.0, 2.5), (-0.1, -0.45, -2.0, -10.0, -40.0)),
            ((1, 2, 4), (1.0, 1.5, 2.5, 3.0), np.linspace(-64.0, -8.0, 8).tolist())),
        check_distribution_laws(net, 100_000, sim.seed, ks_max=0.006),
        check_closed_vs_quadrature(net, closed_points + [(m, s) for s in s0], fault_bias),
        check_gl_vs_quad([(net, m, s0)], order),
        check_kernel_batch_vs_row([(net, m, order, s0)]),
        check_ladder_vs_row_edges([(net, m, order, s0)]),
        check_binomial_collapse(net, fading, 6, 4, (-1, 4), sim.seed),
        check_derivative_jet(net, p_stay, [(fading, max(s0[len(s0) // 2], 1.0))]),
        _check_lockstep_replications(sc),
        # the scenario's kinematics, then dwells shorter than a step and none
        # at all, which must give some interferers three or more events in one step
        check_event_tape(net, [
            ("scenario", mob, False),
            ("short-dwell", dataclasses.replace(mob, dwell_min=0.1 * sim.dt,
                                                dwell_max=0.6 * sim.dt), True),
            ("zero-dwell", dataclasses.replace(mob, dwell_min=0.0, dwell_max=0.0), True),
        ], 64, 200, sim.dt, sim.seed),
        _check_stationary_start(sc),
        check_analysis_vs_simulation([(net, fading, campaign)], floor=0.015, k_se=5),
        check_steady_state_mobility(campaign, mob, k_se=4, floor=0.01),
    ]
