"""Reduced-scale cross-validation suite behind the `validate` subcommand.

Each check pits one evaluation route against an independent one: exact
anchors, closed forms against the Gauss-Legendre kernel, the kernel against
scipy's adaptive quadrature, each row of a batched kernel call against the
same threshold alone, the panels the kernel's shared table gives each row
against that row's own edges, inverse-transform samples against closed-form
laws, derivative jets against finite differences, the analysis against the
end-to-end simulation, the stationary launch against the closed-form
stationary laws, the lockstep campaign against its replications run one at
a time, and the event-time vertical kinematics against the time-stepped
integrator they replaced.  Scales are chosen so a full run stays well under a
minute while keeping each comparison far away from its statistical noise
floor.
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
from .coverage import CoverageQuery, coverage_probability, coverage_sweep, transform_argument
from .distributions import AltitudeDistribution, DistanceDistribution
from .scenario import Scenario
from . import simulator
from .simulator import run_campaign
from .errors import ConsistencyError, NumericalError
from .special import _gauss_series, _large_z, _pfaff, hyp2f1

__all__ = ["CheckResult", "check_stationary_start", "event_tape_gaps", "kernel_rows_apart",
           "ladder_rows_apart", "quad_phase_moment", "run_validation"]

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


def _check_event_tape(sc: Scenario) -> CheckResult:
    # The scenario's kinematics, then dwells shorter than a step and none at
    # all, which must give some interferers three or more events in one step.
    mob = sc.mobility
    mobs = {"scenario": mob,
            "short-dwell": dataclasses.replace(mob, dwell_min=0.1 * sc.sim.dt,
                                               dwell_max=0.6 * sc.sim.dt),
            "zero-dwell": dataclasses.replace(mob, dwell_min=0.0, dwell_max=0.0)}
    ok, parts = True, []
    for name, m in mobs.items():
        gaps = event_tape_gaps(sc.network, m, 64, 200, sc.sim.dt, sc.sim.seed)
        ok &= (not gaps["phase_steps"] and gaps["altitude_gap"] <= 1e-9
               and gaps["dwell_gap"] <= 1e-9 and (m is mob or gaps["repeats"] > 0))
        parts.append(f"{name}: {len(gaps['phase_steps'])} steps with phase mismatches, "
                     f"altitude gap {gaps['altitude_gap']:.1e}, dwell gap "
                     f"{gaps['dwell_gap']:.1e} over {gaps['events']} events "
                     f"({gaps['repeats']} repeat)")
    return CheckResult("event-tape", ok, "64 interferers x 200 steps vs the time-stepped "
                       "integrator (phases exact, gaps <=1e-9); " + "; ".join(parts))


def _check_trivial_anchors(sc: Scenario) -> CheckResult:
    net, fading = sc.network, sc.fading
    p_stay = derive_stay_probability(sc.mobility, net)
    failures = []
    if interference.laplace_transform(0.0, net, fading, p_stay) != 1.0:
        failures.append("L_I(0) != 1")
    if hyp2f1(0, 1.5, 2.5, -3.0) != 1.0 or hyp2f1(2, 1.5, 2.5, 0.0) != 1.0:
        failures.append("2F1 anchor != 1")
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        if dist.cdf(0.0) != 0.0 or dist.cdf(dist.support_max) != 1.0:
            failures.append(f"{phase} cdf endpoints")
    m0_net = net.__class__(net.radius, net.height, net.serving_altitude, 0,
                           net.path_loss_exponent)
    if coverage_probability(CoverageQuery(1.0, m0_net, fading, p_stay)) != 1.0:
        failures.append("coverage(M=0) != 1")
    detail = "; ".join(failures) if failures else "all exact anchors hold"
    return CheckResult("trivial-anchors", not failures, detail)


def _check_hyp2f1_consistency(sc: Scenario) -> CheckResult:
    # Gauss contiguous relation as an internal consistency check, plus the
    # agreement of neighbouring paths where both are valid: direct series
    # vs Pfaff on (-1, -0.5], and Pfaff vs large-z on [-64, -8], the range
    # the large-z path took over from Pfaff.
    worst = 0.0
    for a in (1, 2, 3):
        for b in (1.0, 1.5, 2.0, 2.5):
            c = b + 1.0
            for z in (-0.1, -0.45, -2.0, -10.0, -40.0):
                f = hyp2f1(a, b, c, z)
                f_down = hyp2f1(a - 1, b, c, z)
                f_up = hyp2f1(a, b, c + 1.0, z)
                resid = c * (1 - z) * f - c * f_down + (c - b) * z * f_up
                scale = max(abs(c * (1 - z) * f), abs(c * f_down), abs((c - b) * z * f_up))
                worst = max(worst, abs(resid) / scale)
    overlap_worst = 0.0
    for a in (1, 2, 4):
        for b in (1.0, 2.5):
            for z in np.linspace(-0.95, -0.5, 7):
                direct = _gauss_series(a, b, b + 1.0, float(z))
                pfaff = _pfaff(a, b, b + 1.0, float(z))
                overlap_worst = max(overlap_worst, abs(direct - pfaff) / abs(direct))
    large_worst = 0.0
    for a in (1, 2, 4):
        for b in (1.0, 1.5, 2.5, 3.0):
            for c in (b + 1.0, b + 2.0):
                for z in np.linspace(-64.0, -8.0, 8):
                    pfaff = _pfaff(a, b, c, float(z))
                    large = _large_z(a, b, c, float(z))
                    large_worst = max(large_worst, abs(large - pfaff) / pfaff)
    ok = worst <= 1e-9 and overlap_worst <= 1e-11 and large_worst <= 1e-11
    return CheckResult(
        "hyp2f1-consistency",
        ok,
        f"contiguous residual {worst:.2e} (<=1e-9), series/Pfaff overlap "
        f"{overlap_worst:.2e} (<=1e-11), Pfaff/large-z overlap {large_worst:.2e} (<=1e-11)",
    )


def _check_distributions(sc: Scenario, rng: np.random.Generator) -> CheckResult:
    net = sc.network
    n = 100_000
    worst_ks = 0.0
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        ks = stats.kstest(dist.sample(n, rng), dist.cdf).statistic
        worst_ks = max(worst_ks, ks)
        grid = np.linspace(0, dist.support_max, 21)[1:]
        for w in grid:
            quad, _ = integrate.quad(
                dist.pdf, 0, w, points=[x for x in (net.height, net.radius) if x < w],
                limit=200,
            )
            if abs(quad - dist.cdf(w)) > 1e-9:
                return CheckResult(
                    "distribution-laws", False,
                    f"{phase} pdf/cdf mismatch {abs(quad - dist.cdf(w)):.2e} at w={w:.2f}",
                )
    alt = AltitudeDistribution("moving", net.height)
    draws = alt.sample(n, rng)
    se = draws.std() / math.sqrt(n)
    mean_ok = abs(draws.mean() - net.height / 2) < 3 * se
    ok = worst_ks < 0.006 and mean_ok
    return CheckResult(
        "distribution-laws",
        ok,
        f"KS {worst_ks:.4f} (<0.006), moving-altitude mean "
        f"{draws.mean():.3f} vs {net.height / 2:.3f} (3SE={3 * se:.3f})",
    )


def _check_closed_vs_quadrature(sc: Scenario, fault_bias: float) -> CheckResult:
    net = sc.network
    if net.path_loss_exponent != 2.0:
        return CheckResult(
            "closed-vs-quadrature", True,
            "skipped: no closed form for this path-loss exponent",
        )
    # A log grid over shapes 1..3 and the scenario's, then the s0 of every
    # threshold at the scenario's shape: the factors `analyze` prints.
    fading = sc.fading
    points = [(m, float(s)) for m in sorted({1, fading.interferer_m, 3})
              for s in np.logspace(-2, 6, 15)]
    points += [(fading.interferer_m, transform_argument(psi, net, fading))
               for psi in sc.psi_grid_linear()]
    worst = 0.0
    for phase in ("static", "moving"):
        for m, s in points:
            closed = interference.closed_phase_factor(phase, s, m, net) + fault_bias
            quad = interference.phase_laplace_factor(phase, s, m, net)
            worst = max(worst, abs(closed - quad) / quad)
    return CheckResult(
        "closed-vs-quadrature", worst <= 1e-8,
        f"worst relative gap {worst:.2e} (<=1e-8) over a log grid and the "
        f"{len(sc.psi_grid_db)} thresholds' s0",
    )


def _check_gl_vs_quad(sc: Scenario) -> CheckResult:
    # The kernel's scaled coefficients (-s)^k Phi^(k)(s) / k! against
    # C(m + k - 1, k) (s/m)^k times the adaptive-quadrature moment, at every
    # threshold's s0, both phases and k up to max(m0 - 1, 2).
    net, fading = sc.network, sc.fading
    m, order = fading.interferer_m, max(fading.serving_m - 1, 2)
    s0 = [transform_argument(psi, net, fading) for psi in sc.psi_grid_linear()]
    coeffs, failures = interference.scaled_phase_jets(s0, m, order, net)
    worst, compared, skipped = 0.0, 0, []
    for i, s in enumerate(s0):
        if failures[i] is not None:
            return CheckResult("gl-vs-quad", False, f"kernel failed: {failures[i]}")
        for p, phase in enumerate(("static", "moving")):
            for k in range(order + 1):
                try:
                    moment = quad_phase_moment(phase, s, m, net, k)
                except NumericalError:
                    skipped.append(f"{phase} s={s:.3g} k={k}")
                    continue
                got = coeffs[i, p, k]
                if moment > 0.0:  # in logs: (s/m)^k alone may overflow
                    expected = math.exp(math.log(math.comb(m + k - 1, k))
                                        + k * math.log(s / m) + math.log(moment))
                    gap = abs(got - expected) / expected
                else:
                    gap = abs(got)
                worst = max(worst, gap)
                compared += 1
    detail = (f"worst relative gap {worst:.2e} (<=1e-9) over {compared} coefficients, "
              f"k <= {order}")
    if skipped:
        detail += f"; quadrature failed, not compared: {', '.join(skipped)}"
    return CheckResult("gl-vs-quad", worst <= 1e-9 and compared > 0, detail)


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


def _check_kernel_batch_vs_row(sc: Scenario) -> CheckResult:
    # The rows of one kernel call share a table of panels; each threshold's
    # s0 must give the same bits there as alone, at k up to max(m0 - 1, 2).
    net, fading = sc.network, sc.fading
    m, order = fading.interferer_m, max(fading.serving_m - 1, 2)
    s0 = [transform_argument(psi, net, fading) for psi in sc.psi_grid_linear()]
    apart = kernel_rows_apart(s0, m, order, net)
    detail = f"{len(apart)} of {len(s0)} rows differ from their threshold alone (bit for bit)"
    if apart:
        detail += f", first at s={apart[0]:.17g}"
    return CheckResult("kernel-batch-vs-row", not apart, detail)


def ladder_rows_apart(s_values, m: int, order: int, net) -> list[float]:
    """The thresholds whose panels in one kernel call's shared table (rows
    mapped to their ladder bottom's edge set) are not the panels of
    _panel_edges built at that threshold alone."""
    row_sets, _, panels, columns = interference._panel_plan(
        np.asarray(s_values, dtype=float), m, order, net)
    apart = []
    for s, j in zip(s_values, row_sets.tolist()):
        alone = itertools.pairwise(interference._panel_edges(s, m, order, net).tolist())
        if [panels[c] for c in columns[j]] != list(alone):
            apart.append(float(s))
    return apart


def _check_ladder_vs_row_edges(sc: Scenario) -> CheckResult:
    # One kernel call builds each ladder bottom's edges once; every
    # threshold's s0 must get the panels its own edges give.
    net, fading = sc.network, sc.fading
    m, order = fading.interferer_m, max(fading.serving_m - 1, 2)
    s0 = [transform_argument(psi, net, fading) for psi in sc.psi_grid_linear()]
    apart = ladder_rows_apart(s0, m, order, net)
    detail = f"{len(apart)} of {len(s0)} rows get panels other than their own edges'"
    if apart:
        detail += f", first at s={apart[0]:.17g}"
    return CheckResult("ladder-vs-row-edges", not apart, detail)


def _check_binomial_collapse(sc: Scenario, rng: np.random.Generator) -> CheckResult:
    net, fading = sc.network, sc.fading
    worst = 0.0
    for M in range(1, 7):
        trial_net = net.__class__(net.radius, net.height, net.serving_altitude, M,
                                  net.path_loss_exponent)
        for _ in range(4):
            s = float(10 ** rng.uniform(-1, 4))
            p = float(rng.uniform(0, 1))
            power = interference.laplace_transform(s, trial_net, fading, p)
            summed = interference.laplace_transform_phase_sum(s, trial_net, fading, p)
            worst = max(worst, abs(power - summed) / power)
    return CheckResult(
        "binomial-collapse", worst <= 1e-13, f"worst relative gap {worst:.2e} (<=1e-13)"
    )


def _check_derivative_jet(sc: Scenario) -> CheckResult:
    net, fading = sc.network, sc.fading
    p_stay = derive_stay_probability(sc.mobility, net)
    psi_mid = sc.psi_grid_linear()[len(sc.psi_grid_db) // 2]
    s0 = max(transform_argument(psi_mid, net, fading), 1.0)
    jet = interference.laplace_derivative_jet(s0, 2, net, fading, p_stay)

    def L(s):
        return interference.laplace_transform(s, net, fading, p_stay)

    h1 = 1e-5 * s0
    fd1 = (L(s0 + h1) - L(s0 - h1)) / (2 * h1)
    h2 = 3e-4 * s0
    fd2 = (L(s0 + h2) - 2 * L(s0) + L(s0 - h2)) / h2**2
    r1 = abs(jet.derivative(1) - fd1) / abs(fd1)
    r2 = abs(jet.derivative(2) - fd2) / abs(fd2)
    ok = r1 <= 1e-5 and r2 <= 1e-5
    return CheckResult(
        "derivative-jet", ok, f"k=1 rel {r1:.2e}, k=2 rel {r2:.2e} (<=1e-5)"
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


def _check_analysis_vs_simulation(sc: Scenario) -> CheckResult:
    net, fading, mob = sc.network, sc.fading, sc.mobility
    psi = np.asarray(sc.psi_grid_linear())
    result = run_campaign(
        net, fading, mob, min(sc.sim.n_snapshots, 200_000), dt=sc.sim.dt,
        seed=sc.sim.seed, psi_grid=psi, stride=sc.sim.stride,
        replications=sc.sim.replications, chains=sc.sim.chains,
    )
    if fading.altitude_dependent:  # the campaign still feeds steady-state-mobility
        return CheckResult(
            "analysis-vs-simulation", True,
            "skipped: altitude-dependent fading is simulation-only",
        ), result
    points = coverage_sweep(psi.tolist(), net, fading, result.stay_probability)
    failed = [p.error for p in points if p.error is not None]
    if failed:
        return CheckResult("analysis-vs-simulation", False,
                           f"analysis failed: {failed[0]}"), result
    analytical = np.array([p.coverage for p in points])
    gap = np.abs(result.coverage() - analytical)
    tol = np.maximum(0.015, 5 * np.nan_to_num(result.coverage_se(), nan=0.0))
    worst = float((gap - tol).max())
    idx = int((gap - tol).argmax())
    return CheckResult(
        "analysis-vs-simulation",
        bool((gap <= tol).all()),
        f"worst margin {worst:+.4f} at {sc.psi_grid_db[idx]:g} dB "
        f"(gap {gap[idx]:.4f}, tol {tol[idx]:.4f}, {result.n_snapshots} snapshots)",
    ), result


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


def _check_steady_state(sc: Scenario, result) -> CheckResult:
    if result.n_interferers == 0:
        return CheckResult("steady-state-mobility", True, "skipped: no interferers simulated")
    p_stay = result.stay_probability
    frac = result.dwelling_fraction()
    se = result.dwelling_fraction_se()
    frac_tol = max(4 * se, 0.01)
    frac_ok = abs(frac - p_stay) <= frac_tol
    pmf = result.dwelling_count_pmf()
    ref = stats.binom.pmf(np.arange(result.n_interferers + 1), result.n_interferers, p_stay)
    tv = 0.5 * float(np.abs(pmf - ref).sum())
    hop_gap = abs(result.mean_interior_hop_length() - sc.mobility.mean_hop_length)
    ok = frac_ok and tv < 0.02 and hop_gap < 0.05 * sc.mobility.mean_hop_length
    return CheckResult(
        "steady-state-mobility",
        ok,
        f"dwelling {frac:.4f} vs {p_stay:.4f} (tol {frac_tol:.4f}), "
        f"phase-count TV {tv:.4f} (<0.02), hop mean gap {hop_gap:.3f}",
    )


def run_validation(sc: Scenario, fault_bias: float = 0.0) -> list[CheckResult]:
    """Run every check.

    `fault_bias` is added to the closed form inside the closed-vs-quadrature
    check only, to show that the check fails on a wrong closed form.
    A stay-probability override the simulation cannot honour is rejected
    before any check runs.
    """
    simulated_stay_probability(sc.mobility, sc.network)
    rng = np.random.default_rng(sc.sim.seed)
    results = [
        _check_trivial_anchors(sc),
        _check_hyp2f1_consistency(sc),
        _check_distributions(sc, rng),
        _check_closed_vs_quadrature(sc, fault_bias),
        _check_gl_vs_quad(sc),
        _check_kernel_batch_vs_row(sc),
        _check_ladder_vs_row_edges(sc),
        _check_binomial_collapse(sc, rng),
        _check_derivative_jet(sc),
        _check_lockstep_replications(sc),
        _check_event_tape(sc),
        _check_stationary_start(sc),
    ]
    sim_check, campaign = _check_analysis_vs_simulation(sc)
    results.append(sim_check)
    results.append(_check_steady_state(sc, campaign))
    return results
