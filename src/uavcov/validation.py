"""Cross-checks of the two routes, each written once and run at two scales.

Each check pits one evaluation route against an independent one: exact
anchors, closed forms against the Gauss-Legendre kernel, the kernel against
a 2D integral of the model's definition over offset and altitude
(phase_moments), each row of a batched kernel call against the same
threshold alone, the panels the kernel's shared table gives each row
against that row's own edges, the distance pdfs integrated against their
cdfs, derivative jets against finite differences, the analysis against the
end-to-end simulation, the stationary launch against the closed-form
stationary laws, the simulator's kinematics, one snapshot stride per call
as campaigns run them, against the time-stepped vertical integrator they
replaced and a real-arithmetic hop, stepped once per step, and campaigns
observed a buffer of snapshots at a time against the same campaigns
observed one snapshot at a time.

A check is one function whose grid, sizes, seeds and tolerances are its
arguments, and each seeded check draws from a generator of its own.
`run_validation`, behind the `validate` subcommand, calls every check at a
reduced scale taken from the scenario, so a full run takes seconds while
each comparison stays far away from its statistical noise floor; the
acceptance gate (tests/test_acceptance.py) calls the same functions at its
full scale.  Its Kolmogorov-Smirnov test and binomial law need numpy alone.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import interference
from .config import (
    derive_stay_probability, kinematic_stay_probability, simulated_stay_probability,
)
from .coverage import coverage_sweep, transform_argument
from .distributions import AltitudeDistribution, DistanceDistribution
from .scenario import Scenario
from . import simulator, special
from .simulator import CampaignResult, run_campaign
from .errors import ConfigurationError, ConsistencyError, DomainError, NumericalError
from .special import closed_phase_factor, hyp2f1

__all__ = ["CheckResult", "check_analysis_vs_simulation", "check_binomial_collapse",
           "check_buffered_snapshots", "check_closed_vs_quadrature", "check_derivative_jet",
           "check_distribution_laws", "check_event_tape", "check_gl_vs_quad",
           "check_hyp2f1_consistency", "check_kernel_batch_vs_row", "check_ladder_vs_row_edges",
           "check_stationary_start", "check_steady_state_mobility", "check_trivial_anchors",
           "event_tape_gaps", "integrated_pdf", "kernel_rows_apart", "ks_pvalue", "ks_test",
           "ladder_rows_apart", "min_campaign_snapshots", "phase_moments", "run_validation",
           "snapshot_by_snapshot"]

# phase_moments' panels: 16 nodes each, graded from 12 doublings below the
# length scale, one per doubling per 24 of steepness a(m + order); it refuses
# scales over 40 doublings below the top of the support (its grid grows as
# the square of the ladder) and takes blocks of at most 2^18 node values.
_ORACLE_NODES, _ORACLE_GRADING, _ORACLE_STEEPNESS = 16, 12, 24
_ORACLE_MAX_DOUBLINGS, _ORACLE_BLOCK = 40, 1 << 18
_MAX_EVENT_PASSES = 10_000
# smallest KS p-value the stationary launch may show against a closed-form law
_STATIONARY_KS_PMIN = 1e-3
# validate's (k_se, floor) of check_analysis_vs_simulation and of
# check_steady_state_mobility's dwelling fraction
_COVERAGE_TOLERANCE = dict(k_se=5.0, floor=0.015)
_DWELLING_TOLERANCE = dict(k_se=4.0, floor=0.01)
# validate's (a, b, z) grids of check_hyp2f1_consistency: the relation's, the overlap's
_HYP2F1_GRIDS = (((1, 2, 3), (1.0, 1.5, 2.0, 2.5), (-0.1, -0.45, -2.0, -10.0, -40.0)),
                 ((1, 2, 4), (1.0, 1.5, 2.5, 3.0), np.linspace(-64.0, -8.0, 8).tolist()))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def phase_moments(s: float, m: int, order: int, net) -> np.ndarray:
    """E[W^(-alpha k) (1 + s W^-alpha / m)^-(m+k)] for k = 0..order, rows
    static and moving, from the model's definition rather than the kernel's
    law and rule: W = sqrt(z^2 + x^2), with offset z of density 2z/R^2 on
    [0, R] and altitude x of density 1/H (dwelling) or 6x/H^2 - 6x^2/H^3
    (moving) on [0, H], integrated by tensor Gauss-Legendre panels.  The
    integrand t^m (m / (m W^alpha + s))^k, t = m W^alpha / (m W^alpha + s),
    turns over at the length scale (s/m)^(1/alpha), steeply in proportion
    to alpha (m + order), so each axis's panel edges double upward from
    _ORACLE_GRADING doublings below that scale (or below sqrt(R^2 + H^2)),
    ceil(alpha (m + order) / _ORACLE_STEEPNESS) per doubling, up to R and
    H.  Phi^(k)(s) = (-1)^k (m)_k m^-k times the moment.  Every node value
    of order k is at most (m/s)^k, so NumericalError is raised where
    (m/s)^order exceeds e^700, and where the scale lies more than
    _ORACLE_MAX_DOUBLINGS doublings below sqrt(R^2 + H^2)."""
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    w_max, scale = math.hypot(R, H), (s / m) ** (1.0 / alpha)
    if not scale >= w_max * 2.0**-_ORACLE_MAX_DOUBLINGS or order * math.log(m / s) > 700:
        raise NumericalError(f"from-definition oracle refuses s={s:.3g}, m={m}: (s/m)^(1/alpha) "
                             f"over {_ORACLE_MAX_DOUBLINGS} doublings below {w_max:g}, or "
                             f"(m/s)^{order} over e^700")
    per_doubling = math.ceil(alpha * (m + order) / _ORACLE_STEEPNESS)
    bottom = min(scale, w_max) * 2.0**-_ORACLE_GRADING
    nodes, weights = np.polynomial.legendre.leggauss(_ORACLE_NODES)

    def axis(top):  # nodes and weights of the panels of [0, top]
        rungs = bottom * np.exp2(np.arange(per_doubling * math.log2(top / bottom)) / per_doubling)
        edges = np.concatenate([[0.0], rungs[rungs < top], [top]])
        lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
        return (lo + half * (nodes + 1)).ravel(), (half * weights).ravel()

    (z, wz), (x, wx) = axis(R), axis(H)
    wz *= 2.0 * z / R**2
    density = np.stack([wx / H, wx * (6.0 * x / H**2 - 6.0 * x**2 / H**3)], axis=1)
    out, rows = np.zeros((order + 1, 2)), max(1, _ORACLE_BLOCK // x.size)
    for lo in range(0, z.size, rows):  # blocks of offsets by every altitude
        m_w_alpha = m * (z[lo:lo + rows, None] ** 2 + x * x) ** (alpha / 2.0)
        ratio = m_w_alpha + s
        g = (m_w_alpha / ratio) ** m
        np.divide(m, ratio, out=ratio)
        for k in range(order + 1):
            out[k] += wz[lo:lo + rows] @ g @ density
            if k < order:
                g *= ratio
    return out.T


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


class _TapeReader:
    """The `draw` of `simulator._advance_vertical` for reader 0 of an
    `_EventTape`: each pass gets the reader's next leg row of each
    interferer it runs, with the next dwell in the dwell column.  Call
    `settle()` after every `_advance_vertical` call.
    """

    def __init__(self, tape: _EventTape, state):
        self.tape, self.state, self.last = tape, state, None

    def __call__(self, idx):
        self.settle()
        self.last = idx, self.state.moving[idx]
        u = self.tape.peek(0, 1, idx)
        u[:, 0] = self.tape.peek(0, 0, idx)[:, 0]
        return u

    def settle(self):
        # a pass runs the first event of each interferer it is given and the
        # second only if that falls within the call; after two events the
        # phase is back where it was.  Count what the last pass used.
        if self.last is not None:
            idx, arriving = self.last
            two = self.state.moving[idx] == arriving
            self.tape.taken[0, 0, idx[arriving | two]] += 1
            self.tape.taken[0, 1, idx[~arriving | two]] += 1
            self.last = None


def _reference_hop(xy, idx, u, net, mob) -> tuple[np.ndarray, float]:
    """One step's spatial hops in real arithmetic, in place: the reference for
    `simulator._hop`.  Each interferer in idx proposes (x + r c, y + r s)
    from its row of u, with r = hop_range sqrt(u0) and the unit vector
    (c, s) of angle 2 pi u1 formed from t = tan(pi u1) as
    ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)), and stays put if that leaves
    the disk.  Returns the lengths of the accepted hops that started at
    least hop_range inside the disk edge, and the largest gap of c and s
    from cos and sin of 2 pi u1."""
    x, y = xy[idx, 0], xy[idx, 1]
    r = mob.hop_range * np.sqrt(u[:, 0])
    t = np.tan(math.pi * u[:, 1])
    t2 = t * t
    c, s = (1.0 - t2) / (1.0 + t2), 2.0 * t / (1.0 + t2)
    theta = 2.0 * math.pi * u[:, 1]
    gap = np.abs(np.concatenate((c - np.cos(theta), s - np.sin(theta)))).max(initial=0.0)
    x1, y1 = x + r * c, y + r * s
    keep = np.hypot(x1, y1) <= net.radius
    xy[idx[keep], 0] = x1[keep]
    xy[idx[keep], 1] = y1[keep]
    return r[keep & (np.hypot(x, y) <= max(net.radius - mob.hop_range, 0.0))], float(gap)


def event_tape_gaps(net, mob, n: int, steps: int, stride: int, dt: float, seed: int) -> dict:
    """Move n interferers `steps` steps of dt as a campaign does, in calls of
    `stride` steps to `simulator._advance_vertical` and `simulator._hop`, and
    by the references stepped once per step: the time-stepped vertical
    integrator and `_reference_hop`.  Both sides read one `_EventTape` for
    their vertical events and, per call, one hop proposal per interferer
    and hop rank, which `_hop` takes rank by rank (the interferers with
    more than r hops at rank r, most hops first, ties by index).

    Returns the call ends at which the hop counts differ from the
    reference's dwelling steps over the call, or the sorted interior hop
    lengths, the tape rows used or the positions differ; the worst altitude
    and residual dwell gaps at call ends, the worst gap of the reference's
    half-angle unit vectors from cos and sin over every proposal it reads,
    the numbers of events and interior hops, and how many times an
    interferer had three or more events in one reference step.
    """
    rng = np.random.default_rng(seed)
    state = simulator.initial_state(n, net, mob, rng)
    h, moving = state.altitude(), state.moving.copy()
    wp, v, rem = state.waypoint.copy(), state.speed.copy(), state.dwell_remaining()
    xy = state.xy.copy()
    tape = _EventTape(n, rng)
    draw = _TapeReader(tape, state)
    work = simulator.HopWorkspace()

    def dwell(idx):
        return mob.dwell_min + (mob.dwell_max - mob.dwell_min) * tape.take(1, 0, idx)[:, 0]

    def leg(idx):
        u = tape.take(1, 1, idx)
        return net.height * u[:, 1], mob.speed_min + (mob.speed_max - mob.speed_min) * u[:, 2]

    gaps = dict(count_calls=[], hop_calls=[], tape_calls=[], xy_calls=[], altitude_gap=0.0,
                dwell_gap=0.0, unit_gap=0.0, hops=0, repeats=0)
    for first in range(0, steps, stride):
        ends, t = [], state.t
        for _ in range(min(stride, steps - first)):  # the step ends `advance` makes
            t += dt
            ends.append(t)
        counts = simulator._advance_vertical(state, np.array(ends), draw, net, mob)
        draw.settle()
        u = rng.random((n, len(ends), 2))  # the proposal of each interferer's hop of each rank
        capped = np.minimum(counts, len(ends))  # wrong counts may claim more hops than steps
        order = np.lexsort((np.arange(n), -capped.astype(int)))
        ranked = capped[order]
        proposals = np.concatenate([u[order[ranked > r], r] for r in range(len(ends))])
        hops = simulator._hop(state, capped, (proposals, *work.take(proposals.shape[0])[1:]),
                              net, mob)
        dwelt, ref = np.zeros(n, dtype=int), [hops[:0]]
        for _ in ends:
            events = tape.taken[1].sum(axis=0)
            _time_left_vertical(h, moving, wp, v, rem, dt, dwell, leg)
            gaps["repeats"] += int((tape.taken[1].sum(axis=0) - events >= 3).sum())
            idx = (~moving).nonzero()[0]
            lengths, unit_gap = _reference_hop(xy, idx, u[idx, dwelt[idx]], net, mob)
            dwelt[idx] += 1
            gaps["unit_gap"] = max(gaps["unit_gap"], unit_gap)
            ref.append(lengths)
        ref = np.concatenate(ref)
        gaps["hops"] += ref.size
        for key, apart in (("count_calls", not np.array_equal(counts, dwelt)),
                           ("hop_calls", np.sort(hops).tobytes() != np.sort(ref).tobytes()),
                           ("tape_calls", not np.array_equal(tape.taken[0], tape.taken[1])),
                           ("xy_calls", state.xy.tobytes() != xy.tobytes())):
            if apart:
                gaps[key].append(first)
        gaps["altitude_gap"] = max(gaps["altitude_gap"], float(np.abs(state.altitude() - h).max()))
        gaps["dwell_gap"] = max(gaps["dwell_gap"],
                                float(np.abs(state.dwell_remaining() - rem).max()))
    gaps["events"] = int(tape.taken[1].sum())
    return gaps


def check_event_tape(net, cases, n: int, steps: int, stride: int, dt: float,
                     seed: int) -> CheckResult:
    """The simulator's kinematics as campaigns run them, in calls of `stride`
    steps, against the time-stepped vertical integrator and a real-arithmetic
    hop stepped once per step (event_tape_gaps), n interferers over `steps`
    steps of dt, for each (name, mobility, must_repeat) of cases: at every
    call end, hop counts equal to the reference's dwelling steps, sorted
    interior hop lengths, tape rows used and positions equal, altitude and
    residual dwell gaps within 1e-9; the hop's half-angle unit vectors
    within 1e-15 of cos and sin; and, where must_repeat is set, some
    interferer with three or more events in one step."""
    ok, parts = True, []
    for name, mob, must_repeat in cases:
        gaps = event_tape_gaps(net, mob, n, steps, stride, dt, seed)
        apart = [f"{len(gaps[key])} calls with {what} mismatches" for key, what in (
            ("count_calls", "hop-count"), ("hop_calls", "hop-length"),
            ("tape_calls", "tape-row"), ("xy_calls", "position")) if gaps[key]]
        ok &= (not apart and gaps["altitude_gap"] <= 1e-9 and gaps["dwell_gap"] <= 1e-9
               and gaps["unit_gap"] <= 1e-15 and (gaps["repeats"] > 0 or not must_repeat))
        parts.append(f"{name}: {', '.join(apart) or 'hop counts, tape rows, xy and hops identical'}"
                     f", altitude gap {gaps['altitude_gap']:.1e}, dwell gap "
                     f"{gaps['dwell_gap']:.1e} over {gaps['events']} events, unit-vector gap "
                     f"{gaps['unit_gap']:.1e}, "
                     f"{gaps['hops']} interior hops ({gaps['repeats']} with 3+ events in a step)")
    return CheckResult("event-tape", ok, f"{n} interferers x {steps} steps in {stride}-step "
                       "calls vs the time-stepped integrator and a real-arithmetic hop (hop "
                       "counts, tape rows, xy and sorted hops exact, gaps <=1e-9, unit-vector "
                       "gap <=1e-15); " + "; ".join(parts))


def snapshot_by_snapshot(net, fading, mob, n_snapshots: int, dt: float, seed: int, *,
                         psi_grid, stride: int, chains: int) -> CampaignResult:
    """`simulator.run_campaign` observed one snapshot at a time: the
    reference for its snapshot buffers.  It launches and advances the same
    state from the same three generators (`initial_state`, and `advance`
    with no workspace), and after each stride draws that snapshot's serving
    gains, one per chain, and interferer gains, one per interferer, then
    its SIRs, counts each chain above each threshold by comparing every SIR
    with every threshold, and bins the snapshot's distances and altitudes
    on their own, phase by phase, into 40 equal bins of [0, sqrt(R^2 +
    H^2)] and [0, H] (a value at or past the top, or a rounding error below
    0, in the end bin).  Containment is not checked."""
    psi = np.asarray(psi_grid, dtype=float)
    per_chain = math.ceil(n_snapshots / chains)
    M = net.n_interferers
    n = chains * M
    moves, serving, interfering = map(np.random.default_rng,
                                      np.random.SeedSequence(seed).spawn(3))
    state = simulator.initial_state(n, net, mob, moves)
    shapes = simulator._interferer_shapes(fading, net)
    alpha, m0 = net.path_loss_exponent, fading.serving_m
    success = np.zeros((chains, psi.size), dtype=np.intp)
    dwelling = np.zeros(chains, dtype=np.intp)
    hist = np.zeros(M + 1, dtype=np.intp)
    edges = np.array([np.linspace(0.0, top, 41) for top in (math.hypot(net.radius, net.height),
                                                            net.height)])
    binned = np.zeros((2, 2, 40), dtype=np.intp)
    hop_sum, hop_count = 0.0, 0
    for _ in range(per_chain):
        length, count = simulator.advance(state, stride, dt, moves, net, mob)
        hop_sum += length
        hop_count += count
        altitude = state.altitude()
        w = np.sqrt(altitude**2 + state.radius2())
        g0 = serving.standard_gamma(m0, chains) * (1.0 / m0)
        m_i = shapes(altitude)
        gains = interfering.standard_gamma(m_i, n) * (1.0 / m_i)
        interference = (gains * w**-alpha).reshape(chains, M).sum(axis=1)
        with np.errstate(divide="ignore"):
            sir = g0 * net.serving_altitude**-alpha / interference
        per_network = (~state.moving).reshape(chains, M).sum(axis=1)
        success += sir[:, None] > psi
        dwelling += per_network
        hist += np.bincount(per_network, minlength=M + 1)
        for v, x in enumerate((w, altitude)):
            bins = np.clip(np.floor(x * (40 / edges[v, -1])), 0, 39).astype(int)
            for p, phase in enumerate((~state.moving, state.moving)):
                binned[v, p] += np.bincount(bins[phase], minlength=40)
    return CampaignResult(
        psi_grid=psi, chain_success=success, chain_dwelling=dwelling,
        dwelling_count_hist=hist, histograms=binned, histogram_edges=edges,
        hop_length_sum=hop_sum, hop_count=hop_count, n_snapshots=chains * per_chain,
        stay_probability=simulated_stay_probability(mob, net))


def check_buffered_snapshots(cases, mob, chains: int, flushes: float, stride: int,
                             dt: float, seed: int, psi_grid) -> CheckResult:
    """Campaigns observed a buffer of snapshots at a time (`run_campaign`)
    against the same campaigns observed one snapshot at a time
    (snapshot_by_snapshot), for each (name, net, fading) of cases: `chains`
    chains of `flushes` buffers' worth of snapshots each (a fraction leaves
    the last buffer part filled), thresholds psi_grid.  Every array of the
    CampaignResult, the hop sum and count and the snapshot count must be
    byte-identical: the per-chain coverage and dwelling tallies, the
    dwelling-count histogram, the distance and altitude histograms and
    their edges."""
    ok, parts = True, []
    for name, net, fading in cases:
        rows = simulator._buffer_rows(chains * net.n_interferers, chains)
        per_chain = math.ceil(flushes * rows)
        args = (net, fading, mob, per_chain * chains, dt, seed)
        kwargs = dict(psi_grid=psi_grid, stride=stride, chains=chains)
        buffered = simulator.run_campaign(*args, **kwargs)
        reference = snapshot_by_snapshot(*args, **kwargs)
        apart = [field.name for field in dataclasses.fields(CampaignResult)
                 if field.name != "meta" and np.asarray(getattr(buffered, field.name)).tobytes()
                 != np.asarray(getattr(reference, field.name)).tobytes()]
        ok &= not apart
        parts.append(f"{name}: {per_chain} snapshots per chain in buffers of {rows}, "
                     + (f"{', '.join(apart)} differ" if apart else "identical"))
    return CheckResult("buffered-snapshots", ok, f"{chains} chains, stride {stride}, vs one "
                       "snapshot at a time (every result array and hop sum byte-identical); "
                       + "; ".join(parts))


def check_trivial_anchors(net, fading, p_stay: float) -> CheckResult:
    """Exact identities: coverage 1 with net's interferers removed, 2F1 = 1
    at a = 0 and at z = 0, and each phase's distance cdf 0 at 0 and 1 at the
    top of its support."""
    no_interferers = dataclasses.replace(net, n_interferers=0)
    sweep = coverage_sweep([2.0], no_interferers, fading, p_stay)
    checks = {
        "P_cov(M=0)": sweep.coverage.tolist() == [1.0],
        "2F1(a=0)": hyp2f1(0, 1.5, -9.0) == 1.0,
        "2F1(z=0)": hyp2f1(4, 2.5, 0.0) == 1.0,
    }
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        checks[f"F_{phase}(0)"] = dist.cdf(0.0) == 0.0
        checks[f"F_{phase}(max)"] = dist.cdf(dist.support_max) == 1.0
    bad = [k for k, ok in checks.items() if not ok]
    return CheckResult("trivial-anchors", not bad, f"{len(checks)} exact identities"
                       + (f"; failed: {bad}" if bad else " hold"))


def check_hyp2f1_consistency(relation, overlap) -> CheckResult:
    """hyp2f1 against itself.  The contiguous relation in a (DLMF 15.5.11)
    (c - a) F(a - 1) + (2a - c + (b - a) z) F(a) + a (z - 1) F(a + 1) = 0,
    F(a) = 2F1(a, b; c; z), at c = b + 1 and every (a, b, z) of the grid
    relation (a tuple of a, b and z values), to 1e-9 of its largest term;
    and the Pfaff path against the large-z path, both valid below the
    dispatch threshold, at every (a, b, z) of the grid overlap, to 1e-11
    relative."""
    worst = 0.0
    for a, b, z in itertools.product(*relation):
        c = b + 1.0
        terms = ((c - a) * hyp2f1(a - 1, b, z), (2 * a - c + (b - a) * z) * hyp2f1(a, b, z),
                 a * (z - 1) * hyp2f1(a + 1, b, z))
        worst = max(worst, abs(sum(terms)) / max(map(abs, terms)))
    large_worst = 0.0
    for a, b, z in itertools.product(*overlap):
        pfaff = special._pfaff(a, b, z)
        large_worst = max(large_worst, abs(special._large_z(a, b, z) - pfaff) / pfaff)
    return CheckResult(
        "hyp2f1-consistency", worst <= 1e-9 and large_worst <= 1e-11,
        f"contiguous residual {worst:.2e} (<=1e-9), Pfaff/large-z overlap "
        f"{large_worst:.2e} (<=1e-11)",
    )


def integrated_pdf(dist: DistanceDistribution, w) -> np.ndarray:
    """int_0^w of dist's pdf, for each w of an array, by a fixed 16-node
    Gauss-Legendre rule on each piece: [0, min(w, H)] and [H, min(w, R)] in
    w, and the top piece in v = sqrt(w^2 - R^2), where pdf(w) v / w is the
    density of v.  Each piece's integrand is a polynomial of degree at most
    4 (piece_polynomials), which the rule integrates exactly."""
    R, H = dist.radius, dist.height
    nodes, weights = np.polynomial.legendre.leggauss(16)
    w = np.asarray(w, dtype=float)[:, None]

    def piece(lo, hi, density):  # int_lo^hi density, for each row of hi
        return density(lo + (hi - lo) / 2 * (nodes + 1.0)) @ weights * (hi - lo)[:, 0] / 2

    def shell(v):
        r = np.hypot(R, v)
        return dist.pdf(r) * v / r

    return (piece(0.0, np.minimum(w, H), dist.pdf) + piece(H, np.clip(w, H, R), dist.pdf)
            + piece(0.0, np.sqrt(np.maximum((w - R) * (w + R), 0.0)), shell))


def check_distribution_laws(net) -> CheckResult:
    """Each phase's distance pdf integrated by a fixed rule (integrated_pdf)
    against its cdf at 20 points, to 1e-9.  Both derive from one altitude
    cdf table, which gl-vs-quad and stationary-start check in their turn."""
    pdf_gap = 0.0
    for phase in ("static", "moving"):
        dist = DistanceDistribution(phase, net.radius, net.height)
        w = np.linspace(0, dist.support_max, 21)[1:]
        pdf_gap = max(pdf_gap, float(np.abs(integrated_pdf(dist, w) - dist.cdf(w)).max()))
    return CheckResult("distribution-laws", pdf_gap <= 1e-9,
                       f"pdf/cdf gap {pdf_gap:.1e} (<=1e-9)")


def check_closed_vs_quadrature(net, points) -> CheckResult:
    """The exponent-2 closed phase factors against the Gauss-Legendre
    kernel's, both phases at every (m, s) of points, to 1e-8 relative.  A
    point where the closed form overflows fails the check: its factor goes
    unverified."""
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
    worst, worst_at, unreached = 0.0, None, []
    for p, phase in enumerate(("static", "moving")):
        for m, s in points:
            try:
                closed = closed_phase_factor(phase, s, m, net)
            except NumericalError:
                unreached.append(f"{phase} m={m} s={s:.3g}")
                continue
            quad = kernel[m, s][p]
            if abs(closed - quad) / quad > worst:
                worst, worst_at = abs(closed - quad) / quad, (phase, m, s)
    detail = f"worst relative gap {worst:.2e} at {worst_at} (<=1e-8, {2 * len(points)} points)"
    if unreached:
        detail += f"; closed form failed, not compared: {', '.join(unreached)}"
    return CheckResult("closed-vs-quadrature", worst <= 1e-8 and not unreached, detail)


def check_gl_vs_quad(cases, order: int) -> CheckResult:
    """The kernel's scaled coefficients (-s)^k Phi^(k)(s) / k! against
    C(m + k - 1, k) (s/m)^k times the from-definition moment (phase_moments,
    one call per threshold), both phases and k <= order, at every
    (net, m, s_values) of cases, to 1e-9 relative.  A threshold the oracle
    refuses fails the check: its coefficients go unverified."""
    worst, worst_at, compared, unreached = 0.0, None, 0, []
    for net, m, s_values in cases:
        coeffs, failures = interference.scaled_phase_jets(s_values, m, order, net)
        for i, s in enumerate(map(float, s_values)):
            if failures[i] is not None:
                return CheckResult("gl-vs-quad", False, f"kernel failed: {failures[i]}")
            try:
                moments = phase_moments(s, m, order, net)
            except NumericalError:
                unreached.append(f"s={s:.3g}")
                continue
            for p, phase in enumerate(("static", "moving")):
                for k in range(order + 1):
                    got, moment = float(coeffs[i, p, k]), float(moments[p, k])
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
        detail += f"; oracle refused, not compared: {', '.join(unreached)}"
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


def _panel_edges(s: float, m: int, order: int, net) -> np.ndarray:
    """Panel edges on [0, sqrt(R^2 + H^2)] for the kernel at one s.

    The integrand t^m u^k, t = m w^a / (m w^a + s), turns over around the
    length scale (s/m)^(1/a) and is steep there in proportion to a(m + k),
    so the edges are geometric, ceil(a(m + order) / _PANELS_PER_STEEPNESS)
    per doubling, from the top of the support down to _GRADING doublings
    below that scale (or below the top, when the scale lies beyond it).
    H and R are edges too, since the pdf changes piece there.  The oracle
    of interference._panel_plan, which builds the same edges once per ladder
    bottom.  Where s/m is not above 0 there is no length scale and no
    ladder: it raises the kernel's DomainError for that s.
    """
    if not s / m > 0:
        raise interference._no_length_scale(s, m)
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    w_max = math.hypot(R, H)
    per_doubling = math.ceil(alpha * (m + order) / interference._PANELS_PER_STEEPNESS)
    scale = min((s / m) ** (1.0 / alpha), w_max)
    lowest = math.floor(per_doubling * (math.log2(scale) - interference._GRADING))
    highest = math.ceil(per_doubling * math.log2(w_max))
    ladder = (math.exp2(j / per_doubling) for j in range(lowest, highest))
    return np.array(sorted({0.0, H, R, w_max, *(w for w in ladder if w < w_max)}))


def ladder_rows_apart(s_values, m: int, order: int, net) -> list[float]:
    """The thresholds whose panels in one kernel call's shared table (rows
    mapped to their ladder bottom's edge set) are not the panels of
    _panel_edges built at that threshold alone."""
    row_sets, _, panels, columns = interference._panel_plan(
        np.asarray(s_values, dtype=float), m, order, net)
    apart = []
    for s, j in zip(s_values, row_sets.tolist()):
        try:
            alone = list(itertools.pairwise(_panel_edges(s, m, order, net).tolist()))
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
    to 1e-5 relative (absolute where a difference is 0)."""
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
        fd2 = (up2 - 2 * mid + down2) / h2 / h2  # h2**2 would overflow from s0 = 4.5e157
        # relative where a difference is nonzero; absolute where it is 0, as
        # when L_I is identically 1 (no interferers)
        gaps.append(tuple(abs(jet - fd) / (abs(fd) or 1.0)
                          for jet, fd in ((c1 * inv, fd1), (c2 * inv**2 * 2, fd2))))
    r1, r2 = np.max(gaps, axis=0)  # NaN propagates
    return CheckResult(
        "derivative-jet", bool(r1 <= 1e-5 and r2 <= 1e-5),
        f"worst rel gap vs central differences {np.max(gaps):.2e} (k=1 {r1:.2e}, "
        f"k=2 {r2:.2e}; <=1e-5) over {len(cases)} points",
    )


def _binomial_se_ratios(se, p, count: int) -> str:
    """The range of standard errors `se` over the binomial SEs
    sqrt(p (1 - p) / count) of estimates `p` from `count` draws, over the
    entries with 0 < p < 1 and a finite SE, as "min-max" (one value for
    one entry, "n/a" for none).  A campaign's draws are correlated in
    time, so a ratio above 1 is a sign of autocorrelation."""
    se, p = np.atleast_1d(se), np.atleast_1d(p)
    inside = (p > 0) & (p < 1) & np.isfinite(se)
    if not inside.any():
        return "n/a"
    ratio = se[inside] / np.sqrt(p[inside] * (1 - p[inside]) / count)
    low, high = ratio.min(), ratio.max()
    return f"{low:.2f}" if ratio.size == 1 else f"{low:.2f}-{high:.2f}"


def check_analysis_vs_simulation(cases, floor: float, k_se: float) -> CheckResult:
    """Each campaign's coverage against the analysis at the campaign's
    thresholds and stay probability, for every (net, fading, campaign) of
    cases: |sim - ana| within max(floor, k_se SE) at every threshold, the SE
    taken from the spread of the campaign's independent chains.  The detail
    also gives the range of that SE over the binomial SE.  The analysis has
    no altitude-dependent fading, so a case with it skips the check."""
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
        sim = result.coverage()
        gap = np.abs(sim - sweep.coverage)
        se = result.coverage_se()  # NaN with fewer than 2 chains: the floor alone
        tol = np.fmax(floor, k_se * se)
        ok &= bool((gap <= tol).all())
        worst_gap = max(worst_gap, float(gap.max()))
        i = int((gap - tol).argmax())
        if gap[i] - tol[i] > worst[0]:
            worst = (gap[i] - tol[i], f"{10 * math.log10(result.psi_grid[i]):g} dB of "
                     f"({label}) (gap {gap[i]:.4f}, tol {tol[i]:.4f}")
        max_se = "n/a" if np.isnan(se).any() else f"{se.max():.4f}"
        ratios = _binomial_se_ratios(se, sim, result.n_snapshots)
        lines.append(f"({label}): max|sim-ana|={gap.max():.4f}, max SE={max_se}, "
                     f"SE/binomial SE {ratios}, {result.n_snapshots} snapshots "
                     f"on {result.chain_dwelling.size} chains")
    return CheckResult(
        "analysis-vs-simulation", ok,
        f"worst |sim-ana| {worst_gap:.4f}; worst margin {worst[0]:+.4f} at {worst[1]} = "
        f"max({floor:g}, {k_se:g} SE)); " + "; ".join(lines),
    )


def _log_factorials(n: int) -> np.ndarray:
    """ln k!, k = 0..n: math.lgamma to 20, then Stirling's series to k^-9."""
    k = np.arange(21.0, n + 1)
    r = 1.0 / (k * k)
    series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / k
    return np.concatenate([[math.lgamma(j + 1.0) for j in range(min(n, 20) + 1)],
                           (k + 0.5) * np.log(k) - k + 0.5 * math.log(2 * math.pi) + series])


def _binomial_tv(pmf: np.ndarray, p: float) -> float:
    """The total variation distance of pmf, a law on 0..n, from Binomial(n, p)."""
    n, k = pmf.size - 1, np.arange(pmf.size)
    lf = _log_factorials(n)
    ref = (np.exp(lf[n] - lf - lf[::-1] + k * math.log(p) + (n - k) * math.log1p(-p))
           if 0.0 < p < 1.0 else (k == round(p * n)).astype(float))
    return 0.5 * float(np.abs(pmf - ref).sum())


def ks_pvalue(d: float, n: int) -> float:
    """min(1, 2 P(D+ >= d)) for n draws, by the exact finite sum (Birnbaum &
    Tingey 1951) P(D+ >= d) = d sum_{j <= n(1 - d)} C(n, j) (1 - d - j/n)^(n - j)
    (d + j/n)^(j - 1) in logs: above the two-sided P(D >= d) by P(D+ >= d,
    D- >= d), about 1e-13 at p = 1e-3, 1e-9 at 0.01 and 1e-5 at 0.1."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    lf = _log_factorials(n)
    with np.errstate(divide="ignore"):  # 1 - d - j/n may round to -1e-16: clamped, ln 0
        log_terms = (lf[n] - lf[j] - lf[n - j]
                     + (n - j) * np.log(np.maximum(1.0 - d - j / n, 0.0))
                     + (j - 1) * np.log(d + j / n))
    return min(1.0, 2.0 * d * float(np.exp(log_terms).sum()))


def ks_test(x, cdf) -> tuple[float, float]:
    """The Kolmogorov-Smirnov statistic D = max_i max(i/n - F(x_(i)),
    F(x_(i)) - (i - 1)/n) of the draws x against the continuous cdf F, as
    scipy.stats.kstest forms it bit for bit, and ks_pvalue(D, n)."""
    n, f = x.size, cdf(np.sort(x))
    d = float(max((np.arange(1.0, n + 1) / n - f).max(), (f - np.arange(0.0, n) / n).max()))
    return d, ks_pvalue(d, n)


def check_stationary_start(state, net, mob, group: int) -> CheckResult:
    """Hold a launched state to the closed-form stationary laws, at step 0.

    Consecutive groups of `group` interferers form one network.  Checks the
    dwelling fraction against the kinematic stay probability (4 SE), the
    per-network dwelling count against Binomial(group, p) (TV < 0.02), and
    by KS (p-value >= 1e-3 by ks_test's bound, within 1e-13 of the exact
    two-sided p there) per phase the altitude and distance against
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
    tv = _binomial_tv(np.bincount(counts, minlength=group + 1) / counts.size, p)

    a, b = mob.dwell_min, mob.dwell_max
    log_span = math.log(mob.speed_max / mob.speed_min)

    def residual_cdf(x):
        over = np.clip(x - a, 0.0, b - a)
        tail = over - over**2 / (2 * (b - a)) if b > a else 0.0
        return np.clip((np.minimum(x, a) + tail) / mob.mean_dwell_time, 0.0, 1.0)

    altitude = state.altitude()
    w = np.sqrt(altitude**2 + state.radius2())
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
    pvalues = {name: ks_test(x, cdf)[1] for name, (x, cdf) in laws.items() if x.size}
    ok = (abs(frac - p) <= frac_tol and tv < 0.02
          and min(pvalues.values()) >= _STATIONARY_KS_PMIN)
    return CheckResult(
        "stationary-start", ok,
        f"{n} interferers at step 0: dwelling {frac:.4f} vs {p:.4f} (4SE {frac_tol:.4f}), "
        f"phase-count TV {tv:.4f} (<0.02), KS p-values (>={_STATIONARY_KS_PMIN:g}) "
        + ", ".join(f"{k} {v:.3f}" for k, v in pvalues.items()),
    )


def check_steady_state_mobility(result, mob, k_se: float, floor: float) -> CheckResult:
    """A campaign's mobility against its stationary law: the dwelling
    fraction against the stay probability within max(k_se SE, floor), the
    SE taken from the spread of the campaign's independent chains, the
    per-snapshot dwelling count against Binomial(M, p) (TV < 0.02), and the
    mean interior hop length against mob's (5%; n/a with no interior hop,
    as with no dwell).  The detail also gives that SE over the binomial SE."""
    if result.n_interferers == 0:
        return CheckResult("steady-state-mobility", True, "skipped: no interferers simulated")
    p_stay, frac = result.stay_probability, result.dwelling_fraction()
    se = result.dwelling_fraction_se()
    frac_tol = float(np.fmax(k_se * se, floor))  # NaN with one chain: the floor alone
    ratio = _binomial_se_ratios(se, frac, result.n_snapshots * result.n_interferers)
    tv = _binomial_tv(result.dwelling_count_pmf(), p_stay)
    hop_gap = abs(result.mean_interior_hop_length() - mob.mean_hop_length)
    hop_tol = 0.05 * mob.mean_hop_length
    hop = (f"hop mean gap {hop_gap:.1e} (<{hop_tol:.3f})" if result.hop_count
           else "hop mean n/a (no interior hops)")
    hop_ok = not result.hop_count or hop_gap < hop_tol
    ok = abs(frac - p_stay) <= frac_tol and tv < 0.02 and hop_ok
    return CheckResult(
        "steady-state-mobility", ok,
        f"dwelling fraction {frac:.5f} vs {p_stay:.5f} (|diff|={abs(frac - p_stay):.5f} <= "
        f"max({k_se:g}SE, {floor:g})={frac_tol:.5f}, SE/binomial SE {ratio}); "
        f"phase-count TV {tv:.4f} (<0.02); {hop}",
    )


def min_campaign_snapshots(n_interferers: int, p_stay: float) -> int:
    """The fewest snapshots at which validate's campaign checks can tell
    noise from a fault.  Each check's tolerance is max(floor, k_se SE) with
    an SE from the spread of the campaign's chains, which rests on few
    chains in a small campaign (none with one chain) and can come out near
    0 by chance; the floor alone must then hold the noise.  It does once
    the floor is k_se binomial SEs: for the coverage, sqrt(p (1 - p) / N)
    with p (1 - p) <= 1/4 at the worst threshold; for
    the dwelling fraction, sqrt(p_stay (1 - p_stay) / (N M)) over the N M
    interferer-snapshots.  With no interferers both routes give coverage 1
    exactly and the mobility check is skipped, so any campaign will do."""
    if n_interferers == 0:
        return 1
    coverage = (_COVERAGE_TOLERANCE["k_se"] / _COVERAGE_TOLERANCE["floor"]) ** 2 / 4
    dwelling = ((_DWELLING_TOLERANCE["k_se"] / _DWELLING_TOLERANCE["floor"]) ** 2
                * p_stay * (1 - p_stay) / n_interferers)
    return math.ceil(max(coverage, dwelling))


def run_validation(sc: Scenario) -> list[CheckResult]:
    """Run every check at the reduced scale, sized from the scenario.

    A stay-probability override the simulation cannot honour, and a
    campaign too short for its checks (min_campaign_snapshots), are
    rejected before any check runs.  One campaign feeds both simulation
    checks.
    """
    net, fading, mob, sim = sc.network, sc.fading, sc.mobility, sc.sim
    need = min_campaign_snapshots(net.n_interferers, simulated_stay_probability(mob, net))
    if sim.n_snapshots < need:
        raise ConfigurationError(
            f"validate needs sim.n_snapshots >= {need} with {net.n_interferers} interferers "
            f"(the campaign checks' floors must hold their noise), got {sim.n_snapshots}")
    p_stay = derive_stay_probability(mob, net)
    psi = sc.psi_grid_linear()
    s0 = [transform_argument(p, net, fading) for p in psi]
    m, order = fading.interferer_m, max(fading.serving_m - 1, 2)
    # A log grid over shapes 1..3 and the scenario's, then the s0 of every
    # threshold at the scenario's shape: the factors `analyze` prints.
    closed_points = [(k, float(s)) for k in sorted({1, m, 3}) for s in np.logspace(-2, 6, 15)]
    campaign = run_campaign(
        net, fading, mob, min(sim.n_snapshots, 200_000), dt=sim.dt, seed=sim.seed,
        psi_grid=np.asarray(psi), stride=sim.stride, chains=sim.chains,
    )
    group = max(net.n_interferers, 1)  # 1e5 interferers, whole networks
    launch = simulator.initial_state(group * -(-100_000 // group), net, mob,
                                     np.random.default_rng(sim.seed))
    return [
        check_trivial_anchors(net, fading, p_stay),
        check_hyp2f1_consistency(*_HYP2F1_GRIDS),
        check_distribution_laws(net),
        check_closed_vs_quadrature(net, closed_points + [(m, s) for s in s0]),
        check_gl_vs_quad([(net, m, s0)], order),
        check_kernel_batch_vs_row([(net, m, order, s0)]),
        check_ladder_vs_row_edges([(net, m, order, s0)]),
        check_binomial_collapse(net, fading, 6, 4, (-1, 4), sim.seed),
        check_derivative_jet(net, p_stay, [(fading, max(s0[len(s0) // 2], 1.0))]),
        # the scenario's kinematics, then dwells shorter than a step and none
        # at all, which must give some interferers three or more events in one step
        check_event_tape(net, [
            ("scenario", mob, False),
            ("short-dwell", dataclasses.replace(mob, dwell_min=0.1 * sim.dt,
                                                dwell_max=0.6 * sim.dt), True),
            ("zero-dwell", dataclasses.replace(mob, dwell_min=0.0, dwell_max=0.0), True),
        ], 256, 200, sim.stride, sim.dt, sim.seed),
        check_stationary_start(launch, net, mob, group),
        # the scenario's network, then 8 interferers under altitude bands,
        # then none, each for two full buffers and half of a third
        check_buffered_snapshots([
            ("scenario", net, fading),
            ("8 with bands", dataclasses.replace(net, n_interferers=8),
             dataclasses.replace(fading, altitude_dependent=True)),
            ("none", dataclasses.replace(net, n_interferers=0), fading),
        ], mob, 256, 2.5, sim.stride, sim.dt, sim.seed, psi),
        check_analysis_vs_simulation([(net, fading, campaign)], **_COVERAGE_TOLERANCE),
        check_steady_state_mobility(campaign, mob, **_DWELLING_TOLERANCE),
    ]
