"""Discrete-observation Monte Carlo of the mixed mobility model with fading.

Each interferer alternates vertical waypoint legs (uniform waypoint in
[0, H], per-leg speed uniform in [v_min, v_max]) with dwells (duration
uniform in [dwell_min, dwell_max]) during which it makes one spatial hop per
time step, uniform in a disk of radius hop_range around its current
projection.  The vertical state is kept in event time: each interferer
stores where and when its current leg or dwell started and when its next
event (arrival or dwell expiry) falls, and a step touches only the
interferers with an event due, running each event at its exact time.  The
altitude, linear in time along a leg, is worked out only where the state is
observed (containment checks and snapshots).  So the state observed on the
dt grid is the true continuous-time state: phase fractions, altitude laws
and distance laws then match their steady-state forms without
discretization bias.

Interferers start in the stationary law of this process, drawn exactly
(Palm calculus: Le Boudec & Vojnovic, INFOCOM 2005; Navidi & Camp, IEEE TMC
2004), so a campaign takes snapshots from its first step, with no warm-up.

A spatial hop that would leave the region is rejected and the interferer
stays put.  That is a symmetric-proposal Metropolis move for the uniform
target, so the horizontal law stays exactly uniform on the disk, as the
analytical distance laws assume.

A campaign steps all its chains together, in place, as one state array
with one contiguous block of interferers per chain.  It draws from three
generators spawned from its seed: one for the mobility, one for the
serving gains and one for the interferer gains.  The launch draws one
(n, 9) array of uniforms.  The state then advances one snapshot stride of
steps per call.  The vertical events of the whole stride run first, pass
after pass; each pass draws one (k, 3) array, whose columns are the dwell,
waypoint and speed of the events of the k interferers that have one due.
Each event is put down at the first step end at or after its time, found
without a search: a rounded estimate of the step from the event time, then
one comparison with that step's end (`_event_rows`).  An interferer hops
once at each step end it dwells at, so the stride needs only each one's
hop count, with no per-step masks: each pass adds, in place, the step ends
between each interferer's two events into one integer count per
interferer.  Then one (hops, 2) array of hop radii and angles is drawn,
one row per hop the stride makes.  Interferers never interact, so each
one's hops run in its own order, rank by rank (`_hop`): the interferers
are ranked by one stable sort of their counts, and rank r moves those
with more than r hops, seven numpy calls a rank.  An offset's
unit vector comes from the tangent of the half angle (`_unit`), which
numpy vectorizes, not from a cosine and a sine.

A snapshot is taken every `stride` steps.  Each stride only writes the
observed squared horizontal radii, altitudes and phases into one row of a
buffer; the rest runs once per buffer of rows (a flush): one containment
check (at launch too, never on every step), one draw of serving gains and
one of interferer gains, one SIR, one tally of the per-threshold coverage
counts per chain, one dwelling count per chain, and one fixed-bin
histogram per phase of the distances and of the altitudes.  The chains are
independent copies of the network, so the standard errors come from the
spread of the per-chain estimates (independent replications).  No sample
is kept: one scratch buffer is reused, and it holds up to `_BUFFER_ROWS`
snapshots and `_BUFFER_VALUES` values per array, so its size does not
grow with the campaign.  The hops' stride-sized arrays come from one
workspace per campaign (`HopWorkspace`), so a stride allocates none that
grows with its hops.  The gains are drawn snapshot by snapshot from their
own generators, so no result depends on the buffer length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    FadingConfig,
    MobilityConfig,
    NetworkConfig,
    kinematic_stay_probability,
    resolve_fading_bands,
    simulated_stay_probability,
)
from .distributions import smoothstep_inverse
from .errors import ConfigurationError, ConsistencyError

__all__ = [
    "UavState",
    "CampaignResult",
    "initial_state",
    "advance",
    "HopWorkspace",
    "run_campaign",
    "default_psi_grid",
]

# columns of the uniforms an interferer draws for its events in one pass
_DWELL, _WAYPOINT, _SPEED = range(3)
# the bins of a campaign's distance and altitude histograms, and the most
# snapshots and values a snapshot buffer's arrays hold
_N_BINS = 40
_BUFFER_ROWS = 64
_BUFFER_VALUES = 2**14


@dataclass
class UavState:
    """Kinematic state of a batch of interferers (arrays share length n).

    The vertical state is kept in event time: it changes only at arrivals
    and dwell expiries, and `altitude()` and `dwell_remaining()` work out
    the observed values at the clock `t`.

    xy:       horizontal projection, shape (n, 2), C-contiguous, norm <= R
    h0:       altitude at the start t0 of the current leg or dwell
    t0:       start time of the current leg or dwell
    tev:      time of the next event (arrival or dwell expiry)
    waypoint: target altitude of the current leg; equals h0 while dwelling
    speed:    speed of the current leg (meaningful while moving)
    moving:   True while on a vertical leg
    t:        the clock, seconds since launch
    """

    xy: np.ndarray
    h0: np.ndarray
    t0: np.ndarray
    tev: np.ndarray
    waypoint: np.ndarray
    speed: np.ndarray
    moving: np.ndarray
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.h0.size

    def altitude(self, out: np.ndarray | None = None) -> np.ndarray:
        """Altitude at the clock, into `out` if given: h0 plus the signed
        distance speed (t - t0) toward the waypoint; a dwell has waypoint ==
        h0, so it stays at h0."""
        h = np.subtract(self.t, self.t0, out=out)
        h *= self.speed
        heading = self.waypoint - self.h0
        h *= np.sign(heading, out=heading)
        h += self.h0
        return h

    def dwell_remaining(self) -> np.ndarray:
        """Seconds of dwell left at the clock (0 while moving)."""
        return np.where(self.moving, 0.0, self.tev - self.t)

    def radius2(self, out: np.ndarray | None = None) -> np.ndarray:
        """Squared horizontal radius of each interferer, x^2 + y^2, into
        `out` if given (a quarter of the time einsum takes)."""
        squares = self.xy * self.xy
        return np.add(squares[:, 0], squares[:, 1], out=out)


def _check_contained(r2: np.ndarray, altitude: np.ndarray, net: NetworkConfig) -> None:
    """Hard geometric invariants of observed squared horizontal radii and
    altitudes, arrays of any shape: inside the disk, altitude in [0, H]."""
    if r2.size == 0:
        return
    if r2.max() > net.radius**2 * (1 + 1e-12):
        raise ConsistencyError("interferer escaped the disk region")
    if altitude.min() < -1e-9 or altitude.max() > net.height * (1 + 1e-12):
        raise ConsistencyError("interferer altitude left [0, H]")


def initial_state(n: int, net: NetworkConfig, mob: MobilityConfig, rng) -> UavState:
    """Draw n interferers from the stationary law of the mobility process.

    `rng`, a generator, fills one (n, 9) array of uniforms.  The state is
    taken at t = 0 with every leg or dwell starting then (t0 = 0).  Under
    the stationary law, which is the law at every later observation too:

    - the phase is dwelling with the kinematic probability
      p = E[D] / (E[D] + E[L/V]) (never the override);
    - a dweller sits at an altitude uniform on [0, H] with residual dwell
      U D*, where D* = sqrt(d_min^2 + U'(d_max^2 - d_min^2)) is the
      length-biased dwell;
    - a mover sits on a leg chosen in proportion to its duration |b - a| / v,
      at a uniform point of it: its altitude is H smoothstep_inverse(U) (the
      parabolic law), it heads up or down on a fair coin to a waypoint
      uniform on the far side, [h, H] or [0, h], and its speed
      v_min (v_max / v_min)^U has density proportional to 1/v;
    - the horizontal projection is uniform on the disk, independent of the
      vertical state, which the reject-and-stay hop keeps invariant.
    """
    u = rng.random((n, 9))
    dwell_u, height_u, residual_u, biased_u, up_u, far_u, speed_u, radius_u, angle_u = u.T
    dwelling = dwell_u < kinematic_stay_probability(mob, net)
    H = net.height
    altitude = np.where(dwelling, H * height_u, H * smoothstep_inverse(height_u))
    lo2, hi2 = mob.dwell_min**2, mob.dwell_max**2
    residual = residual_u * np.sqrt(lo2 + biased_u * (hi2 - lo2))
    waypoint = np.where(up_u < 0.5, altitude + (H - altitude) * far_u, altitude * far_u)
    speed = mob.speed_min * (mob.speed_max / mob.speed_min) ** speed_u
    xy = _unit(angle_u) * (net.radius * np.sqrt(radius_u))
    return UavState(
        xy=xy.view(np.float64).reshape(n, 2),
        h0=altitude,
        t0=np.zeros(n),
        tev=np.where(dwelling, residual, np.abs(waypoint - altitude) / speed),
        waypoint=np.where(dwelling, altitude, waypoint),
        speed=speed,
        moving=~dwelling,
    )


def _event_rows(t0: float, ends: np.ndarray):
    """The step of each event time, without a search: returns place(x),
    the index of the first entry of [-inf, ends] at or above each time x
    (x >= t0 = the clock), so R, the first step j with x <= ends[j - 1],
    or s + 1 past ends[-1], with s = ends.size.  `ends` is t0 plus dt added
    once per step.

    place(x) first estimates r = min(floor((x - o) / d), s + 1) in floats,
    with d = (ends[-1] - t0) / s and o = t0 - d / 2, then adds one where
    upper[r] < x, with upper = [-inf, ends, +inf].  That gives R exactly.
    Proof: r is non-decreasing in x (each rounded operation is), r(t0) = 0
    and r(ends[j - 1]) = j for every step j (below).  So for any x with
    ends[R - 2] < x <= ends[R - 1] (t0 <= x <= ends[0] when R = 1), r is
    R - 1 or R; past ends[-1] it is s or s + 1.  If r = R - 1,
    upper[r] < x and one is added; if r = R, upper[r] >= x and none is.
    Why r(ends[j - 1]) = j: with u = ulp(ends[-1]), each addition of dt
    rounds by at most u / 2, so end j lies within j u of t0 + j d, and
    rounding d, o, the subtraction and the division adds at most 2u +
    (2j + 1) 2^-53 d.  So (ends[j - 1] - o) / d lies within (s + 2) u / d
    + (2s + 1) 2^-53 of j + 1/2: at most 3/8 and a few ulps whenever
    4 (s + 1) u < d, so under 1/2.  That is checked here, and a
    ConsistencyError says that the clock has grown too large for its step
    (with dt = 1, past about 10^14 s).
    """
    t_end, steps = float(ends[-1]), ends.size
    step = (t_end - t0) / steps
    if not 4 * (steps + 1) * math.ulp(t_end) < step:
        raise ConsistencyError(f"steps of {step} s cannot be told apart at a clock of {t_end} s")
    upper = np.empty(steps + 2)
    upper[0], upper[1:-1], upper[-1] = -np.inf, ends, np.inf
    origin = t0 - step / 2  # half a step back, so that the cast to int rounds to nearest

    def place(times: np.ndarray) -> np.ndarray:
        rows = times - origin
        rows /= step
        rows = np.minimum(rows, steps + 1, out=rows).astype(np.intp)
        rows += upper.take(rows) < times
        return rows

    return place


def _advance_vertical(state: UavState, ends: np.ndarray, draw, net, mob) -> np.ndarray:
    """Run every arrival and dwell expiry due by ends[-1], in place, and set the clock there.

    `ends` holds the increasing end times of the steps to run, the clock
    plus dt added once per step.  Each pass takes the interferers whose next
    event is due and runs up to two events of each: one dwell and one leg,
    in the order its phase sets.  An arrival dwells at the waypoint, then
    the expiry starts a leg from there; an expiry starts a leg from the
    dwell altitude, then the arrival dwells at the new waypoint.  The second
    event runs if it falls by ends[-1], and the pass repeats for those whose
    next event is due too.  `draw(idx)` gives the uniforms of each pass, at
    least three columns (dwell, waypoint, speed) aligned with idx.

    Returns each interferer's hop count: how many of the step ends it
    dwells at, in the smallest unsigned dtype that holds ends.size.  An
    event changes its interferer's phase at the first step end at or after
    its time (`_event_rows`), so an event in row r holds the new phase at
    the last steps + 1 - r step ends (none if it falls after ends[-1]).
    An interferer's events alternate its phase, and only one that ran two
    events in a pass reaches the next pass, so each pass holds it in the
    other phase than the one it started in from the first event's row to
    the second's: the second's row minus the first's step ends (steps + 1
    stands for a second event after ends[-1]).  Each pass adds that into
    one integer count per interferer, in place, and the counts end as the
    step ends spent in the other phase: the hop count of one that started
    moving, steps minus that for one that started dwelling.
    """
    t_end = ends[-1]
    n, steps = state.n, ends.size
    place = _event_rows(state.t, ends)
    dwelling = ~state.moving
    tev = state.tev
    flips = np.zeros(n, dtype=np.intp)
    idx = (tev <= t_end).nonzero()[0]
    while idx.size:
        k = idx.size
        u = draw(idx)
        arriving = state.moving[idx]
        times = np.empty((2, k))  # the first events' times, then the second's
        start = tev.take(idx, out=times[0])
        h = state.waypoint[idx]  # altitude at the first event: a dwell has waypoint == h0
        waypoint = net.height * u[:, _WAYPOINT]
        speed = mob.speed_min + (mob.speed_max - mob.speed_min) * u[:, _SPEED]
        dwell = mob.dwell_min + (mob.dwell_max - mob.dwell_min) * u[:, _DWELL]
        leg = np.abs(waypoint - h) / speed
        mid = np.add(start, np.where(arriving, dwell, leg), out=times[1])
        two = mid <= t_end
        end = np.where(two, mid + np.where(arriving, leg, dwell), mid)
        moving = arriving == two  # an arrival then an expiry ends on a leg
        waypoint = np.where(arriving > two, h, waypoint)  # an arrival alone dwells at h
        state.h0[idx] = np.where(moving, h, waypoint)
        state.t0[idx] = np.where(two, mid, start)
        tev[idx] = end
        state.waypoint[idx] = waypoint
        state.speed[idx] = speed
        state.moving[idx] = moving
        rows = place(times.reshape(-1))
        flips[idx] += rows[k:] - rows[:k]  # idx holds each interferer once
        idx = idx.compress(end <= t_end)
    state.t = t_end
    counts = np.where(dwelling, steps - flips, flips)
    return counts.astype(np.min_scalar_type(steps))


def _unit(u: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """exp(2 pi i u) from the tangent of the half angle, t = tan(pi u), as
    ((1 - t^2) + 2it) / (1 + t^2).  numpy's tan runs vectorized, where cos
    and sin run one element at a time, and each part is within 2.2e-16 of
    cos and sin of 2 pi u, which rounds as twice pi u does.  The two parts
    are divided as reals; a complex division would multiply by a rounded
    reciprocal.  Writes into `out`, a complex array shaped like u, with
    `scratch`, three float arrays shaped like u for t, t^2 and 1 + t^2, when
    given (`HopWorkspace`); makes them otherwise."""
    if out is None:
        out, scratch = np.empty(u.shape, dtype=np.complex128), np.empty((3,) + u.shape)
    t, t2, d = scratch
    np.tan(np.multiply(u, math.pi, out=t), out=t)
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=d)
    np.divide(np.subtract(1.0, t2, out=t2), d, out=out.real)
    np.divide(np.multiply(t, 2.0, out=t), d, out=out.imag)
    return out


class HopWorkspace:
    """The stride-sized arrays of the hops (`advance`, `_hop`), made once
    and reused stride after stride: the (hops, 2) proposal uniforms, the hop
    lengths, two arrays for `_unit`'s temporaries (the first then holds the
    ranks' radii), the complex offsets, and the accept and interior masks.
    It grows to the most hops one stride has asked for, so a campaign that
    reuses one allocates none of these per stride."""

    def __init__(self) -> None:
        self.rows = -1

    def take(self, hops: int):
        """Views of the first `hops` rows: (uniforms, length, tangent,
        square, offset, keep, interior)."""
        if hops > self.rows:
            self.rows = hops
            self.uniforms = np.empty((hops, 2))
            self.reals = np.empty((3, hops))
            self.offsets = np.empty(hops, dtype=np.complex128)
            self.masks = np.empty((2, hops), dtype=bool)
        return (self.uniforms[:hops], *self.reals[:, :hops], self.offsets[:hops],
                *self.masks[:, :hops])


def _hop(state: UavState, counts: np.ndarray, views, net: NetworkConfig,
         mob: MobilityConfig) -> np.ndarray:
    """A stride's spatial hops, in place: counts[i] hops of interferer i in turn.

    `counts` holds each interferer's hop count (`_advance_vertical`, an
    unsigned dtype).  `views` are a `HopWorkspace`'s views of the stride's
    hops, their first, `u`, one proposal row, hop radius and hop angle
    uniforms, per hop, rank by rank: the hops of rank r, one per
    interferer with more than r hops, in the order of the counts,
    descending, ties by interferer index.  A proposal that would leave the
    disk is rejected and the interferer stays put.  Interferers never
    interact, so each one's hops can run apart from the others' steps: one
    stable sort ranks the interferers (of an unsigned dtype, which numpy
    sorts by radix), the movers' positions are gathered into one buffer,
    whose first c_r entries hop at rank r, seven numpy calls a rank, and
    they are scattered back.  Each rank also marks the hops that start at
    least hop_range inside the disk edge (interior hops).  The lengths,
    offsets and masks live in the other views.
    Returns the lengths of the accepted interior hops, rank by rank.
    """
    u, length, tangent, square, offset, keep, interior = views
    z = state.xy.view(np.complex128)[:, 0]  # x + iy, a view of xy
    interior_limit = max(net.radius - mob.hop_range, 0.0)
    order = np.argsort(~counts, kind="stable")  # ~ reverses an unsigned dtype's order
    by_count = np.bincount(counts, minlength=1)  # the interferers with each hop count
    ranks = counts.size - np.cumsum(by_count)[:-1]  # the movers at each rank
    movers = order[:counts.size - by_count[0]]
    _unit(u[:, 1], offset, (tangent, square, length))  # length holds 1 + t^2 until here
    np.sqrt(u[:, 0], out=length)
    length *= mob.hop_range
    offset *= length
    buffer = z.take(movers)
    a = 0
    for c in ranks.tolist():
        b = a + c
        start = buffer[:c]
        radius = tangent[a:b]  # free once _unit has returned
        np.less_equal(np.abs(start, out=radius), interior_limit, out=interior[a:b])
        target = offset[a:b]
        target += start
        kept = np.less_equal(np.abs(target, out=radius), net.radius, out=keep[a:b])
        np.copyto(start, target, where=kept)  # a rejected hop stays put
        a = b
    z[movers] = buffer
    keep &= interior
    return length.compress(keep)


def advance(state: UavState, steps: int, dt: float, rng, net: NetworkConfig,
            mob: MobilityConfig, work: HopWorkspace | None = None) -> tuple[float, int]:
    """Advance every interferer by `steps` steps of dt, in place.

    The step end times are the clock plus dt, added once per step.  The
    vertical kinematics of all the steps are resolved through phase changes
    exactly, pass after pass, each pass drawing from the generator `rng` one
    (k, 3) array of dwell, waypoint and speed uniforms for the k interferers
    with an event due, which gives each interferer's hop count: the step
    ends it dwells at.  Then one (hops, 2) array of hop radius and angle
    uniforms is drawn, one row per hop, and each interferer makes its hops
    in turn (`_hop`).  The hops' arrays come from `work`, which a campaign
    reuses from stride to stride; without one, this call makes its own.
    Returns the summed length and the count of the accepted interior hops
    (see `CampaignResult.mean_interior_hop_length`).  Containment is not
    checked here; callers check it where they observe the state.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    ends = np.empty(steps)
    t = state.t
    for j in range(steps):
        t += dt
        ends[j] = t
    counts = _advance_vertical(state, ends, lambda idx: rng.random((idx.size, 3)), net, mob)
    views = (work or HopWorkspace()).take(int(counts.sum()))
    rng.random(out=views[0])
    lengths = _hop(state, counts, views, net, mob)
    return float(lengths.sum()), lengths.size


def _interferer_shapes(fading: FadingConfig, net: NetworkConfig):
    """The map from altitudes to the Nakagami shape of each interferer there:
    one float for all of them when fading does not depend on altitude, else
    an array, from the band table resolved once here."""
    if not fading.altitude_dependent:
        m = float(fading.interferer_m)
        return lambda altitude: m
    bands = resolve_fading_bands(fading, net)
    # the upper bands' lower edges, as a column, and a dtype that holds their count
    edges = np.array([low for low, _, _ in bands[1:]], dtype=float)[:, None]
    count = np.min_scalar_type(len(bands))
    shapes = np.array([float(shape) for _, _, shape in bands])
    # each altitude takes the band with the highest lower edge at or below
    # it, counted without a search: band gaps within the tiling tolerance go
    # to the band below them, and the top edge H closes the last band
    return lambda altitude: shapes.take((edges <= altitude).sum(axis=0, dtype=count))


def _fade(w: np.ndarray, altitude: np.ndarray, chains: int, net: NetworkConfig,
          serving_m: int, shapes, serving, interfering):
    """Fading draws and SIR for a buffer of snapshots, one per row of `w`
    and `altitude`, the interferers' distances and altitudes, of shape
    (k, n), each row holding `chains` equal-sized networks back to back.
    `shapes` maps altitudes to Nakagami shapes (`_interferer_shapes`).

    The generator `serving` draws the serving gains and `interfering` the
    interferer gains, both row by row, so k rows draw what k one-row calls
    would.  Returns (serving gains, interferer gains, aggregate interference
    per chain, SIR per chain), each with one row per snapshot; the SIR is
    infinite in a chain with zero interference.
    """
    k, n = w.shape
    alpha = net.path_loss_exponent
    # gamma(m, 1/m) is 1/m times standard_gamma(m), bit for bit; the scaled
    # standard draw skips gamma's broadcast of shape and scale
    g0 = serving.standard_gamma(serving_m, (k, chains)) * (1.0 / serving_m)
    # A scalar shape draws the same numbers as an array of it, faster.
    m_i = shapes(altitude.ravel())
    gains = (interfering.standard_gamma(m_i, k * n) * (1.0 / m_i)).reshape(k, n)
    power = w**-alpha
    power *= gains
    interference = power.reshape(k, chains, n // chains).sum(axis=2)
    with np.errstate(divide="ignore"):
        sir = g0 * net.serving_altitude**-alpha / interference
    return g0, gains, interference, sir


def default_psi_grid() -> np.ndarray:
    """Linear SIR thresholds for -20..30 dB in 5 dB steps."""
    return np.array([10.0 ** (d / 10.0) for d in range(-20, 31, 5)])


def _chain_se(per_chain: np.ndarray) -> np.ndarray:
    """Standard error of the mean of independent estimates, one row of
    `per_chain` per chain: their sample standard deviation (ddof 1) over
    the square root of the chains; NaN with fewer than 2 chains."""
    chains = per_chain.shape[0]
    if chains < 2:
        return np.full(per_chain.shape[1:], np.nan)
    return per_chain.std(axis=0, ddof=1) / math.sqrt(chains)


@dataclass
class CampaignResult:
    """Merged tallies and diagnostics of one simulation campaign."""

    psi_grid: np.ndarray
    chain_success: np.ndarray       # (chains, n_psi) covered-snapshot counts
    chain_dwelling: np.ndarray      # (chains,) dwelling interferer-snapshots
    dwelling_count_hist: np.ndarray  # (M+1,) histogram of dwelling counts
    # (variable, phase, bin) counts of the observed distances, then altitudes,
    # of the static, then moving, interferers, over every snapshot; and each
    # variable's _N_BINS + 1 bin edges: [0, sqrt(R^2 + H^2)] and [0, H]
    histograms: np.ndarray
    histogram_edges: np.ndarray
    hop_length_sum: float
    hop_count: int
    n_snapshots: int                # chains times the snapshots of each chain
    stay_probability: float
    meta: dict = field(default_factory=dict)

    @property
    def n_interferers(self) -> int:
        return self.dwelling_count_hist.size - 1

    @property
    def chain_snapshots(self) -> int:
        """Snapshots of each chain, the same for every chain."""
        return self.n_snapshots // self.chain_dwelling.size

    def coverage(self) -> np.ndarray:
        """Empirical coverage probability per threshold."""
        return self.chain_success.sum(axis=0) / self.n_snapshots

    def coverage_se(self) -> np.ndarray:
        """Standard error of the coverage estimates, from the spread of the
        chains' own estimates (`_chain_se`)."""
        return _chain_se(self.chain_success / self.chain_snapshots)

    def dwelling_fraction(self) -> float:
        """Observed fraction of interferer-snapshots spent dwelling."""
        total = self.n_snapshots * self.n_interferers
        return float(self.chain_dwelling.sum() / total) if total else math.nan

    def dwelling_fraction_se(self) -> float:
        """Standard error of the dwelling fraction, from the spread of the
        chains' own fractions (`_chain_se`); NaN with no interferers."""
        n = self.n_interferers
        return float(_chain_se(self.chain_dwelling / (self.chain_snapshots * n))) if n else math.nan

    def dwelling_count_pmf(self) -> np.ndarray:
        """Empirical law of the number of dwelling interferers per snapshot."""
        total = self.dwelling_count_hist.sum()
        return self.dwelling_count_hist / total if total else self.dwelling_count_hist

    def mean_interior_hop_length(self) -> float:
        """Mean accepted hop length for hops started away from the edge."""
        return self.hop_length_sum / self.hop_count if self.hop_count else math.nan


def _buffer_rows(n: int, chains: int) -> int:
    """Snapshots per buffer: up to `_BUFFER_ROWS`, and up to `_BUFFER_VALUES`
    values of the widest per-snapshot array, the n interferers' or, with
    none, the chains' SIRs; at least one."""
    return max(1, min(_BUFFER_ROWS, _BUFFER_VALUES // max(n, chains)))


def _phase_bins(x: np.ndarray, top: float, offset: np.ndarray) -> np.ndarray:
    """(phase, bin) counts of x, static then moving, in `_N_BINS` equal bins
    of [0, top], the last bin closed: one index per value,
    min(floor(x _N_BINS / top), _N_BINS - 1), plus `offset` (shaped like x,
    uint8: 0 where static, _N_BINS where moving), then one bincount.  A
    value a rounding error outside [0, top] goes to the end bin."""
    index = np.multiply(x, _N_BINS / top)
    np.minimum(index, _N_BINS - 1, out=index)
    index = index.astype(np.uint8)  # truncation: the floor, and 0 just below 0
    index += offset
    return np.bincount(index.ravel(), minlength=2 * _N_BINS).reshape(2, _N_BINS)


def run_campaign(
    net: NetworkConfig,
    fading: FadingConfig,
    mob: MobilityConfig,
    n_snapshots: int,
    dt: float = 1.0,
    seed: int = 0,
    *,
    psi_grid=None,
    stride: int = 10,
    chains: int,
) -> CampaignResult:
    """Run a full snapshot campaign and return merged tallies.

    `chains` statistically independent copies of the network are stepped
    together as one array, one contiguous block of interferers per chain.
    Three generators spawned from `seed` drive them: the first the
    mobility, the second the serving gains, the third the interferer gains.
    The network starts in its stationary law, so snapshots begin with the
    first stride.  Each snapshot takes one in-place `advance` call of
    `stride` steps, which draws its event uniforms pass by pass and then
    one (hops, 2) array for the hops into the campaign's `HopWorkspace`,
    and writes the observed squared radii, altitudes and phases into one
    row of the campaign's one scratch buffer (`_buffer_rows`).  Each full
    buffer, and the last, is flushed at once: containment, fading draws,
    SIR, per-chain coverage and dwelling tallies, the dwelling histogram,
    and the per-phase distance and altitude histograms (`_phase_bins`), so
    no sample is kept.  The chains are independent, so the standard errors
    come from the spread of the per-chain estimates; they are NaN with one
    chain.  Snapshot counts round up to a multiple of chains.
    """
    if n_snapshots < 1:
        raise ConfigurationError("n_snapshots must be >= 1")
    if stride < 1 or chains < 1:
        raise ConfigurationError("stride and chains must be >= 1")
    p_stay = simulated_stay_probability(mob, net)
    psi_grid = default_psi_grid() if psi_grid is None else np.asarray(psi_grid, dtype=float)
    if psi_grid.size == 0:
        raise ConfigurationError("psi_grid must be non-empty")

    per_chain = math.ceil(n_snapshots / chains)
    M = net.n_interferers
    n = chains * M
    # the seed's children 0, 1 and 2: mobility, serving gains, interferer gains
    moves, serving, interfering = map(np.random.default_rng,
                                      np.random.SeedSequence(seed).spawn(3))
    state = initial_state(n, net, mob, moves)
    _check_contained(state.radius2(), state.altitude(), net)

    chain_success = np.zeros((chains, psi_grid.size), dtype=np.intp)
    chain_dwelling = np.zeros(chains, dtype=np.intp)
    dwelling_hist = np.zeros(M + 1, dtype=np.intp)
    tops = math.hypot(net.radius, net.height), net.height
    histograms = np.zeros((2, 2, _N_BINS), dtype=np.intp)
    shapes = _interferer_shapes(fading, net)

    def flush(r2, altitude, moving):
        """Check, fade, tally and bin one buffer; the squared radii become
        distances in place.  Its temporaries go when it returns, before the
        next buffer fills."""
        k = r2.shape[0]
        _check_contained(r2, altitude, net)
        w = np.sqrt(altitude**2 + r2, out=r2)
        sir = _fade(w, altitude, chains, net, fading.serving_m, shapes, serving, interfering)[3]
        n_dwell = M - moving.reshape(k, chains, M).sum(axis=2)
        chain_success[:] += (sir[:, :, None] > psi_grid).sum(axis=0)
        chain_dwelling[:] += n_dwell.sum(axis=0)
        dwelling_hist[:] += np.bincount(n_dwell.ravel(), minlength=M + 1)
        offset = moving.view(np.uint8) * np.uint8(_N_BINS)
        for hist, x, top in zip(histograms, (w, altitude), tops):
            hist += _phase_bins(x, top, offset)

    rows = _buffer_rows(n, chains)
    # squared radii, then distances; altitudes; moving flags
    buffer = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    work = HopWorkspace()
    hop_sum = 0.0
    hop_count = 0
    for start in range(0, per_chain, rows):
        r2, altitude, moving = (a[:min(rows, per_chain - start)] for a in buffer)
        for row in range(r2.shape[0]):
            length, count = advance(state, stride, dt, moves, net, mob, work)
            hop_sum += length
            hop_count += count
            state.radius2(out=r2[row])
            state.altitude(out=altitude[row])
            np.copyto(moving[row], state.moving)
        flush(r2, altitude, moving)

    return CampaignResult(
        psi_grid=psi_grid,
        chain_success=chain_success,
        chain_dwelling=chain_dwelling,
        dwelling_count_hist=dwelling_hist,
        histograms=histograms,
        histogram_edges=np.array([np.linspace(0.0, top, _N_BINS + 1) for top in tops]),
        hop_length_sum=hop_sum,
        hop_count=hop_count,
        n_snapshots=chains * per_chain,
        stay_probability=p_stay,
        meta={
            "seed": seed,
            "dt": dt,
            "stride": stride,
            "chains": chains,
            "requested_snapshots": n_snapshots,
            "altitude_dependent": fading.altitude_dependent,
        },
    )
