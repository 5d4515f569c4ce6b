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

A campaign steps all its replications together, in place, as one state
array with one contiguous block of interferers per replication.  Each
replication keeps its own generator, and every draw is split by block in
the order a one-replication run makes it, so each block reproduces its
replication run alone bit for bit.  The launch draws one (block, 9) array of
uniforms per block, and at the top of every step each block draws one
(block, 5) array, whose columns are an interferer's dwell, waypoint, speed,
hop radius and hop angle; its first dwell, first leg and its hop in the
step come from there, so a replication spends a fixed number of draws per
step.  Only a third event of one interferer in one step (possible when
dwell_min < dt) draws more, per block and for just the interferers that
need them.  Containment is checked at launch and at every snapshot, not on
every step.

Snapshots taken every `stride` steps record distances, phases and fading
draws; per-threshold coverage tallies are kept in contiguous batches for
batch-means standard errors.
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
    "SnapshotSample",
    "CampaignResult",
    "initial_state",
    "step",
    "sample_snapshot",
    "run_campaign",
    "default_psi_grid",
]

# columns of the uniforms each interferer draws at the top of every step
_DWELL, _WAYPOINT, _SPEED, _HOP_RADIUS, _HOP_ANGLE = range(5)


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

    def altitude(self) -> np.ndarray:
        """Altitude at the clock; a dwell has waypoint == h0, so it stays at h0."""
        return self.h0 + np.sign(self.waypoint - self.h0) * self.speed * (self.t - self.t0)

    def dwell_remaining(self) -> np.ndarray:
        """Seconds of dwell left at the clock (0 while moving)."""
        return np.where(self.moving, 0.0, self.tev - self.t)

    def copy(self) -> "UavState":
        return UavState(
            self.xy.copy(),
            self.h0.copy(),
            self.t0.copy(),
            self.tev.copy(),
            self.waypoint.copy(),
            self.speed.copy(),
            self.moving.copy(),
            self.t,
        )

    def check_containment(self, net: NetworkConfig) -> None:
        """Hard geometric invariants: inside the disk, altitude in range."""
        if self.n == 0:
            return
        r2 = np.einsum("ij,ij->i", self.xy, self.xy)
        if r2.max() > net.radius**2 * (1 + 1e-12):
            raise ConsistencyError("interferer escaped the disk region")
        altitude = self.altitude()
        if altitude.min() < -1e-9 or altitude.max() > net.height * (1 + 1e-12):
            raise ConsistencyError("interferer altitude left [0, H]")


class _Streams:
    """One random generator per contiguous, equal-sized block of interferers.

    Every draw is split by block: block r takes its share from generator r,
    in the order a one-block run would draw it, so each block follows its
    own stream whatever else is stepped beside it.  `blocks` holds each
    generator with its range of the n interferers; `spans` splits any other
    per-block count, such as a snapshot's chains, the same way.
    """

    def __init__(self, rngs, n: int):
        self.rngs = (rngs,) if isinstance(rngs, np.random.Generator) else tuple(rngs)
        self.n = n
        self.blocks = self.spans(n)

    def spans(self, n: int) -> list[tuple[np.random.Generator, int, int]]:
        """Each generator with the range [lo, hi) of its block of n items."""
        blocks = len(self.rngs)
        if not blocks or n % blocks:
            raise ConfigurationError(f"{n} items do not split into {blocks} equal blocks")
        size = n // blocks
        return [(g, r * size, (r + 1) * size) for r, g in enumerate(self.rngs)]

    def uniforms(self, cols: int) -> np.ndarray:
        """An (n, cols) array of uniforms; each block fills its rows from its own generator."""
        u = np.empty((self.n, cols))
        for g, lo, hi in self.blocks:
            g.random(out=u[lo:hi])
        return u

    def draw(self, idx: np.ndarray, cols: int) -> np.ndarray:
        """(idx.size, cols) uniforms for the sorted, non-empty interferer indices idx.

        Each block draws the rows of its own indices in idx, and a block
        with none draws nothing.
        """
        ends = idx.searchsorted([hi for _, _, hi in self.blocks]).tolist()
        return np.concatenate([g.random((b - a, cols)) for (g, _, _), a, b
                               in zip(self.blocks, [0] + ends, ends) if b > a])


def initial_state(n: int, net: NetworkConfig, mob: MobilityConfig, rng) -> UavState:
    """Draw n interferers from the stationary law of the mobility process.

    `rng` is a generator, or a sequence of generators, one per equal block
    of the n interferers; each block fills one (block, 9) array of uniforms
    from its own.  The state is taken at t = 0 with every leg or dwell
    starting then (t0 = 0).  Under the stationary law, which is the law at
    every later observation too:

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
    u = _Streams(rng, n).uniforms(9)
    dwell_u, height_u, residual_u, biased_u, up_u, far_u, speed_u, radius_u, angle_u = u.T
    dwelling = dwell_u < kinematic_stay_probability(mob, net)
    H = net.height
    altitude = np.where(dwelling, H * height_u, H * smoothstep_inverse(height_u))
    lo2, hi2 = mob.dwell_min**2, mob.dwell_max**2
    residual = residual_u * np.sqrt(lo2 + biased_u * (hi2 - lo2))
    waypoint = np.where(up_u < 0.5, altitude + (H - altitude) * far_u, altitude * far_u)
    speed = mob.speed_min * (mob.speed_max / mob.speed_min) ** speed_u
    radius, theta = net.radius * np.sqrt(radius_u), 2.0 * math.pi * angle_u
    return UavState(
        xy=np.column_stack((radius * np.cos(theta), radius * np.sin(theta))),
        h0=altitude,
        t0=np.zeros(n),
        tev=np.where(dwelling, residual, np.abs(waypoint - altitude) / speed),
        waypoint=np.where(dwelling, altitude, waypoint),
        speed=speed,
        moving=~dwelling,
    )


def _advance_vertical(state: UavState, t_end: float, draw, net, mob) -> None:
    """Run every arrival and dwell expiry due by t_end, in place, and set the clock.

    Each pass takes the interferers whose next event is due and runs up to
    two events of each: one dwell and one leg, in the order its phase sets.
    An arrival dwells at the waypoint, then the expiry starts a leg from
    there; an expiry starts a leg from the dwell altitude, then the arrival
    dwells at the new waypoint.  The second event runs if it falls by t_end,
    and the pass repeats for those whose next event is due too.
    `draw(idx, p)` gives the uniforms of the p-th pass, at least three
    columns (dwell, waypoint, speed) aligned with idx.
    """
    tev = state.tev
    idx = (tev <= t_end).nonzero()[0]
    p = 0
    while idx.size:
        u = draw(idx, p)
        arriving = state.moving[idx]
        start = tev[idx]
        h = state.waypoint[idx]  # altitude at the first event: a dwell has waypoint == h0
        waypoint = net.height * u[:, _WAYPOINT]
        speed = mob.speed_min + (mob.speed_max - mob.speed_min) * u[:, _SPEED]
        dwell = mob.dwell_min + (mob.dwell_max - mob.dwell_min) * u[:, _DWELL]
        leg = np.abs(waypoint - h) / speed
        mid = start + np.where(arriving, dwell, leg)
        two = mid <= t_end
        end = np.where(two, mid + np.where(arriving, leg, dwell), mid)
        moving = arriving == two  # an arrival then an expiry ends on a leg
        waypoint = np.where(arriving & ~two, h, waypoint)  # an arrival alone dwells at h
        state.h0[idx] = np.where(moving, h, waypoint)
        state.t0[idx] = np.where(two, mid, start)
        tev[idx] = end
        state.waypoint[idx] = waypoint
        state.speed[idx] = speed
        state.moving[idx] = moving
        idx = idx[end <= t_end]
        p += 1
    state.t = t_end


def _unit(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) from one cos and one sin, cheaper than a complex exp."""
    e = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    return e


def _hop(state: UavState, u: np.ndarray, net: NetworkConfig,
         mob: MobilityConfig) -> tuple[float, int]:
    """One spatial hop for every currently dwelling interferer, in place.

    The proposal comes from the step's hop columns of u; one that would
    leave the disk is rejected and the interferer stays put.  Returns the
    summed length and the number of the accepted hops that started at least
    hop_range inside the disk edge (interior hops).
    """
    idx = (~state.moving).nonzero()[0]
    if idx.size == 0:
        return 0.0, 0

    z = state.xy.view(np.complex128)[:, 0]  # x + iy, a view of xy
    start = z[idx]
    uh = u.take(idx, axis=0)
    length = mob.hop_range * np.sqrt(uh[:, _HOP_RADIUS])
    target = _unit(2.0 * math.pi * uh[:, _HOP_ANGLE])
    target *= length
    target += start
    keep = np.abs(target) <= net.radius
    z[idx[keep]] = target[keep]

    interior_limit = max(net.radius - mob.hop_range, 0.0)
    counted = keep & (np.abs(start) <= interior_limit)
    return float(length[counted].sum()), int(np.count_nonzero(counted))


def step(state: UavState, dt: float, rng, net: NetworkConfig,
         mob: MobilityConfig) -> tuple[float, int]:
    """Advance every interferer by dt, in place.

    `rng` is a generator, or a sequence of generators, one per equal,
    contiguous block of the state; each block draws only from its own.
    At the top of the step every block draws one (block, 5) array of
    uniforms: dwell, waypoint, speed, hop radius and hop angle.  An
    interferer's first arrival and first dwell expiry in the step and its
    hop take their values from it.  Only a third or later event of one
    interferer in one step (possible when dwell_min < dt) draws more, per
    block and for just the interferers that need them, so each block's
    draws stay its own.
    Vertical kinematics are resolved through phase changes exactly; each
    interferer dwelling at the end of the step performs one spatial hop.
    Returns the summed length and the count of this step's accepted
    interior hops (see `CampaignResult.mean_interior_hop_length`).
    Containment is not checked here; callers check it where they observe
    the state.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    streams = _Streams(rng, state.n)
    u = streams.uniforms(5)

    def draw(idx, p):
        return streams.draw(idx, 3) if p else u.take(idx, axis=0)

    _advance_vertical(state, state.t + dt, draw, net, mob)
    return _hop(state, u, net, mob)


@dataclass(frozen=True)
class SnapshotSample:
    """One interference snapshot: per-interferer geometry plus fading draws."""

    distances: np.ndarray      # (M,) user-to-interferer distances
    dwelling: np.ndarray       # (M,) True where the interferer is dwelling
    serving_gain: float
    interferer_gains: np.ndarray
    interference: float        # sum of g_i * w_i^-alpha
    sir: float


def _interferer_shapes(altitude: np.ndarray, fading: FadingConfig, net: NetworkConfig):
    if not fading.altitude_dependent:
        return np.full(altitude.shape, float(fading.interferer_m))
    bands = resolve_fading_bands(fading, net)
    lows = np.array([low for low, _, _ in bands])
    shapes = np.array([float(shape) for _, _, shape in bands])
    # each altitude takes the band with the highest lower edge at or below
    # it: band gaps within the tiling tolerance go to the band below them,
    # and the top edge H closes the last band
    return shapes[np.maximum(np.searchsorted(lows, altitude, side="right") - 1, 0)]


def _snapshot(
    state: UavState, altitude: np.ndarray, chains: int, net: NetworkConfig,
    fading: FadingConfig, rng,
):
    """Fading draws and SIR for `chains` equal-sized networks stored back to back.

    `altitude` is the state's observed altitude, `state.altitude()`.

    `rng` is a generator, or a sequence of generators, one per equal block
    of chains (as for `step`).  Each generator draws its block's serving
    gains, then its block's interferer gains.  Returns (distances, serving
    gains, interferer gains, aggregate interference per chain, SIR per
    chain); the SIR is infinite in a chain with zero interference.
    """
    alpha = net.path_loss_exponent
    m0 = fading.serving_m
    streams = _Streams(rng, state.n)
    g0 = np.concatenate(
        [g.gamma(m0, 1.0 / m0, hi - lo) for g, lo, hi in streams.spans(chains)]
    )
    w = np.sqrt(altitude**2 + np.einsum("ij,ij->i", state.xy, state.xy))
    m_i = _interferer_shapes(altitude, fading, net)
    gains = np.concatenate(
        [g.gamma(m_i[lo:hi], 1.0 / m_i[lo:hi]) for g, lo, hi in streams.blocks]
    )
    interference = (gains * w**-alpha).reshape(chains, state.n // chains).sum(axis=1)
    with np.errstate(divide="ignore"):
        sir = g0 * net.serving_altitude**-alpha / interference
    return w, g0, gains, interference, sir


def sample_snapshot(
    state: UavState, net: NetworkConfig, fading: FadingConfig, rng
) -> SnapshotSample:
    """Draw fading and evaluate the interference and SIR for one state."""
    w, g0, gains, interference, sir = _snapshot(state, state.altitude(), 1, net, fading, rng)
    return SnapshotSample(
        distances=w,
        dwelling=~state.moving,
        serving_gain=float(g0[0]),
        interferer_gains=gains,
        interference=float(interference[0]),
        sir=float(sir[0]),
    )


def default_psi_grid() -> np.ndarray:
    """Linear SIR thresholds for -20..30 dB in 5 dB steps."""
    return np.array([10.0 ** (d / 10.0) for d in range(-20, 31, 5)])


@dataclass
class CampaignResult:
    """Merged tallies and diagnostics of one or more simulation replications."""

    psi_grid: np.ndarray
    batch_success: np.ndarray       # (n_batches, n_psi) covered-snapshot counts
    batch_snapshots: np.ndarray     # (n_batches,) snapshots per batch
    batch_dwelling: np.ndarray      # (n_batches,) dwelling interferer-snapshots
    dwelling_count_hist: np.ndarray  # (M+1,) histogram of dwelling counts
    static_distances: np.ndarray
    moving_distances: np.ndarray
    static_altitudes: np.ndarray
    moving_altitudes: np.ndarray
    hop_length_sum: float
    hop_count: int
    n_snapshots: int
    stay_probability: float
    seed_info: tuple
    meta: dict = field(default_factory=dict)

    @property
    def n_interferers(self) -> int:
        return self.dwelling_count_hist.size - 1

    def coverage(self) -> np.ndarray:
        """Empirical coverage probability per threshold."""
        return self.batch_success.sum(axis=0) / self.n_snapshots

    def coverage_se(self) -> np.ndarray:
        """Batch-means standard error of the coverage estimates."""
        rates = self.batch_success / self.batch_snapshots[:, None]
        nb = rates.shape[0]
        if nb < 2:
            return np.full(self.psi_grid.shape, np.nan)
        return rates.std(axis=0, ddof=1) / math.sqrt(nb)

    def dwelling_fraction(self) -> float:
        """Observed fraction of interferer-snapshots spent dwelling."""
        total = self.batch_snapshots.sum() * self.n_interferers
        return float(self.batch_dwelling.sum() / total) if total else math.nan

    def dwelling_fraction_se(self) -> float:
        per_batch = self.batch_dwelling / (self.batch_snapshots * max(self.n_interferers, 1))
        nb = per_batch.size
        if nb < 2:
            return math.nan
        return float(per_batch.std(ddof=1) / math.sqrt(nb))

    def dwelling_count_pmf(self) -> np.ndarray:
        """Empirical law of the number of dwelling interferers per snapshot."""
        total = self.dwelling_count_hist.sum()
        return self.dwelling_count_hist / total if total else self.dwelling_count_hist

    def mean_interior_hop_length(self) -> float:
        """Mean accepted hop length for hops started away from the edge."""
        return self.hop_length_sum / self.hop_count if self.hop_count else math.nan


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
    replications: int = 1,
    chains: int = 64,
    n_batches: int = 20,
    max_kept_samples: int = 2_000_000,
    seeds=None,
) -> CampaignResult:
    """Run a full snapshot campaign and return merged tallies.

    The campaign is split into `replications` independently seeded streams,
    each driving `chains` statistically independent copies of the network.
    All replications are stepped together as one array, one contiguous
    block per replication, with every draw split by block; each block's
    numbers are those its replication gives when run alone.  The network
    starts in its stationary law, so snapshots begin with the first
    stride.  Snapshot counts round up to a multiple of replications * chains.
    """
    if n_snapshots < 1:
        raise ConfigurationError("n_snapshots must be >= 1")
    if stride < 1 or replications < 1 or chains < 1:
        raise ConfigurationError("stride, replications and chains must be >= 1")
    p_stay = simulated_stay_probability(mob, net)
    psi_grid = default_psi_grid() if psi_grid is None else np.asarray(psi_grid, dtype=float)
    if psi_grid.size == 0:
        raise ConfigurationError("psi_grid must be non-empty")

    if seeds is not None:
        seeds = list(seeds)
        if len(seeds) != replications:
            raise ConfigurationError(
                f"got {len(seeds)} explicit seeds for {replications} replications"
            )
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                "replication seeds must be distinct (independence contract)"
            )
        rep_seeds = seeds
    else:
        rep_seeds = np.random.SeedSequence(seed).spawn(replications)

    reps = replications
    per_chain = math.ceil(math.ceil(n_snapshots / reps) / chains)
    nb_rep = max(1, min(round(n_batches / reps), per_chain))
    M = net.n_interferers
    block = chains * M
    rngs = [np.random.default_rng(s) for s in rep_seeds]
    state = initial_state(reps * block, net, mob, rngs)
    state.check_containment(net)

    n_psi = psi_grid.size
    batch_success = np.zeros((reps * nb_rep, n_psi))
    batch_snapshots = np.zeros(reps * nb_rep)
    batch_dwelling = np.zeros(reps * nb_rep)
    dwelling_hist = np.zeros(M + 1)
    # each replication keeps its first snapshots, within its share of the
    # quota rounded up to whole snapshots
    n_kept = min(per_chain, -(-(max_kept_samples // reps) // block)) if M else 0
    kept_w = np.empty((reps, n_kept, block))
    kept_h = np.empty((reps, n_kept, block))
    kept_dwell = np.empty((reps, n_kept, block), dtype=bool)
    hop_sum = 0.0
    hop_count = 0
    first_rows = np.arange(reps) * nb_rep

    for j in range(per_chain):
        for _ in range(stride):
            length, count = step(state, dt, rngs, net, mob)
            hop_sum += length
            hop_count += count
        state.check_containment(net)

        rows = first_rows + j * nb_rep // per_chain
        dwelling = ~state.moving
        altitude = state.altitude()
        w, _, _, _, sir = _snapshot(state, altitude, reps * chains, net, fading, rngs)
        n_dwell = dwelling.reshape(reps * chains, M).sum(axis=1)

        batch_success[rows] += (sir.reshape(reps, chains, 1) > psi_grid).sum(axis=1)
        batch_snapshots[rows] += chains
        batch_dwelling[rows] += dwelling.reshape(reps, block).sum(axis=1)
        dwelling_hist += np.bincount(n_dwell, minlength=M + 1)
        if j < n_kept:
            kept_w[:, j] = w.reshape(reps, block)
            kept_h[:, j] = altitude.reshape(reps, block)
            kept_dwell[:, j] = dwelling.reshape(reps, block)

    # replication-major, as if each replication had run alone and been appended
    all_w, all_h, all_d = kept_w.ravel(), kept_h.ravel(), kept_dwell.ravel()
    return CampaignResult(
        psi_grid=psi_grid,
        batch_success=batch_success,
        batch_snapshots=batch_snapshots,
        batch_dwelling=batch_dwelling,
        dwelling_count_hist=dwelling_hist,
        static_distances=all_w[all_d],
        moving_distances=all_w[~all_d],
        static_altitudes=all_h[all_d],
        moving_altitudes=all_h[~all_d],
        hop_length_sum=hop_sum,
        hop_count=hop_count,
        n_snapshots=int(batch_snapshots.sum()),
        stay_probability=p_stay,
        seed_info=tuple(repr(s) for s in rep_seeds),
        meta={
            "seed": seed if seeds is None else None,
            "explicit_seeds": seeds,
            "dt": dt,
            "stride": stride,
            "replications": replications,
            "chains": chains,
            "requested_snapshots": n_snapshots,
            "altitude_dependent": fading.altitude_dependent,
        },
    )
