"""Discrete-observation Monte Carlo of the mixed mobility model with fading.

Each interferer alternates vertical waypoint legs (uniform waypoint in
[0, H], per-leg speed uniform in [v_min, v_max]) with dwells (duration
uniform in [dwell_min, dwell_max]) during which it makes one spatial hop per
time step, uniform in a disk of radius hop_range around its current
projection.  Kinematics are integrated exactly through phase changes inside
each step, so the state observed on the dt grid is the true continuous-time
state: phase fractions, altitude laws and distance laws then match their
steady-state forms without discretization bias.

Spatial hops at the region edge follow a reject-the-proposal-and-stay rule
by default.  That rule is a symmetric-proposal Metropolis move for the
uniform target, so the horizontal law stays exactly uniform on the disk, as
the analytical distance laws assume.  Redrawing until a feasible hop is
found ("resample") is also available, but it provably tilts the stationary
horizontal law toward the interior (density proportional to the feasible
proposal area); a regression test demonstrates that bias empirically.

A campaign steps all its replications together, in place, as one state
array with one contiguous block of interferers per replication.  Each
replication keeps its own generator, and every draw is split by block in
the order a one-replication run makes it, so each block reproduces its
replication run alone bit for bit.  Containment is checked after warm-up
and at every snapshot, not on every step.

Snapshots taken every `stride` steps after warm-up record distances, phases
and fading draws; per-threshold coverage tallies are kept in contiguous
batches for batch-means standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    FadingConfig,
    MobilityConfig,
    NetworkConfig,
    derive_stay_probability,
    resolve_fading_bands,
)
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

BOUNDARY_RULES = ("stay", "resample")
_MAX_HOP_RETRIES = 100
_MAX_EVENT_PASSES = 10_000


@dataclass
class UavState:
    """Kinematic state of a batch of interferers (arrays share length n).

    xy:              horizontal projection, shape (n, 2), norm <= R
    altitude:        current altitude in [0, H], shape (n,)
    moving:          True while on a vertical leg, shape (n,)
    waypoint:        target altitude of the current/next leg, shape (n,)
    speed:           speed of the current leg, shape (n,)
    dwell_remaining: seconds of dwell left (meaningful while not moving)
    """

    xy: np.ndarray
    altitude: np.ndarray
    moving: np.ndarray
    waypoint: np.ndarray
    speed: np.ndarray
    dwell_remaining: np.ndarray

    @property
    def n(self) -> int:
        return self.altitude.size

    def copy(self) -> "UavState":
        return UavState(
            self.xy.copy(),
            self.altitude.copy(),
            self.moving.copy(),
            self.waypoint.copy(),
            self.speed.copy(),
            self.dwell_remaining.copy(),
        )

    def check_containment(self, net: NetworkConfig) -> None:
        """Hard geometric invariants: inside the disk, altitude in range."""
        if self.n == 0:
            return
        r2 = np.einsum("ij,ij->i", self.xy, self.xy)
        if r2.max() > net.radius**2 * (1 + 1e-12):
            raise ConsistencyError("interferer escaped the disk region")
        if self.altitude.min() < -1e-9 or self.altitude.max() > net.height * (1 + 1e-12):
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
        self.blocks = self.spans(n)

    def spans(self, n: int) -> list[tuple[np.random.Generator, int, int]]:
        """Each generator with the range [lo, hi) of its block of n items."""
        blocks = len(self.rngs)
        if not blocks or n % blocks:
            raise ConfigurationError(f"{n} items do not split into {blocks} equal blocks")
        size = n // blocks
        return [(g, r * size, (r + 1) * size) for r, g in enumerate(self.rngs)]

    def draw(self, idx: np.ndarray, *draws) -> list[np.ndarray]:
        """Call each draw(rng, k) for the sorted interferer indices idx.

        Returns one array per draw, aligned with idx.  A block with no index
        in idx draws nothing; a zero-size draw leaves a generator as it is.
        """
        if not idx.size:
            return [d(self.rngs[0], 0) for d in draws]
        ends = idx.searchsorted([hi for _, _, hi in self.blocks]).tolist()
        parts = [
            [d(g, b - a) for d in draws]
            for (g, _, _), a, b in zip(self.blocks, [0] + ends, ends) if b > a
        ]
        return [np.concatenate(p) for p in zip(*parts)]


def initial_state(n: int, net: NetworkConfig, mob: MobilityConfig, rng) -> UavState:
    """Launch n interferers uniformly in the cylinder, each starting a leg.

    `rng` is a generator, or a sequence of generators that each launch one
    equal block of the n interferers.  The initial phase choice washes out
    during warm-up; starting on a leg toward a fresh waypoint keeps
    initialization order-independent.
    """
    u, theta, altitude, waypoint, speed = _Streams(rng, n).draw(
        np.arange(n),
        lambda g, k: g.random(k),
        lambda g, k: g.uniform(0.0, 2.0 * math.pi, k),
        lambda g, k: g.uniform(0.0, net.height, k),
        lambda g, k: g.uniform(0.0, net.height, k),
        lambda g, k: g.uniform(mob.speed_min, mob.speed_max, k),
    )
    radius = net.radius * np.sqrt(u)
    xy = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    return UavState(
        xy=xy,
        altitude=altitude,
        moving=np.ones(n, dtype=bool),
        waypoint=waypoint,
        speed=speed,
        dwell_remaining=np.zeros(n),
    )


def _advance_vertical(state: UavState, dt: float, streams: _Streams, net, mob) -> None:
    """Consume dt of wall time in place, resolving phase changes exactly."""
    h, wp, v = state.altitude, state.waypoint, state.speed
    moving, rem = state.moving, state.dwell_remaining
    time_left = np.full(state.n, float(dt))

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
                (rem[arrive],) = streams.draw(
                    arrive, lambda g, k: g.uniform(mob.dwell_min, mob.dwell_max, k)
                )

        idx = ((time_left > 0.0) & ~moving).nonzero()[0]
        if idx.size:
            left, tl = rem[idx], time_left[idx]
            consumed = np.minimum(left, tl)
            left -= consumed
            rem[idx] = left
            time_left[idx] = tl - consumed
            expired = idx[left <= 0.0]
            if expired.size:
                wp[expired], v[expired] = streams.draw(
                    expired,
                    lambda g, k: g.uniform(0.0, net.height, k),
                    lambda g, k: g.uniform(mob.speed_min, mob.speed_max, k),
                )
                moving[expired] = True
    raise ConsistencyError("vertical event resolution did not terminate")


def _hop(state: UavState, streams: _Streams, net: NetworkConfig, mob: MobilityConfig,
         rule: str) -> tuple[float, int]:
    """One spatial hop for every currently dwelling interferer, in place.

    Returns the summed length and the number of the accepted hops that
    started at least hop_range inside the disk edge (interior hops).
    """
    idx = (~state.moving).nonzero()[0]
    if idx.size == 0:
        return 0.0, 0

    def propose(sel):
        r, th = streams.draw(
            sel,
            lambda g, k: mob.hop_range * np.sqrt(g.random(k)),
            lambda g, k: g.uniform(0.0, 2.0 * math.pi, k),
        )
        return r, np.column_stack((r * np.cos(th), r * np.sin(th)))

    start = state.xy[idx]
    length, step_xy = propose(idx)
    target = start + step_xy
    keep = np.einsum("ij,ij->i", target, target) <= net.radius**2
    if rule == "resample":
        # redraw for infeasible proposals, bounded retries, then stay
        pending = (~keep).nonzero()[0]
        for _ in range(_MAX_HOP_RETRIES):
            if pending.size == 0:
                break
            r, step_xy = propose(idx[pending])
            retry = start[pending] + step_xy
            good = np.einsum("ij,ij->i", retry, retry) <= net.radius**2
            target[pending[good]] = retry[good]
            length[pending[good]] = r[good]
            pending = pending[~good]
        keep[:] = True
        keep[pending] = False  # retries exhausted: stay in place
    state.xy[idx[keep]] = target[keep]

    interior_limit = max(net.radius - mob.hop_range, 0.0)
    counted = keep & (np.hypot(start[:, 0], start[:, 1]) <= interior_limit)
    return float(length[counted].sum()), int(np.count_nonzero(counted))


def step(
    state: UavState,
    dt: float,
    rng,
    net: NetworkConfig,
    mob: MobilityConfig,
    boundary_rule: str = "stay",
) -> tuple[float, int]:
    """Advance every interferer by dt, in place.

    `rng` is a generator, or a sequence of generators, one per equal,
    contiguous block of the state; each block draws only from its own.
    Vertical kinematics are resolved through phase changes exactly; each
    interferer dwelling at the end of the step performs one spatial hop.
    Returns the summed length and the count of this step's accepted
    interior hops (see `CampaignResult.mean_interior_hop_length`).
    Containment is not checked here; callers check it where they observe
    the state.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    if boundary_rule not in BOUNDARY_RULES:
        raise ConfigurationError(f"boundary_rule must be one of {BOUNDARY_RULES}")
    streams = _Streams(rng, state.n)
    _advance_vertical(state, dt, streams, net, mob)
    return _hop(state, streams, net, mob, boundary_rule)


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
    state: UavState, chains: int, net: NetworkConfig, fading: FadingConfig, rng
):
    """Fading draws and SIR for `chains` equal-sized networks stored back to back.

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
    w = np.sqrt(state.altitude**2 + np.einsum("ij,ij->i", state.xy, state.xy))
    m_i = _interferer_shapes(state.altitude, fading, net)
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
    w, g0, gains, interference, sir = _snapshot(state, 1, net, fading, rng)
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
    warmup_steps: int = 10_000,
    dt: float = 1.0,
    seed: int = 0,
    *,
    psi_grid=None,
    stride: int = 10,
    replications: int = 1,
    chains: int = 64,
    boundary_rule: str = "stay",
    n_batches: int = 20,
    max_kept_samples: int = 2_000_000,
    seeds=None,
) -> CampaignResult:
    """Run a full snapshot campaign and return merged tallies.

    The campaign is split into `replications` independently seeded streams,
    each driving `chains` statistically independent copies of the network.
    All replications are stepped together as one array, one contiguous
    block per replication, with every draw split by block; each block's
    numbers are those its replication gives when run alone.  Snapshot
    counts round up to a multiple of replications * chains.
    """
    if n_snapshots < 1:
        raise ConfigurationError("n_snapshots must be >= 1")
    if warmup_steps < 0:
        raise ConfigurationError("warmup_steps must be >= 0")
    if stride < 1 or replications < 1 or chains < 1:
        raise ConfigurationError("stride, replications and chains must be >= 1")
    if boundary_rule not in BOUNDARY_RULES:
        raise ConfigurationError(f"boundary_rule must be one of {BOUNDARY_RULES}")
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
    for _ in range(warmup_steps):
        step(state, dt, rngs, net, mob, boundary_rule)
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
            length, count = step(state, dt, rngs, net, mob, boundary_rule)
            hop_sum += length
            hop_count += count
        state.check_containment(net)

        rows = first_rows + j * nb_rep // per_chain
        dwelling = ~state.moving
        w, _, _, _, sir = _snapshot(state, reps * chains, net, fading, rngs)
        n_dwell = dwelling.reshape(reps * chains, M).sum(axis=1)

        batch_success[rows] += (sir.reshape(reps, chains, 1) > psi_grid).sum(axis=1)
        batch_snapshots[rows] += chains
        batch_dwelling[rows] += dwelling.reshape(reps, block).sum(axis=1)
        dwelling_hist += np.bincount(n_dwell, minlength=M + 1)
        if j < n_kept:
            kept_w[:, j] = w.reshape(reps, block)
            kept_h[:, j] = state.altitude.reshape(reps, block)
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
        stay_probability=derive_stay_probability(mob, net),
        seed_info=tuple(repr(s) for s in rep_seeds),
        meta={
            "seed": seed if seeds is None else None,
            "explicit_seeds": seeds,
            "warmup_steps": warmup_steps,
            "dt": dt,
            "stride": stride,
            "replications": replications,
            "chains": chains,
            "boundary_rule": boundary_rule,
            "requested_snapshots": n_snapshots,
            "altitude_dependent": fading.altitude_dependent,
        },
    )
