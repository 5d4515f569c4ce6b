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


def initial_state(n: int, net: NetworkConfig, mob: MobilityConfig, rng) -> UavState:
    """Launch n interferers uniformly in the cylinder, each starting a leg.

    The initial phase choice washes out during warm-up; starting on a leg
    toward a fresh waypoint keeps initialization order-independent.
    """
    radius = net.radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    xy = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    altitude = rng.uniform(0.0, net.height, n)
    waypoint = rng.uniform(0.0, net.height, n)
    speed = rng.uniform(mob.speed_min, mob.speed_max, n)
    return UavState(
        xy=xy,
        altitude=altitude,
        moving=np.ones(n, dtype=bool),
        waypoint=waypoint,
        speed=speed,
        dwell_remaining=np.zeros(n),
    )


def _advance_vertical(state: UavState, dt: float, rng, net, mob) -> None:
    """Consume dt of wall time in place, resolving phase changes exactly."""
    h, wp, v = state.altitude, state.waypoint, state.speed
    moving, rem = state.moving, state.dwell_remaining
    time_left = np.full(state.n, float(dt))

    for _ in range(_MAX_EVENT_PASSES):
        active = time_left > 0.0
        if not active.any():
            return

        mv = active & moving
        if mv.any():
            idx = np.flatnonzero(mv)
            gap = wp[idx] - h[idx]
            t_arrive = np.abs(gap) / v[idx]
            tl = time_left[idx]
            hit = t_arrive <= tl
            cruise = idx[~hit]
            h[cruise] += np.sign(gap[~hit]) * v[cruise] * tl[~hit]
            time_left[cruise] = 0.0
            arrive = idx[hit]
            h[arrive] = wp[arrive]
            time_left[arrive] = tl[hit] - t_arrive[hit]
            moving[arrive] = False
            rem[arrive] = rng.uniform(mob.dwell_min, mob.dwell_max, arrive.size)

        dw = (time_left > 0.0) & ~moving
        if dw.any():
            idx = np.flatnonzero(dw)
            consumed = np.minimum(rem[idx], time_left[idx])
            rem[idx] -= consumed
            time_left[idx] -= consumed
            expired = idx[rem[idx] <= 0.0]
            if expired.size:
                wp[expired] = rng.uniform(0.0, net.height, expired.size)
                v[expired] = rng.uniform(mob.speed_min, mob.speed_max, expired.size)
                moving[expired] = True
    raise ConsistencyError("vertical event resolution did not terminate")


def _hop(state: UavState, rng, net: NetworkConfig, mob: MobilityConfig, rule: str) -> None:
    """One spatial hop for every currently dwelling interferer, in place."""
    idx = np.flatnonzero(~state.moving)
    if idx.size == 0:
        return

    def propose(k):
        r = mob.hop_range * np.sqrt(rng.random(k))
        th = rng.uniform(0.0, 2.0 * math.pi, k)
        return np.column_stack((r * np.cos(th), r * np.sin(th)))

    target = state.xy[idx] + propose(idx.size)
    inside = np.einsum("ij,ij->i", target, target) <= net.radius**2
    if rule == "stay":
        ok = idx[inside]
        state.xy[ok] = target[inside]
        return
    # resample: redraw for infeasible proposals, bounded retries, then stay
    pending = np.flatnonzero(~inside)
    for _ in range(_MAX_HOP_RETRIES):
        if pending.size == 0:
            break
        retry = state.xy[idx[pending]] + propose(pending.size)
        good = np.einsum("ij,ij->i", retry, retry) <= net.radius**2
        target[pending[good]] = retry[good]
        pending = pending[~good]
    keep = np.ones(idx.size, dtype=bool)
    keep[pending] = False  # retries exhausted: stay in place
    state.xy[idx[keep]] = target[keep]


def step(
    state: UavState,
    dt: float,
    rng,
    net: NetworkConfig,
    mob: MobilityConfig,
    boundary_rule: str = "stay",
) -> UavState:
    """Advance every interferer by dt and return the new state.

    Vertical kinematics are resolved through phase changes exactly; each
    interferer dwelling at the end of the step performs one spatial hop.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    if boundary_rule not in BOUNDARY_RULES:
        raise ConfigurationError(f"boundary_rule must be one of {BOUNDARY_RULES}")
    out = state.copy()
    _advance_vertical(out, dt, rng, net, mob)
    _hop(out, rng, net, mob, boundary_rule)
    out.check_containment(net)
    return out


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
    m = np.empty(altitude.shape)
    for low, high, shape in bands:
        m[(altitude >= low) & (altitude < high)] = shape
    m[altitude >= bands[-1][1]] = bands[-1][2]  # top edge closes the last band
    return m


def _snapshot(
    state: UavState, chains: int, net: NetworkConfig, fading: FadingConfig, rng
):
    """Fading draws and SIR for `chains` equal-sized networks stored back to back.

    The serving gains of all chains are drawn first, then the interferer
    gains.  Returns (distances, serving gains, interferer gains, aggregate
    interference per chain, SIR per chain); the SIR is infinite in a chain
    with zero interference.
    """
    alpha = net.path_loss_exponent
    m0 = fading.serving_m
    g0 = rng.gamma(m0, 1.0 / m0, chains)
    w = np.sqrt(state.altitude**2 + np.einsum("ij,ij->i", state.xy, state.xy))
    m_i = _interferer_shapes(state.altitude, fading, net)
    gains = rng.gamma(m_i, 1.0 / m_i)
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


def _run_replication(
    rep_seed,
    net: NetworkConfig,
    fading: FadingConfig,
    mob: MobilityConfig,
    snapshots_per_chain: int,
    warmup_steps: int,
    dt: float,
    psi_grid: np.ndarray,
    stride: int,
    chains: int,
    boundary_rule: str,
    n_batches: int,
    kept_quota: int,
) -> CampaignResult:
    rng = np.random.default_rng(rep_seed)
    M = net.n_interferers
    state = initial_state(chains * M, net, mob, rng)
    for _ in range(warmup_steps):
        state = step(state, dt, rng, net, mob, boundary_rule)

    n_psi = psi_grid.size
    batch_success = np.zeros((n_batches, n_psi))
    batch_snapshots = np.zeros(n_batches)
    batch_dwelling = np.zeros(n_batches)
    dwelling_hist = np.zeros(M + 1)
    kept_w, kept_h, kept_dwell = [], [], []
    kept = 0
    hop_sum = 0.0
    hop_count = 0
    interior_limit = max(net.radius - mob.hop_range, 0.0)

    for j in range(snapshots_per_chain):
        for _ in range(stride):
            prev_xy = state.xy
            state = step(state, dt, rng, net, mob, boundary_rule)
            if M:
                disp = np.hypot(
                    state.xy[:, 0] - prev_xy[:, 0], state.xy[:, 1] - prev_xy[:, 1]
                )
                interior = np.hypot(prev_xy[:, 0], prev_xy[:, 1]) <= interior_limit
                moved = (~state.moving) & (disp > 0.0) & interior
                hop_sum += float(disp[moved].sum())
                hop_count += int(moved.sum())

        b = j * n_batches // snapshots_per_chain
        dwelling = ~state.moving
        w, _, _, _, sir = _snapshot(state, chains, net, fading, rng)
        n_dwell = dwelling.reshape(chains, M).sum(axis=1)

        batch_success[b] += (sir[:, None] > psi_grid[None, :]).sum(axis=0)
        batch_snapshots[b] += chains
        batch_dwelling[b] += int(dwelling.sum())
        dwelling_hist += np.bincount(n_dwell, minlength=M + 1)
        if M and kept < kept_quota:
            kept_w.append(w.copy())
            kept_h.append(state.altitude.copy())
            kept_dwell.append(dwelling.copy())
            kept += w.size

    if kept:
        all_w = np.concatenate(kept_w)
        all_h = np.concatenate(kept_h)
        all_d = np.concatenate(kept_dwell)
    else:
        all_w = all_h = np.empty(0)
        all_d = np.empty(0, dtype=bool)

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
        seed_info=(repr(rep_seed),),
    )


def _merge(results: list[CampaignResult], meta: dict) -> CampaignResult:
    first = results[0]
    merged = CampaignResult(
        psi_grid=first.psi_grid,
        batch_success=np.concatenate([r.batch_success for r in results]),
        batch_snapshots=np.concatenate([r.batch_snapshots for r in results]),
        batch_dwelling=np.concatenate([r.batch_dwelling for r in results]),
        dwelling_count_hist=sum(r.dwelling_count_hist for r in results),
        static_distances=np.concatenate([r.static_distances for r in results]),
        moving_distances=np.concatenate([r.moving_distances for r in results]),
        static_altitudes=np.concatenate([r.static_altitudes for r in results]),
        moving_altitudes=np.concatenate([r.moving_altitudes for r in results]),
        hop_length_sum=sum(r.hop_length_sum for r in results),
        hop_count=sum(r.hop_count for r in results),
        n_snapshots=sum(r.n_snapshots for r in results),
        stay_probability=first.stay_probability,
        seed_info=tuple(s for r in results for s in r.seed_info),
        meta=meta,
    )
    return merged


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
    run one after another; inside each, `chains` statistically independent
    copies of the network evolve in lockstep for vectorization.  Snapshot
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

    per_rep = math.ceil(n_snapshots / replications)
    per_chain = math.ceil(per_rep / chains)
    nb_rep = max(1, min(round(n_batches / replications), per_chain))
    kept_quota = max_kept_samples // replications

    results = [
        _run_replication(
            rs, net, fading, mob, per_chain, warmup_steps, dt, psi_grid,
            stride, chains, boundary_rule, nb_rep, kept_quota,
        )
        for rs in rep_seeds
    ]

    meta = {
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
    }
    return _merge(results, meta)
