"""The benchmark's four workloads: generated scenario documents per unit.

A unit is one `uavcov` CLI call on one generated scenario file.  A round is
the workload's fixed list of unit slots; every run attempts whole rounds.
The make-up of a round (how many rows, which shapes, exponents and widths)
is fixed, so the cost per item does not depend on the seed; the seed draws
the values that do not change the work done: interferer counts, stay
probabilities, threshold jitter and simulation seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Geometry and kinematics of scenarios/baseline.json.
RADIUS_M, HEIGHT_M = 40.0, 30.0
MOBILITY = {
    "speed_min_mps": 0.2, "speed_max_mps": 10.0,
    "dwell_min_s": 2.0, "dwell_max_s": 6.0, "hop_range_m": 10.0,
    "stay_probability_override": None,
}
BASELINE_PSI_DB = [float(d) for d in range(-20, 31, 5)]
REFERENCE_PSI_DB = (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0)
REFERENCE_STAY = (0.1, 0.9)

WORKLOADS = ("analyze-closed", "analyze-jet", "simulate", "simulate-wide")


@dataclass(frozen=True)
class Unit:
    """One CLI call: its slot in the round, subcommand and scenario document."""

    slot: str
    command: str
    scenario: dict


def _scenario(*, M, h0, m0=1, m1=1, alpha=2.0, stay=None, psi_db=BASELINE_PSI_DB,
              altitude_dependent=False, sim=None) -> dict:
    mobility = dict(MOBILITY, stay_probability_override=stay)
    return {
        "network": {"radius_m": RADIUS_M, "height_m": HEIGHT_M, "serving_altitude_m": h0,
                    "n_interferers": M, "path_loss_exponent": alpha},
        "fading": {"serving_m": m0, "interferer_m": m1,
                   "altitude_dependent": altitude_dependent, "bands": None},
        "mobility": mobility,
        "psi_grid_db": list(psi_db),
        "sim": dict({"n_snapshots": 1000, "warmup_steps": 0, "dt_s": 1.0, "stride": 10,
                     "seed": 1, "replications": 1, "chains": 1, "boundary_rule": "stay"},
                    **(sim or {})),
    }


def _jittered_grid(rng: random.Random, lo: float, hi: float, n: int, jitter: float):
    """n strictly increasing dB thresholds on [lo, hi], each moved by up to +-jitter."""
    step = (hi - lo) / (n - 1)
    if not jitter < step / 2:
        raise ValueError("jitter would reorder the grid")
    return [round(lo + i * step + rng.uniform(-jitter, jitter), 6) for i in range(n)]


def _analyze_closed(rng: random.Random) -> list[Unit]:
    # The reference-table case on a 0.5 dB grid that contains its six
    # thresholds, then every (m1, h0) pair on a jittered 81-point grid.
    units = [
        Unit(f"reference-stay{p}", "analyze",
             _scenario(M=2, h0=20.0, stay=p, psi_db=[-20.0 + 0.5 * i for i in range(101)]))
        for p in REFERENCE_STAY
    ]
    for m1 in (1, 2, 3):
        for h0 in (5.0, 10.0, 30.0):
            units.append(Unit(
                f"m1={m1},h0={h0:g}", "analyze",
                _scenario(M=rng.randint(1, 8), h0=h0, m1=m1,
                          stay=round(rng.uniform(0.05, 0.95), 6),
                          psi_db=_jittered_grid(rng, -20.0, 30.0, 81, 0.2)),
            ))
    return units


def _analyze_jet(rng: random.Random) -> list[Unit]:
    units = []
    for alpha in (2.0, 3.0):
        for m0 in (2, 4):
            for m1 in (1, 2):
                units.append(Unit(
                    f"alpha={alpha:g},m0={m0},m1={m1}", "analyze",
                    _scenario(M=rng.randint(1, 8), h0=10.0, m0=m0, m1=m1, alpha=alpha,
                              stay=round(rng.uniform(0.05, 0.95), 6),
                              psi_db=_jittered_grid(rng, -10.0, 20.0, 3, 0.25)),
                ))
    return units


# simulate: baseline layout (M=2, 2 x 64 chains, stride 10) cut into short
# calls that keep the baseline's warm-up share, 10000 / (10000 + 10 * 1563).
SIM_SNAPSHOTS_PER_CHAIN = 40
SIM_WARMUP_STEPS = 256           # 256 / (256 + 400) = 39%
# simulate-wide: M=8 with altitude bands, 1 x 512 chains (width 4096).
WIDE_SNAPSHOTS_PER_CHAIN = 30
WIDE_WARMUP_STEPS = 60
SIM_UNITS_PER_ROUND = 4


def _simulate(rng: random.Random) -> list[Unit]:
    return [
        Unit(f"call{j}", "simulate", _scenario(M=2, h0=10.0, sim={
            "n_snapshots": 2 * 64 * SIM_SNAPSHOTS_PER_CHAIN,
            "warmup_steps": SIM_WARMUP_STEPS, "replications": 2, "chains": 64,
            "seed": rng.randrange(1, 2**31)}))
        for j in range(SIM_UNITS_PER_ROUND)
    ]


def _simulate_wide(rng: random.Random) -> list[Unit]:
    return [
        Unit(f"call{j}", "simulate", _scenario(M=8, h0=10.0, altitude_dependent=True, sim={
            "n_snapshots": 512 * WIDE_SNAPSHOTS_PER_CHAIN,
            "warmup_steps": WIDE_WARMUP_STEPS, "replications": 1, "chains": 512,
            "seed": rng.randrange(1, 2**31)}))
        for j in range(SIM_UNITS_PER_ROUND)
    ]


_BUILDERS = {
    "analyze-closed": _analyze_closed,
    "analyze-jet": _analyze_jet,
    "simulate": _simulate,
    "simulate-wide": _simulate_wide,
}


def round_units(workload: str, seed: int, round_index: int) -> list[Unit]:
    """The units of one round.

    Analysis rounds repeat the same scenarios, so every round must write the
    same bytes; simulation rounds draw fresh simulation seeds, so the pooled
    Monte Carlo checks see independent replications.
    """
    if workload.startswith("analyze"):
        round_index = 0
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}/{round_index}"))
