"""Per-layer counters and timers, installed from outside the program.

Each traced function is replaced, at the module attribute its callers look
up at call time, by a wrapper that counts calls and accumulates wall time.
Nothing under `src/` is edited; `uninstall` puts the originals back.
"""

from __future__ import annotations

import time
from collections import defaultdict

import uavcov.cli
import uavcov.coverage
import uavcov.interference
import uavcov.simulator
import uavcov.special
from uavcov.distributions import DistanceDistribution
from uavcov.taylor import Jet

# hyp2f1's evaluation path is a function of its argument z.
_DIRECT_LIMIT = getattr(uavcov.special, "_DIRECT_LIMIT", -0.5)
_PFAFF_LIMIT = getattr(uavcov.special, "_PFAFF_LIMIT", -64.0)


def hyp2f1_branch(z: float) -> str:
    if z > _DIRECT_LIMIT:
        return "direct"
    return "pfaff" if z > _PFAFF_LIMIT else "large_z"


class Tracer:
    """Call counts and total seconds per layer name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.interferer_steps = 0
        self.bytes_written = 0
        self._patched = []

    def _wrap(self, name_of, fn, on_call=None):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if on_call is not None:
                on_call(args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                calls[name] += 1

        return wrapper

    def _patch(self, owners, attr, name, on_call=None):
        owners = [o for o in owners if hasattr(o, attr)]
        if not owners:
            return
        original = getattr(owners[0], attr)
        name_of = name if callable(name) else (lambda _args, n=name: n)
        wrapper = self._wrap(name_of, original, on_call)
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _count_steps(self, args):
        self.interferer_steps += args[0].n

    def _count_bytes(self, args):
        self.bytes_written += len(args[1].encode("utf-8"))

    def install(self) -> None:
        cli, interference = uavcov.cli, uavcov.interference
        self._patch([interference], "hyp2f1",
                    lambda a: f"special.hyp2f1.{hyp2f1_branch(a[3])}")
        self._patch([interference, cli], "phase_laplace_factor",
                    "interference.phase_laplace_factor")
        self._patch([interference], "phase_factor_derivative",
                    "interference.phase_factor_derivative")
        self._patch([uavcov.coverage], "laplace_derivative_jet",
                    "interference.laplace_derivative_jet")
        self._patch([uavcov.coverage], "coverage_probability", "coverage.coverage_probability")
        self._patch([DistanceDistribution], "pdf", "distributions.DistanceDistribution.pdf")
        self._patch([Jet], "__pow__", "taylor.Jet.pow")
        self._patch([uavcov.simulator], "step", "simulator.step", self._count_steps)
        self._patch([cli], "cmd_analyze", "cli.cmd_analyze")
        self._patch([cli], "cmd_simulate", "cli.cmd_simulate")
        self._patch([cli], "coverage_sweep", "coverage.coverage_sweep")
        self._patch([cli], "run_campaign", "simulator.run_campaign")
        self._patch([cli], "load_scenario", "scenario.load_scenario")
        self._patch([cli], "atomic_write_text", "scenario.atomic_write_text", self._count_bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def counts(self) -> dict:
        """A copy of the counters, to take per-item counts over one round."""
        return {"calls": dict(self.calls), "bytes": self.bytes_written}

    def per_call(self, name: str, scale: float) -> float:
        n = self.calls[name]
        return self.seconds[name] * scale / n if n else 0.0

    def metrics(self, first: dict, first_items: int, items: int, analysis: bool) -> dict:
        """Per-layer metrics: {name: (value, unit)}.

        Counts per item come from the first traced round (`first`, from
        `counts()`, with `first_items` items), so they repeat exactly
        whatever the run's length; times come from every traced unit
        (`items` items).  Items are rows on analysis workloads and snapshots
        on simulation ones.  A layer that was not called reports 0.
        """
        fc, c, s = defaultdict(int, first["calls"]), self.calls, self.seconds
        out = {}

        def per_item(name):
            out[f"{name}.calls_per_item"] = (fc[name] / first_items, "count")

        for branch in ("direct", "pfaff", "large_z"):
            name = f"special.hyp2f1.{branch}"
            per_item(name)
            out[f"{name}.us_per_call"] = (self.per_call(name, 1e6), "us")
        name = "interference.phase_laplace_factor"
        per_item(name)
        out[f"{name}.us_per_call"] = (self.per_call(name, 1e6), "us")
        name = "interference.phase_factor_derivative"
        per_item(name)
        out[f"{name}.ms_per_call"] = (self.per_call(name, 1e3), "ms")
        out["interference.laplace_derivative_jet.ms_per_call"] = (
            self.per_call("interference.laplace_derivative_jet", 1e3), "ms")
        name = "distributions.DistanceDistribution.pdf"
        per_item(name)
        out[f"{name}.us_per_call"] = (self.per_call(name, 1e6), "us")
        out["taylor.Jet.pow.us_per_call"] = (self.per_call("taylor.Jet.pow", 1e6), "us")
        out["coverage.coverage_probability.ms_per_call"] = (
            self.per_call("coverage.coverage_probability", 1e3), "ms")
        # Self time of a command: its time minus that of the traced calls it
        # makes into the layers below it (coverage_sweep, run_campaign and
        # the scenario I/O).
        children = (s["coverage.coverage_sweep"] + s["scenario.load_scenario"]
                    + s["scenario.atomic_write_text"])
        analyze_self = s["cli.cmd_analyze"] - children if c["cli.cmd_analyze"] else 0.0
        out["cli.cmd_analyze.self_ms_per_row"] = (
            1e3 * analyze_self / items if analysis else 0.0, "ms")
        n_sim = c["cli.cmd_simulate"]
        simulate_self = s["cli.cmd_simulate"] - children - s["simulator.run_campaign"]
        out["cli.cmd_simulate.self_ms_per_call"] = (
            1e3 * simulate_self / n_sim if n_sim else 0.0, "ms")
        out["scenario.load_scenario.ms_per_call"] = (
            self.per_call("scenario.load_scenario", 1e3), "ms")
        out["scenario.atomic_write_text.ms_per_call"] = (
            self.per_call("scenario.atomic_write_text", 1e3), "ms")
        out["scenario.atomic_write_text.bytes_per_item"] = (first["bytes"] / first_items, "B")
        snapshots = 0 if analysis else items
        out["simulator.step.calls_per_snapshot"] = (
            0.0 if analysis else fc["simulator.step"] / first_items, "count")
        out["simulator.step.ns_per_interferer_step"] = (
            1e9 * s["simulator.step"] / self.interferer_steps if self.interferer_steps else 0.0,
            "ns")
        campaign_self = s["simulator.run_campaign"] - s["simulator.step"]
        out["simulator.run_campaign.self_us_per_snapshot"] = (
            1e6 * campaign_self / snapshots if snapshots else 0.0, "us")
        return out
