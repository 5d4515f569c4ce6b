"""Command-line surface: analyze | simulate | validate | sweep.

SIR thresholds are dB-valued on this boundary and converted to linear scale
exactly once, on the way in.  All file outputs are written atomically
(temporary file + rename) and carry a versioned format marker so downstream
plot scripts can pin byte-stable layouts.

Exit codes: 0 success, 1 validation-check failure, 2 input/configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from itertools import repeat

import numpy as np

from .config import derive_stay_probability
from .coverage import coverage_sweep
from .errors import ConfigurationError, DomainError
from .scenario import (
    Scenario,
    atomic_write_text,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep_type,
)

COVERAGE_CSV_HEADER = "# uavcov coverage-table v1"
HISTOGRAM_CSV_HEADER = "# uavcov histograms v1"
SWEEP_CSV_HEADER = "# uavcov sweep-table v1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _apply_overrides(sc: Scenario, args) -> Scenario:
    """sc with the command line's --psi-db and --seed; sc itself when
    neither is given.  Scenario and SimParams check the result."""
    changes = {}
    psi_db = getattr(args, "psi_db", None)
    if psi_db is not None:
        try:
            changes["psi_grid_db"] = tuple(float(v) for v in psi_db.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--psi-db must be comma-separated numbers, got {psi_db!r}"
            ) from None
    seed = getattr(args, "seed", None)
    if seed is not None:
        changes["sim"] = replace(sc.sim, seed=seed)
    return replace(sc, **changes) if changes else sc


def _coverage(sc: Scenario):
    """The coverage sweep over sc's threshold grid, and the stay probability
    it ran at.  The analysis has no altitude-dependent fading: a scenario
    with it is refused, not answered with the constant-shape curve."""
    if sc.fading.altitude_dependent:
        raise ConfigurationError(
            "fading.altitude_dependent is simulation-only: the analysis cannot evaluate "
            "it; run `simulate`, or set fading.altitude_dependent to false"
        )
    p_stay = derive_stay_probability(sc.mobility, sc.network)
    return coverage_sweep(sc.psi_grid_linear(), sc.network, sc.fading, p_stay), p_stay


def _status(sweep) -> list[str]:
    """The status column of a coverage table: ok, or the row's error with
    its commas turned into semicolons."""
    return ["ok" if error is None else error.replace(",", ";") for error in sweep.errors]


def cmd_analyze(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    sweep, p_stay = _coverage(sc)
    columns = (sc.psi_grid_db, sweep.psi.tolist(), sweep.coverage.tolist(), sweep.s0.tolist(),
               sweep.phi_static.tolist(), sweep.phi_moving.tolist(), _status(sweep))
    lines = map("%.10g,%.12g,%.12g,%.12g,%.12g,%.12g,%s".__mod__, zip(*columns))
    atomic_write_text(args.out, "\n".join([
        COVERAGE_CSV_HEADER, "psi_db,psi_linear,p_cov,laplace_s,phi_static,phi_moving,status",
        *lines]) + "\n")
    if args.json:
        doc = {
            "format": "uavcov coverage-table v1",
            "scenario": scenario_to_dict(sc),
            "stay_probability": p_stay,
            "rows": [
                {
                    "psi_db": psi_db, "psi_linear": psi, "p_cov": _statistic(cov),
                    "laplace_s": _statistic(s0), "phi_static": _statistic(phi_st),
                    "phi_moving": _statistic(phi_mo), "status": status,
                }
                for psi_db, psi, cov, s0, phi_st, phi_mo, status in zip(*columns)
            ],
        }
        atomic_write_text(
            args.json, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    print(f"wrote coverage table for {len(columns[0])} thresholds to {args.out}")
    return EXIT_OK


def _histogram_lines(result) -> list[str]:
    lines = [HISTOGRAM_CSV_HEADER, "variable,bin_left,bin_right,count"]
    for variable, hists, edges in zip(("distance", "altitude"), result.histograms,
                                      result.histogram_edges):
        for phase, counts in zip(("static", "moving"), hists.tolist()):
            if any(counts):
                lines += [f"{variable}_{phase},{lo:.10g},{hi:.10g},{c}"
                          for c, lo, hi in zip(counts, edges[:-1], edges[1:])]
    return lines + [f"dwelling_count,{k},{k + 1},{c}"
                    for k, c in enumerate(result.dwelling_count_hist.tolist())]


def _statistic(value: float) -> float | None:
    """A number for strict JSON: None (null) where it is NaN or infinite."""
    return value if math.isfinite(value) else None


def cmd_simulate(args) -> int:
    # Imported here: analyze, sweep and init never run the simulator.
    from .simulator import run_campaign

    sc = _apply_overrides(load_scenario(args.scenario), args)
    psi = np.asarray(sc.psi_grid_linear())
    result = run_campaign(
        sc.network, sc.fading, sc.mobility, sc.sim.n_snapshots, dt=sc.sim.dt,
        seed=sc.sim.seed, psi_grid=psi, stride=sc.sim.stride, chains=sc.sim.chains,
    )

    if sc.fading.altitude_dependent:
        analytical = "n/a (simulation-only)"
    else:
        analytical = list(map(_statistic, _coverage(sc)[0].coverage.tolist()))
    summary = {
        "format": "uavcov campaign-summary v1",
        "scenario": scenario_to_dict(sc),
        "stay_probability": result.stay_probability,
        "n_snapshots": result.n_snapshots,
        "psi_db": list(sc.psi_grid_db),
        "coverage": result.coverage().tolist(),
        "coverage_se": [_statistic(x) for x in result.coverage_se().tolist()],
        "analytical_coverage": analytical,
        "dwelling_fraction": _statistic(result.dwelling_fraction()),
        "dwelling_fraction_se": _statistic(result.dwelling_fraction_se()),
        "mean_interior_hop_length": _statistic(result.mean_interior_hop_length()),
        "dwelling_count_hist": result.dwelling_count_hist.tolist(),
        "meta": result.meta,
    }
    out_json = args.out + ".json"
    out_csv = args.out + "_histograms.csv"
    atomic_write_text(
        out_json, json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    atomic_write_text(out_csv, "\n".join(_histogram_lines(result)) + "\n")
    print(f"wrote campaign summary to {out_json} and histograms to {out_csv}")
    return EXIT_OK


def cmd_validate(args) -> int:
    # Imported here: no other command needs the suite (about 15 ms to load).
    from .validation import run_validation

    sc = _apply_overrides(load_scenario(args.scenario), args)
    checks = run_validation(sc)
    failed = 0
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
        failed += not check.passed
    if failed:
        print(f"{failed}/{len(checks)} checks failed")
        return EXIT_CHECK_FAILED
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _set_by_dotted_path(doc: dict, dotted: str, value):
    """Set one number or flag of a scenario document from a swept string,
    typed by the scenario table; a table (the band table, the threshold
    grid) is not sweepable."""
    caster = sweep_type(dotted)
    section, leaf = dotted.split(".")  # every number and flag lies in a section
    if caster is bool:
        flag = value.lower()
        if flag not in ("true", "false", "1", "0"):
            raise ConfigurationError(
                f"cannot set {dotted} to {value!r}: expected true, false, 1 or 0"
            )
        doc[section][leaf] = flag in ("true", "1")
        return
    try:
        doc[section][leaf] = caster(value)
    except ValueError:
        raise ConfigurationError(
            f"cannot set {dotted} to {value!r}: expected {caster.__name__}"
        ) from None


def cmd_sweep(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    lines = [SWEEP_CSV_HEADER, "param,value,psi_db,psi_linear,p_cov,status"]
    for value in values:
        doc = scenario_to_dict(sc)
        _set_by_dotted_path(doc, args.param, value)
        point = scenario_from_dict(doc, f"scenario with {args.param}={value}")
        sweep = _coverage(point)[0]
        lines += map("%s,%s,%.10g,%.12g,%.12g,%s".__mod__,
                     zip(repeat(args.param), repeat(value), point.psi_grid_db,
                         sweep.psi.tolist(), sweep.coverage.tolist(), _status(sweep)))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote sweep over {args.param} ({len(values)} values) to {args.out}")
    return EXIT_OK


def cmd_init(args) -> int:
    """Write a template scenario so users have a starting point."""
    from .config import FadingConfig, MobilityConfig, NetworkConfig
    from .scenario import SimParams

    sc = Scenario(
        network=NetworkConfig(40.0, 30.0, 10.0, 2, 2.0),
        fading=FadingConfig(1, 1),
        mobility=MobilityConfig(0.2, 10.0, 2.0, 6.0, 10.0),
        psi_grid_db=tuple(range(-20, 31, 5)),
        sim=SimParams(),
    )
    dump_scenario(sc, args.out)
    print(f"wrote template scenario to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Coverage analysis and simulation of a finite 3D mobile "
        "aerial interference network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        if needs_out:
            p.add_argument("--out", required=True, help="output path (or prefix)")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--psi-db", dest="psi_db", default=None,
                       help="comma-separated dB threshold grid override")

    p_an = sub.add_parser("analyze", help="analytical coverage table (Gauss-Legendre kernel)")
    add_common(p_an)
    p_an.add_argument("--json", default=None, help="also write a JSON table here")

    p_sim = sub.add_parser("simulate", help="Monte Carlo campaign")
    add_common(p_sim)

    p_val = sub.add_parser("validate", help="cross-validation check suite")
    add_common(p_val, needs_out=False)

    p_sw = sub.add_parser("sweep", help="coverage tables over a scenario field")
    add_common(p_sw)
    p_sw.add_argument("--param", required=True,
                      help="dotted scenario field, e.g. network.n_interferers")
    p_sw.add_argument("--values", required=True, help="comma-separated values")

    p_init = sub.add_parser("init", help="write a template scenario")
    p_init.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, not stored in the once-built parser, so a
    # handler replaced on this module later (a tracer does) is the one run
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
