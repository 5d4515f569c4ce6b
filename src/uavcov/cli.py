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

import numpy as np

from .config import derive_stay_probability
from .coverage import coverage_sweep
from .errors import ConfigurationError, DomainError
from .interference import phase_laplace_factor
from .scenario import (
    Scenario,
    atomic_write_text,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .simulator import run_campaign

COVERAGE_CSV_HEADER = "# uavcov coverage-table v1"
HISTOGRAM_CSV_HEADER = "# uavcov histograms v1"
SWEEP_CSV_HEADER = "# uavcov sweep-table v1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _apply_overrides(sc: Scenario, args) -> Scenario:
    doc = scenario_to_dict(sc)
    if getattr(args, "psi_db", None):
        try:
            doc["psi_grid_db"] = [float(v) for v in args.psi_db.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--psi-db must be comma-separated numbers, got {args.psi_db!r}"
            ) from None
    if getattr(args, "seed", None) is not None:
        doc["sim"]["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        doc["sim"]["replications"] = args.replications
    return scenario_from_dict(doc)


def _coverage_rows(sc: Scenario):
    net, fading = sc.network, sc.fading
    p_stay = derive_stay_probability(sc.mobility, net)
    psi_linear = sc.psi_grid_linear()
    points = coverage_sweep(psi_linear, net, fading, p_stay)
    rows = []
    for psi_db, point in zip(sc.psi_grid_db, points):
        s0 = fading.serving_m * point.psi * net.serving_altitude**net.path_loss_exponent
        if point.error is None:
            phi_st, phi_mo = point.phi_static, point.phi_moving
            if phi_st is None:  # no interferers: coverage needed no phase factor
                phi_st = phase_laplace_factor("static", s0, fading.interferer_m, net)
                phi_mo = phase_laplace_factor("moving", s0, fading.interferer_m, net)
            status = "ok"
        else:
            phi_st = phi_mo = math.nan
            status = point.error.replace(",", ";")
        rows.append((psi_db, point.psi, point.coverage, s0, phi_st, phi_mo, status))
    return rows, p_stay


def _write_coverage_csv(path: str, rows) -> None:
    lines = [COVERAGE_CSV_HEADER,
             "psi_db,psi_linear,p_cov,laplace_s,phi_static,phi_moving,status"]
    for psi_db, psi, cov, s0, phi_st, phi_mo, status in rows:
        lines.append(
            f"{psi_db:.10g},{psi:.12g},{cov:.12g},{s0:.12g},"
            f"{phi_st:.12g},{phi_mo:.12g},{status}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_analyze(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    rows, p_stay = _coverage_rows(sc)
    _write_coverage_csv(args.out, rows)
    if args.json:
        doc = {
            "format": "uavcov coverage-table v1",
            "scenario": scenario_to_dict(sc),
            "stay_probability": p_stay,
            "rows": [
                {
                    "psi_db": r[0], "psi_linear": r[1], "p_cov": _statistic(r[2]),
                    "laplace_s": r[3], "phi_static": _statistic(r[4]),
                    "phi_moving": _statistic(r[5]), "status": r[6],
                }
                for r in rows
            ],
        }
        atomic_write_text(
            args.json, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    print(f"wrote coverage table for {len(rows)} thresholds to {args.out}")
    return EXIT_OK


def _histogram_lines(result) -> list[str]:
    lines = [HISTOGRAM_CSV_HEADER, "variable,bin_left,bin_right,count"]
    datasets = (
        ("distance_static", result.static_distances),
        ("distance_moving", result.moving_distances),
        ("altitude_static", result.static_altitudes),
        ("altitude_moving", result.moving_altitudes),
    )
    for name, data in datasets:
        if data.size == 0:
            continue
        counts, edges = np.histogram(data, bins=40)
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            lines.append(f"{name},{lo:.10g},{hi:.10g},{int(c)}")
    hist = result.dwelling_count_hist
    for k, c in enumerate(hist):
        lines.append(f"dwelling_count,{k},{k + 1},{int(c)}")
    return lines


def _statistic(value: float) -> float | None:
    """A summary statistic for JSON: None (null) where it is undefined (NaN)."""
    return None if math.isnan(value) else value


def cmd_simulate(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    psi = np.asarray(sc.psi_grid_linear())
    result = run_campaign(
        sc.network, sc.fading, sc.mobility, sc.sim.n_snapshots, dt=sc.sim.dt,
        seed=sc.sim.seed, psi_grid=psi, stride=sc.sim.stride,
        replications=sc.sim.replications, chains=sc.sim.chains,
    )

    if sc.fading.altitude_dependent:
        analytical = "n/a (simulation-only)"
    else:
        rows, _ = _coverage_rows(sc)
        analytical = [_statistic(r[2]) for r in rows]
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
    # Imported here: the suite pulls in scipy, which no other command needs.
    from .validation import run_validation

    sc = _apply_overrides(load_scenario(args.scenario), args)
    fault = 1e-3 if args.inject_fault == "phase-factor" else 0.0
    checks = run_validation(sc, fault_bias=fault)
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
    parts = dotted.split(".")
    node = doc
    for key in parts[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigurationError(f"unknown scenario field {dotted!r}")
        node = node[key]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigurationError(f"unknown scenario field {dotted!r}")
    old = node[leaf]
    caster = type(old) if old is not None else float
    if caster is bool:
        flag = value.lower()
        if flag not in ("true", "false", "1", "0"):
            raise ConfigurationError(
                f"cannot set {dotted} to {value!r}: expected true, false, 1 or 0"
            )
        node[leaf] = flag in ("true", "1")
        return
    try:
        node[leaf] = caster(value)
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
        variant = scenario_from_dict(doc)
        rows, _ = _coverage_rows(variant)
        for psi_db, psi, cov, _s0, _st, _mo, status in rows:
            lines.append(f"{args.param},{value},{psi_db:.10g},{psi:.12g},{cov:.12g},{status}")
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
        p.add_argument("--replications", type=int, default=None,
                       help="override sim.replications")
        p.add_argument("--psi-db", dest="psi_db", default=None,
                       help="comma-separated dB threshold grid override")

    p_an = sub.add_parser("analyze", help="closed-form coverage table")
    add_common(p_an)
    p_an.add_argument("--json", default=None, help="also write a JSON table here")

    p_sim = sub.add_parser("simulate", help="Monte Carlo campaign")
    add_common(p_sim)

    p_val = sub.add_parser("validate", help="cross-validation check suite")
    add_common(p_val, needs_out=False)
    p_val.add_argument(
        "--inject-fault", choices=["phase-factor"], default=None,
        help="perturb the closed form by 1e-3 inside the closed-vs-quadrature "
        "check, to show that the check fails",
    )

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
