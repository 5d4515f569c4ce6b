"""Correctness checks on the program's outputs, made outside the timed region.

Each check returns a list of failure messages (empty when it passes).  The
analysis checks compare against the independent oracle in `oracle.py` and
against properties every coverage curve has; the simulation checks compare
pooled Monte Carlo estimates with the oracle and the kinematics.  None of
them compares against a stored copy of the program's output.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import oracle

ORACLE_RTOL = 1e-8          # closed forms and 1e-11 quadrature agree to ~1e-13
COVERAGE_ABS_FLOOR = 0.015  # simulate: |sim - analysis| <= max(0.015, 5 SE)
COVERAGE_SE = 5.0
DWELL_SE = 4.0              # dwelling fraction within 4 SE of the kinematics
HIST_TV = 0.02              # dwelling-count histogram vs Binomial(M, p)
SANDWICH_SE = 5.0           # simulate-wide: slack around the m1=1 / m1=3 curves


def parse_coverage_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    if len(lines) < 2 or lines[0] != "# uavcov coverage-table v1":
        raise ValueError("not a coverage table v1")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        for key in ("psi_db", "psi_linear", "p_cov"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


def reference_table(path: Path) -> dict[float, list[tuple[float, float]]]:
    """{stay probability: [(psi_db, coverage), ...]} parsed from the markdown table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if line.startswith("| stay prob."))
    psi_db = [float(re.sub(r"[^0-9.+-]", "", cell)) for cell in header.split("|")[2:-1]]
    table = {}
    for line in lines:
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if cells and re.fullmatch(r"[0-9.]+", cells[0]):
            table[float(cells[0])] = list(zip(psi_db, (float(c) for c in cells[1:])))
    return table


def geometry(doc: dict) -> oracle.Geometry:
    net = doc["network"]
    return oracle.Geometry(net["radius_m"], net["height_m"], net["serving_altitude_m"],
                           net["path_loss_exponent"])


def stay_probability(doc: dict) -> float:
    mob = doc["mobility"]
    if mob["stay_probability_override"] is not None:
        return mob["stay_probability_override"]
    return oracle.stay_probability(mob["speed_min_mps"], mob["speed_max_mps"],
                                   mob["dwell_min_s"], mob["dwell_max_s"],
                                   doc["network"]["height_m"])


def oracle_coverage(doc: dict, psi_linear: float, m1: int | None = None) -> float:
    return oracle.coverage(psi_linear, doc["network"]["n_interferers"],
                           doc["fading"]["serving_m"],
                           m1 if m1 is not None else doc["fading"]["interferer_m"],
                           stay_probability(doc), geometry(doc))


def check_table(rows: list[dict], doc: dict) -> list[str]:
    """Every row ok, p_cov in [0, 1], non-increasing in the threshold."""
    errors = []
    if [r["psi_db"] for r in rows] != [float(f"{v:.10g}") for v in doc["psi_grid_db"]]:
        errors.append("rows do not follow the scenario's threshold grid")
    for r in rows:
        if r["status"] != "ok":
            errors.append(f"row psi_db={r['psi_db']} has status {r['status']!r}")
        elif not 0.0 <= r["p_cov"] <= 1.0:
            errors.append(f"row psi_db={r['psi_db']} has p_cov={r['p_cov']} outside [0, 1]")
    for a, b in zip(rows, rows[1:]):
        if b["p_cov"] > a["p_cov"]:
            errors.append(f"p_cov rises from {a['p_cov']} at {a['psi_db']} dB "
                          f"to {b['p_cov']} at {b['psi_db']} dB")
    return errors


def check_reference_rows(rows: list[dict], stay: float, table) -> list[str]:
    """The reference-table thresholds match the table to its 6 printed figures."""
    errors = []
    by_db = {r["psi_db"]: r["p_cov"] for r in rows}
    for psi_db, expected in table[stay]:
        got = by_db.get(psi_db)
        half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(expected)) - 5)
        if got is None or abs(got - expected) > half_ulp * (1 + 1e-9):
            errors.append(f"stay {stay}, {psi_db} dB: p_cov {got} vs table {expected}")
    return errors


def check_oracle_rows(rows: list[dict], doc: dict) -> list[str]:
    errors = []
    for r in rows:
        want = oracle_coverage(doc, r["psi_linear"])
        if abs(r["p_cov"] - want) > ORACLE_RTOL * want:
            errors.append(f"psi_db={r['psi_db']}: p_cov {r['p_cov']!r} vs oracle {want!r} "
                          f"(rel {abs(r['p_cov'] - want) / want:.1e} > {ORACLE_RTOL:g})")
    return errors


def pooled(summaries: list[dict]) -> dict:
    """Pool independent campaign summaries.

    The SEs come from the spread between the independently seeded units.  An
    SE estimated from ~20 units is itself uncertain by ~15%, so it is
    floored by the pooled batch-means SE the units report (~20 batches
    each), which keeps a low draw of the spread from failing a correct run.
    """
    n = np.array([s["n_snapshots"] for s in summaries], dtype=float)
    k = len(summaries)
    w = n / n.sum()

    def mean_and_se(values, unit_se):
        values, unit_se = np.asarray(values, dtype=float), np.asarray(unit_se, dtype=float)
        mean = w @ values
        between = np.sqrt((w**2) @ ((values - mean) ** 2) * k / (k - 1))
        return mean, np.fmax(between, np.sqrt((w**2) @ unit_se**2))

    cov, cov_se = mean_and_se([s["coverage"] for s in summaries],
                              [s["coverage_se"] for s in summaries])
    dwell, dwell_se = mean_and_se([s["dwelling_fraction"] for s in summaries],
                                  [s["dwelling_fraction_se"] for s in summaries])
    hist = np.sum([s["dwelling_count_hist"] for s in summaries], axis=0)
    return {"n_snapshots": int(n.sum()), "coverage": cov, "coverage_se": cov_se,
            "dwelling_fraction": float(dwell), "dwelling_fraction_se": float(dwell_se),
            "dwelling_count_hist": hist}


def check_dwelling(pool: dict, doc: dict) -> list[str]:
    errors = []
    mob = doc["mobility"]
    p = oracle.stay_probability(mob["speed_min_mps"], mob["speed_max_mps"], mob["dwell_min_s"],
                                mob["dwell_max_s"], doc["network"]["height_m"])
    frac, se = pool["dwelling_fraction"], pool["dwelling_fraction_se"]
    if not abs(frac - p) <= DWELL_SE * se:
        errors.append(f"dwelling fraction {frac:.5f} vs {p:.5f} from the kinematics "
                      f"(|diff| > {DWELL_SE:g} SE = {DWELL_SE * se:.5f})")
    M = doc["network"]["n_interferers"]
    hist = np.asarray(pool["dwelling_count_hist"], dtype=float)
    binom = np.array([math.comb(M, n) * p**n * (1 - p) ** (M - n) for n in range(M + 1)])
    tv = 0.5 * float(np.abs(hist / hist.sum() - binom).sum()) if hist.size == M + 1 else math.inf
    if not tv <= HIST_TV:
        errors.append(f"dwelling-count histogram TV {tv:.4f} from Binomial({M}, {p:.4f}) "
                      f"> {HIST_TV}")
    return errors


def check_simulated_coverage(pool: dict, doc: dict) -> list[str]:
    errors = []
    for psi_db, cov, se in zip(doc["psi_grid_db"], pool["coverage"], pool["coverage_se"]):
        want = oracle_coverage(doc, 10.0 ** (psi_db / 10.0))
        tol = max(COVERAGE_ABS_FLOOR, COVERAGE_SE * se)
        if not abs(cov - want) <= tol:
            errors.append(f"{psi_db} dB: simulated {cov:.5f} vs analysis {want:.5f} "
                          f"(|diff| > {tol:.5f})")
    return errors


def check_sandwich(pool: dict, doc: dict) -> list[str]:
    """Altitude-dependent shapes in {1,2,3}: coverage between the m1=3 and m1=1 curves.

    With m0 = 1, coverage is a product of E[(1 + a/m)^-m] factors, and
    (1 + a/m)^-m decreases in m.
    """
    if doc["fading"]["serving_m"] != 1:
        raise ValueError("the sandwich bound holds for serving shape 1 only")
    errors = []
    n = pool["n_snapshots"]
    for psi_db, cov, se in zip(doc["psi_grid_db"], pool["coverage"], pool["coverage_se"]):
        psi = 10.0 ** (psi_db / 10.0)
        lo, hi = oracle_coverage(doc, psi, m1=3), oracle_coverage(doc, psi, m1=1)
        # A rare event can read 0 in every replication, which makes the
        # between-replication SE 0; the binomial SE at the upper curve floors it.
        slack = SANDWICH_SE * max(se, math.sqrt(hi * (1.0 - hi) / n))
        if not lo - slack <= cov <= hi + slack:
            errors.append(f"{psi_db} dB: simulated {cov:.5f} outside [{lo:.5f}, {hi:.5f}] "
                          f"+- {slack:.5f}")
    return errors


def parse_summary(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("format") != "uavcov campaign-summary v1":
        raise ValueError("not a campaign summary v1")
    return doc
