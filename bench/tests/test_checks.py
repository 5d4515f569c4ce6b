"""Every workload check fails on a deliberately wrong output."""

import json
import math

import numpy as np
import pytest

import checks
import oracle
import workloads
from conftest import BENCH


def _rows(doc):
    """Correct coverage rows for a scenario, computed by the oracle."""
    rows = []
    for psi_db in doc["psi_grid_db"]:
        psi = 10.0 ** (psi_db / 10.0)
        rows.append({"psi_db": float(f"{psi_db:.10g}"), "psi_linear": psi,
                     "p_cov": checks.oracle_coverage(doc, psi), "status": "ok"})
    return rows


@pytest.fixture(scope="module")
def reference():
    doc = workloads._scenario(M=2, h0=20.0, stay=0.1,
                              psi_db=list(workloads.REFERENCE_PSI_DB))
    table = checks.reference_table(BENCH.parent / "docs" / "reference_table.md")
    return doc, _rows(doc), table


def test_correct_rows_pass(reference):
    doc, rows, table = reference
    assert checks.check_table(rows, doc) == []
    assert checks.check_reference_rows(rows, 0.1, table) == []
    assert checks.check_oracle_rows(rows, doc) == []


@pytest.mark.parametrize("index", range(6))
def test_row_moved_by_1e_3_fails(reference, index):
    doc, rows, table = reference
    moved = [dict(r) for r in rows]
    moved[index]["p_cov"] += 1e-3 if moved[index]["p_cov"] < 0.5 else -1e-3
    assert checks.check_oracle_rows(moved, doc)
    assert checks.check_reference_rows(moved, 0.1, table)


def test_rising_coverage_fails(reference):
    doc, rows, _ = reference
    rising = [dict(r) for r in rows]
    rising[2]["p_cov"], rising[3]["p_cov"] = rising[3]["p_cov"], rising[2]["p_cov"]
    assert any("rises" in e for e in checks.check_table(rising, doc))


def test_failed_row_status_fails(reference):
    doc, rows, _ = reference
    bad = [dict(r) for r in rows]
    bad[1]["status"] = "NumericalError: quadrature failed"
    assert checks.check_table(bad, doc)


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """Real campaign summaries from short, independently seeded CLI calls."""
    import uavcov.cli

    tmp = tmp_path_factory.mktemp("campaigns")
    summaries = []
    for seed in range(1, 7):
        doc = workloads._scenario(M=2, h0=10.0, sim={
            "n_snapshots": 2 * 64 * 20, "warmup_steps": 128, "replications": 2,
            "chains": 64, "seed": seed})
        path = tmp / f"s{seed}.json"
        path.write_text(json.dumps(doc))
        assert uavcov.cli.main(["simulate", "--scenario", str(path),
                                "--out", str(tmp / f"o{seed}")]) == 0
        summaries.append(checks.parse_summary((tmp / f"o{seed}.json").read_text()))
    return doc, summaries


def test_correct_campaigns_pass(campaigns):
    doc, summaries = campaigns
    pool = checks.pooled(summaries)
    assert checks.check_simulated_coverage(pool, doc) == []
    assert checks.check_dwelling(pool, doc) == []


def test_coverage_moved_by_5_se_fails(campaigns):
    doc, summaries = campaigns
    pool = checks.pooled(summaries)
    want = np.array([checks.oracle_coverage(doc, 10.0 ** (d / 10.0)) for d in doc["psi_grid_db"]])
    # Move the pooled estimate 5 SE further from the analysis at every threshold.
    shift = 5.0 * pool["coverage_se"] * np.sign(pool["coverage"] - want)
    moved = [dict(s, coverage=(np.array(s["coverage"]) + shift).tolist()) for s in summaries]
    assert max(5.0 * pool["coverage_se"]) > checks.COVERAGE_ABS_FLOOR
    assert checks.check_simulated_coverage(checks.pooled(moved), doc)


@pytest.mark.parametrize("M", [2, 8])
def test_histogram_from_shifted_binomial_fails(M):
    doc = workloads._scenario(M=M, h0=10.0)
    mob = doc["mobility"]
    p = oracle.stay_probability(mob["speed_min_mps"], mob["speed_max_mps"], mob["dwell_min_s"],
                                mob["dwell_max_s"], workloads.HEIGHT_M)
    rng = np.random.default_rng(7)
    pool = {"dwelling_fraction": p, "dwelling_fraction_se": 1e-3}
    pool["dwelling_count_hist"] = np.bincount(rng.binomial(M, p, 200_000), minlength=M + 1)
    assert checks.check_dwelling(pool, doc) == []
    pool["dwelling_count_hist"] = np.bincount(rng.binomial(M, p + 0.05, 200_000),
                                              minlength=M + 1)
    assert any("histogram" in e for e in checks.check_dwelling(pool, doc))


def test_dwelling_fraction_off_by_5_se_fails():
    doc = workloads._scenario(M=2, h0=10.0)
    mob = doc["mobility"]
    p = oracle.stay_probability(mob["speed_min_mps"], mob["speed_max_mps"], mob["dwell_min_s"],
                                mob["dwell_max_s"], workloads.HEIGHT_M)
    hist = np.array([(1 - p) ** 2, 2 * p * (1 - p), p**2]) * 1e5
    pool = {"dwelling_fraction": p + 5e-3, "dwelling_fraction_se": 1e-3,
            "dwelling_count_hist": hist}
    assert any("dwelling fraction" in e for e in checks.check_dwelling(pool, doc))


def test_coverage_outside_sandwich_fails():
    doc = workloads._scenario(M=8, h0=10.0, altitude_dependent=True)
    psi = [10.0 ** (d / 10.0) for d in doc["psi_grid_db"]]
    hi = np.array([checks.oracle_coverage(doc, p, m1=1) for p in psi])
    lo = np.array([checks.oracle_coverage(doc, p, m1=3) for p in psi])
    pool = {"n_snapshots": 10**6, "coverage": 0.5 * (lo + hi),
            "coverage_se": np.full(len(psi), 1e-3)}
    assert checks.check_sandwich(pool, doc) == []
    pool["coverage"] = hi + 0.01
    assert checks.check_sandwich(pool, doc)
    pool["coverage"] = lo - 0.01
    assert checks.check_sandwich(pool, doc)
