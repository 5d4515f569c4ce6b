"""Benchmark of uavcov's analysis and simulation routes through its CLI.

Run from the repository root:

    python3 bench/run.py --workload analyze-closed --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run measures set-up (fresh interpreters importing `uavcov.cli`), then
calls `uavcov.cli.main` in this process, one call at a time (one client,
closed loop), in whole rounds of the workload's units until `--seconds`
have passed, then checks every output.  Its last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
See README.md for the workloads, the metrics and the steadiness method.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_SAMPLES = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


# --- machine speed reference -------------------------------------------------
#
# The machine this was tuned on changes speed by +-25% within tens of
# milliseconds and by up to 1.8x for seconds at a time, and process CPU time
# follows wall time, so neither filters the swings out.  Each unit is
# therefore bracketed by a fixed reference loop of the benchmark's own, and
# unit times are reported at the reference speed:
# t * REFERENCE_NOMINAL_S / t_reference, with t_reference the mean of the
# loops just before and just after the unit.  The loop mixes the four kinds
# of work uavcov does, in about equal time: pure-Python float series (hyp2f1,
# jets), numpy calls on scalars (distance pdf under quadrature), and numpy
# on arrays of about a hundred and a few thousand elements (simulator steps
# at the two widths).

REFERENCE_NOMINAL_S = 0.024


def _reference_work(np, rng):
    term, total = 1.0, 0.0
    for i in range(12000):
        term = term * (1.5 + i) * (2.5 + i) / ((3.5 + i) * (i + 1.0)) * 0.9 + 1e-3
        total += math.sqrt(term + i)
    for i in range(1000):
        w = np.atleast_1d(np.asarray(0.5 + i * 1e-4))
        out = np.empty_like(w)
        low = w < 0.3
        out[low] = w[low] ** 2
        out[~low] = w[~low]
        total += float(np.maximum(out, 0.0)[0])
    y, target = rng.random(128), rng.random(128)
    for _ in range(150):
        idx = np.flatnonzero(y > 0.5)
        y[idx] += np.sign(target[idx] - y[idx]) * 0.01
        y = np.minimum(np.abs(y), 1.0)
        target[idx] = rng.uniform(0.0, 1.0, idx.size)
    y = rng.random(4096)
    shape = np.where(y > 0.5, 1.0, 2.0)
    for _ in range(25):
        y = np.sqrt(y * y + rng.gamma(shape, 1.0 / shape)) * 0.5
        y[np.flatnonzero(y > 0.4)] *= 0.9
    return total + float(y.sum())


def reference_seconds(np) -> float:
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    _reference_work(np, rng)
    return time.perf_counter() - t0


# --- set-up ------------------------------------------------------------------
#
# Set-up runs in child processes, so the in-process loop above cannot bracket
# it; it also follows the machine's speed less than that loop does (in one
# fast spell the import sped up about 1.3x and the loop 1.6x).  So each
# set-up sample is bracketed instead by a fresh interpreter importing numpy
# and a fixed set of standard-library modules, the same kind of work.

REFERENCE_IMPORT = (
    "import numpy, asyncio, email.parser, email.mime.multipart, http.server, "
    "http.cookiejar, decimal, unittest.mock, xml.etree.ElementTree, xml.dom.minidom, "
    "logging.handlers, multiprocessing.pool, concurrent.futures, sqlite3, csv, argparse, "
    "tarfile, zipfile, json, statistics, fractions, inspect, dataclasses, typing, pydoc, "
    "difflib, smtplib, imaplib, ftplib, wave, calendar, pickletools, shelve, gettext, "
    "optparse, pstats, cProfile, trace, ssl, urllib.request, xmlrpc.client, configparser, "
    "plistlib, mailbox, doctest, timeit, ast, dis, tokenize, pdb, sysconfig, platform, "
    "uuid, hmac, secrets, ipaddress, lzma, bz2, gzip, shutil, glob, fnmatch, tempfile, "
    "queue, sched, selectors, socketserver, wsgiref.simple_server, html.parser"
)
REFERENCE_IMPORT_NOMINAL_S = 0.30


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(modules: str) -> float:
    """Seconds from spawning a fresh interpreter until it has run `import <modules>`."""
    code = f"import time; {modules}; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True).stdout
    return float(out.split()[-1]) - t0


def import_profile() -> dict:
    """Cumulative import seconds of `uavcov` and `uavcov.validation`, from -X importtime."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import uavcov.cli"],
                         env=_child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True).stderr
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {"setup.import.uavcov_s": cumulative.get("uavcov", 0.0),
            "setup.import.uavcov.validation_s": cumulative.get("uavcov.validation", 0.0)}


def measure_setup() -> tuple[float, float]:
    """Median set-up seconds over SETUP_SAMPLES fresh interpreters, raw and scaled.

    The first import in a fresh checkout also compiles bytecode; the median
    absorbs that one slow sample.
    """
    raw, scaled = [], []
    ref_before = import_seconds(REFERENCE_IMPORT)
    for _ in range(SETUP_SAMPLES):
        t = import_seconds("import uavcov.cli")
        ref_after = import_seconds(REFERENCE_IMPORT)
        raw.append(t)
        scaled.append(t * 2.0 * REFERENCE_IMPORT_NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(raw), statistics.median(scaled)


# --- units -------------------------------------------------------------------

class Runner:
    """Writes scenario files, calls the CLI and keeps what each call wrote."""

    def __init__(self, workdir: Path):
        import uavcov.cli
        self.cli = uavcov.cli
        self.workdir = workdir
        self.count = 0

    def call(self, unit: workloads.Unit) -> tuple[int, dict, float]:
        """Run one unit; returns (exit code, {suffix: text written}, seconds)."""
        self.count += 1
        scenario = self.workdir / f"s{self.count}.json"
        scenario.write_text(json.dumps(unit.scenario), encoding="utf-8")
        out = self.workdir / f"o{self.count}"
        argv = [unit.command, "--scenario", str(scenario), "--out",
                str(out) + (".csv" if unit.command == "analyze" else "")]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, counted by the caller
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        written = {}
        for suffix in (".csv", ".json", "_histograms.csv"):
            path = Path(str(out) + suffix)
            if path.exists():
                written[suffix] = path.read_text(encoding="utf-8")
                path.unlink()
        scenario.unlink()
        return code, written, seconds


def items_of(unit: workloads.Unit, written: dict) -> int:
    if unit.command == "analyze":
        return len(written[".csv"].strip().splitlines()) - 2
    return json.loads(written[".json"])["n_snapshots"]


def rate(records, scaled: bool) -> float:
    """Items per second: per slot, the median unit time over rounds, summed."""
    by_slot = {}
    for r in records:
        t = r["scaled_s"] if scaled else r["seconds"]
        by_slot.setdefault(r["slot"], []).append((t, r["items"]))
    total_items = sum(v[0][1] for v in by_slot.values())
    total_time = sum(statistics.median(t for t, _ in v) for v in by_slot.values())
    return total_items / total_time


def run_rounds(np, runner, workload, seed, seconds, tracer=None):
    """Whole rounds until `seconds` have passed (at least MIN_ROUNDS).

    With a tracer, even rounds run traced and odd rounds untraced, so the
    run measures its own tracing overhead.
    """
    records, failures, first_counts = [], [], None
    start = time.perf_counter()
    ref_before = reference_seconds(np)
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 0
        for unit in workloads.round_units(workload, seed, r):
            if traced:
                tracer.install()
            try:
                code, written, t = runner.call(unit)
            finally:
                if traced:
                    tracer.uninstall()
            ref_after = reference_seconds(np)
            factor = 2.0 * REFERENCE_NOMINAL_S / (ref_before + ref_after)
            ref_before = ref_after
            if code != 0:
                failures.append(f"round {r} unit {unit.slot}: exit code {code}")
                continue
            records.append({"round": r, "slot": unit.slot, "unit": unit, "written": written,
                            "items": items_of(unit, written), "seconds": t,
                            "scaled_s": t * factor,
                            "traced": traced})
        if traced and r == 0:
            first_counts = tracer.counts()
        r += 1
    return records, failures, first_counts


# --- checks ------------------------------------------------------------------

def check_outputs(workload: str, seed: int, records, warm) -> list[str]:
    import checks

    errors = []
    # Identical inputs must give byte-identical files: the warm-up call
    # repeats the first unit of round 0, and analysis rounds repeat round 0.
    first = {rec["slot"]: rec for rec in records if rec["round"] == 0}
    if warm["slot"] in first and warm["written"] != first[warm["slot"]]["written"]:
        errors.append(f"unit {warm['slot']}: two calls with the same input wrote different bytes")
    if workload.startswith("analyze"):
        for rec in records:
            if rec["slot"] in first and rec["written"] != first[rec["slot"]]["written"]:
                errors.append(f"round {rec['round']} unit {rec['slot']}: output differs "
                              "from round 0 for the same input")
        table = checks.reference_table(ROOT / "docs" / "reference_table.md")
        sampler = random.Random(f"oracle-sample/{workload}/{seed}")
        for slot, rec in first.items():
            doc = rec["unit"].scenario
            rows = checks.parse_coverage_csv(rec["written"][".csv"])
            errors += [f"{slot}: {e}" for e in checks.check_table(rows, doc)]
            if slot.startswith("reference-stay"):
                stay = doc["mobility"]["stay_probability_override"]
                errors += [f"{slot}: {e}" for e in checks.check_reference_rows(rows, stay, table)]
            sample = sampler.sample(rows, min(len(rows), 4 if workload == "analyze-closed" else 1))
            errors += [f"{slot}: {e}" for e in checks.check_oracle_rows(sample, doc)]
    elif records:
        summaries = [checks.parse_summary(rec["written"][".json"]) for rec in records]
        doc = records[0]["unit"].scenario
        pool = checks.pooled(summaries)
        errors += checks.check_dwelling(pool, doc)
        if doc["fading"]["altitude_dependent"]:
            errors += checks.check_sandwich(pool, doc)
        else:
            errors += checks.check_simulated_coverage(pool, doc)
    return errors


# --- main --------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    if trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        tracer = None
        setup_raw, setup_s = measure_setup()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(workdir)
        warm_unit = workloads.round_units(workload, seed, 0)[0]
        code, written, _ = runner.call(warm_unit)  # untimed: first-call costs
        warm = {"slot": warm_unit.slot, "written": written}
        records, failures, first_counts = run_rounds(np, runner, workload, seed, seconds,
                                                     tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(records) + len(failures)
    if not records:
        raise SystemExit(f"[{workload}] every call failed: " + "; ".join(failures))

    errors = [] if code == 0 else [f"warm-up call exited {code}"]
    errors += check_outputs(workload, seed, records, warm)
    for line in failures + errors:
        print(f"[{workload}] {line}", file=sys.stderr)

    if trace:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        first_items = sum(r["items"] for r in traced if r["round"] == 0)
        metrics = tracer.metrics(first_counts, first_items, sum(r["items"] for r in traced),
                                 analysis=workload.startswith("analyze"))
        for name, value in import_profile().items():
            metrics[name] = (value, "s")
        traced_rate = rate(traced, scaled=True)
        metrics["trace.items_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / rate(untraced, True)), "%")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (rate(records, scaled=True), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"[{workload}] unscaled setup_s={setup_raw:.4f} "
              f"items_per_s={rate(records, scaled=False):.2f} "
              f"rounds={records[-1]['round'] + 1}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one summary per workload."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                            for k, m in result["metrics"].items())
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {metrics}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uavcov" / "cli.py").is_file():
        print(f"error: no uavcov sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
