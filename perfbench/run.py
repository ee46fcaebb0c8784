"""Benchmark of hopnorms: end-to-end and per-layer numbers of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and METRICS.md): degree-sweep, q-sweep,
functionals.  The seed picks and orders requests from a fixed pool; a child
process (worker.py) runs them as a single-client closed loop for S seconds
of request time at a reference machine speed (then to the end of the
current round),
and every output is checked against the oracle table (oracles.py), which
was computed with mpmath outside the timed region.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
processes that import hopnorms.cli and serve one warm-up request), results
per second, p50/p90 request latency and peak RSS of the worker.  Request
times are rescaled to a reference machine speed with the probes of
speed.py, which removes most of the noise of a shared host; the raw
figures go to standard error.  --trace 1
runs S/2 seconds untraced, then S/2 seconds with spans recorded around the
package's layers, and reports the per-layer metrics; the spans are written
to .perfbench/ in the checkout.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Diagnostics, including every failed result, go to standard error.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from oracles import TABLE_PATH, results_in, row_key  # noqa: E402
from workloads import WORKLOADS, key, stream  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 160
SPAN_DIR = os.path.join(ROOT, ".perfbench")

PER_LAYER_UNITS = (("us_per_call", "us"), ("ms_per_call", "ms"), ("_share", "frac"),
                   ("_frac", "frac"), ("calls_per_result", "count"), ("neval_per_call", "count"),
                   ("calls_per_norm", "count"), ("failures", "count"))


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile: with N values, N - ceil(p N / 100) lie above it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


# ----------------------------------------------------------------- checking
# Each check returns one (ok, reason) per result the request should yield.

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_norm(out, entry: dict) -> list:
    sign, log_value, err = out
    if sign != 1 or not _finite(log_value) or not _finite(err):
        return [(False, f"non-finite or non-positive result {out}")]
    miss = abs(log_value - entry["log"])
    if miss > entry["tol"] + err:
        return [(False, f"ln N = {log_value!r} misses oracle {entry['log']!r} by {miss:.3g} "
                        f"(allowed {entry['tol']:.3g} + claimed {err:.3g})")]
    return [(True, "")]


def check_functional(out, entry: dict) -> list:
    if not _finite(out):
        return [(False, f"non-finite result {out!r}")]
    miss = abs(out - entry["value"])
    if miss > entry["rtol"] * max(1.0, abs(entry["value"])):
        return [(False, f"{out!r} misses oracle {entry['value']!r} by {miss:.3g}")]
    return [(True, "")]


def _row_verdict(row: dict, expected: dict) -> tuple:
    if row.get("error"):
        return False, f"error column: {row['error']}"
    try:
        sign, log_value = float(row["sign"]), float(row["log_value"])
        err = float(row["rel_err_estimate"])
    except (KeyError, TypeError, ValueError):
        return False, f"unparsable row {row}"
    if sign != 1 or not math.isfinite(log_value) or not math.isfinite(err):
        return False, f"non-finite or non-positive row {row}"
    if "log" in expected and abs(log_value - expected["log"]) > expected["tol"] + err:
        return False, (f"{row['engine']} ln N = {log_value!r} misses oracle {expected['log']!r} "
                       f"by {abs(log_value - expected['log']):.3g} (allowed {expected['tol']:.3g})")
    return True, ""


def check_sweep(out, entry: dict) -> list:
    rows = list(csv.DictReader(io.StringIO(out["csv"]))) if out["csv"].strip() else []
    seen = {}
    for row in rows:
        try:
            k = row_key(row["engine"], float(row[entry["axis"]]))
        except (KeyError, TypeError, ValueError):
            continue
        seen[k] = row
    verdicts = []
    for k, expected in sorted(entry["rows"].items()):
        row = seen.get(k)
        verdicts.append(_row_verdict(row, expected) if row is not None
                        else (False, f"row {k} missing (exit code {out['code']})"))
    return verdicts


def check(req: dict, status: str, out, entry: dict) -> list:
    """Verdicts for one request: a raised exception fails all its results."""
    if status != "ok":
        return [(False, f"raised {out}")] * results_in(entry)
    if req["kind"] == "norm":
        return check_norm(out, entry)
    if req["kind"] == "functional":
        return check_functional(out, entry)
    return check_sweep(out, entry)


# ------------------------------------------------------------------ running

def measure_setup(workload: str) -> list:
    """Wall times of fresh processes that import hopnorms.cli and serve one
    warm-up request.  Not rescaled: the probes of speed.py run in this
    process, not in the one being timed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, WORKER, "--setup", workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def run_worker(job: dict) -> dict:
    proc = subprocess.run([sys.executable, WORKER, "--run"], cwd=ROOT, input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for per-layer metric {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopnorms", "__init__.py")):
        print(f"hopnorms sources not found under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    with open(TABLE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    rounds = stream(args.workload, args.seed)
    requests = [r for rnd in rounds for r in rnd]
    entries = [table[key(r)] for r in requests]

    setup_times = None if args.trace else measure_setup(args.workload)
    span_path = None
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_path = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    out = run_worker({"workload": args.workload, "requests": requests,
                      "round_ends": list(itertools.accumulate(len(r) for r in rounds)),
                      "seconds": args.seconds,
                      "trace": args.trace, "span_path": span_path,
                      "results_per_request": [results_in(e) for e in entries]})

    attempted = failed = 0
    latencies = []
    for idx, latency, status, payload in out["records"]:
        latencies.append(latency)
        for ok, reason in check(requests[idx], status, payload, entries[idx]):
            attempted += 1
            if not ok:
                failed += 1
                print(f"FAILED {key(requests[idx])}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(out["metrics"].items())}
    else:
        rescaled = speed.rescale_all(latencies, out["probes"])
        print(f"raw: {(attempted - failed) / sum(latencies):.4f} results/s, "
              f"p50 {1e3 * percentile(latencies, 50):.2f} ms, "
              f"p90 {1e3 * percentile(latencies, 90):.2f} ms", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "results_per_s": {"value": (attempted - failed) / sum(rescaled), "unit": "1/s"},
            "call_ms_p50": {"value": 1e3 * percentile(rescaled, 50), "unit": "ms"},
            "call_ms_p90": {"value": 1e3 * percentile(rescaled, 90), "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(latencies)} requests, {attempted} results, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
