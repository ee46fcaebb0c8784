"""Run the known failures of hopnorms through the benchmark's accounting.

    python3 perfbench/known_failures.py

The timed workloads hold only requests that hopnorms answers correctly, so
that a failed result in a timed run always means a regression.  The
defects below are kept here instead: each request runs once, its oracle
is computed live with mpmath, and the verdicts the timed runs would give
are printed.  A line reading "passes" means the defect has been fixed and
the request can join its workload's pool.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracles import oracle  # noqa: E402
from run import check  # noqa: E402
from workloads import (BELL_PARAMS, BELL_SEED_FAILURES, bell_request,  # noqa: E402
                       functional_request, key, q_grid_request)
from worker import execute  # noqa: E402  (puts the checkout's src/ on sys.path)


def _q_grid(fam: str, params: list, n: int) -> dict:
    req = q_grid_request(fam, params, n, False)
    argv = list(req["argv"])
    argv[argv.index("--grid") + 1] = "q=1,10,100,1000,3000,10000"
    return {"kind": "sweep", "argv": argv}


KNOWN_FAILURES = (
    # peak narrower than the quadrature's scan: ln W = -inf at q = 1e4
    ("q-sweep", _q_grid("hermite", [], 2)),
    # quadrature loses 0.34 nats of a narrow peak at q = 3000
    ("q-sweep", _q_grid("laguerre", [0.5], 1)),
    ("q-sweep", _q_grid("laguerre", [1.0], 0)),
    # the Laplace maximizer misses the global maximum in (0, first zero)
    ("q-sweep", _q_grid("laguerre", [0.5], 5)),
    # E and I overflow to -inf for laguerre alpha >= 1e3
    ("functionals", functional_request("E", "laguerre", [1000.0], 2)),
    ("functionals", functional_request("I", "laguerre", [1000.0], 2)),
    # bell engine: off by ~33 nats while claiming a relative error of 0.24
    ("functionals", bell_request("laguerre", [2.5], 30, 8)),
    ("functionals", bell_request("laguerre", [2.5], 60, 4)),
    # bell engine: OverflowError / ValueError from fsum, not NumericalFailure
    ("functionals", bell_request("jacobi", [2.5, 1.5], 30, 8)),
    ("functionals", bell_request("hermite", [], 12, 20)),
    ("functionals", bell_request("jacobi", [2.5, 1.5], 3, 80)),
    # bell engine: NumericalFailure at n*q = 240 and on the pool's excluded pairs
    ("functionals", bell_request("gegenbauer", [1.75], 10, 24)),
) + tuple(("functionals", bell_request(fam, BELL_PARAMS[fam], n, q))
          for fam, n, q in BELL_SEED_FAILURES) + (
    # Fisher information evaluates p_n in floats, which overflow
    ("functionals", functional_request("fisher", "hermite", [], 200)),
)


def probe(req: dict) -> list:
    """Verdicts for one live run of ``req``."""
    entry = json.loads(json.dumps(oracle(req)))
    try:
        out, status = json.loads(json.dumps(execute(req))), "ok"
    except Exception as exc:  # the accounting under test records every exception
        out, status = f"{type(exc).__name__}: {exc}"[:300], type(exc).__name__
    return check(req, status, out, entry)


def main() -> int:
    for workload, req in KNOWN_FAILURES:
        t0 = time.perf_counter()
        verdicts = probe(req)
        bad = [reason for ok, reason in verdicts if not ok]
        state = f"{len(bad)}/{len(verdicts)} results fail" if bad else "passes"
        print(f"[{workload}] {key(req)}: {state} ({time.perf_counter() - t0:.1f} s)")
        for reason in bad:
            print(f"    {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
