#!/usr/bin/env python3
"""Count Gauss-Kronrod batches and points per request over a benchmark pool.

Runs every request of a pool of perfbench/workloads.py once, in process,
through perfbench/worker.execute, with a wrapper on quadrature._gk_rows
that counts its calls (batches) and rows x 21 (points), and prints one JSON
object: per request kind (the functional's name, or the norm's engine and
op, or "sweep"), the number of requests and the batches and points per
request.  Counts do not depend on the hardware, so two trees compare
exactly.  With --outputs, every request's output is written as JSON lines,
so that two trees' outputs can be compared bit for bit.

    python scripts/gk_counts.py --pool functionals [--outputs out.jsonl]
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from hopnorms import quadrature  # noqa: E402
from workloads import POOLS  # noqa: E402
from worker import execute  # noqa: E402


def kind_of(req: dict) -> str:
    if req["kind"] == "functional":
        return req["func"]
    if req["kind"] == "norm":
        return f"{req['engine']}-{req['op']}"
    return req["kind"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(POOLS), default="functionals")
    parser.add_argument("--outputs", help="write each request's output here, one JSON line each")
    args = parser.parse_args(argv)

    count = {"batches": 0, "points": 0}
    gk_rows = quadrature._gk_rows

    def counted(specs, panels, *rest, **kw):
        count["batches"] += 1
        count["points"] += 21 * len(panels)
        return gk_rows(specs, panels, *rest, **kw)

    quadrature._gk_rows = counted
    kinds = {}
    out = open(args.outputs, "w") if args.outputs else None
    try:
        for req in POOLS[args.pool]():
            before = dict(count)
            try:
                result = execute(req)
            except Exception as exc:  # a failed request is reported, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
            row = kinds.setdefault(kind_of(req), {"requests": 0, "batches": 0, "points": 0})
            row["requests"] += 1
            for key in ("batches", "points"):
                row[key] += count[key] - before[key]
            if out is not None:
                out.write(json.dumps({"request": req, "output": result}) + "\n")
    finally:
        quadrature._gk_rows = gk_rows
        if out is not None:
            out.close()
    total = {key: sum(row[key] for row in kinds.values()) for key in ("requests", "batches",
                                                                      "points")}
    report = {}
    for name, row in sorted(kinds.items()) + [("all", total)]:
        m = row["requests"]
        report[name] = {"requests": m, "batches": row["batches"], "points": row["points"],
                        "batches_per_request": round(row["batches"] / m, 3),
                        "points_per_request": round(row["points"] / m, 1)}
    print(json.dumps({"pool": args.pool, "kinds": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
