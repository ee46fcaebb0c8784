#!/usr/bin/env python3
"""Count Gauss-Kronrod batches and points per request over a benchmark pool
or a case set.

Runs every request of a pool of perfbench/workloads.py once, in process,
through perfbench/worker.execute, or every integral of a case set defined
below, with a wrapper on quadrature._gk_rows that counts its calls
(batches) and rows x 21 (points), and prints one JSON object: per request
kind (the functional's name, or the norm's engine and op, or "sweep"; in
a case set, the integral's kind), the number of requests, the failures
and the batches and points per request.  Counts do not depend on the
hardware, so two trees compare exactly.  With --outputs, every request's
output is written as JSON lines, so that two trees' outputs can be
compared bit for bit.

    python scripts/gk_counts.py --pool functionals [--outputs out.jsonl]
    python scripts/gk_counts.py --cases poles [--outputs out.jsonl]
    python scripts/gk_counts.py --cases cusps [--outputs out.jsonl]

The case set "poles" holds 200 integrals whose peaks the pole rule or the
spec's own end exponent names, none of which a benchmark pool reaches:
N_q at q in {0.5, 2, 10, 100, 1e4}, W_q at q in {0.5, 1, 1.05, 2, 10, 100}
where integrable, and Shannon, of Jacobi(-0.5, 0.3), Jacobi(-0.9, -0.9),
Jacobi(-0.5, 2), Laguerre(-0.5) and Gegenbauer(0.25) at n in {0, 1, 3, 8};
and the Temme oracle int x^(mu - 1) e^(-lambda x) |L_m^(alpha)|^q dx at
alpha = 50, m in {0, 1, 3, 6}, (mu, lambda, q) in {(0.3, 2, 2), (1, 1, 3),
(3, 0.5, 2), (2.5, 3, 100)}.

The case set "cusps" holds 128 integrals whose |p_n|^a has a cusp
|x - x_k|^a at every zero x_k, where the engine grades their panels:
N_a = int |p_n|^a h and W = int |p_n|^a h^(a/2) at a in {0.1, 0.3, 0.5,
0.7, 0.9, 1.1, 1.9, 2.5}, of Hermite, Laguerre(1.5), Jacobi(1.5, 2.5) and
Gegenbauer(1.75) at n in {1, 6}.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from hopnorms import hermite, jacobi, laguerre, gegenbauer, measures, norms, paramasym  # noqa: E402
from hopnorms import quadrature  # noqa: E402
from workloads import POOLS  # noqa: E402
from worker import execute  # noqa: E402


def kind_of(req: dict) -> str:
    if req["kind"] == "functional":
        return req["func"]
    if req["kind"] == "norm":
        return f"{req['engine']}-{req['op']}"
    return req["kind"]


def pole_cases() -> list[tuple]:
    """The "poles" case set (see the module docstring): (kind, label, the
    integral's spec as a thunk) for each of its 200 integrals."""
    cases = []
    for fam in (jacobi(-0.5, 0.3), jacobi(-0.9, -0.9), jacobi(-0.5, 2.0), laguerre(-0.5),
                gegenbauer(0.25)):
        pole = min(fam.weight.e_lo, fam.weight.e_hi)
        for n in (0, 1, 3, 8):
            for q in (0.5, 2.0, 10.0, 100.0, 1e4):
                cases.append(("N", f"{fam.label()} n={n} q={q:g}",
                              lambda f=fam, n=n, q=q: norms.density_spec(f, n, q, 1.0)))
            for q in (0.5, 1.0, 1.05, 2.0, 10.0, 100.0):
                if q * pole > -1.0:
                    cases.append(("W", f"{fam.label()} n={n} q={q:g}",
                                  lambda f=fam, n=n, q=q: norms.density_spec(f, n, 2.0 * q, q)))
            cases.append(("shannon", f"{fam.label()} n={n}", lambda f=fam, n=n:
                          measures._shannon_spec(measures.DensityHandle(f, n))))
    for m in (0, 1, 3, 6):
        for mu, lam, q in ((0.3, 2.0, 2.0), (1.0, 1.0, 3.0), (3.0, 0.5, 2.0), (2.5, 3.0, 100.0)):
            cases.append(("temme", f"m={m} mu={mu:g} lambda={lam:g} q={q:g}",
                          lambda m=m, mu=mu, lam=lam, q=q:
                          paramasym._temme_spec(m, 50.0, mu, lam, q)))
    return cases


def cusp_cases() -> list[tuple]:
    """The "cusps" case set (see the module docstring): (kind, label, the
    integral's spec as a thunk) for each of its 128 integrals."""
    cases = []
    for fam in (hermite(), laguerre(1.5), jacobi(1.5, 2.5), gegenbauer(1.75)):
        for n in (1, 6):
            for a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.9, 2.5):
                for kind, b in (("N", 1.0), ("W", 0.5 * a)):
                    cases.append((kind, f"{fam.label()} n={n} a={a:g}",
                                  lambda f=fam, n=n, a=a, b=b: norms.density_spec(f, n, a, b)))
    return cases


CASES = {"poles": pole_cases, "cusps": cusp_cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--pool", choices=sorted(POOLS), default="functionals")
    source.add_argument("--cases", choices=sorted(CASES))
    parser.add_argument("--outputs", help="write each request's output here, one JSON line each")
    args = parser.parse_args(argv)

    count = {"batches": 0, "points": 0}
    gk_rows = quadrature._gk_rows

    def counted(specs, panels, *rest, **kw):
        count["batches"] += 1
        count["points"] += 21 * len(panels)
        return gk_rows(specs, panels, *rest, **kw)

    if args.cases:
        requests = [(kind, label, lambda spec=spec: list(quadrature.log_integral(spec())))
                    for kind, label, spec in CASES[args.cases]()]
    else:
        requests = [(kind_of(req), req, lambda req=req: execute(req))
                    for req in POOLS[args.pool]()]
    quadrature._gk_rows = counted
    kinds = {}
    out = open(args.outputs, "w") if args.outputs else None
    try:
        for kind, req, run in requests:
            before = dict(count)
            row = kinds.setdefault(kind, {"requests": 0, "failures": 0, "batches": 0,
                                          "points": 0})
            try:
                result = run()
            except Exception as exc:  # a failed request is reported, not fatal
                result = {"error": f"{type(exc).__name__}: {exc}"}
                row["failures"] += 1
            row["requests"] += 1
            for key in ("batches", "points"):
                row[key] += count[key] - before[key]
            if out is not None:
                out.write(json.dumps({"request": req, "output": result}) + "\n")
    finally:
        quadrature._gk_rows = gk_rows
        if out is not None:
            out.close()
    keys = ("requests", "failures", "batches", "points")
    total = {key: sum(row[key] for row in kinds.values()) for key in keys}
    report = {}
    for name, row in sorted(kinds.items()) + [("all", total)]:
        m = row["requests"]
        report[name] = {**row, "batches_per_request": round(row["batches"] / m, 3),
                        "points_per_request": round(row["points"] / m, 1)}
    print(json.dumps({"pool": args.cases or args.pool, "kinds": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
