"""Command-line front end: single computations, grid sweeps, validation.

Values are emitted as (sign, log_value) with a linear ``value`` column
populated only when |log_value| < 690, since the parameter asymptotics
routinely produce magnitudes far outside double range.  Output is
deterministic: identical invocations produce byte-identical CSV/JSON.

Exit codes: 0 success, 2 usage error, 3 computation failure,
4 validation failures present.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from functools import lru_cache

from . import paramasym
from .errors import DomainError, NumericalFailure
from .families import FAMILY_PARAMS, PolynomialFamily, family_support
from .laplace import locate_density_maximum, unweighted_norm_q_asym, weighted_norm_q_asym
from .measures import (DensityHandle, fisher_information, fisher_renyi, fisher_shannon,
                       functional_E, functional_I, lmc_plain, lmc_renyi, renyi_entropy,
                       renyi_length, shannon_entropy, shannon_from_Wq_derivative,
                       shannon_length)
from .norms import NORM_OPS, NormResult, norm_quads, normalized_by_kappa
from .bell import unweighted_norm_bell
from .paramasym import PARAM_FORMS
from .quadrature import QuadratureConfig, raise_first
from .validate import SUITES, run_suite

SCHEMA_VERSION = 1
_LINEAR_CAP = 690.0
GRID_PARAMS = ("n", "q", "alpha", "beta", "lambda")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _family_from(args) -> PolynomialFamily:
    names = FAMILY_PARAMS[args.family]
    if any(getattr(args, p) is None for p in names):
        raise DomainError(f"{args.family} requires " + " and ".join("--" + p for p in names))
    return PolynomialFamily(args.family, alpha=args.alpha, beta=args.beta,
                            lam=getattr(args, "lambda"))


def _cfg_from(args) -> QuadratureConfig:
    if getattr(args, "tol", None) is not None:
        return QuadratureConfig(rel_tol=args.tol)
    return QuadratureConfig()


def _asymptotic_q(op, fam, n, q, normalized, cfg) -> NormResult:
    if op == "unweighted-norm":
        return unweighted_norm_q_asym(fam, n, q)
    res = weighted_norm_q_asym(fam, n, q)
    return normalized_by_kappa(res, fam, n, q) if normalized else res


def _asymptotic_parameter(op, fam, n, q, normalized, cfg) -> NormResult:
    weighted, unweighted = (getattr(paramasym, f) for f in PARAM_FORMS[fam.kind])
    av = (weighted(n, *fam.params, q, normalized) if op == "weighted-norm"
          else unweighted(n, *fam.params, q))
    return av.as_norm_result(1.0 / fam.params[0])


def _each(engine):
    """A batch engine from one of (op, fam, n, q, normalized, cfg) -> NormResult:
    each point's result, or the error that ended it."""
    def run(op, points, normalized, cfg) -> list:
        out = []
        for fam, n, q in points:
            try:
                out.append(engine(op, fam, n, q, normalized, cfg))
            except (DomainError, NumericalFailure) as exc:
                out.append(exc)
        return out
    return run


# Each engine, as (op, [(fam, n, q), ...], normalized, cfg) -> [NormResult or
# error, ...], in the order the sweep prints them.  Quadrature integrates all
# points in lockstep.  Each looks its library function up by name when
# called, so whatever replaces that name (a tracer, a test) sees every call.
_ENGINES = {
    "quadrature": lambda op, points, normalized, cfg: norm_quads(
        [(op, fam, n, q, normalized) for fam, n, q in points], cfg),
    "bell": _each(lambda op, fam, n, q, normalized, cfg: unweighted_norm_bell(fam, n, int(q))),
    "asymptotic-q": _each(_asymptotic_q),
    "asymptotic-parameter": _each(_asymptotic_parameter),
}
ENGINES = tuple(_ENGINES)

# Each measure op, as (density, args, cfg) -> float.
_MEASURES = {
    "renyi": lambda d, args, cfg: renyi_entropy(d, *_require(args, "q"), cfg),
    "shannon": lambda d, args, cfg: shannon_entropy(d, cfg),
    "renyi-length": lambda d, args, cfg: renyi_length(d, *_require(args, "q"), cfg),
    "shannon-length": lambda d, args, cfg: shannon_length(d, cfg),
    "fisher": lambda d, args, cfg: fisher_information(d, cfg),
    "functional-e": lambda d, args, cfg: functional_E(d.family, d.n, "quadrature", cfg),
    "functional-i": lambda d, args, cfg: functional_I(d.family, d.n, cfg),
    "lmc-plain": lambda d, args, cfg: lmc_plain(d, cfg),
    "lmc-renyi": lambda d, args, cfg: lmc_renyi(d, *_require(args, "q", "q2"), cfg),
    "fisher-shannon": lambda d, args, cfg: fisher_shannon(d, cfg),
    "fisher-renyi": lambda d, args, cfg: fisher_renyi(d, *_require(args, "q"), cfg),
    "shannon-dwq": lambda d, args, cfg: shannon_from_Wq_derivative(d, cfg),
}
MEASURE_OPS = tuple(_MEASURES)


def _require(args, *names) -> list:
    if any(getattr(args, p) is None for p in names):
        raise DomainError(f"op {args.op!r} requires " + " and ".join("--" + p for p in names))
    return [getattr(args, p) for p in names]


def _check_engine(op: str, engine: str, family: str, qs, normalized: bool) -> None:
    """Raise DomainError unless ``engine`` serves ``op`` on ``family`` at every q in ``qs``;
    the one statement of each engine's capability, for compute and sweep alike."""
    infinite = [q for q in qs if q is not None and not math.isfinite(q)]
    if infinite:
        raise DomainError(f"q must be finite; offending grid values: {infinite}")
    if normalized and op != "weighted-norm":
        raise DomainError("--normalized applies to weighted norms only")
    if engine != "quadrature" and op not in NORM_OPS:
        raise DomainError(f"--engine {engine} applies to norms only")
    if engine == "bell":
        bad = [q for q in qs if not (q > 0 and q % 2 == 0)]
        if bad:
            raise DomainError("bell engine handles positive even integer q only; "
                              f"offending grid values: {bad}")
        if op != "unweighted-norm":
            raise DomainError("bell engine computes unweighted norms only")
    if engine == "asymptotic-parameter" and family not in PARAM_FORMS:
        raise DomainError(f"no large-parameter regime exists for {family}")
    if engine == "asymptotic-q" and op == "unweighted-norm" \
            and not all(map(math.isfinite, family_support(family))):
        raise DomainError("large-q unweighted asymptotics are unavailable for "
                          f"{family}: its support is unbounded")


def _base_record(fam: PolynomialFamily, args) -> dict:
    return {
        "family": fam.kind,
        "n": args.n,
        "q": args.q,
        "alpha": fam.alpha,
        "beta": fam.beta,
        "lambda": fam.lam,
    }


def _finish_record(rec: dict, sign: int, log_value: float, method: str, err: float) -> dict:
    if not math.isfinite(log_value):
        raise NumericalFailure(f"non-finite result: log_value = {log_value}")
    rec["sign"] = sign
    rec["log_value"] = log_value
    rec["value"] = sign * math.exp(log_value) if abs(log_value) < _LINEAR_CAP else None
    rec["method"] = method
    rec["rel_err_estimate"] = err
    return rec


def cmd_compute(args) -> int:
    fam = _family_from(args)
    if args.orthogonal and args.op not in _MEASURES:
        raise DomainError("--orthogonal applies to measure ops only")
    q = _require(args, "q")[0] if args.op in NORM_OPS else args.q
    _check_engine(args.op, args.engine, args.family, [q], args.normalized)
    cfg = _cfg_from(args)
    rec = _base_record(fam, args)
    rec["op"] = args.op

    if args.op == "laplace-x0":
        pt = locate_density_maximum(fam, args.n)
        rec.update(x0=pt.x0, f_at_x0=pt.f_at_x0, f2_at_x0=pt.f2_at_x0,
                   multiplicity=pt.multiplicity,
                   maximizers=list(pt.maximizers))
        rec["value"] = pt.x0
    elif args.op in _MEASURES:
        d = DensityHandle(fam, args.n, normalized=not args.orthogonal)
        v = _MEASURES[args.op](d, args, cfg)
        if not math.isfinite(v):
            raise NumericalFailure(f"non-finite result: value = {v}")
        rec.update(engine="quadrature", sign=0 if v == 0.0 else (1 if v > 0 else -1),
                   log_value=math.log(abs(v)) if v != 0.0 else None, value=v, method="quadrature")
    else:
        res = raise_first(_ENGINES[args.engine](args.op, [(fam, args.n, q)], args.normalized,
                                                cfg))[0]
        rec["engine"] = args.engine
        rec["normalized"] = args.normalized
        _finish_record(rec, res.value.sign, res.value.log_abs, res.method,
                       res.error_estimate)

    if args.format == "json":
        payload = json.dumps({"schema": SCHEMA_VERSION, "record": rec}, sort_keys=True,
                             default=_fmt)
        _emit(payload, args.out)
    else:
        line = " ".join(f"{k}={_fmt(v)}" for k, v in rec.items() if v is not None)
        _emit(line, args.out)
    return 0


def _parse_grid(expr: str) -> tuple[str, list[float]]:
    if "=" not in expr:
        raise DomainError(f"grid must look like 'q=25,50,100' or 'alpha=geom:100:800:4', got {expr!r}")
    name, _, body = expr.partition("=")
    name = name.strip()
    if name not in GRID_PARAMS:
        raise DomainError(f"grid parameter must be one of {GRID_PARAMS}, got {name!r}")
    body = body.strip()
    try:
        if body.startswith("geom:"):
            parts = body.split(":")
            if len(parts) != 4:
                raise DomainError("geometric grid needs geom:start:stop:count")
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            if count < 1 or start <= 0 or stop <= 0:
                raise DomainError("geometric grid needs positive bounds and count >= 1")
            if count == 1:
                vals = [start]
            else:
                ratio = (stop / start) ** (1.0 / (count - 1))
                vals = [start * ratio ** i for i in range(count)]
        else:
            vals = [float(tok) for tok in body.split(",") if tok.strip()]
    except ValueError as exc:  # a DomainError, or a value float() or int() cannot read
        raise DomainError(f"grid {expr!r}: {exc}") from None
    if not vals:
        raise DomainError(f"empty grid for {name!r}")
    return name, vals


def _sweep_grids(args) -> dict[str, list[float]]:
    """The grids of a sweep by axis; an axis takes one grid, and a grid
    and a flag never both set one axis."""
    grids = {}
    for expr in args.grid:
        name, vals = _parse_grid(expr)
        if name in grids:
            raise DomainError(f"two grids over {name!r}; give one")
        if getattr(args, name) is not None:
            raise DomainError(f"--{name} and a grid over {name!r} both given; give one")
        grids[name] = vals
    if "n" not in grids and args.n is None:
        raise DomainError("sweep needs --n or an n grid")
    return grids


def _sweep_rows(args, cfg) -> list[dict]:
    grids = _sweep_grids(args)
    engines = [e for e in ENGINES if e in args.engine]
    if "q" not in grids and args.q is None:
        raise DomainError("norm sweeps need a q grid or a fixed --q")
    bad = [n for n in grids.get("n", ()) if not (n >= 0 and n % 1 == 0)]
    if bad:
        raise DomainError("degree grid takes nonnegative integers only; "
                          f"offending grid values: {bad}")
    for engine in engines:
        _check_engine(args.op, engine, args.family, grids.get("q", [args.q]), args.normalized)

    axes = [p for p in GRID_PARAMS if p in grids]  # the first axis is the outermost
    points = []
    for point in itertools.product(*(grids[p] for p in axes)):
        local = argparse.Namespace(**(vars(args) | dict(zip(axes, point))))
        local.n = int(local.n)
        points.append((local, _family_from(local)))
    # each engine serves all points in one call, the quadrature rows in lockstep
    results = {engine: _ENGINES[engine](args.op, [(fam, local.n, local.q) for local, fam in points],
                                        args.normalized, cfg)
               for engine in engines}
    rows = []
    for i, (local, fam) in enumerate(points):
        for engine in engines:
            rec = _base_record(fam, local)
            rec.update(op=args.op, engine=engine, normalized=args.normalized, error="")
            res = results[engine][i]
            try:
                if isinstance(res, Exception):
                    raise res
                _finish_record(rec, res.value.sign, res.value.log_abs, res.method,
                               res.error_estimate)
            except (DomainError, NumericalFailure) as exc:
                rec.update(sign=None, log_value=None, value=None, method=None,
                           rel_err_estimate=None, error=str(exc))
            rows.append(rec)
    return rows


_CSV_COLUMNS = ("family", "n", "q", "alpha", "beta", "lambda", "engine", "normalized",
                "sign", "log_value", "value", "rel_err_estimate", "error")


def cmd_sweep(args) -> int:
    cfg = _cfg_from(args)
    rows = _sweep_rows(args, cfg)
    if args.format == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for r in rows:
            lines.append(",".join(_fmt(r.get(c)) for c in _CSV_COLUMNS))
        _emit("\n".join(lines), args.out)
    else:
        payload = {"schema": SCHEMA_VERSION,
                   "invocation": {"op": args.op, "family": args.family,
                                  "grid": sorted(args.grid), "engines": sorted(args.engine)},
                   "rows": rows}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    return 3 if any(r["error"] for r in rows) else 0


def cmd_validate(args) -> int:
    checks = run_suite(args.suite)
    lines = []
    for c in checks:
        mark = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[c.status]
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in c.measured.items())
        lines.append(f"[{mark}] {c.suite}/{c.name} {detail}".rstrip())
    n_fail = sum(1 for c in checks if c.failed)
    lines.append(f"summary: {len(checks)} checks, {n_fail} failed, "
                 f"{sum(1 for c in checks if c.status == 'info')} informational")
    print("\n".join(lines))
    if args.out:
        payload = {"schema": SCHEMA_VERSION, "suite": args.suite,
                   "checks": [{"name": c.name, "suite": c.suite, "status": c.status,
                               "measured": c.measured, "note": c.note} for c in checks]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 4 if n_fail else 0


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@lru_cache(maxsize=None)  # one parser per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hopnorms",
                                 description="Lq norms, entropies and complexities of "
                                             "the classical orthogonal polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family_flags(p, n_required):
        p.add_argument("--family", required=True, choices=tuple(FAMILY_PARAMS))
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lambda", type=float, default=None)
        p.add_argument("--n", type=int, required=n_required, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
        p.add_argument("--out", default=None)

    pc = sub.add_parser("compute", help="one computation, one record")
    add_family_flags(pc, n_required=True)
    pc.add_argument("--op", required=True, choices=NORM_OPS + MEASURE_OPS + ("laplace-x0",))
    pc.add_argument("--engine", default="quadrature", choices=ENGINES)
    pc.add_argument("--q2", type=float, default=None, help="second order for lmc-renyi")
    pc.add_argument("--normalized", action="store_true",
                    help="unit-mass density for weighted norms")
    pc.add_argument("--orthogonal", action="store_true",
                    help="use the kappa-mass density in measure ops")
    pc.add_argument("--format", default="text", choices=("text", "json"))
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser("sweep", help="grid sweep, one row per point per engine")
    add_family_flags(ps, n_required=False)  # an n grid may stand for it
    ps.add_argument("--op", required=True, choices=NORM_OPS)
    ps.add_argument("--engine", action="append", required=True, choices=ENGINES)
    ps.add_argument("--grid", action="append", required=True,
                    help="e.g. q=25,50,100,200 or alpha=geom:100:800:4 (repeatable)")
    ps.add_argument("--normalized", action="store_true")
    ps.add_argument("--format", default="csv", choices=("csv", "json"))
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate", help="run a validation suite")
    pv.add_argument("suite", choices=(*SUITES, "all"))
    pv.add_argument("--out", default=None, help="write a JSON report here")
    pv.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:  # an invalid request: a bad parameter, flag or grid
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
