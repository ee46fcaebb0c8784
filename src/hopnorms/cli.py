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
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from . import paramasym
from .errors import DomainError, NumericalFailure
from .families import (FAMILY_PARAMS, PolynomialFamily, family_support, norm_constant_log,
                       norm_constant_log_error)
from .laplace import locate_density_maximum, unweighted_norm_q_asym, weighted_norm_q_asym
from .measures import (DensityHandle, fisher_information, fisher_renyi, fisher_shannon,
                       functional_E, functional_I, lmc_plain, lmc_renyi, renyi_entropy,
                       renyi_length, shannon_entropy, shannon_from_Wq_derivative,
                       shannon_length)
from .norms import NormResult, unweighted_norm_quad, weighted_norm_quad
from .bell import unweighted_norm_bell
from .paramasym import PARAM_FORMS
from .quadrature import QuadratureConfig
from .validate import run_suite

SCHEMA_VERSION = 1
_LINEAR_CAP = 690.0
ENGINES = ("quadrature", "bell", "asymptotic-q", "asymptotic-parameter")
NORM_OPS = ("unweighted-norm", "weighted-norm")
MEASURE_OPS = ("renyi", "shannon", "renyi-length", "shannon-length", "fisher",
               "functional-e", "functional-i", "lmc-plain", "lmc-renyi",
               "fisher-shannon", "fisher-renyi", "shannon-dwq")
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


def _norm_dispatch(op: str, engine: str, fam: PolynomialFamily, n: int, q: float,
                   normalized: bool, cfg: QuadratureConfig) -> NormResult:
    if engine == "quadrature":
        if op == "unweighted-norm":
            return unweighted_norm_quad(fam, n, q, cfg)
        return weighted_norm_quad(fam, n, q, cfg, normalized=normalized)
    if engine == "bell":
        if op != "unweighted-norm":
            raise DomainError("bell engine computes unweighted norms only")
        qi = int(q)
        if qi != q:
            raise DomainError("bell engine requires an integer q")
        return unweighted_norm_bell(fam, n, qi)
    if engine == "asymptotic-q":
        if op == "weighted-norm":
            res = weighted_norm_q_asym(fam, n, q)
            if normalized:
                val = res.value * norm_constant_log(fam, n).powf(-q)
                err = res.error_estimate + q * norm_constant_log_error(fam, n)
                return NormResult(val, res.method, err)
            return res
        return unweighted_norm_q_asym(fam, n, q)
    if engine == "asymptotic-parameter":
        forms = PARAM_FORMS.get(fam.kind)
        if forms is None:
            raise DomainError(f"no large-parameter regime exists for {fam.kind}")
        weighted, unweighted = (getattr(paramasym, f) for f in forms)
        av = (weighted(n, *fam.params, q, normalized) if op == "weighted-norm"
              else unweighted(n, *fam.params, q))
        return av.as_norm_result(1.0 / fam.params[0])
    raise DomainError(f"unknown engine {engine!r}")


def _measure_dispatch(op: str, fam: PolynomialFamily, n: int, args, cfg) -> float:
    d = DensityHandle(fam, n, normalized=not args.orthogonal)
    if op == "renyi":
        return renyi_entropy(d, _require_q(args), cfg)
    if op == "shannon":
        return shannon_entropy(d, cfg)
    if op == "renyi-length":
        return renyi_length(d, _require_q(args), cfg)
    if op == "shannon-length":
        return shannon_length(d, cfg)
    if op == "fisher":
        return fisher_information(d, cfg)
    if op == "functional-e":
        return functional_E(fam, n, "quadrature", cfg)
    if op == "functional-i":
        return functional_I(fam, n, cfg)
    if op == "lmc-plain":
        return lmc_plain(d, cfg)
    if op == "lmc-renyi":
        if args.q is None or args.q2 is None:
            raise DomainError("lmc-renyi requires --q and --q2")
        return lmc_renyi(d, args.q, args.q2, cfg)
    if op == "fisher-shannon":
        return fisher_shannon(d, cfg)
    if op == "fisher-renyi":
        return fisher_renyi(d, _require_q(args), cfg)
    if op == "shannon-dwq":
        return shannon_from_Wq_derivative(d, cfg)
    raise DomainError(f"unknown op {op!r}")


def _require_q(args) -> float:
    if args.q is None:
        raise DomainError(f"op {args.op!r} requires --q")
    return args.q


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
    cfg = _cfg_from(args)
    rec = _base_record(fam, args)
    rec["op"] = args.op

    if args.op == "laplace-x0":
        pt = locate_density_maximum(fam, args.n)
        rec.update(x0=pt.x0, f_at_x0=pt.f_at_x0, f2_at_x0=pt.f2_at_x0,
                   multiplicity=pt.multiplicity,
                   maximizers=list(pt.maximizers))
        rec["value"] = pt.x0
    elif args.op in NORM_OPS:
        if args.normalized and args.op == "unweighted-norm":
            raise DomainError("--normalized applies to weighted norms only")
        res = _norm_dispatch(args.op, args.engine, fam, args.n, _require_q(args),
                             args.normalized, cfg)
        rec["engine"] = args.engine
        rec["normalized"] = args.normalized
        _finish_record(rec, res.value.sign, res.value.log_abs, res.method,
                       res.error_estimate)
    elif args.op in MEASURE_OPS:
        v = _measure_dispatch(args.op, fam, args.n, args, cfg)
        if not math.isfinite(v):
            raise NumericalFailure(f"non-finite result: value = {v}")
        rec.update(engine="quadrature", sign=0 if v == 0.0 else (1 if v > 0 else -1),
                   log_value=math.log(abs(v)) if v != 0.0 else None, value=v, method="quadrature")
    else:
        raise DomainError(f"unknown op {args.op!r}")

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


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep request: target op, family, grids, engines.

    Engine/grid capability is screened here, before any computation runs.
    """

    op: str
    family: str
    grids: dict = field(default_factory=dict)
    engines: tuple = ()
    fixed_q: float | None = None
    normalized: bool = False

    def __post_init__(self):
        if self.op not in NORM_OPS:
            raise DomainError(f"sweep op must be one of {NORM_OPS}, got {self.op!r}")
        if self.normalized and self.op == "unweighted-norm":
            raise DomainError("--normalized applies to weighted norms only")
        if not self.grids or any(not vals for vals in self.grids.values()):
            raise DomainError("sweep grid must be nonempty")
        if not self.engines:
            raise DomainError("at least one engine is required")
        if "q" not in self.grids and self.fixed_q is None:
            raise DomainError("norm sweeps need a q grid or a fixed --q")
        bad = [n for n in self.grids.get("n", ()) if not (n >= 0 and n % 1 == 0)]
        if bad:
            raise DomainError("degree grid takes nonnegative integers only; "
                              f"offending grid values: {bad}")
        if "bell" in self.engines:
            qs = self.grids.get("q", [self.fixed_q])
            bad = [q for q in qs if q is None or int(q) != q or int(q) % 2 != 0 or q <= 0]
            if bad:
                raise DomainError("bell engine handles positive even integer q only; "
                                  f"offending grid values: {bad}")
            if self.op != "unweighted-norm":
                raise DomainError("bell engine computes unweighted norms only")
        if "asymptotic-parameter" in self.engines and self.family not in PARAM_FORMS:
            raise DomainError(f"no large-parameter regime exists for {self.family}")
        if "asymptotic-q" in self.engines and self.op == "unweighted-norm" \
                and not all(map(math.isfinite, family_support(self.family))):
            raise DomainError("large-q unweighted asymptotics are unavailable for "
                              f"{self.family}: its support is unbounded")


def _sweep_rows(args, cfg) -> list[dict]:
    grids = dict(_parse_grid(g) for g in args.grid)
    engines = tuple(e for e in ENGINES if e in set(args.engine))
    SweepSpec(op=args.op, family=args.family, grids=grids, engines=engines,
              fixed_q=args.q, normalized=args.normalized)

    axes = [p for p in GRID_PARAMS if p in grids]
    rows = []

    def emit(point):
        local = argparse.Namespace(**vars(args))
        for k, v in point.items():
            setattr(local, k, v)
        local.n = int(local.n) if local.n is not None else None
        fam = _family_from(local)
        for engine in engines:
            rec = _base_record(fam, local)
            rec["op"] = args.op
            rec["engine"] = engine
            rec["normalized"] = args.normalized
            rec["error"] = ""
            try:
                res = _norm_dispatch(args.op, engine, fam, local.n, local.q,
                                     args.normalized, cfg)
                _finish_record(rec, res.value.sign, res.value.log_abs, res.method,
                               res.error_estimate)
            except (DomainError, NumericalFailure) as exc:
                rec.update(sign=None, log_value=None, value=None, method=None,
                           rel_err_estimate=None, error=str(exc))
            rows.append(rec)

    def recurse(i, point):
        if i == len(axes):
            emit(point)
            return
        for v in grids[axes[i]]:
            recurse(i + 1, point | {axes[i]: v})

    recurse(0, {})
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

    def add_family_flags(p):
        p.add_argument("--family", required=True, choices=tuple(FAMILY_PARAMS))
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lambda", type=float, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--tol", type=float, default=None, help="quadrature relative tolerance")
        p.add_argument("--out", default=None)

    pc = sub.add_parser("compute", help="one computation, one record")
    add_family_flags(pc)
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
    add_family_flags(ps)
    ps.add_argument("--op", required=True, choices=NORM_OPS)
    ps.add_argument("--engine", action="append", required=True, choices=ENGINES)
    ps.add_argument("--grid", action="append", required=True,
                    help="e.g. q=25,50,100,200 or alpha=geom:100:800:4 (repeatable)")
    ps.add_argument("--normalized", action="store_true")
    ps.add_argument("--format", default="csv", choices=("csv", "json"))
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate", help="run a validation suite")
    pv.add_argument("suite", choices=("identities", "convergence", "paper-closed-forms", "all"))
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
    except (DomainError, KeyError) as exc:
        # invalid requests (bad parameter domain, unknown suite) are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
