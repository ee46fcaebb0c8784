"""In-memory span tracing of hopnorms, installed from outside the package.

Each traced function is replaced, in every hopnorms module that imported
it, by a wrapper that records a span: name, start, end, parent span and
request id.  ``families.eval_log`` is called tens of thousands of times per
result, so it gets no span records of its own: its call count and time are
added to the enclosing span, which is enough to compute self times.

A span's self time is its duration minus the durations of its child spans
and of the eval_log calls made directly inside it.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, LEAF_CALLS, LEAF_TIME, FAILED, INFO = range(9)
REFERENCE_REQUEST = -2  # request id of the reference calls (see layer_metrics)

LEAF = ("families", "eval_log")
SPANNED = (
    ("cli", "main"),
    ("norms", "unweighted_norm_quad"), ("norms", "weighted_norm_quad"),
    ("norms", "density_integral"),
    ("quadrature", "log_integral"),
    ("families", "polynomial_zeros"), ("families", "coefficients"),
    ("bell", "unweighted_norm_bell"), ("bell", "bell_polynomial"),
    ("laplace", "locate_density_maximum"), ("laplace", "weighted_norm_q_asym"),
    ("laplace", "unweighted_norm_q_asym"),
)
# every public function of these modules gets a span
SPANNED_MODULES = ("measures", "paramasym")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._seen: dict[str, set] = defaultdict(set)
        self._installed: list[tuple] = []

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = self._seen[name] if name in ("families.polynomial_zeros",
                                            "laplace.locate_density_maximum") else None

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0, 0.0, False, None]
            if seen is not None:  # called as f(fam, n)
                k = (args[0], args[1])
                rec[INFO] = k in seen
                seen.add(k)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if name == "quadrature.log_integral":
                rec[INFO] = out.neval
            return out

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    rec = spans[stack[-1]]
                    rec[LEAF_CALLS] += 1
                    rec[LEAF_TIME] += clock() - t0

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Replace the traced functions at every import site in hopnorms."""
        import importlib
        targets = [(LEAF[0], LEAF[1], True)] + [(m, f, False) for m, f in SPANNED]
        for mod_name in SPANNED_MODULES:
            mod = importlib.import_module("hopnorms." + mod_name)
            targets += [(mod_name, f, False) for f in mod.__all__
                        if callable(getattr(mod, f)) and not isinstance(getattr(mod, f), type)]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hopnorms" or name.startswith("hopnorms."))]
        for mod_name, fn_name, leaf in targets:
            orig = getattr(importlib.import_module("hopnorms." + mod_name), fn_name)
            wrapper = (self._leaf_wrapper(orig) if leaf
                       else self._span_wrapper(f"{mod_name}.{fn_name}", orig))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    # -- request spans --------------------------------------------------
    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.stack.append(len(self.spans))
        self.spans.append(["request", time.perf_counter(), 0.0, -1, request_id, 0, 0.0, False, None])

    def end_request(self, failed: bool) -> None:
        rec = self.spans[self.stack.pop()]
        rec[END] = time.perf_counter()
        rec[FAILED] = failed
        self.request = -1

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "request": s[REQUEST],
                                     "eval_log_calls": s[LEAF_CALLS],
                                     "eval_log_s": s[LEAF_TIME], "failed": s[FAILED],
                                     "info": s[INFO]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration minus child spans minus eval_log time, per span."""
    out = [s[END] - s[START] - s[LEAF_TIME] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], results: int) -> dict:
    """Per-layer numbers of one traced pass.

    Spans with a request id >= 0 belong to the workload, whose requests
    produced ``results`` results.  A layer the workload never reaches takes
    its per-call numbers from spans of reference calls (REFERENCE_REQUEST),
    so that they stay measured; its shares and per-result counts stay 0.
    """
    selfs = self_times(spans)
    total = sum(s[END] - s[START] for s in spans if s[NAME] == "request" and s[REQUEST] >= 0)
    work: dict[str, list[int]] = defaultdict(list)
    ref: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[NAME] != "request":
            (work if s[REQUEST] >= 0 else ref)[s[NAME]].append(i)

    def calls(*names):  # workload spans, else reference spans, of a layer
        idx = [i for n in names for i in work.get(n, [])]
        return idx or [i for n in names for i in ref.get(n, [])]

    def ms_per_call(*names):
        idx = calls(*names)
        return _ratio(sum(spans[i][END] - spans[i][START] for i in idx), len(idx)) * 1e3

    def self_share(name):
        return _ratio(sum(selfs[i] for i in work.get(name, [])), total)

    def repeat_frac(name):
        idx = work.get(name, [])
        return _ratio(sum(1 for i in idx if spans[i][INFO]), len(idx))

    def failures(name):
        return sum(1 for i in work.get(name, []) if spans[i][FAILED])

    work_spans = [s for s in spans if s[REQUEST] >= 0]
    leaf_calls = sum(s[LEAF_CALLS] for s in work_spans)
    leaf_time = sum(s[LEAF_TIME] for s in work_spans)
    quad = work.get("quadrature.log_integral", [])
    quad_leaf = [i for i in quad if spans[i][LEAF_CALLS]]
    bell = "bell.unweighted_norm_bell"
    bell_ws = bell in work
    paramasym = sorted({n for n in list(work) + list(ref) if n.startswith("paramasym.")})

    m = {
        "families.eval_log.us_per_call": _ratio(leaf_time, leaf_calls) * 1e6,
        "families.eval_log.calls_per_result": _ratio(leaf_calls, results),
        "families.eval_log.self_share": _ratio(leaf_time, total),
        "families.polynomial_zeros.ms_per_call": ms_per_call("families.polynomial_zeros"),
        "families.polynomial_zeros.self_share": self_share("families.polynomial_zeros"),
        "families.polynomial_zeros.repeat_frac": repeat_frac("families.polynomial_zeros"),
        "laplace.locate_density_maximum.repeat_frac": repeat_frac("laplace.locate_density_maximum"),
        "norms.density_integral.calls_per_result":
            _ratio(len(work.get("norms.density_integral", [])), results),
        "quadrature.log_integral.neval_per_call":
            _ratio(sum(spans[i][INFO] or 0 for i in quad), len(quad)),
        "quadrature.log_integral.gk_eval_frac":
            _ratio(sum(spans[i][INFO] or 0 for i in quad_leaf),
                   sum(spans[i][LEAF_CALLS] for i in quad_leaf)),
        "quadrature.log_integral.self_share": self_share("quadrature.log_integral"),
        "quadrature.log_integral.failures": failures("quadrature.log_integral"),
        "laplace.locate_density_maximum.ms_per_call": ms_per_call("laplace.locate_density_maximum"),
        "paramasym.us_per_call": ms_per_call(*paramasym) * 1e3,
        "bell.unweighted_norm_bell.ms_per_call": ms_per_call(bell),
        "bell.bell_polynomial.calls_per_norm":
            _ratio(len((work if bell_ws else ref).get("bell.bell_polynomial", [])),
                   len((work if bell_ws else ref).get(bell, []))),
        "bell.unweighted_norm_bell.failures": failures(bell),
        "cli.main.self_share": self_share("cli.main"),
    }
    for f in ("shannon_entropy", "renyi_entropy", "fisher_information", "functional_E",
              "functional_I"):
        m[f"measures.{f}.ms_per_call"] = ms_per_call(f"measures.{f}")
    return m
