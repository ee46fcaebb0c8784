"""Child process that runs requests against hopnorms and times them.

    python3 perfbench/worker.py --setup WORKLOAD   import + one warm-up request
    python3 perfbench/worker.py --run              job as JSON on stdin

A run job is {"workload", "requests", "round_ends", "seconds", "trace",
"span_path", "results_per_request"}.  The worker runs a single-client closed
loop: it sends the next request when the previous one has returned, cycling
through ``requests``, and stops at the first end of a round after
``seconds`` of rescaled request time (speed.py) once at least MIN_REQUESTS
have completed.  Whole rounds keep the mix of every run the same (see
workloads.py).  A machine-speed probe
(speed.py) runs before the first request and after each.  The worker prints
one JSON line: per-request outputs and latencies, the probe times and peak
RSS (plus per-layer metrics when tracing).  Checking the outputs is left to
the parent, which holds the oracles.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

MIN_REQUESTS = 100   # p90 then has at least ten samples beyond it
HARD_STOP_S = 60.0  # keeps a heavily loaded machine inside the time limit of a run

# One fixed call per layer, made through the package namespace (which the
# tracer patches); timed only for layers a workload never reaches.
REFERENCE_CALLS = {
    "laplace.locate_density_maximum": lambda h: h.locate_density_maximum(h.hermite(), 3),
    "paramasym": lambda h: h.laguerre_weighted_param(2, 50.0, 2.0),
    "bell.unweighted_norm_bell": lambda h: h.unweighted_norm_bell(h.hermite(), 4, 4),
    "measures.shannon_entropy": lambda h: h.shannon_entropy(h.DensityHandle(h.hermite(), 3)),
    "measures.renyi_entropy": lambda h: h.renyi_entropy(h.DensityHandle(h.hermite(), 3), 2.0),
    "measures.fisher_information":
        lambda h: h.fisher_information(h.DensityHandle(h.hermite(), 3)),
    "measures.functional_E": lambda h: h.functional_E(h.hermite(), 3),
    "measures.functional_I": lambda h: h.functional_I(h.hermite(), 3),
}


def make_family(name: str, params: list):
    import hopnorms
    return getattr(hopnorms, name)(*params)


def execute(req: dict):
    """Run one request; returns its raw output (JSON-serialisable)."""
    import hopnorms
    from hopnorms import cli

    kind = req["kind"]
    if kind == "sweep":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(req["argv"]))
        return {"code": code, "csv": buf.getvalue()}
    fam = make_family(req["family"], req["params"])
    n = req["n"]
    if kind == "norm":
        if req["engine"] == "bell":
            r = hopnorms.unweighted_norm_bell(fam, n, int(req["q"]))
        elif req["op"] == "weighted":
            r = hopnorms.weighted_norm_quad(fam, n, float(req["q"]))
        else:
            r = hopnorms.unweighted_norm_quad(fam, n, float(req["q"]))
        return [r.value.sign, r.value.log_abs, r.error_estimate]
    if kind == "functional":
        d = hopnorms.DensityHandle(fam, n)
        func = req["func"]
        if func == "renyi2":
            return hopnorms.renyi_entropy(d, 2.0)
        if func == "renyi3":
            return hopnorms.renyi_entropy(d, 3.0)
        if func == "shannon":
            return hopnorms.shannon_entropy(d)
        if func == "fisher":
            return hopnorms.fisher_information(d)
        if func == "E":
            return hopnorms.functional_E(fam, n)
        if func == "E_qderiv":
            return hopnorms.functional_E(fam, n, method="qderivative")
        if func == "I":
            return hopnorms.functional_I(fam, n)
        if func == "lmc_renyi":
            return hopnorms.lmc_renyi(d, 2.0, 3.0)
        if func == "fisher_shannon":
            return hopnorms.fisher_shannon(d)
        if func == "fisher_renyi":
            return hopnorms.fisher_renyi(d, 2.0)
        if func == "shannon_dwq":
            return hopnorms.shannon_from_Wq_derivative(d)
        raise ValueError(f"unknown functional {func!r}")
    raise ValueError(f"unknown request kind {kind!r}")


def closed_loop(job: dict, start: int, seconds: float, min_requests: int, tracer=None):
    """Issue requests back to back from index ``start`` (a round boundary)
    until a round ends with ``seconds`` of request time, rescaled to the
    reference speed, and ``min_requests`` done.  Counting rescaled time
    makes a loaded machine run the same rounds as a quiet one, only for
    longer.  A speed probe runs before the first request and after each.
    Returns (records, probes, next index)."""
    requests, round_ends = job["requests"], set(job["round_ends"])
    records, probes = [], [speed.probe()]
    i, work = start, 0.0
    t_start = time.perf_counter()
    while True:
        idx = i % len(requests)
        if tracer is not None:
            tracer.begin_request(idx)
        t0 = time.perf_counter()
        try:
            out, status = execute(requests[idx]), "ok"
        except Exception as exc:  # every failure is recorded, never fatal
            out, status = f"{type(exc).__name__}: {exc}"[:300], type(exc).__name__
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_request(status != "ok")
        records.append([idx, latency, status, out])
        probes.append(speed.probe())
        work += speed.rescale(latency, probes[-2], probes[-1])
        i += 1
        if time.perf_counter() - t_start >= HARD_STOP_S or (
                idx + 1 in round_ends and work >= seconds and len(records) >= min_requests):
            return records, probes, i


def traced_run(job: dict) -> dict:
    """Untraced half, then traced half; per-layer metrics of the traced half."""
    import hopnorms
    from tracing import REFERENCE_REQUEST, Tracer, layer_metrics

    half = job["seconds"] / 2.0
    plain, plain_probes, nxt = closed_loop(job, 0, half, 0)
    tracer = Tracer()
    tracer.install()
    traced, traced_probes, _ = closed_loop(job, nxt, half, 0, tracer)
    n_results = job["results_per_request"]
    results = sum(n_results[r[0]] for r in traced)
    reached = {s[0] for s in tracer.spans}
    for layer, call in REFERENCE_CALLS.items():
        if not any(name == layer or name.startswith(layer + ".") for name in reached):
            tracer.begin_request(REFERENCE_REQUEST)
            call(hopnorms)
            tracer.end_request(False)
    tracer.uninstall()
    if job.get("span_path"):
        tracer.write(job["span_path"])
    metrics = layer_metrics(tracer.spans, results)
    plain_rate = (sum(n_results[r[0]] for r in plain)
                  / sum(speed.rescale_all([r[1] for r in plain], plain_probes)))
    traced_rate = results / sum(speed.rescale_all([r[1] for r in traced], traced_probes))
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    return {"records": plain + traced, "metrics": metrics}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"] and len(argv) == 2:
        from workloads import WARMUP
        import hopnorms.cli  # noqa: F401  (the import is what set-up measures)
        execute(WARMUP[argv[1]])
        return 0
    if argv != ["--run"]:
        print(__doc__, file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    from workloads import WARMUP
    execute(WARMUP[job["workload"]])
    if job["trace"]:
        out = traced_run(job)
    else:
        records, probes, _ = closed_loop(job, 0, job["seconds"], MIN_REQUESTS)
        out = {"records": records, "probes": probes}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
