"""Tests of the benchmark's own code: generators, oracles, checks, tracing.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, key  # noqa: E402


@pytest.fixture(scope="module")
def table():
    with open(oracles.TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- generator

def _flat(rounds):
    return [r for rnd in rounds for r in rnd]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_is_deterministic_per_seed(workload):
    a, b = workloads.stream(workload, 7), workloads.stream(workload, 7)
    assert a == b
    assert a != workloads.stream(workload, 8)
    assert {key(r) for r in _flat(a)} <= {key(r) for r in workloads.POOLS[workload]()}


def _in_domain(fam: str, params: list) -> bool:
    if fam == "hermite":
        return params == []
    if fam == "laguerre":
        return len(params) == 1 and -1 < params[0] <= 1e4
    if fam == "jacobi":
        return len(params) == 2 and all(-1 < p <= 1e4 for p in params)
    return len(params) == 1 and -0.5 < params[0] <= 1e4 and params[0] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pool_input_is_inside_the_domain(workload, table):
    for req in workloads.POOLS[workload]():
        assert key(req) in table, f"no oracle for {key(req)}"
        if req["kind"] == "sweep":
            p = oracles.sweep_parts(req["argv"])
            fam, axis, grid, n, q = p["family"], p["axis"], p["grid"], p["n"], p["q"]
            param_sets = [oracles._params_at(fam, p["fixed"], axis, v) for v in grid]
            assert 0 <= n <= 6
            assert all(_in_domain(fam, p) for p in param_sets)
            if axis == "q":
                assert all(1 <= v <= 1e4 for v in grid)
                # Laplace preconditions: interior maximum of the density
                assert all(p == [] or min(p) > (0.5 if fam == "gegenbauer" else 0)
                           for p in param_sets)
            else:
                assert all(10 <= v <= 1e4 for v in grid) and q in (2, 3, 4)
            continue
        assert _in_domain(req["family"], req["params"]) and req["n"] >= 0
        if req["kind"] == "norm" and req["engine"] == "bell":
            assert req["q"] % 2 == 0 and req["n"] * req["q"] <= 240
        elif req["kind"] == "norm":
            assert 12 <= req["n"] <= 64 and req["q"] > 0
            assert (req["op"], req["q"]) in workloads.NORM_MODES
        elif req["func"] in ("fisher", "fisher_shannon", "fisher_renyi"):
            p = req["params"]
            assert req["family"] == "hermite" or min(p) > (1.5 if req["family"] == "gegenbauer" else 1)


def test_degree_stream_never_repeats_a_density():
    s = _flat(workloads.stream("degree-sweep", 3))
    assert len({(r["family"], tuple(r["params"]), r["n"]) for r in s}) == len(s) == 10 * 20


def _slot(workload: str, req: dict) -> tuple:
    """What fixes a request's cost class in a round (see workloads.py)."""
    if workload == "degree-sweep":
        band = next(b for b, band in enumerate(workloads.DEGREE_BANDS) if req["n"] in band)
        return req["family"], band
    if workload == "q-sweep":
        p = oracles.sweep_parts(req["argv"])
        return p["family"], p["axis"], p["n"], p["axis"] != "q" and p["fixed"]["beta"]
    if req["kind"] == "norm":
        return ("bell", any((req["n"], req["q"]) == c for c in workloads.BELL_DEAR))
    if req["n"] >= 100:
        return ("fisher-high",)
    if req["params"] and max(req["params"]) >= 100:
        return ("large", req["func"])
    pair = next(p for p in workloads.FUNCTIONAL_DEGREE_PAIRS if req["n"] in p)
    return req["func"], pair


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_has_the_same_composition(workload):
    rounds = workloads.stream(workload, 5)
    first = Counter(_slot(workload, r) for r in rounds[0])
    assert all(Counter(_slot(workload, r) for r in rnd) == first for rnd in rounds)
    if workload == "functionals":  # families spread evenly over a round
        fams = Counter(r["family"] for r in rounds[0]
                       if r["kind"] == "functional" and r["func"] == _slot(workload, r)[0])
        assert max(fams.values()) - min(fams.values()) <= 1


def test_spread_order_is_an_evenly_spread_permutation():
    for m in (1, 2, 10, 11):
        assert sorted(workloads.spread_order(m)) == list(range(m))
    for m in (10, 11):
        order = workloads.spread_order(m)
        for k in (3, 5, 7):  # every prefix covers the range
            assert abs(sum(order[:k]) / k - (m - 1) / 2) < 1.5


# ------------------------------------------------------------------ oracles

def test_oracle_routes_agree_on_closed_forms():
    for fam, params in (("hermite", []), ("laguerre", [2.5]), ("jacobi", [2.5, 1.5]),
                        ("gegenbauer", [1.75])):
        for n in (0, 3, 7):
            with oracles.mp.workdps(40):
                k = oracles.kappa(fam, params, n)
                summed = oracles.moment_sum(fam, params,
                                            lambda: oracles.ppow(oracles.coeffs(fam, params, n), 2), 1)
                assert abs(summed / k - 1) < 1e-25
    for n in (0, 4, 9):  # Fisher information of the Hermite densities is 4n + 2
        assert abs(oracles.fisher("hermite", [], n) - (4 * n + 2)) < 1e-25
    gauss = float(oracles.shannon("hermite", [], 0))
    assert abs(gauss - 0.5 * math.log(math.pi * math.e)) < 1e-14
    f0, f2, m = oracles.laplace("hermite", [], 0)  # W_q = sqrt(pi/q) exactly
    assert abs(float(oracles.log_laplace((f0, f2, m), 7)) - 0.5 * math.log(math.pi / 7)) < 1e-14


def test_oracle_table_matches_recomputation(table):
    rng = random.Random(5)
    cheap = [r for r in workloads.POOLS["degree-sweep"]() if r["n"] <= 20]
    cheap += [r for r in workloads.POOLS["functionals"]()
              if r["kind"] == "functional" and r["n"] <= 6 and r["func"] in ("renyi2", "I", "E")]
    for req in rng.sample(cheap, 12):
        assert oracles.oracle(req) == pytest.approx(table[key(req)], rel=1e-12)


# ------------------------------------------------------------------- checks

def _entry(table, workload, kind, pred=lambda r: True):
    req = next(r for r in workloads.POOLS[workload]() if r["kind"] == kind and pred(r))
    return req, table[key(req)]


def test_injected_wrong_norm_is_caught(table):
    req, entry = _entry(table, "degree-sweep", "norm")
    assert run.check(req, "ok", [1, entry["log"], 1e-13], entry) == [(True, "")]
    [(ok, reason)] = run.check(req, "ok", [1, entry["log"] + 1e-6, 1e-13], entry)
    assert not ok and "misses oracle" in reason
    assert not run.check(req, "ok", [1, float("-inf"), 0.0], entry)[0][0]
    # an honest error estimate covers the miss; an understated one does not
    assert run.check(req, "ok", [1, entry["log"] + 1e-6, 2e-6], entry)[0][0]


def test_injected_wrong_functional_is_caught(table):
    req, entry = _entry(table, "functionals", "functional", lambda r: r["func"] == "shannon")
    assert run.check(req, "ok", entry["value"], entry)[0][0]
    assert not run.check(req, "ok", entry["value"] * (1 + 1e-6) + 1e-6, entry)[0][0]
    assert not run.check(req, "ok", float("nan"), entry)[0][0]


def _csv_for(entry: dict) -> str:
    lines = ["engine,%s,sign,log_value,rel_err_estimate,error" % entry["axis"]]
    for k, expected in entry["rows"].items():
        engine, _, value = k.partition("@")
        log_value = expected.get("log", 1.0)
        lines.append(f"{engine},{float(value)!r},1,{log_value!r},1e-13,")
    return "\n".join(lines) + "\n"


def test_sweep_rows_are_accounted_one_by_one(table):
    req, entry = _entry(table, "q-sweep", "sweep")
    good = _csv_for(entry)
    verdicts = run.check(req, "ok", {"code": 0, "csv": good}, entry)
    assert len(verdicts) == len(entry["rows"]) and all(ok for ok, _ in verdicts)

    lines = good.splitlines()
    header, first = lines[0], lines[1].split(",")
    wrong = [header, ",".join(first[:3] + [repr(float(first[3]) + 1e-3)] + first[4:])] + lines[2:]
    assert sum(not ok for ok, _ in run.check(req, "ok", {"code": 0, "csv": "\n".join(wrong)}, entry)) == 1
    nonfinite = [header, ",".join(first[:3] + ["-inf"] + first[4:])] + lines[2:]
    assert sum(not ok for ok, _ in run.check(req, "ok", {"code": 0, "csv": "\n".join(nonfinite)}, entry)) == 1
    errored = [header, ",".join(first[:2] + ["", "", "", "tail walk found no decay"])] + lines[2:]
    assert sum(not ok for ok, _ in run.check(req, "ok", {"code": 3, "csv": "\n".join(errored)}, entry)) == 1
    missing = "\n".join(lines[:-2])
    assert sum(not ok for ok, _ in run.check(req, "ok", {"code": 0, "csv": missing}, entry)) == 2


def test_any_exception_fails_every_result_of_its_request(table):
    req, entry = _entry(table, "q-sweep", "sweep")
    verdicts = run.check(req, "OverflowError", "OverflowError: intermediate overflow in fsum", entry)
    assert len(verdicts) == len(entry["rows"]) and not any(ok for ok, _ in verdicts)


def test_p90_rank_leaves_ten_samples_beyond_it():
    for n in range(100, 400):
        values = list(range(n))
        p90 = run.percentile(values, 90)
        assert sum(v > p90 for v in values) >= 10
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(1, 102)), 50) == 51


# ------------------------------------------------------------------ tracing

def test_self_time_subtracts_children_and_eval_log():
    spans = [["request", 0.0, 10.0, -1, 0, 0, 0.0, False, None],
             ["a", 1.0, 7.0, 0, 0, 3, 1.5, False, None],
             ["b", 2.0, 4.0, 1, 0, 0, 0.0, False, None]]
    assert tracing.self_times(spans) == [4.0, 2.5, 2.0]


def test_tracer_records_layers_and_restores_the_package():
    import worker  # noqa: F401  (puts the checkout's src/ on sys.path)
    import hopnorms
    from hopnorms import families, norms

    original = norms.eval_log
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        hopnorms.weighted_norm_quad(hopnorms.hermite(), 3, 2.0)
        tracer.end_request(False)
    finally:
        tracer.uninstall()
    assert norms.eval_log is original and families.eval_log is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[:3] == ["request", "norms.weighted_norm_quad", "norms.density_integral"]
    assert "quadrature.log_integral" in names and "families.polynomial_zeros" in names
    assert all(t >= -1e-6 for t in tracing.self_times(tracer.spans))
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["families.eval_log.calls_per_result"] > m["quadrature.log_integral.neval_per_call"] > 0
    assert 0 < m["quadrature.log_integral.gk_eval_frac"] < 1


# ---------------------------------------------------------------- the command

def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "q-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
