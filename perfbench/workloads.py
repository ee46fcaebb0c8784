"""Request pools and seeded request streams for the three workloads.

A request is a plain dict that survives a JSON round trip.  The worker
executes it against hopnorms; the oracle table holds its expected value
under ``key(request)``.  Every request comes from a fixed pool, so every
request has an oracle: the seed only picks variants and the order.

A stream is a list of rounds, and a timed run executes whole rounds (see
worker.py).  Every round of a workload has the same composition: one
request per slot, and a slot fixes everything that drives the cost (the
family, the functional, the degree band or pair, the kind of sweep).  Which
degree or family a slot takes in round j is fixed too, and parameter sets
alternate; the seed picks the phase of that alternation (and of the sweep
variants) and the order inside each round.
So the mix of a run, and with it results_per_s and the latency quantiles,
does not depend on the seed, and little on how many rounds it completes.

Parameters are dyadic rationals or integers, so they pass through the CLI's
"%.17g" formatting and float parsing unchanged.
"""
from __future__ import annotations

import json
import math
import random

WORKLOADS = ("degree-sweep", "q-sweep", "functionals")
FAMILIES = ("hermite", "laguerre", "jacobi", "gegenbauer")


def key(req: dict) -> str:
    """Canonical text of a request; the oracle table is keyed by it."""
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def spread_order(m: int) -> list[int]:
    """A permutation of range(m) whose prefixes are evenly spread: steps of
    the integer coprime to m nearest to 0.618 m."""
    step = min((k for k in range(1, max(m, 2)) if math.gcd(k, m) == 1),
               key=lambda k: abs(k - 0.618 * m))
    return [(m // 2 + k * step) % m for k in range(m)]


def _shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ------------------------------------------------------------ degree-sweep
# One quadrature norm per request, n in 12..64 for all four families.  A
# slot is (family, degree band); round j takes the j-th degree of the band
# in a spread order, so a stream holds each (family, n) once.

DEGREES = range(12, 65)
DEGREE_PARAMS = {
    "hermite": ([],),
    "laguerre": ([0.5], [1.25], [2.5], [3.75]),
    "jacobi": ([0.5, 1.5], [1.25, 0.75], [2.5, 1.5], [3.0, 3.0]),
    "gegenbauer": ([0.75], [1.25], [1.75], [2.5]),
}
NORM_MODES = (("weighted", 1), ("weighted", 2), ("weighted", 3),
              ("unweighted", 2), ("unweighted", 4))
# An odd number of bands puts the median and p90 latencies inside a band,
# not at the edge between two, where they would jump with the sample.
DEGREE_BANDS = (range(12, 23), range(23, 33), range(33, 44), range(44, 54), range(54, 65))


def _degree_request(fi: int, fam: str, n: int, v: int) -> dict:
    """Parameter variant v (0 or 1) of family fam at degree n; the norm
    mode changes every second degree."""
    plist = DEGREE_PARAMS[fam]
    op, q = NORM_MODES[((n - DEGREES.start) // 2 + 2 * fi) % len(NORM_MODES)]
    return {"kind": "norm", "engine": "quadrature", "family": fam,
            "params": plist[(n + 2 * v) % len(plist)], "n": n, "op": op, "q": q}


def degree_pool() -> list[dict]:
    pool = {key(_degree_request(fi, fam, n, v)): _degree_request(fi, fam, n, v)
            for fi, fam in enumerate(FAMILIES) for n in DEGREES for v in (0, 1)}
    return list(pool.values())


def degree_stream(rng: random.Random) -> list[list[dict]]:
    orders = [spread_order(len(band)) for band in DEGREE_BANDS]
    rounds = min(len(band) for band in DEGREE_BANDS)
    parity = rng.randrange(2)  # variants alternate, so every round holds both
    return [_shuffled([_degree_request(fi, fam, band[orders[b][j]], (j + fi + b + parity) % 2)
                       for fi, fam in enumerate(FAMILIES)
                       for b, band in enumerate(DEGREE_BANDS)], rng)
            for j in range(rounds)]


# ----------------------------------------------------------------- q-sweep
# One in-process `hopnorms sweep` per request, n in 0..6.  Either a q grid
# (engines quadrature + asymptotic-q, Laplace-valid parameters) or a grid
# over the large weight parameter (engines quadrature + asymptotic-parameter).
# A slot is (kind of grid, family, n); its variants (parameters, norm mode,
# --normalized) take turns from round to round.

Q_GRID = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000)
Q_SWEEP_PARAMS = {
    "hermite": ([],),
    "laguerre": ([1.0], [1.5], [3.0]),
    "jacobi": ([0.5, 1.5], [2.0, 1.0], [3.5, 3.5]),
    "gegenbauer": ([0.75], [1.5], [3.0]),
}
# Largest q at which the seed's quadrature is right; the missing points
# are seed defects and run in known_failures.py instead, as do laguerre
# alpha = 0.5 grids (the seed loses part of the peak at large q and its
# Laplace maximizer misses the global maximum for n >= 5).
Q_CAP = {("hermite", (), 2): 3000, ("laguerre", (1.0,), 0): 1000}
PARAM_GRID = (10, 32, 100, 316, 1000, 3162, 10000)
# (family, grid parameter, fixed flags)
PARAM_SWEEPS = (("laguerre", "alpha", []),
                ("jacobi", "alpha", ["--beta", "0.5"]),
                ("jacobi", "alpha", ["--beta", "2"]),
                ("gegenbauer", "lambda", []))
PARAM_MODES = (("weighted-norm", 2, False), ("weighted-norm", 3, False),
               ("weighted-norm", 2, True), ("unweighted-norm", 2, False),
               ("unweighted-norm", 4, False))
SWEEP_DEGREES = range(0, 7)

_PARAM_FLAGS = {"laguerre": ("--alpha",), "jacobi": ("--alpha", "--beta"),
                "gegenbauer": ("--lambda",)}


def family_flags(fam: str, params: list) -> list[str]:
    flags = []
    for flag, value in zip(_PARAM_FLAGS.get(fam, ()), params):
        flags += [flag, "%.17g" % value]
    return flags


def q_grid_request(fam: str, params: list, n: int, normalized: bool) -> dict:
    cap = Q_CAP.get((fam, tuple(params), n), max(Q_GRID))
    grid = [q for q in Q_GRID if q <= cap]
    argv = (["sweep", "--family", fam] + family_flags(fam, params)
            + ["--n", str(n), "--op", "weighted-norm",
               "--grid", "q=" + ",".join(str(q) for q in grid),
               "--engine", "quadrature", "--engine", "asymptotic-q"])
    if normalized:
        argv.append("--normalized")
    return {"kind": "sweep", "argv": argv}


def param_grid_request(fam: str, axis: str, fixed: list, n: int,
                       op: str, q: int, normalized: bool) -> dict:
    argv = (["sweep", "--family", fam] + fixed
            + ["--n", str(n), "--q", str(q), "--op", op,
               "--grid", axis + "=" + ",".join(str(a) for a in PARAM_GRID),
               "--engine", "quadrature", "--engine", "asymptotic-parameter"])
    if normalized:
        argv.append("--normalized")
    return {"kind": "sweep", "argv": argv}


def q_sweep_slots() -> list[list[dict]]:
    """The variants of each slot."""
    groups = []
    for fam in FAMILIES:
        for n in SWEEP_DEGREES:
            groups.append([q_grid_request(fam, p, n, nz)
                           for p in Q_SWEEP_PARAMS[fam] for nz in (False, True)])
    for fam, axis, fixed in PARAM_SWEEPS:
        for n in SWEEP_DEGREES:
            groups.append([param_grid_request(fam, axis, fixed, n, op, q, nz)
                           for op, q, nz in PARAM_MODES])
    return groups


def q_sweep_pool() -> list[dict]:
    return [r for g in q_sweep_slots() for r in g]


def q_sweep_stream(rng: random.Random) -> list[list[dict]]:
    slots = q_sweep_slots()
    phase = [rng.randrange(len(v)) for v in slots]
    period = math.lcm(*(len(v) for v in slots))
    return [_shuffled([v[(j + ph) % len(v)] for v, ph in zip(slots, phase)], rng)
            for j in range(period)]


# ------------------------------------------------------------- functionals
# One information functional of a unit-mass density per request, or one
# even-q unweighted norm by the Bell engine.  A round holds every
# (functional, degree pair) once, with the families spread evenly over the
# round; plus one large-parameter request per functional that takes them,
# two Bell norms and one Fisher at n >= 100.

FUNCTIONALS = ("renyi2", "renyi3", "shannon", "fisher", "E", "I", "lmc_renyi",
               "fisher_shannon", "fisher_renyi", "E_qderiv", "shannon_dwq")
# Fisher needs alpha > 1 (laguerre), alpha, beta > 1 (jacobi), lambda > 3/2
# (gegenbauer) for an integrable integrand; every density below qualifies.
FUNCTIONAL_PARAMS = {
    "hermite": ([],),
    "laguerre": ([1.5], [2.5]),
    "jacobi": ([1.5, 2.5], [2.0, 1.25]),
    "gegenbauer": ([1.75], [2.5]),
}
FUNCTIONAL_DEGREE_PAIRS = ((0, 1), (2, 3), (4, 5), (8, 9), (15, 16), (23, 24))
# Large weight parameters at low degree.  E and I (and so Shannon) return
# -inf at the seed for laguerre alpha >= 1e3; those run in known_failures.py.
LARGE_PARAMS = {
    "laguerre": ([100.0], [1000.0], [10000.0]),
    "jacobi": ([100.0, 2.0], [1000.0, 2.5], [10000.0, 1.5]),
    "gegenbauer": ([100.0], [1000.0], [10000.0]),
}
LARGE_DEGREES = (0, 1, 2, 4)
LARGE_PARAM_FUNCTIONALS = ("renyi2", "renyi3", "fisher", "lmc_renyi", "fisher_renyi")
# Fisher at high degree: Hermite n = 100, 101, ... one per round (a second
# or more each; other families cost up to 5x more, which no round could
# balance, and n = 200 fails at the seed, see known_failures.py).
FISHER_HIGH_DEGREES = range(100, 112)
# (n, q) of the Bell norms, run for every family: one cheap and one dear per
# round.  At the seed the engine fails on every n*q = 240 case tried and on
# the points below; those run in known_failures.py instead.
BELL_CHEAP = ((2, 4), (10, 4), (3, 8), (4, 8), (2, 12))
BELL_DEAR = ((8, 6), (6, 10), (12, 10), (20, 6))
BELL_SEED_FAILURES = (("laguerre", 20, 6), ("jacobi", 12, 10), ("gegenbauer", 12, 10))
BELL_PARAMS = {fam: plist[2 % len(plist)] for fam, plist in DEGREE_PARAMS.items()}


def functional_request(func: str, fam: str, params: list, n: int) -> dict:
    return {"kind": "functional", "func": func, "family": fam, "params": params, "n": n}


def bell_request(fam: str, params: list, n: int, q: int) -> dict:
    return {"kind": "norm", "engine": "bell", "family": fam, "params": params,
            "n": n, "op": "unweighted", "q": q}


def _bell(cases) -> list[dict]:
    return [bell_request(fam, BELL_PARAMS[fam], n, q) for fam in FAMILIES for n, q in cases
            if (fam, n, q) not in BELL_SEED_FAILURES]


def _large(func: str) -> list[dict]:
    return [functional_request(func, fam, p, n) for fam, plist in LARGE_PARAMS.items()
            for p in plist for n in LARGE_DEGREES]


def _fisher_high() -> list[dict]:
    return [functional_request("fisher", "hermite", [], n) for n in FISHER_HIGH_DEGREES]


def functional_pool() -> list[dict]:
    pool = [functional_request(func, fam, p, n) for func in FUNCTIONALS for fam in FAMILIES
            for p in FUNCTIONAL_PARAMS[fam] for pair in FUNCTIONAL_DEGREE_PAIRS for n in pair]
    pool += [r for func in LARGE_PARAM_FUNCTIONALS for r in _large(func)]
    return pool + _bell(BELL_CHEAP) + _bell(BELL_DEAR) + _fisher_high()


def functional_stream(rng: random.Random) -> list[list[dict]]:
    slots = [(func, pair) for func in FUNCTIONALS for pair in FUNCTIONAL_DEGREE_PAIRS]
    parity = rng.randrange(2)  # parameter sets alternate over slots and rounds
    cyclic = [_shuffled(_large(func), rng) for func in LARGE_PARAM_FUNCTIONALS]
    cyclic += [_shuffled(_bell(BELL_CHEAP), rng), _shuffled(_bell(BELL_DEAR), rng),
               _shuffled(_fisher_high(), rng)]
    rounds = []
    for j in range(2 * len(FAMILIES)):
        batch = []
        for c, (func, pair) in enumerate(slots):
            fam = FAMILIES[(j + c) % len(FAMILIES)]
            params = FUNCTIONAL_PARAMS[fam]
            batch.append(functional_request(func, fam, params[(j // len(FAMILIES) + c + parity)
                                                             % len(params)],
                                            pair[(j // len(FAMILIES) + c) % 2]))
        batch += [items[j % len(items)] for items in cyclic]
        rounds.append(_shuffled(batch, rng))
    return rounds


# ----------------------------------------------------------------- dispatch

POOLS = {"degree-sweep": degree_pool, "q-sweep": q_sweep_pool, "functionals": functional_pool}
_STREAMS = {"degree-sweep": degree_stream, "q-sweep": q_sweep_stream,
            "functionals": functional_stream}

# One small request per workload: the warm-up of set-up and of every run.
WARMUP = {
    "degree-sweep": {"kind": "norm", "engine": "quadrature", "family": "hermite",
                     "params": [], "n": 8, "op": "weighted", "q": 2},
    "q-sweep": q_grid_request("hermite", [], 1, False),
    "functionals": functional_request("renyi2", "hermite", [], 4),
}


def stream(workload: str, seed: int) -> list[list[dict]]:
    """The seed's rounds of requests for a workload; a run cycles through them."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _STREAMS[workload](random.Random(seed))
