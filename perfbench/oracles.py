"""Oracles for every pool request, by routes independent of hopnorms.

Everything here uses mpmath only; nothing imports hopnorms.

* kappa_n: the closed forms of the squared L2 norms.
* Norms at integer q: p_n comes from its explicit hypergeometric sum, the
  polynomial p^Q is formed exactly, and it is integrated against h^s term
  by term with closed-form moments.  The sum cancels heavily, so the
  working precision is raised until the digits lost stay GUARD_DIGITS
  below it.  (Jacobi works in v = (1 - x)/2, where the moments are Beta
  functions.)
* I = -int p^2 h ln h: the same sum with each moment replaced by its
  derivative in the weight exponent s at s = 1.
* Fisher information: rho'^2/rho = Q h / (kappa d^2) with Q a polynomial
  and d the product of the finite endpoint distances, so F is the moment
  sum of Q against the weight with its endpoint exponents lowered by 2.
* E = -int p^2 h ln p^2: tanh-sinh quadrature split at the zeros of p_n,
  at two working precisions that must agree.
* Shannon entropy: the identity S = ln kappa + (E + I)/kappa.
* Large q: the Laplace term m e^{q f0} sqrt(2 pi / (-q f2)) of
  f = ln h + ln p^2, with f maximised in every interval between zeros.
  Quadrature rows beyond the exactly summable q must stay inside the
  term's 1/q envelope, whose constant is twice the error seen at the
  largest exactly summable q.

    python3 perfbench/oracles.py        rebuilds oracle_table.json
"""
from __future__ import annotations

import json
import os
import sys

import mpmath
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "oracle_table.json")

GUARD_DIGITS = 30
NORM_TOL = 1e-9          # on ln N, scaled by max(1, |ln N|)
FUNCTIONAL_RTOL = 1e-8   # quadrature rel_tol is 1e-11
DIFFERENCE_RTOL = 1e-6   # Richardson differences amplify 1e-11 by ~1/h = 1e3
EXACT_DEGREE_CAP = 240   # largest degree of p^Q summed exactly in the q grids
HORNER_DPS = 60


# ------------------------------------------------------------- polynomials
# Coefficient lists in the family's native variable: x, or v = (1 - x)/2
# for Jacobi.  Built at the current mp precision.

def coeffs(fam: str, params: list, n: int) -> list:
    c = [mpf(0)] * (n + 1)
    f = mpmath.factorial
    if fam == "hermite":
        for m in range(n // 2 + 1):
            c[n - 2 * m] = (-1) ** m * f(n) / (f(m) * f(n - 2 * m)) * mpf(2) ** (n - 2 * m)
    elif fam == "laguerre":
        a = mpf(params[0])
        for k in range(n + 1):
            c[k] = (-1) ** k * mpmath.binomial(n + a, n - k) / f(k)
    elif fam == "gegenbauer":
        lam = mpf(params[0])
        for k in range(n // 2 + 1):
            c[n - 2 * k] = ((-1) ** k * mpmath.rf(lam, n - k) / (f(k) * f(n - 2 * k))
                            * mpf(2) ** (n - 2 * k))
    elif fam == "jacobi":
        a, b = mpf(params[0]), mpf(params[1])
        lead = mpmath.rf(a + 1, n) / f(n)
        for k in range(n + 1):
            c[k] = lead * mpmath.rf(-n, k) * mpmath.rf(n + a + b + 1, k) / (mpmath.rf(a + 1, k) * f(k))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return c


def pmul(a: list, b: list) -> list:
    out = [mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def ppow(c: list, k: int) -> list:
    out, base = [mpf(1)], c
    while k:
        if k & 1:
            out = pmul(out, base)
        k >>= 1
        if k:
            base = pmul(base, base)
    return out


def pderiv(c: list) -> list:
    return [k * c[k] for k in range(1, len(c))] or [mpf(0)]


def pscale(c: list, s) -> list:
    return [s * x for x in c]


# ----------------------------------------------------------------- moments

def moment(fam: str, params: list, s, t: int, shift=0, dlog: bool = False):
    """mu_t of y^t against h^s with endpoint exponents + shift; with dlog,
    mu_t times d ln mu_t / ds instead."""
    s = mpf(s)
    if fam == "hermite":
        if t % 2:
            return mpf(0)
        e = mpf(t + 1) / 2
        mu = mpmath.gamma(e) / s ** e
        return mu * (-e / s) if dlog else mu
    if fam == "laguerre":
        a = mpf(params[0])
        e = t + s * a + shift + 1
        mu = mpmath.gamma(e) / s ** e
        return mu * (a * mpmath.digamma(e) - a * mpmath.log(s) - e / s) if dlog else mu
    if fam == "gegenbauer":
        if t % 2:
            return mpf(0)
        a0 = mpf(params[0]) - mpf(1) / 2
        A = s * a0 + shift
        h = mpf(t + 1) / 2
        mu = mpmath.beta(h, A + 1)
        return mu * a0 * (mpmath.digamma(A + 1) - mpmath.digamma(A + 1 + h)) if dlog else mu
    a, b = mpf(params[0]), mpf(params[1])
    A, B = s * a + shift, s * b + shift
    mu = mpf(2) ** (A + B + 1) * mpmath.beta(t + A + 1, B + 1)
    if not dlog:
        return mu
    return mu * ((a + b) * mpmath.log(2) + a * mpmath.digamma(t + A + 1) + b * mpmath.digamma(B + 1)
                 - (a + b) * mpmath.digamma(t + A + B + 2))


def _adaptive(compute, dps: int = 40):
    """Run compute() -> (total, sum of |terms|) until the digits lost by
    cancellation stay GUARD_DIGITS below the working precision."""
    while True:
        with mp.workdps(dps):
            total, abs_sum = compute()
            if total != 0:
                lost = float(mpmath.log10(abs_sum / abs(total)))
                if lost < dps - GUARD_DIGITS:
                    return total
            else:
                lost = dps
        dps = int(lost) + GUARD_DIGITS + 20


def moment_sum(fam: str, params: list, poly, s, shift=0, dlog: bool = False):
    """int poly(y) h^s (endpoint exponents + shift); with dlog, the s-derivative."""
    def compute():
        c = poly()
        terms = [ct * moment(fam, params, s, t, shift, dlog) for t, ct in enumerate(c) if ct]
        return mpmath.fsum(terms), mpmath.fsum(abs(x) for x in terms)
    return _adaptive(compute)


# ------------------------------------------------------------ exact values

def kappa(fam: str, params: list, n: int):
    f = mpmath.factorial
    if fam == "hermite":
        return mpmath.sqrt(mpmath.pi) * mpf(2) ** n * f(n)
    if fam == "laguerre":
        return mpmath.gamma(n + mpf(params[0]) + 1) / f(n)
    if fam == "jacobi":
        a, b = mpf(params[0]), mpf(params[1])
        return (mpf(2) ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                / (f(n) * (2 * n + a + b + 1) * mpmath.gamma(n + a + b + 1)))
    lam = mpf(params[0])
    return (mpmath.pi * mpf(2) ** (1 - 2 * lam) * mpmath.gamma(n + 2 * lam)
            / (f(n) * (n + lam) * mpmath.gamma(lam) ** 2))


def log_weighted_norm(fam, params, n, q: int, normalized=False):
    """ln int (p^2 h)^q, q a positive integer."""
    with mp.workdps(40):
        if q == 1 and not normalized:
            return mpmath.log(kappa(fam, params, n))
        v = mpmath.log(moment_sum(fam, params, lambda: ppow(coeffs(fam, params, n), 2 * q), q))
        return v - q * mpmath.log(kappa(fam, params, n)) if normalized else v


def log_unweighted_norm(fam, params, n, q: int):
    """ln int |p|^q h, q a positive even integer."""
    with mp.workdps(40):
        if q == 2:
            return mpmath.log(kappa(fam, params, n))
        return mpmath.log(moment_sum(fam, params, lambda: ppow(coeffs(fam, params, n), q), 1))


def renyi(fam, params, n, q: int):
    with mp.workdps(40):
        return log_weighted_norm(fam, params, n, q, normalized=True) / (1 - q)


def functional_I(fam, params, n):
    with mp.workdps(40):
        return -moment_sum(fam, params, lambda: ppow(coeffs(fam, params, n), 2), 1, dlog=True)


def fisher(fam, params, n):
    def numerator():
        c = coeffs(fam, params, n)
        dc = pderiv(c)
        if fam == "hermite":        # 2p' - 2x p
            return ppow(padd(pscale(dc, 2), [mpf(0)] + pscale(c, -2)), 2)
        if fam == "laguerre":       # 2x p' + (alpha - x) p
            a = mpf(params[0])
            return ppow(padd([mpf(0)] + pscale(dc, 2), pmul([a, mpf(-1)], c)), 2)
        if fam == "gegenbauer":     # 2(1 - x^2) p' - (2 lambda - 1) x p
            lam = mpf(params[0])
            return ppow(padd(pmul([mpf(2), mpf(0), mpf(-2)], dc), [mpf(0)] + pscale(c, 1 - 2 * lam)), 2)
        a, b = mpf(params[0]), mpf(params[1])   # in v: -4v(1-v) p_v + 2p(b v - a(1-v))
        return ppow(padd(pmul([mpf(0), mpf(-4), mpf(4)], dc), pmul([-2 * a, 2 * (a + b)], c)), 2)
    with mp.workdps(40):
        shift = 0 if fam == "hermite" else -2
        return moment_sum(fam, params, numerator, 1, shift) / kappa(fam, params, n)


def _p_eval(fam, params, n):
    if fam == "hermite":
        return lambda x: mpmath.hermite(n, x)
    if fam == "laguerre":
        return lambda x: mpmath.laguerre(n, params[0], x)
    if fam == "jacobi":
        return lambda x: mpmath.jacobi(n, params[0], params[1], x)
    return lambda x: mpmath.gegenbauer(n, params[0], x)


def _log_h(fam, params):
    if fam == "hermite":
        return lambda x: -x * x
    if fam == "laguerre":
        return lambda x: params[0] * mpmath.log(x) - x
    a, b = (params[0], params[1]) if fam == "jacobi" else (params[0] - 0.5,) * 2
    return lambda x: a * mpmath.log(1 - x) + b * mpmath.log(1 + x)


def zeros(fam, params, n) -> list:
    """Zeros of p_n in x, ascending."""
    if n == 0:
        return []
    with mp.workdps(60):
        c = coeffs(fam, params, n)
        roots = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=400)
        xs = [mpmath.re(r) for r in roots]
        if fam == "jacobi":
            xs = [1 - 2 * v for v in xs]
        return sorted(xs)


def _support(fam):
    return {"hermite": (-mpmath.inf, mpmath.inf), "laguerre": (mpf(0), mpmath.inf)}.get(
        fam, (mpf(-1), mpf(1)))


_MEMO: dict = {}


def _memo(fn):
    """Cache by (function, family, parameters, degree); pools reuse densities."""
    def cached(fam, params, n):
        k = (fn.__name__, fam, tuple(params), n)
        if k not in _MEMO:
            _MEMO[k] = fn(fam, params, n)
        return _MEMO[k]
    cached.__doc__ = fn.__doc__
    return cached


@_memo
def functional_E(fam, params, n):
    """-int p^2 h ln p^2 by tanh-sinh quadrature between the zeros of p_n.

    p is evaluated by Horner's rule at HORNER_DPS digits, which covers the
    cancellation of the power basis at the degrees used here."""
    if n == 0:
        return mpf(0)
    log_h = _log_h(fam, params)
    pts = zeros(fam, params, n)
    lo, hi = _support(fam)
    with mp.workdps(HORNER_DPS):
        c = coeffs(fam, params, n)[::-1]

    def f(x):
        with mp.workdps(HORNER_DPS):
            y = (1 - x) / 2 if fam == "jacobi" else x
            v = mpf(0)
            for ck in c:
                v = v * y + ck
        if v == 0:
            return mpf(0)
        v2 = v * v
        return -v2 * mpmath.exp(log_h(x)) * mpmath.log(v2)

    values = []
    for dps in (20, 30):
        with mp.workdps(dps):
            values.append(mpmath.quad(f, [lo] + pts + [hi]))
    if abs(values[0] - values[1]) > 1e-15 * abs(values[1]):
        raise ArithmeticError(f"E oracle for {fam}{params} n={n} unstable: {values}")
    return values[1]


def shannon(fam, params, n):
    with mp.workdps(40):
        k = kappa(fam, params, n)
        return mpmath.log(k) + (functional_E(fam, params, n) + functional_I(fam, params, n)) / k


@_memo
def laplace(fam, params, n):
    """(f0, f2, multiplicity) of f = ln h + ln p^2 at its global maximum."""
    p, log_h = _p_eval(fam, params, n), _log_h(fam, params)
    with mp.workdps(40):
        def f(x):
            return log_h(x) + mpmath.log(p(x) ** 2)

        def fp(x):
            return mpmath.diff(f, x)

        zs = zeros(fam, params, n)
        tiny = mpf(10) ** -30
        if fam == "hermite":
            r = mpmath.sqrt(2 * n + 1) + 10
            lo, hi = -r, r
        elif fam == "laguerre":
            lo, hi = tiny, 4 * n + 2 * params[0] + 60
        else:
            lo, hi = -1 + tiny, 1 - tiny
        edges = [lo] + zs + [hi]
        crit = []
        for a, b in zip(edges[:-1], edges[1:]):
            w = (b - a) * mpf(10) ** -25
            a, b = a + w, b - w
            if not (fp(a) > 0 > fp(b)):
                raise ArithmeticError(f"no bracket for the maximum on ({a}, {b})")
            for _ in range(200):
                mid = (a + b) / 2
                if fp(mid) > 0:
                    a = mid
                else:
                    b = mid
            crit.append((a + b) / 2)
        vals = [f(x) for x in crit]
        fmax = max(vals)
        winners = [x for x, v in zip(crit, vals) if fmax - v < mpf(10) ** -25]
        f2 = mpmath.diff(f, max(winners), 2)
        return fmax, f2, len(winners)


def log_laplace(point, q):
    f0, f2, m = point
    with mp.workdps(40):
        return (mpmath.log(m) + q * f0 + mpmath.log(2 * mpmath.pi) / 2
                - mpmath.log(q * (-f2)) / 2)


# ------------------------------------------------------------- request oracles

def _norm_entry(log_value) -> dict:
    v = float(log_value)
    return {"log": v, "tol": NORM_TOL * max(1.0, abs(v))}


def norm_oracle(req: dict) -> dict:
    fam, params, n, q = req["family"], req["params"], req["n"], req["q"]
    if req["op"] == "weighted":
        return _norm_entry(log_weighted_norm(fam, params, n, q))
    return _norm_entry(log_unweighted_norm(fam, params, n, q))


def functional_value(func: str, fam, params, n):
    with mp.workdps(40):
        if func == "renyi2":
            return renyi(fam, params, n, 2)
        if func == "renyi3":
            return renyi(fam, params, n, 3)
        if func in ("shannon", "shannon_dwq"):
            return shannon(fam, params, n)
        if func == "fisher":
            return fisher(fam, params, n)
        if func in ("E", "E_qderiv"):
            return functional_E(fam, params, n)
        if func == "I":
            return functional_I(fam, params, n)
        if func == "lmc_renyi":
            return mpmath.exp(renyi(fam, params, n, 2) - renyi(fam, params, n, 3))
        two_pi_e = 2 * mpmath.pi * mpmath.e
        if func == "fisher_shannon":
            return fisher(fam, params, n) * mpmath.exp(2 * shannon(fam, params, n)) / two_pi_e
        if func == "fisher_renyi":
            return fisher(fam, params, n) * mpmath.exp(2 * renyi(fam, params, n, 2)) / two_pi_e
    raise ValueError(f"unknown functional {func!r}")


def functional_oracle(req: dict) -> dict:
    func = req["func"]
    rtol = DIFFERENCE_RTOL if func in ("E_qderiv", "shannon_dwq") else FUNCTIONAL_RTOL
    return {"value": float(functional_value(func, req["family"], req["params"], req["n"])),
            "rtol": rtol}


def sweep_parts(argv: list) -> dict:
    """The parts of a `hopnorms sweep` argv that fix its expected rows."""
    opts, flags, i = {}, set(), 1
    while i < len(argv):
        if argv[i] == "--normalized":
            flags.add(argv[i])
            i += 1
        else:
            opts[argv[i]] = argv[i + 1]
            i += 2
    axis, _, body = opts["--grid"].partition("=")
    return {"family": opts["--family"], "axis": axis, "grid": [float(v) for v in body.split(",")],
            "fixed": {name: opts.get("--" + name) for name in ("alpha", "beta", "lambda")},
            "n": int(opts["--n"]), "q": float(opts["--q"]) if "--q" in opts else None,
            "op": opts["--op"], "normalized": "--normalized" in flags}


def _params_at(fam: str, fixed: dict, axis: str, value: float) -> list:
    vals = dict(fixed)
    vals[axis] = value
    names = {"hermite": (), "laguerre": ("alpha",), "jacobi": ("alpha", "beta"),
             "gegenbauer": ("lambda",)}[fam]
    return [float(vals[k]) for k in names]


def row_key(engine: str, value: float) -> str:
    return f"{engine}@{value!r}"


def sweep_oracle(req: dict) -> dict:
    p = sweep_parts(req["argv"])
    fam, axis, grid, fixed, n = p["family"], p["axis"], p["grid"], p["fixed"], p["n"]
    normalized = p["normalized"]
    rows = {}
    if axis == "q":
        params = _params_at(fam, fixed, "q", 0.0)
        point = laplace(fam, params, n)
        exact = [q for q in grid if n == 0 or 2 * n * q <= EXACT_DEGREE_CAP]
        q0 = max(exact)
        with mp.workdps(40):
            ln_k = mpmath.log(kappa(fam, params, n))
            shift = (lambda q: q * ln_k) if normalized else (lambda q: 0)
            k_env = 2 * q0 * abs(float(log_weighted_norm(fam, params, n, int(q0))
                                       - log_laplace(point, q0))) + 1.0
            for q in grid:
                lap = log_laplace(point, q) - shift(q)
                rows[row_key("asymptotic-q", q)] = _norm_entry(lap)
                if q in exact:
                    rows[row_key("quadrature", q)] = _norm_entry(
                        log_weighted_norm(fam, params, n, int(q), normalized))
                else:
                    rows[row_key("quadrature", q)] = {"log": float(lap), "tol": k_env / q}
    else:
        q = int(p["q"])
        for value in grid:
            params = _params_at(fam, fixed, axis, value)
            if p["op"] == "weighted-norm":
                exact = log_weighted_norm(fam, params, n, q, normalized)
            else:
                exact = log_unweighted_norm(fam, params, n, q)
            rows[row_key("quadrature", value)] = _norm_entry(exact)
            # large-parameter displays are leading terms with no error
            # envelope of fixed order; they are checked for finiteness only
            rows[row_key("asymptotic-parameter", value)] = {"finite": True}
    return {"axis": axis, "rows": rows}


def oracle(req: dict) -> dict:
    kind = req["kind"]
    if kind == "norm":
        return norm_oracle(req)
    if kind == "functional":
        return functional_oracle(req)
    if kind == "sweep":
        return sweep_oracle(req)
    raise ValueError(f"unknown request kind {kind!r}")


def results_in(entry: dict) -> int:
    """Number of results one request yields: rows for a sweep, else one."""
    return len(entry["rows"]) if "rows" in entry else 1


def main() -> int:
    """Rebuild the oracle of every request in every pool."""
    sys.path.insert(0, HERE)
    from workloads import POOLS, key
    table = {}
    for name, make in POOLS.items():
        pool = make()
        for i, req in enumerate(pool):
            if key(req) not in table:
                table[key(req)] = oracle(req)
            if i % 100 == 0:
                print(f"{name}: {i}/{len(pool)}", file=sys.stderr, flush=True)
    with open(TABLE_PATH + ".tmp", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(json.dumps(k) + ": " + json.dumps(table[k], sort_keys=True)
                                    for k in sorted(table)) + "\n}\n")
    os.replace(TABLE_PATH + ".tmp", TABLE_PATH)
    print(f"wrote {len(table)} oracles to {TABLE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
