"""The four classical orthogonal polynomial families.

Standardisations are the conventional ones: H_n (physicists'), L_n^(alpha),
P_n^(alpha,beta), C_n^(lambda), evaluated by forward three-term recurrence.
Weight functions:

    hermite     e^{-x^2}            on (-inf, inf)
    laguerre    x^alpha e^{-x}      on [0, inf),    alpha > -1
    jacobi      (1-x)^a (1+x)^b     on [-1, 1],     a, b > -1
    gegenbauer  (1-x^2)^(lambda-1/2) on [-1, 1],    lambda > -1/2, != 0
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dsterf

from .errors import DomainError, NumericalFailure, SingularEvaluation
from .logreal import SignedLogReal
from .special import log_distance, log_gamma

__all__ = [
    "PolynomialFamily", "CoefficientList", "FAMILY_PARAMS",
    "hermite", "laguerre", "jacobi", "gegenbauer",
    "eval_poly", "eval_log", "eval_log_many", "eval_derivative",
    "norm_constant_log", "norm_constant_log_error", "norm_constant_log_size", "coefficients",
    "weight_log", "weight_log_many", "weight_log_derivative", "gegenbauer_jacobi_factor_log",
    "Weight", "log_derivative_numerator_many", "critical_points", "critical_derivatives",
    "numerator_peaks", "moment_ratios", "power_basis",
]

_RESCALE_HI = 1e280
_RESCALE_LO = 1e-280
_RESCALE_EVERY = 16  # steps between the power-of-two rescales of eval_log_many
_LN2 = math.log(2.0)
_COEFF_DEGREE_CAP = 60

# The parameters of each family, by the names that labels, the CLI flags and
# the sweep grids print, in the order its constructor takes them.
FAMILY_PARAMS = {"hermite": (), "laguerre": ("alpha",), "jacobi": ("alpha", "beta"),
                 "gegenbauer": ("lambda",)}
_FIELDS = {"alpha": "alpha", "beta": "beta", "lambda": "lam"}  # name -> PolynomialFamily field


class Weight(NamedTuple):
    """h(x) = exp(c1 x + c2 x^2) (x - lo)^e_lo (hi - x)^e_hi on (lo, hi).

    An infinite endpoint has exponent 0, so a nonzero exponent always sits
    at a finite endpoint.  The core c1 x + c2 x^2 and its slope evaluate
    only their nonzero terms, so -1.0 x x rounds as -x x does.
    """

    lo: float
    hi: float
    e_lo: float
    e_hi: float
    c1: float = 0.0
    c2: float = 0.0

    def core(self, x):
        v = self.c2 * x * x if self.c2 else 0.0
        return v + self.c1 * x if self.c1 else v

    def core_prime(self, x):
        v = 2.0 * self.c2 * x if self.c2 else 0.0
        return v + self.c1 if self.c1 else v

    @property
    def is_flat(self) -> bool:
        return self.c1 == self.c2 == self.e_lo == self.e_hi == 0.0


@dataclass(frozen=True)
class PolynomialFamily:
    kind: str  # "hermite" | "laguerre" | "jacobi" | "gegenbauer"
    alpha: Optional[float] = None
    beta: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self):
        names = FAMILY_PARAMS.get(self.kind)
        if names is None:
            raise DomainError(f"unknown family kind {self.kind!r}")
        for p, f in _FIELDS.items():
            if (getattr(self, f) is None) == (p in names):
                raise DomainError(f"{self.kind} {'requires' if p in names else 'takes no'} {p}")
        w = self.weight
        if not (w.e_lo > -1 and w.e_hi > -1):  # h is integrable
            raise DomainError(f"{self.label()}: weight exponents must exceed -1")
        if self.lam == 0:
            raise DomainError("gegenbauer requires lambda != 0")

    @property
    def params(self) -> tuple[float, ...]:
        """The parameter values, in the order of FAMILY_PARAMS[kind]."""
        return tuple(getattr(self, _FIELDS[p]) for p in FAMILY_PARAMS[self.kind])

    @cached_property
    def weight(self) -> Weight:
        if self.kind == "hermite":
            return Weight(-math.inf, math.inf, 0.0, 0.0, c2=-1.0)
        if self.kind == "laguerre":
            return Weight(0.0, math.inf, self.alpha, 0.0, c1=-1.0)
        if self.kind == "jacobi":
            return Weight(-1.0, 1.0, self.beta, self.alpha)
        a = self.lam - 0.5
        return Weight(-1.0, 1.0, a, a)

    @property
    def support(self) -> tuple[float, float]:
        return self.weight.lo, self.weight.hi

    def label(self) -> str:
        if not self.params:
            return self.kind
        args = ",".join(f"{p}={v:g}" for p, v in zip(FAMILY_PARAMS[self.kind], self.params))
        return f"{self.kind}({args})"


def family_support(kind: str) -> tuple[float, float]:
    """The support of family `kind`, which no parameter moves: that of its
    member with every parameter 1, a value in every family's domain."""
    return PolynomialFamily(kind, **{_FIELDS[p]: 1.0 for p in FAMILY_PARAMS[kind]}).support


def hermite() -> PolynomialFamily:
    return PolynomialFamily("hermite")


def laguerre(alpha: float) -> PolynomialFamily:
    return PolynomialFamily("laguerre", alpha=alpha)


def jacobi(alpha: float, beta: float) -> PolynomialFamily:
    return PolynomialFamily("jacobi", alpha=alpha, beta=beta)


def gegenbauer(lam: float) -> PolynomialFamily:
    return PolynomialFamily("gegenbauer", lam=lam)


@dataclass(frozen=True)
class CoefficientList:
    """Power-basis coefficients: p_n(x) = sum c_k x^k, c_n != 0."""

    degree: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise DomainError("coefficient list length must be degree + 1")
        if self.degree >= 0 and self.coeffs[-1] == 0.0:
            raise DomainError("leading coefficient must be nonzero")

    def horner(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _rows(fam: PolynomialFamily, n: int, num, start: int = 0) -> list:
    """Rows (A_k, B_k, C_k), start <= k < n, of p_{k+1} = (A_k x + B_k) p_k - C_k p_{k-1},
    with p_{-1} = 0 and p_0 = 1 (Gautschi 2004, ch. 1), in the number type num
    (float, or Fraction: float parameters are exact dyadic rationals)."""
    rows = []
    for k in range(start, n):
        if fam.kind == "hermite":
            rows.append((num(2), num(0), num(2 * k)))
        elif fam.kind == "laguerre":
            a, k1 = num(fam.alpha), num(k + 1)
            rows.append((-1 / k1, (2 * k + a + 1) / k1, (k + a) / k1))
        elif fam.kind == "jacobi":
            a, b = num(fam.alpha), num(fam.beta)
            if k == 0:  # the general row divides by (a + b)(a + b + 1)
                rows.append(((a + b + 2) / 2, (a - b) / 2, num(0)))
                continue
            s = 2 * k + a + b
            den = 2 * (k + 1) * (k + a + b + 1) * s
            rows.append(((s + 1) * (s + 2) * s / den, (s + 1) * (a * a - b * b) / den,
                         2 * (k + a) * (k + b) * (s + 2) / den))
        else:
            lam = num(fam.lam)
            rows.append((2 * (k + lam) / (k + 1), num(0), (k + 2 * lam - 1) / (k + 1)))
    return rows


@lru_cache(maxsize=64)
def _recurrence(fam: PolynomialFamily, n: int) -> tuple[tuple[float, float, float], ...]:
    """The float rows of :func:`_rows`, cached per (family, n)."""
    return tuple(_rows(fam, n, float))


def _convolve(a: list, b: list) -> list:
    """Coefficients of the product of the polynomials sum a_i x^i and sum b_j x^j."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=64)
def _pearson(w: Weight, num=Fraction) -> tuple[tuple, tuple]:
    """The coefficients (sigma_0, sigma_1, sigma_2) and (tau_0, tau_1) of
    sigma, the product of the distances d to the finite ends, and of
    tau = sigma' + sigma (ln h)', in the number type num: h obeys Pearson's
    equation (sigma h)' = tau h with tau of degree <= 1 (Nikiforov & Uvarov
    1988, sec. 2).  With Fraction they are exact: float parameters are exact
    dyadic rationals.  Memoised per (weight, num)."""
    ends = [([-s * num(c), num(s)], num(e))  # (d as coefficients, its exponent)
            for c, e, s in ((w.lo, w.e_lo, 1), (w.hi, w.e_hi, -1)) if math.isfinite(c)]
    sigma = reduce(_convolve, [d for d, _ in ends], [num(1)])
    # tau = sigma (c1 + 2 c2 x) + sigma' + the sum over the ends of e d' sigma / d
    tau = _convolve(sigma, [num(w.c1), 2 * num(w.c2)])
    for k in range(1, len(sigma)):
        tau[k - 1] += k * sigma[k]
    for d, e in ends:
        for k, c in enumerate(reduce(_convolve, [o for o, _ in ends if o is not d], [num(1)])):
            tau[k] += e * d[1] * c
    return tuple(sigma + [num(0)] * 2)[:3], tuple(tau[:2])


def moment_ratios(fam: PolynomialFamily, t_max: int) -> list[Fraction]:
    """Exact r_t = mu_t / mu_0, t <= t_max, of the moments mu_t = int x^t h dx.

    Integrating x^t (sigma h)' by parts, with sigma and tau of Pearson's
    equation (see :func:`_pearson`), gives the recurrence below; float
    parameters are exact dyadic rationals, so the r_t are exact."""
    (s0, s1, s2), (t0, t1) = _pearson(fam.weight)
    # mu_{t+1} (tau_1 + t sigma_2) = -(tau_0 + t sigma_1) mu_t - t sigma_0 mu_{t-1}
    r = [0, Fraction(1)]  # r_{-1}, r_0
    for t in range(t_max):
        r.append(-((t0 + t * s1) * r[-1] + t * s0 * r[-2]) / (t1 + t * s2))
    return r[1:]


def _eval_scaled(fam: PolynomialFamily, n: int, x: float) -> tuple[float, float]:
    """(v, s) with p_n(x) = v e^s; s == 0.0 when the recurrence was never
    rescaled.  The values are rescaled to magnitude 1 before a step whose
    products could pass 1e280, and when they fall below 1e-280, so no
    product overflows unless A x + B itself does."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    p0, p1, scale = 0.0, 1.0, 0.0
    for A, B, C in _recurrence(fam, n):
        mag = max(abs(p0), abs(p1))
        if mag * (abs(A * x + B) + abs(C)) > _RESCALE_HI or 0.0 < mag < _RESCALE_LO:
            p0 /= mag
            p1 /= mag
            scale += math.log(mag)
        p0, p1 = p1, (A * x + B) * p1 - C * p0
    return p1, scale


def eval_poly(fam: PolynomialFamily, n: int, x: float) -> float:
    """p_n(x) as a float: exact recurrence output while it stays in range,
    +-inf where |p_n(x)| overflows.  Use :func:`eval_log` for full range."""
    v, scale = _eval_scaled(fam, n, x)
    return v if scale == 0.0 else _logreal(v, scale).to_float()


def eval_log(fam: PolynomialFamily, n: int, x: float) -> SignedLogReal:
    """p_n(x) as a SignedLogReal; recurrence rescaled to avoid overflow."""
    return _logreal(*_eval_scaled(fam, n, x))


def _logreal(v: float, scale: float) -> SignedLogReal:
    if v == 0.0:
        return SignedLogReal.zero()
    return SignedLogReal(1 if v > 0 else -1, math.log(abs(v)) + scale)


def eval_log_many(fam: PolynomialFamily | Sequence[PolynomialFamily], n: int, xs,
                  at: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """p_n at every point of xs as (signs, log_abs) arrays; a zero gives
    sign 0 and log_abs -inf.

    The recurrence of :func:`eval_log` runs over the whole array and is
    rescaled by exact powers of two every 16 steps.  Its cost is dominated
    by the per-step overhead, so it pays off over batches of many points.

    With ``at``, fam is a sequence of families of one kind, and each point
    takes p_n of fam[at]: at is an integer array of the shape of xs.  One
    recurrence serves all the families, so it costs about as much as one.
    Each row entry (A_k, B_k or C_k) on which the families differ becomes
    a column of per-point values, and then every B and C is added, a zero
    too, where one family alone skips it: that can change only the sign
    of an exact zero of p_n, reported as sign 0 either way.  So every
    point gets the bits that its own family alone gives it.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    x = np.asarray(xs, dtype=float)
    rows, differ = (_recurrence(fam, n), None) if at is None else _row_columns(tuple(fam), n)
    if differ is not None:  # one column per entry the families differ on
        values = iter(differ[:, at])
        rows = [tuple(next(values) if v is None else v for v in row) for row in rows]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, _, scale = _eval_many(rows, x, 0, columns=differ is not None)
        log_abs = np.log(np.abs(p)) + scale * _LN2
    return np.sign(p).astype(int), log_abs


@lru_cache(maxsize=1024)
def _row_columns(fams: tuple[PolynomialFamily, ...], n: int) -> tuple[list, Optional[np.ndarray]]:
    """(rows, differ) for the rows of p_n of several families: rows holds
    the entries all the families share as floats, and None at the others;
    differ holds, row by row, the values of those others, one column per
    family (None where the families share every entry)."""
    table = np.array([_recurrence(f, n) for f in fams]).reshape(len(fams), n, 3)
    same = (table == table[0]).all(axis=0)
    rows = [tuple(v if s else None for v, s in zip(row, flags))
            for row, flags in zip(_recurrence(fams[0], n), same.tolist())]
    return rows, None if same.all() else table[:, ~same].T.copy()


def _eval_many(rows, x: np.ndarray, order: int, every: int = _RESCALE_EVERY,
               columns: bool = False) -> tuple[np.ndarray, list, np.ndarray]:
    """(p, [p', ..., p^(order)], scale): the polynomial of the recurrence
    rows and its derivatives at the points of x, each equal to its column
    times 2^scale.

    Each of A_k, B_k and C_k in ``rows`` (as :func:`_rows` orders them) is
    a float, or, with ``columns``, may be an array of one value per point
    of x; a B or C of 0.0 is skipped, but with columns every one is
    applied.  The j-th derivative obeys
    p^(j)_{k+1} = (A_k x + B_k) p^(j)_k + j A_k p^(j-1)_k - C_k p^(j)_{k-1}.
    All columns are rescaled together by exact powers of two every `every`
    steps; points where a block overflows are redone with a rescale after
    every step.  Call it under np.errstate(over="ignore", invalid="ignore").
    """
    p0, p1, t = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    # p^(j)_{k-1} and p^(j)_k, j = 1..order
    d0 = [np.zeros_like(x) for _ in range(order)] if order else []
    d1 = [np.zeros_like(x) for _ in range(order)] if order else []
    scale = np.zeros_like(x)  # binary exponent taken out of every column
    for k, (A, B, C) in enumerate(rows, 1):
        # t = (A x + B) p1 - C p0, in place: the loop is bound by numpy's
        # per-call overhead, not by the arithmetic
        np.multiply(x, A, out=t)
        if columns or B != 0.0:
            t += B
        if order:  # t holds A x + B; d0 takes the new columns
            for j, (u0, u1, v1) in enumerate(zip(d0, d1, [p1] + d1), 1):
                u0 *= -C
                u0 += t * u1
                u0 += (j * A) * v1
            d0, d1 = d1, d0
        t *= p1
        if columns or C != 0.0:
            p0 *= C
            t -= p0
        p0, p1, t = p1, t, p0
        if k % every == 0:
            m = np.maximum(np.abs(p0), np.abs(p1))
            for u in d0 + d1:
                m = np.maximum(m, np.abs(u))
            _, ex = np.frexp(m)
            scale += ex
            ex = -ex
            for u in [p0, p1] + d0 + d1:  # in place, so a 0-d x stays an array
                np.ldexp(u, ex, out=u)
    bad = ~np.isfinite(p1)
    for u in d1:
        bad |= ~np.isfinite(u)
    if every > 1 and bad.any():  # overflow inside one block: redo those points
        if columns:
            rows = [tuple(v if isinstance(v, float) else v[bad] for v in row) for row in rows]
        p, d, redo_scale = _eval_many(rows, x[bad], order, 1, columns)
        for u, v in zip([p1] + d1, [p] + d):
            u[bad] = v
        scale[bad] = redo_scale
    return p1, d1, scale


def eval_derivative(fam: PolynomialFamily, n: int, x: float) -> float:
    """p_n'(x) as a float, +-inf where it overflows.  It runs the array
    recurrence on one point, so it is slow; batch points where it matters."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        _, (dp,), scale = _eval_many(_recurrence(fam, n), np.array([float(x)]), 1)
    v, e = float(dp[0]), int(scale[0])
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def norm_constant_log(fam: PolynomialFamily, n: int) -> SignedLogReal:
    """ln kappa_n, the squared L2 norm of p_n against the family weight."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if fam.kind == "hermite":
        lg = 0.5 * math.log(math.pi) + log_gamma(n + 1.0) + n * math.log(2.0)
    elif fam.kind == "laguerre":
        lg = log_gamma(n + fam.alpha + 1.0) - log_gamma(n + 1.0)
    elif fam.kind == "jacobi":
        a, b = fam.alpha, fam.beta
        # ln[(a+b+2n+1) Gamma(a+b+n+1)]: Gamma(a+b+2) at n = 0, also for a+b+1 <= 0
        tail = (log_gamma(a + b + 2.0) if n == 0 else
                math.log(a + b + 2.0 * n + 1.0) + log_gamma(a + b + n + 1.0))
        lg = ((a + b + 1.0) * math.log(2.0) + log_gamma(a + n + 1.0) + log_gamma(b + n + 1.0)
              - log_gamma(n + 1.0) - tail)
    else:
        lam = fam.lam  # lambda < 0: ln|Gamma| and ln|n+lambda|, whose signs cancel
        lg = ((1.0 - 2.0 * lam) * math.log(2.0) + math.log(math.pi) + math.lgamma(n + 2.0 * lam)
              - 2.0 * math.lgamma(lam) - math.log(abs(n + lam)) - log_gamma(n + 1.0))
    return SignedLogReal(1, lg)


def norm_constant_log_error(fam: PolynomialFamily, n: int) -> float:
    """Bound on the rounding error of :func:`norm_constant_log`, in ln:
    4 eps times :func:`norm_constant_log_size`."""
    return 8.9e-16 * norm_constant_log_size(fam, n)


def norm_constant_log_size(fam: PolynomialFamily, n: int) -> float:
    """The magnitude at which ln kappa_n is rounded, |ln kappa_n| + 4 lgamma(x).

    ln kappa_n sums log-gammas of arguments below
    x = 2 + 2n + 2 sum|parameters|, which cancel for large degree or
    parameters: each carries its own rounding, up to ~eps lgamma(x).
    """
    x = 2.0 + 2.0 * (n + sum(abs(p) for p in fam.params))
    return abs(norm_constant_log(fam, n).log_abs) + 4.0 * math.lgamma(x)


def coefficients(fam: PolynomialFamily, n: int) -> CoefficientList:
    """Exact power-basis coefficients by recurrence on coefficient vectors."""
    return CoefficientList(n, tuple(power_basis(fam, n, float)))


def power_basis(fam: PolynomialFamily, n: int, num) -> list:
    """c_0..c_n of p_n = sum c_k x^k, the rows of :func:`_rows` stepped on
    coefficient vectors in the number type num (float or Fraction)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if n > _COEFF_DEGREE_CAP:
        raise DomainError(f"coefficient extraction capped at degree {_COEFF_DEGREE_CAP}")
    prev, cur = [], [num(1)]
    for A, B, C in (_recurrence(fam, n) if num is float else _rows(fam, n, num)):
        nxt = [B * c for c in cur] + [num(0)]
        for j, c in enumerate(cur):
            nxt[j + 1] += A * c
        for j, c in enumerate(prev):
            nxt[j] -= C * c
        prev, cur = cur, nxt
    return cur


def weight_log(fam: PolynomialFamily, x: float) -> SignedLogReal:
    """ln h(x), as :func:`weight_log_many` takes it; signals
    SingularEvaluation where h vanishes with a negative exponent (endpoint poles)."""
    w = fam.weight
    if not w.lo <= x <= w.hi:
        raise DomainError(f"{fam.label()} weight defined on [{w.lo:g}, {w.hi:g}]")
    g = float(weight_log_many(fam, x))
    if g == math.inf:
        raise SingularEvaluation(f"weight pole at x = {x:g}")
    return SignedLogReal(1 if g > -math.inf else 0, g)


def weight_log_many(fam: PolynomialFamily, xs, sizes: bool = False):
    """ln h at every point of xs in the support: -inf where h vanishes at an
    endpoint, +inf at an endpoint pole.  The log of the distance to a finite
    end takes the log1p form of :func:`special.log_distance`.  With sizes,
    returns (ln h, the sum of the magnitudes of its terms)."""
    w = fam.weight
    x = np.asarray(xs, dtype=float)
    g = w.core(x) + np.zeros_like(x)
    size = np.abs(g)
    with np.errstate(divide="ignore"):
        for c, e, dist in ((w.lo, w.e_lo, x - w.lo), (w.hi, w.e_hi, w.hi - x)):
            if e != 0.0:
                term = e * log_distance(c, x, dist)
                g += term
                size += np.abs(term)
    return (g, size) if sizes else g


def weight_log_derivative(fam: PolynomialFamily, x: float) -> float:
    """h'(x)/h(x) at interior points, r/d of :func:`_numerator_factors`."""
    d, r = _numerator_factors(fam.weight, x)
    if d == 0.0:
        raise SingularEvaluation(f"h'/h pole at x = {x:g}")
    return r / d


def _numerator_factors(w: Weight, x):
    """(d, r) with d the product of the distances to the endpoints where h
    has a nonzero exponent and r = d h'/h."""
    d_lo = x - w.lo if w.e_lo != 0.0 else 1.0
    d_hi = w.hi - x if w.e_hi != 0.0 else 1.0
    d = d_lo * d_hi
    return d, d * w.core_prime(x) + w.e_lo * d_hi - w.e_hi * d_lo


def log_derivative_numerator_many(fam: PolynomialFamily, n: int,
                                  xs) -> tuple[np.ndarray, np.ndarray]:
    """N = d (2 p_n' + p_n h'/h) at every point of xs, as the (signs, log_abs)
    arrays of :func:`eval_log_many`; d is the product of the distances to the
    endpoints where h has a nonzero exponent.

    N is a polynomial, so it has no poles at the zeros of p_n or at the
    endpoints, and the log-derivative of the density p_n^2 h is N / (d p_n).
    N changes sign exactly at the critical points of the density away from
    the zeros of p_n; when every finite-endpoint exponent is positive these
    are its n + 1 maxima, one between each pair of neighbouring zeros of
    p_n or ends of the support.
    """
    x = np.asarray(xs, dtype=float)
    d, r = _numerator_factors(fam.weight, x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, (dp,), scale = _eval_many(_recurrence(fam, n), x, 1)
        v = 2.0 * d * dp + r * p
        return np.sign(v).astype(int), np.log(np.abs(v)) + scale * _LN2


def gegenbauer_jacobi_factor_log(n: int, lam: float) -> float:
    """ln c with C_n^(lambda) = c * P_n^(lam-1/2, lam-1/2)."""
    return (log_gamma(lam + 0.5) - log_gamma(2.0 * lam)
            + log_gamma(n + 2.0 * lam) - log_gamma(n + lam + 0.5))


def polynomial_zeros(fam: PolynomialFamily, n: int) -> list[float]:
    """All n real zeros of p_n, ascending (a fresh list).  Internal helper."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    return list(_zeros(fam, n))


@lru_cache(maxsize=64)
def _zeros(fam: PolynomialFamily, n: int) -> tuple[float, ...]:
    """Golub-Welsch: the zeros are the eigenvalues of the symmetric Jacobi
    matrix of the recurrence rows, with diagonal -B_k/A_k and off-diagonal
    sqrt(C_k / (A_{k-1} A_k)) (Golub & Welsch, Math. Comp. 23, 1969),
    followed by one Newton step x - p_n/p_n'."""
    if n == 0:
        return ()
    A, B, C = np.array(_recurrence(fam, n)).T
    x = eigh_tridiagonal(-B / A, np.sqrt(C[1:] / (A[:-1] * A[1:])), eigvals_only=True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, (dp,), _ = _eval_many(_recurrence(fam, n), x, 1)
        return tuple((x - np.where(dp != 0.0, p / dp, 0.0)).tolist())


def _eigenvalue(fam: PolynomialFamily, n: int) -> float:
    """lambda_n = -n (tau' + (n - 1) sigma''/2) of :func:`_equation`."""
    (_, _, s2), (_, t1) = _pearson(fam.weight, float)
    return -n * (t1 + (n - 1) * s2)


@lru_cache(maxsize=64)
def critical_points(fam: PolynomialFamily, n: int, ratio: float,
                    weight: Optional[Weight] = None) -> tuple[float, ...]:
    """The n + 1 zeros, ascending, of N = sigma p_n' + ratio pi p_n, with
    sigma and tau of :func:`_pearson` and pi = tau - sigma' = sigma (ln h)':
    g = a ln|p_n| + b ln h has g' = a N / (sigma p_n) for ratio = b/a, h
    the family's weight or ``weight`` on its support.  Where N vanishes, g
    is flat (p_0 with a flat weight, or b = 0): on a finite support every
    point is a peak, and the midpoint is returned; where N is a nonzero
    constant (p_0, an exponent below pi's rounding), the end g rises
    toward; where N has a lower degree otherwise (b = 0 on an infinite
    support, not integrable), ().

    With ratio >= 0 and both end exponents >= 0, g is strictly concave
    between neighbouring knots (the finite ends and the zeros of p_n), so
    these are its peaks, one in each gap.  A finite end whose exponent
    times ratio is 0 is a zero of N and its gap's peak; it is returned
    exactly.

    N = (A' x + B') p_n - C' p_{n-1} continues the recurrence by one row,
    so its zeros are the eigenvalues of the (n + 1)-point Jacobi matrix of
    the rows with that row last (Golub & Welsch 1969), symmetric where
    Wendroff's condition C' / (A_{n-1} A') > 0 holds.  The row comes from
    sigma p_n' = kappa (tau_n p_n - r_n p_{n+1}), tau_n = tau + n sigma',
    kappa = lambda_n / (n tau_n'), r_n A_n = tau_n' (1 - n^2 sigma_2 / lambda_n),
    lambda_n = -n (tau' + (n - 1) sigma''/2) (Nikiforov & Uvarov 1988).
    Memoised per (family, n, ratio, weight).
    """
    (s0, s1, s2), (t0, t1) = _pearson(fam.weight, float)
    w = fam.weight if weight is None else weight
    (_, u1, u2), (v0, v1) = _pearson(w, float)  # sigma is the support's
    pi0, pi1 = ratio * (v0 - u1), ratio * (v1 - 2.0 * u2)
    a_last = n * s2 + pi1
    if a_last == 0.0:  # at n = 0, N = ratio pi0: g is flat, or rises toward an end
        top = 0.5 * (w.lo + w.hi) if pi0 == 0.0 else w.hi if pi0 > 0.0 else w.lo
        return (top,) if n == 0 and math.isfinite(top) else ()
    if n == 0:  # N = ratio pi
        x = np.array([-pi0 / a_last])
    else:
        lam, tau_n = _eigenvalue(fam, n), t1 + 2.0 * n * s2
        kappa = lam / (n * tau_n)
        A, B, C = _rows(fam, n + 1, float, start=n)[0]
        r = tau_n * (1.0 - n * n * s2 / lam) / A
        row = (a_last, kappa * (t0 + n * s1 - r * B) + pi0, -kappa * r * C)
        A, B, C = np.array(_recurrence(fam, n) + (row,)).T
        off = C[1:] / (A[:-1] * A[1:])
        if not (off > 0.0).all():
            raise NumericalFailure(f"Wendroff's condition fails for the critical points of "
                                   f"{fam.label()} n={n} at b/a = {ratio:g}")
        x, info = dsterf(-B / A, np.sqrt(off))  # all eigenvalues, ascending
        if info:
            raise NumericalFailure(f"no eigenvalues for the critical points of {fam.label()} "
                                   f"n={n}")
    x = np.clip(x, w.lo, w.hi)  # rounding can put a peak pressed against an end beyond it
    if math.isfinite(w.lo) and ratio * w.e_lo == 0.0:
        x[0] = w.lo
    if math.isfinite(w.hi) and ratio * w.e_hi == 0.0:
        x[-1] = w.hi
    return tuple(x.tolist())


def critical_derivatives(fam: PolynomialFamily, n: int, ratio: float, xs,
                         weight: Optional[Weight] = None) -> tuple[np.ndarray, np.ndarray]:
    """(g'/a, g''/a) of g = a ln|p_n| + b ln h, ratio = b/a, h the family's
    weight or ``weight``, at points xs of :func:`critical_points`, from
    :func:`_equation`, with no recurrence: inside, g' = 0, so p'/p =
    -ratio (ln h)'; at an end, where the peak is one-sided, g' need not vanish."""
    w = fam.weight if weight is None else weight
    wr = Weight(w.lo, w.hi, ratio * w.e_lo, ratio * w.e_hi, ratio * w.c1, ratio * w.c2)  # h^ratio
    x = np.asarray(xs, dtype=float)
    d, r = _numerator_factors(wr, x)
    l1, l2 = r / d, 2.0 * wr.c2  # ratio (ln h)' and ratio (ln h)''
    for e, dist in ((wr.e_lo, x - w.lo), (wr.e_hi, w.hi - x)):
        if e != 0.0:
            l2 = l2 - e / dist ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        u, p2, _ = _equation(fam, n, x, 1.0, -l1)
    return u + l1, p2 - u * u + l2  # u + l1 is exactly 0 inside


def _equation(fam: PolynomialFamily, n: int, x, p0, p1) -> tuple:
    """(p', p'', p''') of p = c p_n at points x where p = p0 and p' = p1,
    from sigma p'' + tau p' + lambda_n p = 0 (:func:`_eigenvalue`) and its
    derivatives; at an end, where sigma = 0 and p1 is unused, p' =
    -lambda_n p/tau, p'' = -(tau' + lambda_n) p'/(sigma' + tau) and p''' =
    -(sigma'' + 2 tau' + lambda_n) p''/(2 sigma' + tau).  Use np.errstate."""
    (s0, s1, s2), (t0, t1) = _pearson(fam.weight, float)
    lam = _eigenvalue(fam, n)
    sigma, sigma1, tau = s0 + (s1 + s2 * x) * x, s1 + 2.0 * s2 * x, t0 + t1 * x
    end = sigma == 0.0
    p1 = np.where(end, -lam * p0 / tau, p1)
    p2 = np.where(end, -(t1 + lam) * p1 / (sigma1 + tau), -(tau * p1 + lam * p0) / sigma)
    p3 = np.where(end, -(2.0 * s2 + 2.0 * t1 + lam) * p2 / (2.0 * sigma1 + tau),
                  -((sigma1 + tau) * p2 + (t1 + lam) * p1) / sigma)
    return p1, p2, p3


_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-4  # of the peak's width


def _gap_tops(slopes, x, left, right, go) -> np.ndarray:
    """Newton steps on g' from x[i] to the top of g in each gap i where
    go[i], bracketed by left[i] and right[i], where g' falls through 0;
    slopes(i, x) gives g' and g'' of gaps i at points x.  A step that
    leaves the bracket, or where g'' >= 0, bisects it (goes 1 + |x| on
    where it is open); one that rounds to 0 stands.  A gap stops once its
    step is within _NEWTON_TOL of 1/sqrt(-g''), its peak's width.  Updates
    all four in place and returns go, set where a gap has not stopped."""
    for _ in range(_NEWTON_STEPS):
        if not (i := np.flatnonzero(go)).size:
            break
        xi = x[i]
        g1, g2 = slopes(i, xi)
        rise = g1 > 0.0  # the top lies right of x
        left[i] = l = np.where(rise, xi, left[i])
        right[i] = r = np.where(rise, right[i], xi)
        step = -g1 / g2
        nx = xi + step
        newton = (g2 < 0.0) & ((l < nx) & (nx < r) | (nx == xi))
        mid, s = 0.5 * (l + r), np.sign(l + r)  # s = +-1 where the bracket is open
        x[i] = np.where(newton, nx, np.where(np.isfinite(mid), mid, xi + s + s * np.abs(xi)))
        go[i] = ~(newton & (np.abs(step) <= _NEWTON_TOL / np.sqrt(-g2)))
    return go


@lru_cache(maxsize=64)
def basis_peaks(fam: PolynomialFamily, n: int, ratio: float,
                weight: Optional[Weight] = None) -> Optional[tuple]:
    """(tops, knots, g'/a, g''/a) of g = a ln|p_n| + b ln h, ratio = b/a, h
    the family's weight or ``weight``: a top in each gap between the ends
    and the knots, the zeros of p_n; None where there are not n + 1.  With
    end exponents >= 0, the :func:`critical_points`.  With a pole (an end
    exponent in (-1, 0)), g without the power of a pole beside the gap:
    the tops with the poles' powers set to 0 start :func:`_gap_tops`
    on g'/a = p_n'/p_n + ratio (ln h)', which bisect where g is not
    concave, as where b |e| > a for a pole's exponent e (N_q at q < |e|);
    a gap end where g' is finite and falls into the gap is its top.
    Memoised per (family, n, ratio, weight)."""
    w = fam.weight if weight is None else weight
    if min(w.e_lo, w.e_hi) >= 0.0:
        crit = critical_points(fam, n, ratio, weight)
        return (np.array(crit), np.array(_zeros(fam, n)),
                *critical_derivatives(fam, n, ratio, crit, weight)) if crit else None
    x = np.array(critical_points(fam, n, ratio, w._replace(e_lo=max(w.e_lo, 0.0),
                                                            e_hi=max(w.e_hi, 0.0))))
    zeros = knots = np.array(_zeros(fam, n))
    left = np.concatenate(([w.lo], knots))  # gap i runs from left[i] to right[i]
    right = np.concatenate((knots, [w.hi]))
    e_lo, e_hi = np.full(x.size, ratio * w.e_lo), np.full(x.size, ratio * w.e_hi)
    e_lo[0], e_hi[-1] = max(e_lo[0], 0.0), max(e_hi[-1], 0.0)  # a pole beside its gap

    def slopes(i, x):
        """g'/a and g''/a of gaps i at points x, inside or on an end where sigma = 0."""
        p, (dp,), _ = _eval_many(_recurrence(fam, n), x, 1)
        u, p2, _ = _equation(fam, n, x, 1.0, dp / p)
        g1, g2 = u + ratio * w.core_prime(x), p2 - u * u + 2.0 * ratio * w.c2
        for e, dist, sign in ((e_lo[i], x - w.lo, 1.0), (e_hi[i], w.hi - x, -1.0)):
            g1 = g1 + np.where(e != 0.0, sign * e / dist, 0.0)
            g2 = g2 - np.where(e != 0.0, e / dist ** 2, 0.0)
        return g1, g2

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        go = (e_lo < 0.0) | (e_hi < 0.0)  # the gaps whose g keeps a pole's power
        for side, ends, e, c in ((-1.0, left, e_lo, w.lo), (1.0, right, e_hi, w.hi)):
            i = np.flatnonzero(go & np.isfinite(ends) & ((ends != c) | (e == 0.0))
                               & ~np.isin(ends, zeros))  # where g' is finite
            if i.size:
                top = side * slopes(i, ends[i])[0] >= 0.0
                x[i[top]], go[i[top]] = ends[i[top]], False
        _gap_tops(slopes, x, left, right, go)
        return (x, knots, *slopes(np.arange(x.size), x))


def _numerator_slopes(fam: PolynomialFamily, n: int, x, p0, p1, drop=0) -> tuple:
    """(g', g'', (d N)'/(d N)) of g = 2 ln|N| + ln(h/d^2), N and d of
    :func:`log_derivative_numerator_many`, at points x where (p0, p1) is
    proportional to (p_n, p_n'), p_n'' and p_n''' from :func:`_equation`;
    drop, -1 or 1 (or one of them per point), leaves the power of h/d^2
    at the lower or upper end out of g."""
    w = fam.weight
    p1, p2, p3 = _equation(fam, n, x, p0, p1)
    # d = d_lo d_hi and r = d (ln h)' of _numerator_factors, with their derivatives
    lo1, hi1 = float(w.e_lo != 0.0), -float(w.e_hi != 0.0)
    d_lo = x - w.lo if lo1 else 1.0
    d_hi = w.hi - x if hi1 else 1.0
    d, d1, d2 = d_lo * d_hi, lo1 * d_hi + hi1 * d_lo, 2.0 * lo1 * hi1
    c, c1 = w.core_prime(x), 2.0 * w.c2
    r = d * c + w.e_lo * d_hi - w.e_hi * d_lo
    r1 = d1 * c + d * c1 + w.e_lo * hi1 - w.e_hi * lo1
    r2 = d2 * c + 2.0 * d1 * c1
    big_n = 2.0 * d * p1 + r * p0
    n1 = (2.0 * d1 * p1 + 2.0 * d * p2 + r1 * p0 + r * p1) / big_n
    n2 = (2.0 * d2 * p1 + 4.0 * d1 * p2 + 2.0 * d * p3 + r2 * p0 + 2.0 * r1 * p1 + r * p2) / big_n
    l1, l2 = c, c1  # (ln h/d^2)' and (ln h/d^2)''
    for e, dist, sign, side in ((w.e_lo, x - w.lo, 1.0, -1), (w.e_hi, w.hi - x, -1.0, 1)):
        if e != 0.0 and e != 2.0:  # the exponent e - 2 of h/d^2
            l1 = l1 + np.where(drop != side, sign * (e - 2.0) / dist, 0.0)
            l2 = l2 - np.where(drop != side, (e - 2.0) / dist ** 2, 0.0)
    return l1 + 2.0 * n1, l2 + 2.0 * (n2 - n1 * n1), d1 / d + n1


@lru_cache(maxsize=64)
def numerator_peaks(fam: PolynomialFamily, n: int) -> Optional[tuple]:
    """(tops, knots, g', g'') of g = 2 ln|N| + ln(h/d^2), the log of
    rho'^2/rho times kappa_n (N and d of :func:`log_derivative_numerator_many`).
    The knots, the n + 1 :func:`critical_points` at ratio 1/2 (N vanishes
    at those inside the support), split the support into n + 2 gaps: gap i
    runs from knot i - 1 (or the lower end) to knot i (or the upper end),
    and g peaks at tops[i], with g' and g'' there; NaN marks an empty gap.
    None where g is not concave on every gap, as where N = 0.

    Once an end pole of h/d^2 is left out, g'' = -2 sum 1/(x - x_k)^2 over
    the zeros of N plus that of ln(h/d^2), which is concave, so each gap
    has one peak, the root of M = d N g', a polynomial where N vanishes
    nowhere inside it.  With :func:`_equation`, M = A p + B p' with A and
    B closed forms, so the peak of gap i, 1 <= i <= n, which holds the
    zero x_i of p_n, is one Newton step on M from x_i, where p' cancels:
    x_i - M/M' = x_i - g'/(g'' + g' (d N)'/(d N)), each term at p = 0.
    For Hermite M = 4 (x^2 - 2n - 1) p_n, so the step is 0.  A finite end
    where h/d^2 has exponent <= 0 is its gap's peak where g rises toward
    it (at a pole, g without the end's power).  The two end gaps, 0 and
    n + 1, hold no zero of p_n; there :func:`_gap_tops` takes Newton
    steps on g', with p'/p = sum 1/(x - x_k) over the zeros of p_n and no
    recurrence, from the knot plus sqrt(2) times the density's width
    there, the peak of a Gaussian's Fisher integrand.  An interior peak
    has g' = 0 and g'' at its zero of p_n (gaps 1..n) or at the peak; an
    end peak both at the end.  Memoised per (family, n)."""
    crit = critical_points(fam, n, 0.5)
    if not crit:
        return None
    w = fam.weight
    knots, zeros = np.array(crit), np.array(_zeros(fam, n))
    lo = np.concatenate(([w.lo], knots))  # gap i runs from lo[i] to hi[i]
    hi = np.concatenate((knots, [w.hi]))
    live = hi > lo
    tops, g1, g2 = np.full(n + 2, math.nan), np.zeros(n + 2), np.full(n + 2, math.nan)
    go, drop = np.zeros(n + 2, dtype=bool), np.zeros(n + 2, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        if n:
            d1, d2, q = _numerator_slopes(fam, n, zeros, 0.0, 1.0)
            tops[1:-1] = np.clip(zeros - d1 / (d2 + d1 * q), lo[1:-1], hi[1:-1])
            g2[1:-1] = d2
        # the curvature of ln rho at the outer knots, for the Newton steps' start
        curv = critical_derivatives(fam, n, 0.5, [crit[0], crit[-1]])[1].tolist()
        for side, end, e, i, knot in ((-1, w.lo, w.e_lo, 0, 0), (1, w.hi, w.e_hi, n + 1, -1)):
            if math.isfinite(end) and e <= 2.0:  # p'/p is the equation's at an end
                e1, e2, _ = _numerator_slopes(fam, n, np.float64(end), 1.0, 0.0, side)
                if side * e1 >= 0.0:
                    j = i if live[i] else i - side  # an empty end gap: the end's knot
                    tops[j], g1[j], g2[j], go[j] = end, e1, e2, False
            if not live[i] or not math.isnan(tops[i]):
                continue
            go[i], drop[i] = True, side if 0.0 < e < 2.0 else 0  # a pole of h/d^2 left out
            x = math.nan  # Newton from the knot where N vanishes, else the middle
            if w.lo < crit[knot] < w.hi:
                if not curv[knot] < 0.0:  # no peak of the density: N = 0
                    return None
                x = crit[knot] + side * math.sqrt(-1.0 / curv[knot])
            tops[i] = x if lo[i] < x < hi[i] else 0.5 * (lo[i] + hi[i])

        def slopes(i, x):
            u = (1.0 / (x[:, None] - zeros)).sum(axis=1)
            return _numerator_slopes(fam, n, x, 1.0, u, drop[i])[:2]

        i = np.flatnonzero(go)
        tops[_gap_tops(slopes, tops, lo, hi, go)] = math.nan  # no convergence: None below
        g2[i] = slopes(i, tops[i])[1]
    if not (np.isfinite(tops[live]).all() and (g2[live] <= 0.0).all()):
        return None
    return tops, knots, g1, g2
