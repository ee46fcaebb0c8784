"""The four classical orthogonal polynomial families.

Standardisations are the conventional ones: H_n (physicists'), L_n^(alpha),
P_n^(alpha,beta), C_n^(lambda), evaluated by forward three-term recurrence.
Weight functions:

    hermite     e^{-x^2}            on (-inf, inf)
    laguerre    x^alpha e^{-x}      on [0, inf),    alpha > -1
    jacobi      (1-x)^a (1+x)^b     on [-1, 1],     a, b > -1
    gegenbauer  (1-x^2)^(lambda-1/2) on [-1, 1],    lambda > -1/2, != 0

Each family is stated by two facts only, its weight and its recurrence
rows; everything else is derived from them: the norm constant kappa_n
from the rows and the weight's mass, the moments from the weight's
Pearson equation, the zeros and the critical points as eigenvalues of
the rows' Jacobi matrix, and p_n' as a multiple of p_{n-1} of the family
of the weight sigma h, each parameter raised by 1, evaluated by the same
order-0 recurrence as p_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np
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
    "Weight", "log_derivative_numerator_many", "critical_points",
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
    (float, or Fraction: float parameters are exact dyadic rationals).

    The float sums are grouped so that none cancels near a parameter
    limit: a + 1, k + a and 1 + 2 lambda are exact there (Sterbenz), so
    every row keeps its relative accuracy, as ln kappa_n needs."""
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
                rows.append((((a + 1) + (b + 1)) / 2, (a - b) / 2, num(0)))
                continue
            s = (k + a) + (k + b)
            den = 2 * (k + 1) * ((k + a) + (b + 1)) * s
            rows.append(((s + 1) * (s + 2) * s / den, (s + 1) * (a - b) * (a + b) / den,
                         2 * (k + a) * (k + b) * (s + 2) / den))
        else:
            lam = num(fam.lam)
            rows.append((2 * (k + lam) / (k + 1), num(0), ((k - 1) + 2 * lam) / (k + 1)))
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
    product overflows unless A x + B itself does.  DomainError at a
    negative degree or a non-finite x."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if not math.isfinite(x):
        raise DomainError(f"p_n is evaluated at finite x, not at {x}")
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
        p, scale = _eval_many(rows, x, columns=differ is not None)
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


def _eval_many(rows, x: np.ndarray, every: int = _RESCALE_EVERY,
               columns: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(p, scale): the polynomial of the recurrence rows at the points of x,
    equal to p times 2^scale.

    Each of A_k, B_k and C_k in ``rows`` (as :func:`_rows` orders them) is
    a float, or, with ``columns``, may be an array of one value per point
    of x; a B or C of 0.0 is skipped, but with columns every one is
    applied.  The values are rescaled by exact powers of two every `every`
    steps; points where a block overflows are redone with a rescale after
    every step.  Call it under np.errstate(over="ignore", invalid="ignore").
    """
    p0, p1, t = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    scale = np.zeros_like(x)  # binary exponent taken out of p0 and p1
    for k, (A, B, C) in enumerate(rows, 1):
        # t = (A x + B) p1 - C p0, in place: the loop is bound by numpy's
        # per-call overhead, not by the arithmetic
        np.multiply(x, A, out=t)
        if columns or B != 0.0:
            t += B
        t *= p1
        if columns or C != 0.0:
            p0 *= C
            t -= p0
        p0, p1, t = p1, t, p0
        if k % every == 0:
            _, ex = np.frexp(np.maximum(np.abs(p0), np.abs(p1)))
            scale += ex
            for u in (p0, p1):  # in place, so a 0-d x stays an array
                np.ldexp(u, -ex, out=u)
    bad = ~np.isfinite(p1)
    if every > 1 and bad.any():  # overflow inside one block: redo those points
        if columns:
            rows = [tuple(v if isinstance(v, float) else v[bad] for v in row) for row in rows]
        p1[bad], scale[bad] = _eval_many(rows, x[bad], 1, columns)
    return p1, scale


@lru_cache(maxsize=256)
def _derivative(fam: PolynomialFamily, n: int) -> tuple[PolynomialFamily, float]:
    """(up, c) with p_n' = c q_{n-1}, q the polynomials of up, the family of
    the weight sigma h: each parameter raised by 1 (Szego 1975, (4.21.7),
    (5.1.14), (4.7.14), (5.5.10)).  The leading coefficient of p_n is the
    product of A_0..A_{n-1}, so c = n k_n / k'_{n-1} is summed as logs of
    the rows' |A_k| with fsum, their signs counted apart (A_0 < 0 for
    Gegenbauer with lambda < 0); c = 0 at n = 0.  Memoised per (family, n)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    up = replace(fam, **{_FIELDS[p]: v + 1.0 for p, v in zip(FAMILY_PARAMS[fam.kind], fam.params)})
    a, b = ([A for A, _, _ in _recurrence(f, m)] for f, m in ((fam, n), (up, max(n - 1, 0))))
    sign = math.prod(math.copysign(1.0, A) for A in a + b)
    return up, n * sign * math.exp(math.fsum([math.log(abs(A)) for A in a]
                                             + [-math.log(abs(A)) for A in b]))


def eval_derivative(fam: PolynomialFamily, n: int, x: float) -> float:
    """p_n'(x) = c q_{n-1}(x) as a float, +-inf where it overflows; q and c
    of :func:`_derivative`, q by the scalar recurrence of :func:`eval_log`."""
    up, c = _derivative(fam, n)
    v, scale = _eval_scaled(up, max(n - 1, 0), x)
    v *= c  # c = 0 at n = 0, once x is checked
    return v if scale == 0.0 else _logreal(v, scale).to_float()


def _mass_log(w: Weight) -> float:
    """ln mu_0 = ln int h dx, from the shape of h: a Beta integral on a
    finite support (whose core is flat), a Gamma integral on the half-line
    (lo, inf), a Gaussian on the line."""
    e_lo, e_hi = w.e_lo + 1.0, w.e_hi + 1.0
    if math.isfinite(w.hi):
        return ((e_lo + e_hi - 1.0) * math.log(w.hi - w.lo) + log_gamma(e_lo) + log_gamma(e_hi)
                - log_gamma(e_lo + e_hi))
    if math.isfinite(w.lo):
        return w.c1 * w.lo + log_gamma(e_lo) - e_lo * math.log(-w.c1)
    return 0.5 * math.log(math.pi / -w.c2) - w.c1 * w.c1 / (4.0 * w.c2)


@lru_cache(maxsize=256)
def norm_constant_log(fam: PolynomialFamily, n: int) -> SignedLogReal:
    """ln kappa_n, the squared L2 norm of p_n against the family weight,
    from the recurrence rows: kappa_k / kappa_{k-1} = C_k A_{k-1} / A_k
    (Gautschi 2004, sec. 1.3), so the A_k telescope and
    ln kappa_n = ln mu_0 + ln|A_0| - ln|A_n| + sum_{k=1}^n ln|C_k|, summed
    with fsum.  Logs of magnitudes, as a product C_1 A_0 can underflow.
    Memoised per (family, n)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    rows = _recurrence(fam, n) + tuple(_rows(fam, n + 1, float, start=n))
    terms = [_mass_log(fam.weight), math.log(abs(rows[0][0])), -math.log(abs(rows[-1][0]))]
    return SignedLogReal(1, math.fsum(terms + [math.log(abs(C)) for _, _, C in rows[1:]]))


def norm_constant_log_error(fam: PolynomialFamily, n: int) -> float:
    """Bound on the rounding error of :func:`norm_constant_log`, in ln:
    4 eps times :func:`norm_constant_log_size`."""
    return 8.9e-16 * norm_constant_log_size(fam, n)


def norm_constant_log_size(fam: PolynomialFamily, n: int) -> float:
    """The magnitude at which ln kappa_n is rounded, |ln kappa_n| + 4 lgamma(x).

    ln kappa_n sums the log-gammas of ln mu_0 and the n + 2 logs of the
    rows of :func:`norm_constant_log`.  These terms cancel for large
    degree or parameters, and each carries its own rounding: in all, up to
    ~eps lgamma(x), x = 2 + 2n + 2 sum|parameters|.  The bound is loose:
    ln kappa_n of Laguerre(2), n = 60, misses by 1.6e-15 against 1.7e-12.
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
    """h'(x)/h(x) at finite points of the support, r/d of
    :func:`_numerator_factors`; signals SingularEvaluation at an end with a
    nonzero exponent."""
    w = fam.weight
    if not (w.lo <= x <= w.hi and math.isfinite(x)):
        raise DomainError(f"{fam.label()} h'/h defined at finite x in [{w.lo:g}, {w.hi:g}]")
    d, r = _numerator_factors(w, x)
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

    p_n' = c q_{n-1} of :func:`_derivative`: p_n and q_{n-1} take one
    order-0 pass each, combined at the larger of their power-of-two scales.
    """
    x = np.asarray(xs, dtype=float)
    d, r = _numerator_factors(fam.weight, x)
    up, c = _derivative(fam, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, sp = _eval_many(_recurrence(fam, n), x)
        q, sq = _eval_many(_recurrence(up, max(n - 1, 0)), x)
        scale = np.maximum(sp, sq)
        v = (2.0 * c) * d * (q * np.exp2(sq - scale)) + r * (p * np.exp2(sp - scale))
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


def _jacobi_eigenvalues(rows, what: str) -> np.ndarray:
    """The eigenvalues, ascending, of the symmetric Jacobi matrix of the
    recurrence rows, the zeros of the polynomial they end with: diagonal
    -B_k/A_k, off-diagonal sqrt(C_k / (A_{k-1} A_k)) (Golub & Welsch,
    Math. Comp. 23, 1969), real where Wendroff's condition
    C_k / (A_{k-1} A_k) > 0 holds.  ``what`` names them in errors."""
    A, B, C = np.array(rows).T
    if A.size == 1:  # dsterf refuses a 1 x 1 matrix
        return -B / A
    off = C[1:] / (A[:-1] * A[1:])
    if not (off > 0.0).all():
        raise NumericalFailure(f"Wendroff's condition fails for {what}")
    x, info = dsterf(-B / A, np.sqrt(off))
    if info:
        raise NumericalFailure(f"no eigenvalues for {what}")
    return x


@lru_cache(maxsize=64)
def _zeros(fam: PolynomialFamily, n: int) -> tuple[float, ...]:
    """The zeros of p_n, ascending: the eigenvalues of the Jacobi matrix of
    its rows, within ~1e-14 relative of the roots with no Newton step."""
    if n == 0:
        return ()
    return tuple(_jacobi_eigenvalues(_recurrence(fam, n), f"the zeros of {fam.label()} n={n}")
                 .tolist())


def _eigenvalue(fam: PolynomialFamily, n: int) -> float:
    """lambda_n = -n (tau' + (n - 1) sigma''/2) of sigma p_n'' + tau p_n' +
    lambda_n p_n = 0, sigma and tau of :func:`_pearson`, for the last row
    of :func:`critical_points`."""
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
        row = (a_last, pi0, 0.0)
    else:
        lam, tau_n = _eigenvalue(fam, n), t1 + 2.0 * n * s2
        kappa = lam / (n * tau_n)
        A, B, C = _rows(fam, n + 1, float, start=n)[0]
        r = tau_n * (1.0 - n * n * s2 / lam) / A
        row = (a_last, kappa * (t0 + n * s1 - r * B) + pi0, -kappa * r * C)
    x = _jacobi_eigenvalues(_recurrence(fam, n) + (row,), f"the critical points of "
                            f"{fam.label()} n={n} at b/a = {ratio:g}")
    x = np.clip(x, w.lo, w.hi)  # rounding can put a peak pressed against an end beyond it
    if math.isfinite(w.lo) and ratio * w.e_lo == 0.0:
        x[0] = w.lo
    if math.isfinite(w.hi) and ratio * w.e_hi == 0.0:
        x[-1] = w.hi
    return tuple(x.tolist())


_SUM_BLOCK = 1 << 16  # entries of the largest array of a sum over zeros


def _slopes(x: np.ndarray, zeros: np.ndarray, a: float, w: Weight, e_lo, e_hi) -> tuple:
    """(g', g'', S) at the points x of g = a sum ln|x - c| + core +
    e_lo ln(x - lo) + e_hi ln(hi - x), summed over the points c of zeros,
    with the core and the ends of w and the exponents e_lo and e_hi, one
    per point or one for all; an exponent 0 adds nothing, even at its own
    end.  S = sum 1/(x - c).  Every g whose peaks are named has this form:
    the log-derivatives of a polynomial are sums over its zeros (Szego
    1975, sec. 6.7).  The sums run over blocks of points, so no array
    holds more than about 2^16 entries.  Use np.errstate."""
    s1, s2 = np.empty_like(x), np.empty_like(x)
    step = max(1, _SUM_BLOCK // max(zeros.size, 1))
    for k in range(0, x.size, step):
        u = x[k:k + step, None] - zeros
        np.divide(1.0, u, out=u)
        s1[k:k + step] = u.sum(axis=1)
        u *= u
        s2[k:k + step] = u.sum(axis=1)
    g1, g2 = a * s1 + w.core_prime(x), 2.0 * w.c2 - a * s2
    for e, dist, sign in ((e_lo, x - w.lo, 1.0), (e_hi, w.hi - x, -1.0)):
        g1 = g1 + np.where(e != 0.0, sign * e / dist, 0.0)
        g2 = g2 - np.where(e != 0.0, e / dist ** 2, 0.0)
    return g1, g2, s1


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
    and the knots, the zeros of p_n; None where there are not n + 1.  The
    slopes are :func:`_slopes` over the knots, with no recurrence.  With
    end exponents >= 0, the tops are the :func:`critical_points`, where
    g' = 0 inside.  With a pole (an end exponent in (-1, 0)), g without
    the power of a pole beside the gap: the tops with the poles' powers
    set to 0 start :func:`_gap_tops`, which bisect where g is not
    concave, as where b |e| > a for a pole's exponent e (N_q at q < |e|);
    a gap end where g' is finite and falls into the gap is its top.
    Memoised per (family, n, ratio, weight)."""
    w = fam.weight if weight is None else weight
    wr = Weight(w.lo, w.hi, ratio * w.e_lo, ratio * w.e_hi, ratio * w.c1, ratio * w.c2)  # h^ratio
    knots = np.array(_zeros(fam, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if min(w.e_lo, w.e_hi) >= 0.0:
            x = np.array(critical_points(fam, n, ratio, weight))
            if not x.size:
                return None
            g1, g2, _ = _slopes(x, knots, 1.0, wr, wr.e_lo, wr.e_hi)
            return x, knots, np.where((w.lo < x) & (x < w.hi), 0.0, g1), g2
        x = np.array(critical_points(fam, n, ratio, w._replace(e_lo=max(w.e_lo, 0.0),
                                                                e_hi=max(w.e_hi, 0.0))))
        left = np.concatenate(([w.lo], knots))  # gap i runs from left[i] to right[i]
        right = np.concatenate((knots, [w.hi]))
        e_lo, e_hi = np.full(x.size, wr.e_lo), np.full(x.size, wr.e_hi)
        e_lo[0], e_hi[-1] = max(e_lo[0], 0.0), max(e_hi[-1], 0.0)  # a pole beside its gap

        def slopes(i, x):
            return _slopes(x, knots, 1.0, wr, e_lo[i], e_hi[i])[:2]

        go = (e_lo < 0.0) | (e_hi < 0.0)  # the gaps whose g keeps a pole's power
        for side, ends, e, c in ((-1.0, left, e_lo, w.lo), (1.0, right, e_hi, w.hi)):
            i = np.flatnonzero(go & np.isfinite(ends) & ((ends != c) | (e == 0.0))
                               & ~np.isin(ends, knots))  # where g' is finite
            if i.size:
                top = side * slopes(i, ends[i])[0] >= 0.0
                x[i[top]], go[i[top]] = ends[i[top]], False
        _gap_tops(slopes, x, left, right, go)
        return (x, knots, *slopes(np.arange(x.size), x))


@lru_cache(maxsize=64)
def numerator_peaks(fam: PolynomialFamily, n: int) -> Optional[tuple]:
    """(tops, knots, g', g'') of g = 2 ln|N| + ln(h/d^2), the log of
    rho'^2/rho times kappa_n (N and d of :func:`log_derivative_numerator_many`).
    The knots, the n + 1 :func:`critical_points` at ratio 1/2 (N vanishes
    at those inside the support), split the support into n + 2 gaps: gap i
    runs from knot i - 1 (or the lower end) to knot i (or the upper end),
    and g peaks at tops[i], with g' and g'' there; NaN marks an empty gap.
    None where g is not concave on every gap, or where N = 0 (p_0 of a
    flat weight).

    N's zeros are the knots but one pinned to an end where h has exponent
    0, so g' and g'' are :func:`_slopes` over them.  Once an end pole of
    h/d^2 is left out, g'' = -2 sum 1/(x - c)^2 plus that of ln(h/d^2) is
    negative, so each gap has one peak, the root of M = d N g', a
    polynomial where N vanishes nowhere inside it.  The peak of gap i,
    1 <= i <= n, which holds the zero x_i of p_n, is one Newton step on M
    from x_i, x_i - g'/(g'' + g' (d N)'/(d N)), taken where it exceeds
    _NEWTON_TOL of the peak's width 1/sqrt(-g''): for Hermite M =
    4 (x^2 - 2n - 1) p_n, so the tops are the zeros.  A finite end where
    h/d^2 has exponent <= 0 is its gap's peak where g rises toward it (at
    a pole, g without the end's power).  The two end gaps, 0 and n + 1,
    hold no zero of p_n; there :func:`_gap_tops` takes Newton steps on g'
    from the knot plus sqrt(2) times the density's width there, the peak
    of a Gaussian's Fisher integrand.  An interior peak has g' = 0 and g''
    at its zero of p_n (gaps 1..n) or at the peak; an end peak both at the
    end.  Memoised per (family, n)."""
    w = fam.weight
    peaks = basis_peaks(fam, n, 0.5)
    if peaks is None or n == 0 and w.is_flat:  # N = 0 for p_0 of a flat weight
        return None
    knots, zeros, _, curv = peaks  # curv: half the curvature of ln rho at the knots
    # N's zeros: a knot pinned to an end where h has exponent 0 is not one
    roots = knots[((knots != w.lo) | (w.e_lo != 0.0)) & ((knots != w.hi) | (w.e_hi != 0.0))]
    e_lo, e_hi = (e - 2.0 if e else 0.0 for e in (w.e_lo, w.e_hi))  # the exponents of h/d^2
    lo = np.concatenate(([w.lo], knots))  # gap i runs from lo[i] to hi[i]
    hi = np.concatenate((knots, [w.hi]))
    live = hi > lo
    tops, g1, g2 = np.full(n + 2, math.nan), np.zeros(n + 2), np.full(n + 2, math.nan)
    go, drop = np.zeros(n + 2, dtype=bool), np.zeros(n + 2, dtype=int)

    def slopes(x, drop):
        """g', g'' and S of :func:`_slopes` at x; drop, -1 or 1 (or one of
        them per point), leaves the power of h/d^2 at that end out of g."""
        return _slopes(x, roots, 2.0, w, np.where(drop == -1, 0.0, e_lo),
                       np.where(drop == 1, 0.0, e_hi))

    with np.errstate(divide="ignore", invalid="ignore"):
        if n:
            d1, d2, s = slopes(zeros, 0)
            q = s + (w.e_lo != 0.0) / (zeros - w.lo) - (w.e_hi != 0.0) / (w.hi - zeros)
            step = -d1 / (d2 + d1 * q)
            step[np.abs(step) <= _NEWTON_TOL / np.sqrt(-d2)] = 0.0
            tops[1:-1] = np.clip(zeros + step, lo[1:-1], hi[1:-1])
            g2[1:-1] = d2
        for side, end, e, i, knot in ((-1, w.lo, w.e_lo, 0, 0), (1, w.hi, w.e_hi, n + 1, -1)):
            if math.isfinite(end) and e <= 2.0:
                (e1,), (e2,), _ = slopes(np.array([end]), side)
                if side * e1 >= 0.0:
                    j = i if live[i] else i - side  # an empty end gap: the end's knot
                    tops[j], g1[j], g2[j], go[j] = end, e1, e2, False
            if not live[i] or not math.isnan(tops[i]):
                continue
            go[i], drop[i] = True, side if 0.0 < e < 2.0 else 0  # a pole of h/d^2 left out
            x = knots[knot] + side * np.sqrt(-1.0 / curv[knot])  # Newton from the knot
            inside = lo[i] < x < hi[i] and w.lo < knots[knot] < w.hi
            tops[i] = x if inside else 0.5 * (lo[i] + hi[i])  # else from the middle
        i = np.flatnonzero(go)  # no convergence: NaN, and None below
        tops[_gap_tops(lambda i, x: slopes(x, drop[i])[:2], tops, lo, hi, go)] = math.nan
        g2[i] = slopes(tops[i], drop[i])[1]
    if not (np.isfinite(tops[live]).all() and (g2[live] <= 0.0).all()):
        return None
    return tops, knots, g1, g2
