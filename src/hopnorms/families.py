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
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainError, SingularEvaluation
from .logreal import SignedLogReal
from .special import log_distance, log_gamma

__all__ = [
    "PolynomialFamily", "CoefficientList", "FAMILY_PARAMS",
    "hermite", "laguerre", "jacobi", "gegenbauer",
    "eval_poly", "eval_log", "eval_log_many", "eval_derivative",
    "norm_constant_log", "norm_constant_log_error", "coefficients", "weight_log", "weight_log_many",
    "weight_log_derivative", "gegenbauer_jacobi_factor_log", "Weight",
    "log_derivative_numerator_many", "log_density_second",
    "moment_ratios", "power_basis",
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


def _rows(fam: PolynomialFamily, n: int, num) -> list:
    """Rows (A_k, B_k, C_k), k < n, of p_{k+1} = (A_k x + B_k) p_k - C_k p_{k-1},
    with p_{-1} = 0 and p_0 = 1 (Gautschi 2004, ch. 1), in the number type num
    (float, or Fraction: float parameters are exact dyadic rationals)."""
    rows = []
    for k in range(n):
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


def moment_ratios(fam: PolynomialFamily, t_max: int) -> list[Fraction]:
    """Exact r_t = mu_t / mu_0, t <= t_max, of the moments mu_t = int x^t h dx.

    With sigma the product of the distances d to the finite ends, h obeys
    Pearson's equation (sigma h)' = tau h, tau = sigma' + sigma (ln h)' of
    degree <= 1 (Nikiforov & Uvarov 1988, sec. 2).  Integrating x^t (sigma h)'
    by parts gives the recurrence below; float parameters are exact dyadic
    rationals, so the r_t are exact."""
    w = fam.weight
    ends = [([-s * Fraction(c), Fraction(s)], Fraction(e))  # (d as coefficients, its exponent)
            for c, e, s in ((w.lo, w.e_lo, 1), (w.hi, w.e_hi, -1)) if math.isfinite(c)]
    sigma = reduce(_convolve, [d for d, _ in ends], [1])
    # tau = sigma (c1 + 2 c2 x) + sigma' + the sum over the ends of e d' sigma / d
    tau = _convolve(sigma, [Fraction(w.c1), 2 * Fraction(w.c2)])
    for k in range(1, len(sigma)):
        tau[k - 1] += k * sigma[k]
    for d, e in ends:
        for k, c in enumerate(reduce(_convolve, [o for o, _ in ends if o is not d], [1])):
            tau[k] += e * d[1] * c
    (s0, s1, s2), (t0, t1) = (sigma + [0, 0])[:3], tau[:2]
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


def eval_log_many(fam: PolynomialFamily, n: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """p_n at every point of xs as (signs, log_abs) arrays; a zero gives
    sign 0 and log_abs -inf.

    The recurrence of :func:`eval_log` runs over the whole array and is
    rescaled by exact powers of two every 16 steps.  Its cost is dominated
    by the per-step overhead, so it pays off over batches of many points.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    x = np.asarray(xs, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, _, scale = _eval_many(fam, n, x, 0)
        log_abs = np.log(np.abs(p)) + scale * _LN2
    return np.sign(p).astype(int), log_abs


def _eval_many(fam: PolynomialFamily, n: int, x: np.ndarray, order: int,
               every: int = _RESCALE_EVERY) -> tuple[np.ndarray, list, np.ndarray]:
    """(p, [p', ..., p^(order)], scale): p_n and its derivatives at the
    points of x, each equal to its column times 2^scale.

    The j-th derivative of the rows of :func:`_rows` obeys
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
    for k, (A, B, C) in enumerate(_recurrence(fam, n), 1):
        # t = (A x + B) p1 - C p0, in place: the loop is bound by numpy's
        # per-call overhead, not by the arithmetic
        np.multiply(x, A, out=t)
        if B != 0.0:
            t += B
        if order:  # t holds A x + B; d0 takes the new columns
            for j, (u0, u1, v1) in enumerate(zip(d0, d1, [p1] + d1), 1):
                u0 *= -C
                u0 += t * u1
                u0 += (j * A) * v1
            d0, d1 = d1, d0
        t *= p1
        if C != 0.0:
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
        p, d, redo_scale = _eval_many(fam, n, x[bad], order, 1)
        for u, v in zip([p1] + d1, [p] + d):
            u[bad] = v
        scale[bad] = redo_scale
    return p1, d1, scale


def _eval_at(fam: PolynomialFamily, n: int, x: float, order: int) -> tuple[list[float], int]:
    """:func:`_eval_many` at one point: [p, p', ...] as floats, and the exponent."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, d, scale = _eval_many(fam, n, np.array([float(x)]), order)
    return [float(u[0]) for u in [p] + d], int(scale[0])


def eval_derivative(fam: PolynomialFamily, n: int, x: float) -> float:
    """p_n'(x) as a float, +-inf where it overflows.  It runs the array
    recurrence on one point, so it is slow; batch points where it matters."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    (_, v), e = _eval_at(fam, n, x, 1)
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
    """Bound on the rounding error of :func:`norm_constant_log`, in ln.

    ln kappa_n sums log-gammas of arguments below
    x = 2 + 2n + 2 sum|parameters|, which cancel for large degree or
    parameters: each carries its own rounding, up to ~eps lgamma(x).
    """
    x = 2.0 + 2.0 * (n + sum(abs(p) for p in fam.params))
    return 8.9e-16 * (abs(norm_constant_log(fam, n).log_abs) + 4.0 * math.lgamma(x))


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
        p, (dp,), scale = _eval_many(fam, n, x, 1)
        v = 2.0 * d * dp + r * p
        return np.sign(v).astype(int), np.log(np.abs(v)) + scale * _LN2


def log_density_second(fam: PolynomialFamily, n: int, x: float) -> float:
    """f''(x) of f = ln(p_n^2 h) at an interior point where p_n(x) != 0:
    (ln h)'' + 2 p_n''/p_n - 2 (p_n'/p_n)^2, with p_n, p_n' and p_n'' taken
    from the recurrence at one scale."""
    w = fam.weight
    (p, dp, d2p), _ = _eval_at(fam, n, x, 2)
    v = 2.0 * w.c2  # the core's second derivative
    for e, dist in ((w.e_lo, x - w.lo), (w.e_hi, w.hi - x)):
        if e != 0.0:
            v -= e / dist ** 2
    r = dp / p
    return v + 2.0 * d2p / p - 2.0 * r * r


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
        p, (dp,), _ = _eval_many(fam, n, x, 1)
        return tuple((x - np.where(dp != 0.0, p / dp, 0.0)).tolist())
