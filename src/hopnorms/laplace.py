"""Large-q asymptotics of the Lq norms.

Weighted norms: Laplace's method around the global maximum x0 of
f(x) = ln h(x) + ln p_n(x)^2,

    W_q ~ (number of global maximizers) * e^{q f(x0)} sqrt(2 pi / (-q f''(x0))).

The maximizer is a sign change of the polynomial numerator N of f' (see
:func:`families.log_derivative_numerator`); f'' has closed forms per family.
Unweighted norms: Watson-type endpoint expansion, available for the
bounded-support families only (|H_n| and |L_n| have no global maximum on
their supports, so no leading term exists there).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.optimize import brentq

from .errors import DomainError, NumericalFailure, UnsupportedAsymptotics
from .families import (PolynomialFamily, eval_log, gegenbauer_jacobi_factor_log,
                       log_derivative_numerator, log_derivative_numerator_many, weight_log)
from .logreal import SignedLogReal
from .norms import NormResult
from .special import log_gamma, log_pochhammer

__all__ = ["LaplacePoint", "locate_density_maximum", "weighted_norm_q_asym",
           "unweighted_norm_q_asym_jacobi"]

_TIE_TOL = 1e-10


@dataclass(frozen=True)
class LaplacePoint:
    x0: float
    f_at_x0: float
    f2_at_x0: float
    multiplicity: int
    maximizers: tuple[float, ...]


def _f_value(fam: PolynomialFamily, n: int, x: float) -> float:
    v = eval_log(fam, n, x)
    if v.sign == 0:
        return -math.inf
    return weight_log(fam, x).log_abs + 2.0 * v.log_abs


def _f_second(fam: PolynomialFamily, n: int, x0: float) -> float:
    """Closed form of f'' at a critical point."""
    if fam.kind == "hermite":
        return 2.0 * x0 * x0 - 4.0 * n - 2.0
    if fam.kind == "laguerre":
        a = fam.alpha
        return a * a / (2.0 * x0 * x0) - (2.0 * n + a + 1.0) / x0 + 0.5
    if fam.kind == "jacobi":
        a, b = fam.alpha, fam.beta
    else:
        a = b = fam.lam - 0.5
    om, op = 1.0 - x0, 1.0 + x0
    s = 1.0 - x0 * x0
    return (-(a + 0.5 * a * a) / om ** 2 - (b + 0.5 * b * b) / op ** 2
            + a * b / s - 2.0 * n * (n + a + b + 1.0) / s
            + (b - a - (a + b + 2.0) * x0) / s * (b / op - a / om))


def _scan_window(fam: PolynomialFamily, n: int) -> tuple[float, float, bool]:
    """(lo, hi, chebyshev_spacing)."""
    if fam.kind == "hermite":
        r = math.sqrt(4.0 * n + 6.0)
        return -r, r, False
    if fam.kind == "laguerre":
        return 1e-12, 4.0 * n + 2.0 * fam.alpha + 6.0, False
    return -1.0 + 1e-9, 1.0 - 1e-9, True


def _check_preconditions(fam: PolynomialFamily) -> None:
    w = fam.weight
    for end, e in ((w.lo, w.e_lo), (w.hi, w.e_hi)):
        if math.isfinite(end) and not e > 0:
            raise DomainError(
                f"laplace route requires weight exponents > 0 at finite endpoints, i.e. "
                f"alpha > 0 for laguerre, alpha, beta > 0 for jacobi, lambda > 1/2 for "
                f"gegenbauer (interior maximum of the density); {fam.label()} has {e:g} "
                f"at x = {end:g}")


@lru_cache(maxsize=64)
def locate_density_maximum(fam: PolynomialFamily, n: int) -> LaplacePoint:
    """All interior critical points of f; returns the global maximum.

    Brackets the sign changes of the numerator N of f' on a scan of
    8(n+2) points, evaluated as one batch.  N is a polynomial with no poles
    whose every sign change, in either direction, is a maximum of the
    density.  Memoised per (family, n).
    """
    _check_preconditions(fam)
    lo, hi, cheb = _scan_window(fam, n)
    m = 8 * (n + 2)
    if cheb:
        xs = [0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(math.pi * (j + 0.5) / m)
              for j in range(m - 1, -1, -1)]
    else:
        xs = [lo + (hi - lo) * j / (m - 1) for j in range(m)]

    signs, logs = (a.tolist() for a in log_derivative_numerator_many(fam, n, xs))
    crits: list[float] = []
    for i, x in enumerate(xs):
        if signs[i] == 0:
            crits.append(x)
        elif i > 0 and signs[i - 1] == -signs[i]:
            ref = max(logs[i], logs[i - 1])
            crits.append(brentq(lambda t: _scaled_float(log_derivative_numerator(fam, n, t), ref),
                                xs[i - 1], x, xtol=1e-15, rtol=8.9e-16))
    if not crits:
        raise NumericalFailure(f"no interior critical point found for {fam.label()} n={n}")

    fvals = [_f_value(fam, n, x) for x in crits]
    fmax = max(fvals)
    winners = [x for x, fv in zip(crits, fvals) if fv >= fmax - _TIE_TOL]
    x0 = max(winners)  # deterministic representative
    f2 = _f_second(fam, n, x0)
    if not f2 < 0:
        raise NumericalFailure(f"second derivative not negative at x0={x0}")
    return LaplacePoint(x0=x0, f_at_x0=fmax, f2_at_x0=f2,
                        multiplicity=len(winners), maximizers=tuple(sorted(winners)))


def _scaled_float(v: SignedLogReal, ref: float) -> float:
    """v e^{-ref} as a float, for root finding on values beyond float range."""
    return v.sign * math.exp(v.log_abs - ref)


def weighted_norm_q_asym(fam: PolynomialFamily, n: int, q: float) -> NormResult:
    """Leading Laplace term of W_q; every global maximizer contributes one
    Gaussian peak, hence the multiplicity prefactor."""
    if not q > 0:
        raise DomainError("q must be positive")
    pt = locate_density_maximum(fam, n)
    log_w = (math.log(pt.multiplicity) + q * pt.f_at_x0
             + 0.5 * (math.log(2.0 * math.pi) - math.log(q * (-pt.f2_at_x0))))
    return NormResult(SignedLogReal(1, log_w), "asymptotic-q", 1.0 / q)


def unweighted_norm_q_asym_jacobi(n: int, alpha: float, beta: float, q: float) -> NormResult:
    """Watson-type leading term of N_q for the bounded-support family.

    |P_n| attains its maximum at +1 when alpha >= beta and at -1 when
    beta >= alpha; at alpha == beta both endpoints contribute and the
    single-endpoint term is doubled.
    """
    if n < 1:
        raise DomainError("endpoint expansion needs n >= 1 (leading coefficient "
                          "vanishes at n = 0)")
    if not (alpha > -1 and beta > -1):
        raise DomainError("jacobi requires alpha, beta > -1")
    if max(alpha, beta) < -0.5:
        raise DomainError("requires max(alpha, beta) >= -1/2")
    if not q > 0:
        raise DomainError("q must be positive")

    def endpoint_term(big: float, small: float) -> float:
        # maximum at the endpoint with weight exponent `small` on its side
        log_peak = log_pochhammer(big + 1.0, n) - log_gamma(n + 1.0)
        a0 = 0.5 * (n + alpha + beta + 1.0) * n / (big + 1.0)
        return (q * log_peak + small * math.log(2.0) + log_gamma(big + 1.0)
                - (big + 1.0) * (math.log(a0) + math.log(q)))

    if alpha > beta:
        log_n = endpoint_term(alpha, beta)
    elif beta > alpha:
        log_n = endpoint_term(beta, alpha)
    else:
        log_n = endpoint_term(alpha, beta) + math.log(2.0)
    return NormResult(SignedLogReal(1, log_n), "asymptotic-q", 1.0 / q)


def unweighted_norm_q_asym(fam: PolynomialFamily, n: int, q: float) -> NormResult:
    """Dispatcher; rejects the unbounded-support families, whose large-q
    unweighted behaviour has no known leading term."""
    if fam.kind in ("hermite", "laguerre"):
        raise UnsupportedAsymptotics(
            f"large-q unweighted asymptotics are not available for {fam.kind}: "
            "|p_n| has no global maximum on an unbounded support")
    if fam.kind == "jacobi":
        return unweighted_norm_q_asym_jacobi(n, fam.alpha, fam.beta, q)
    a = fam.lam - 0.5
    base = unweighted_norm_q_asym_jacobi(n, a, a, q)
    shift = q * gegenbauer_jacobi_factor_log(n, fam.lam)
    return NormResult(SignedLogReal(1, base.value.log_abs + shift),
                      "asymptotic-q", base.error_estimate)
