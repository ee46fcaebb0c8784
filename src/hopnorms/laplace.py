"""Large-q asymptotics of the Lq norms.

Weighted norms: Laplace's method around the global maximum x0 of
f(x) = ln h(x) + ln p_n(x)^2,

    W_q ~ (number of global maximizers) * e^{q f(x0)} sqrt(2 pi / (-q f''(x0))).

The maximizers are sign changes of the polynomial numerator N of f' (see
:func:`families.log_derivative_numerator_many`).  Under the weight-exponent
precondition N changes sign exactly once between each pair of neighbouring
zeros of p_n or ends of the support, so these gaps bracket every critical
point.  f''(x0) comes from :func:`families.log_density_second`, which takes
p_n' and p_n'' from the recurrence rows, as every derivative of p_n does.
Unweighted norms: Watson-type endpoint expansion, available for the
bounded-support families only (|H_n| and |L_n| have no global maximum on
their supports, so no leading term exists there).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalFailure, UnsupportedAsymptotics
from .families import (PolynomialFamily, eval_log_many, gegenbauer_jacobi_factor_log,
                       log_density_second, log_derivative_numerator_many, polynomial_zeros,
                       weight_log_many)
from .logreal import SignedLogReal
from .norms import NormResult
from .quadrature import bisect_brackets
from .special import log_gamma, log_pochhammer

__all__ = ["LaplacePoint", "locate_density_maximum", "weighted_norm_q_asym",
           "unweighted_norm_q_asym_jacobi"]

_TIE_TOL = 1e-10
_WALK = 2.0 ** np.arange(41)  # outward steps, in units of 1 + |outermost knot|


@dataclass(frozen=True)
class LaplacePoint:
    x0: float
    f_at_x0: float
    f2_at_x0: float
    multiplicity: int
    maximizers: tuple[float, ...]


def _check_preconditions(fam: PolynomialFamily) -> None:
    w = fam.weight
    for end, e in ((w.lo, w.e_lo), (w.hi, w.e_hi)):
        if math.isfinite(end) and not e > 0:
            raise DomainError(
                f"laplace route requires weight exponents > 0 at finite endpoints, i.e. "
                f"alpha > 0 for laguerre, alpha, beta > 0 for jacobi, lambda > 1/2 for "
                f"gegenbauer (interior maximum of the density); {fam.label()} has {e:g} "
                f"at x = {end:g}")


def _critical_points(fam: PolynomialFamily, n: int) -> np.ndarray:
    """The n + 1 zeros of N, ascending, one in each gap between neighbouring
    knots: the finite ends of the support and the zeros of p_n.

    An infinite end is replaced by the first point of a geometric walk
    outward from the outermost knot where N has the opposite sign.  All gaps
    are then bisected together by :func:`quadrature.bisect_brackets`.
    """
    w = fam.weight
    knots = ([w.lo] if math.isfinite(w.lo) else []) + polynomial_zeros(fam, n) \
        + ([w.hi] if math.isfinite(w.hi) else [])
    if not knots:  # both ends infinite and n = 0: hermite, whose N = -2x
        return np.zeros(1)
    walks = [(k, d) for k, d, end in ((knots[0], -1, w.lo), (knots[-1], 1, w.hi))
             if not math.isfinite(end)]
    xs = np.concatenate([knots] + [k + d * (1.0 + abs(k)) * _WALK for k, d in walks])
    signs = log_derivative_numerator_many(fam, n, xs)[0]
    x, s = knots, signs[:len(knots)].tolist()
    for (k, d), wx, ws in zip(walks, xs[len(knots):].reshape(-1, _WALK.size),
                              signs[len(knots):].reshape(-1, _WALK.size)):
        hit = np.flatnonzero(ws == -(s[0] if d < 0 else s[-1]))
        if not hit.size:
            raise NumericalFailure(f"no sign change of f' beyond x = {k:g} for {fam.label()} n={n}")
        end, s_end = [wx[hit[0]]], [ws[hit[0]]]
        x, s = (end + x, s_end + s) if d < 0 else (x + end, s + s_end)
    x, s = np.array(x), np.array(s)
    if not (s[:-1] * s[1:] == -1).all():
        raise NumericalFailure(f"f' does not alternate in sign across the zeros of p_n for "
                               f"{fam.label()} n={n}")
    return bisect_brackets(lambda p: log_derivative_numerator_many(fam, n, p)[0] == s[1:, None],
                           x[:-1], x[1:])


@lru_cache(maxsize=256)  # above the ~70 (family, n) keys of one q-sweep pass
def locate_density_maximum(fam: PolynomialFamily, n: int) -> LaplacePoint:
    """All interior critical points of f; returns the global maximum.

    The critical points are the zeros of the numerator N of f', one in each
    gap between neighbouring zeros of p_n or ends of the support (an
    infinite end is brought in by a geometric walk), found by one batched
    bisection of all n + 1 gaps.  Every one is a maximum of the density; f
    is evaluated at all of them as one batch.  Memoised per (family, n).
    """
    _check_preconditions(fam)
    crits = _critical_points(fam, n)
    fvals = (weight_log_many(fam, crits) + 2.0 * eval_log_many(fam, n, crits)[1]).tolist()
    fmax = max(fvals)
    winners = [x for x, fv in zip(crits.tolist(), fvals) if fv >= fmax - _TIE_TOL]
    x0 = max(winners)  # deterministic representative
    f2 = log_density_second(fam, n, x0)
    if not f2 < 0:
        raise NumericalFailure(f"second derivative not negative at x0={x0}")
    return LaplacePoint(x0=x0, f_at_x0=fmax, f2_at_x0=f2,
                        multiplicity=len(winners), maximizers=tuple(sorted(winners)))


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
