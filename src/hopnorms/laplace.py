"""Large-q asymptotics of the Lq norms.

Weighted norms: Laplace's method around the global maximum x0 of
f(x) = ln h(x) + ln p_n(x)^2,

    W_q ~ (number of global maximizers) * e^{q f(x0)} sqrt(2 pi / (-q f''(x0))).

The maximizers are zeros of the polynomial numerator N of f' (see
:func:`families.log_derivative_numerator_many`).  Under the weight-exponent
precondition N has exactly one zero between each pair of neighbouring
zeros of p_n or ends of the support; all n + 1 are the eigenvalues of one
Jacobi matrix (:func:`families.critical_points`).  f''(x0) is a sum over
the zeros of p_n, -2 sum 1/(x0 - x_k)^2 plus (ln h)''(x0), with no
recurrence; both come from :func:`families.basis_peaks` at b/a = 1/2, the
table every W_q integral reads.
Unweighted norms: Watson-type endpoint expansion, available for the
bounded-support families only (|H_n| and |L_n| have no global maximum on
their supports, so no leading term exists there).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalFailure, UnsupportedAsymptotics, check_order
from .families import (PolynomialFamily, basis_peaks, eval_log_many, gegenbauer_jacobi_factor_log,
                       weight_log_many)
from .logreal import SignedLogReal
from .norms import NormResult
from .special import log_gamma, log_pochhammer

__all__ = ["LaplacePoint", "locate_density_maximum", "weighted_norm_q_asym",
           "unweighted_norm_q_asym_jacobi"]

_TIE_TOL = 1e-10
_F_ROUNDING = 4.0 * np.finfo(float).eps  # rounding of f per unit size of its terms


@dataclass(frozen=True)
class LaplacePoint:
    x0: float
    f_at_x0: float
    f2_at_x0: float
    multiplicity: int
    maximizers: tuple[float, ...]
    f_error: float = 0.0  # bound on the rounding of f_at_x0


def _check_preconditions(fam: PolynomialFamily) -> None:
    w = fam.weight
    for end, e in ((w.lo, w.e_lo), (w.hi, w.e_hi)):
        if math.isfinite(end) and not e > 0:
            raise DomainError(
                f"laplace route requires weight exponents > 0 at finite endpoints, i.e. "
                f"alpha > 0 for laguerre, alpha, beta > 0 for jacobi, lambda > 1/2 for "
                f"gegenbauer (interior maximum of the density); {fam.label()} has {e:g} "
                f"at x = {end:g}")


@lru_cache(maxsize=256)  # above the ~70 (family, n) keys of one q-sweep pass
def locate_density_maximum(fam: PolynomialFamily, n: int) -> LaplacePoint:
    """All interior critical points of f; returns the global maximum.

    The critical points are the zeros of the numerator N of f', one in each
    gap between neighbouring zeros of p_n or ends of the support, the tops
    of :func:`families.basis_peaks` at b/a = 1/2, with f''/2 there.  Every
    one is a maximum of the density; f is evaluated at all of them as one
    batch.  Memoised per (family, n).
    """
    _check_preconditions(fam)
    crits, _, _, curv = basis_peaks(fam, n, 0.5)
    log_h, size = weight_log_many(fam, crits, sizes=True)
    log_p2 = 2.0 * eval_log_many(fam, n, crits)[1]
    fvals = (log_h + log_p2).tolist()
    fmax = max(fvals)
    # f(x0) sums terms that each round at their own scale
    f_error = float(_F_ROUNDING * (size + np.abs(log_p2))[fvals.index(fmax)])
    winners = [i for i, fv in enumerate(fvals) if fv >= fmax - _TIE_TOL]
    x0 = float(crits[winners[-1]])  # deterministic representative: the largest
    f2 = 2.0 * float(curv[winners[-1]])  # f = 2 (ln|p_n| + ln h / 2)
    if not f2 < 0:
        raise NumericalFailure(f"second derivative not negative at x0={x0}")
    return LaplacePoint(x0=x0, f_at_x0=fmax, f2_at_x0=f2, multiplicity=len(winners),
                        maximizers=tuple(crits[winners].tolist()), f_error=f_error)


def weighted_norm_q_asym(fam: PolynomialFamily, n: int, q: float) -> NormResult:
    """Leading Laplace term of W_q; every global maximizer contributes one
    Gaussian peak, hence the multiplicity prefactor.  The error claim is the
    term's 1/q plus q times the rounding of f(x0)."""
    check_order(q)
    pt = locate_density_maximum(fam, n)
    log_w = (math.log(pt.multiplicity) + q * pt.f_at_x0
             + 0.5 * (math.log(2.0 * math.pi) - math.log(q * (-pt.f2_at_x0))))
    return NormResult(SignedLogReal(1, log_w), "asymptotic-q", 1.0 / q + q * pt.f_error)


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
    check_order(q)

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
    """Dispatcher; rejects a family whose support is unbounded, where the
    large-q unweighted behaviour has no known leading term.  The weight
    (1-x)^alpha (1+x)^beta gives the Jacobi exponents; a Gegenbauer
    polynomial is a multiple of the Jacobi one."""
    w = fam.weight
    if not (math.isfinite(w.lo) and math.isfinite(w.hi)):
        raise UnsupportedAsymptotics(
            f"large-q unweighted asymptotics are not available for {fam.kind}: "
            "|p_n| has no global maximum on an unbounded support")
    base = unweighted_norm_q_asym_jacobi(n, w.e_hi, w.e_lo, q)
    if fam.lam is None:
        return base
    shift = q * gegenbauer_jacobi_factor_log(n, fam.lam)
    return NormResult(SignedLogReal(1, base.value.log_abs + shift),
                      "asymptotic-q", base.error_estimate)
