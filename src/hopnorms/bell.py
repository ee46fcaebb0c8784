"""Partial Bell polynomials and the exact route to unweighted norms.

For even integer q the integrand |p_n|^q h is a polynomial times the weight,
so N_q is a finite sum over the weight moments mu_t = mu_0 r_t:

    N_q = mu_0 sum_{t=0}^{nq} [x^t] p_n^q r_t,
    [x^t] p_n^q = q!/(t+q)! B_{t+q,q}(1! c_0, 2! c_1, ..., (t+1)! c_t)

with c_j the power-basis coefficients of p_n (Comtet, Advanced
Combinatorics, 1974, sec. 3.3).  Float parameters are exact dyadic
rationals, so the sum is exact and only mu_0 = kappa_0 is rounded.  The
r_t are derived from the family's weight (:func:`families.moment_ratios`),
whose exponents are floats: for Gegenbauer lambda < 1/4 the exponent
lambda - 1/2 is the rounded float, the weight quadrature integrates too.
This is the independent cross-check for the quadrature engine.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .families import (PolynomialFamily, _convolve, moment_ratios, norm_constant_log,
                       norm_constant_log_error, power_basis)
from .logreal import SignedLogReal
from .norms import NormResult

__all__ = ["bell_polynomial", "unweighted_norm_bell"]

_NQ_CAP = 240


def bell_polynomial(m: int, l: int, args: list[float]) -> float:
    """B_{m,l}(c_1, ..., c_{m-l+1}): sum over partitions of m into l parts.

    Evaluated by the standard recurrence
    B_{m,l} = sum_i C(m-1, i-1) c_i B_{m-i, l-1}.
    """
    if not 1 <= l <= m:
        raise DomainError(f"bell polynomial requires 1 <= l <= m, got ({m}, {l})")
    if len(args) != m - l + 1:
        raise DomainError(f"expected {m - l + 1} arguments, got {len(args)}")

    @lru_cache(maxsize=None)
    def rec(mm: int, ll: int) -> float:
        if ll == 0:
            return 1.0 if mm == 0 else 0.0
        return math.fsum(math.comb(mm - 1, i - 1) * args[i - 1] * rec(mm - i, ll - 1)
                         for i in range(1, mm - ll + 2) if args[i - 1] != 0.0)

    return rec(m, l)


def _poly_power(c: list, q: int) -> list:
    """Coefficients of (sum c_j x^j)^q by square-and-multiply convolution."""
    out = [1]
    while q:
        if q & 1:
            out = _convolve(out, c)
        q >>= 1
        if q:
            c = _convolve(c, c)
    return out


def unweighted_norm_bell(fam: PolynomialFamily, n: int, q: int) -> NormResult:
    """N_q[p_n] by the exact moment sum; q must be a positive even integer."""
    if not (isinstance(q, int) and q > 0 and q % 2 == 0):
        raise DomainError("bell engine requires a positive even integer q "
                          "(|p|^q is only polynomial there); use quadrature otherwise")
    if n * q > _NQ_CAP:
        raise DomainError(f"bell engine validated for n*q <= {_NQ_CAP}, got {n * q}")
    coeffs = power_basis(fam, n, Fraction)
    den = math.lcm(*(c.denominator for c in coeffs))
    power = _poly_power([c.numerator * (den // c.denominator) for c in coeffs], q)
    ratios = moment_ratios(fam, n * q)
    total = sum(p * r for p, r in zip(power, ratios) if p and r) / den ** q
    mu0 = norm_constant_log(fam, 0)  # p_0 = 1, so kappa_0 = mu_0
    s = SignedLogReal.from_fraction(total)
    err = 8.9e-16 * (1.0 + abs(s.log_abs)) + norm_constant_log_error(fam, 0)
    return NormResult(mu0 * s, "bell", err)
