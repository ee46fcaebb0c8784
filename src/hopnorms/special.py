"""Special functions: log-gamma, digamma, log-Pochhammer, log-distance."""
from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma as _scipy_digamma

from .errors import DomainError

__all__ = ["log_gamma", "digamma", "log_pochhammer", "log_distance"]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    return float(_scipy_digamma(x))


def log_pochhammer(a: float, n: int) -> float:
    """ln (a)_n for a > 0: rising factorial a(a+1)...(a+n-1)."""
    if not a > 0:
        raise DomainError(f"log_pochhammer requires a > 0, got {a}")
    return math.lgamma(a + n) - math.lgamma(a)


def log_distance(c: float, xs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """ln|x - c| for x on the side of c where dist = |x - c| > 0, dist as
    rounded.  Forming x - c rounds at the scale of c and drops the low bits
    of x, an error that a large endpoint exponent multiplies.  Where c is a
    power of two, x/c is exact, and ln|c| + log1p(-x/c) keeps those bits;
    other ends, 0 among them, take ln(dist)."""
    if abs(math.frexp(c)[0]) != 0.5:
        return np.log(dist)
    near = np.log1p(xs / -c)
    return near if abs(c) == 1.0 else near + math.log(abs(c))
