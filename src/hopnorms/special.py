"""Scalar special functions: log-gamma, digamma, log-Pochhammer."""
from __future__ import annotations

import math

from scipy.special import digamma as _scipy_digamma

from .errors import DomainError

__all__ = ["log_gamma", "digamma", "log_pochhammer"]


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
