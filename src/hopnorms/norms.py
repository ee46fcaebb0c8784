"""Exact evaluation of unweighted and weighted Lq norms by quadrature.

Unweighted norm:  N_q[p_n] = int |p_n|^q h dx      (weight enters once)
Weighted norm:    W_q[p_n] = int [p_n^2 h]^q dx    (density to the q-th power)

Both are assembled as log-space integrands for :func:`quadrature.log_integral`
with the domain split at the n real zeros of p_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .families import (PolynomialFamily, eval_log, eval_log_many, norm_constant_log,
                       polynomial_zeros)
from .logreal import SignedLogReal
from .quadrature import DEFAULT_CONFIG, LogIntegrand, LogQuadResult, QuadratureConfig, log_integral
from .special import gauss_2f1_neg1, log_gamma

__all__ = ["NormResult", "unweighted_norm_quad", "weighted_norm_quad",
           "weight_moment", "density_integral"]


@dataclass(frozen=True)
class NormResult:
    value: SignedLogReal
    method: str  # quadrature | bell | asymptotic-q | asymptotic-parameter
    error_estimate: float  # relative

    @property
    def log_value(self) -> float:
        return self.value.log_abs

    def to_float(self) -> float:
        return self.value.to_float()


def density_integral(fam: PolynomialFamily, n: int, pol_power: float, weight_power: float,
                     phi_many: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                     cfg: QuadratureConfig = DEFAULT_CONFIG,
                     extra_breakpoints: tuple = ()) -> LogQuadResult:
    """int exp(pol_power*ln|p_n| + weight_power*ln h) * phi dx.

    The shared engine behind the norm, entropy and information functionals.
    ``phi_many`` maps an array of points to the array of phi values.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    w = fam.weight
    lo, hi = w.lo, w.hi
    e_l = weight_power * w.e_lo
    e_r = weight_power * w.e_hi
    for e, side in ((e_l, "lower"), (e_r, "upper")):
        if math.isfinite(lo if side == "lower" else hi) and e <= -1.0:
            raise DomainError(
                f"{fam.label()}: weight exponent {e:g} at the {side} endpoint is not integrable")

    zeros = polynomial_zeros(fam, n)

    if fam.kind == "hermite":
        seed = math.sqrt(max(pol_power * n, 2.0 * n + 2.0) / max(2.0 * weight_power, 1e-6)) + 1.0
        seeds = (-seed, seed)
    elif fam.kind == "laguerre":
        seeds = (None, (e_l + pol_power * n) / weight_power + 1.0)
    else:
        seeds = (None, None)
    core = w.core

    def g_core(x: float) -> float:
        v = eval_log(fam, n, x)
        lp = -math.inf if v.sign == 0 else v.log_abs
        return pol_power * lp + weight_power * core(x)

    def g_core_many(xs: np.ndarray) -> np.ndarray:
        return pol_power * eval_log_many(fam, n, xs)[1] + weight_power * core(xs)

    spec = LogIntegrand(a=lo, b=hi, g_core=g_core, e_left=e_l, e_right=e_r,
                        breakpoints=tuple(zeros) + tuple(extra_breakpoints),
                        tail_seed_left=seeds[0], tail_seed_right=seeds[1],
                        g_core_many=g_core_many, phi_many=phi_many)
    return log_integral(spec, cfg)


def unweighted_norm_quad(fam: PolynomialFamily, n: int, q: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormResult:
    """N_q[p_n] by adaptive quadrature; q may be any positive real."""
    if not q > 0:
        raise DomainError("q must be positive")
    res = density_integral(fam, n, pol_power=q, weight_power=1.0, cfg=cfg)
    return NormResult(SignedLogReal(1, res.log_abs), "quadrature", res.rel_err)


def weighted_norm_quad(fam: PolynomialFamily, n: int, q: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       normalized: bool = False) -> NormResult:
    """W_q[p_n] (or W_q of the unit-mass density when normalized)."""
    if not q > 0:
        raise DomainError("q must be positive")
    res = density_integral(fam, n, pol_power=2.0 * q, weight_power=q, cfg=cfg)
    log_value = res.log_abs
    if normalized:
        log_value -= q * norm_constant_log(fam, n).log_abs
    return NormResult(SignedLogReal(1, log_value), "quadrature", res.rel_err)


# -- weight moments -------------------------------------------------------

def _jacobi_moment_float(a: float, b: float, t: int) -> float:
    # gamma ratios by recurrence (one rounding per step) rather than
    # exp(lgamma - lgamma); the bell engine's cancellation amplifies any
    # per-moment error, so moments are kept near machine precision
    f1 = gauss_2f1_neg1(-a, t + 1.0, 2.0 + t + b)
    f2 = gauss_2f1_neg1(-b, t + 1.0, 2.0 + t + a)
    g1 = 1.0 / math.gamma(2.0 + b)   # Gamma(1+t)/Gamma(2+t+b) at t=0
    g2 = 1.0 / math.gamma(2.0 + a)
    for k in range(1, t + 1):
        g1 *= k / (1.0 + k + b)
        g2 *= k / (1.0 + k + a)
    sign = 1.0 if t % 2 == 0 else -1.0
    return sign * g1 * math.gamma(1.0 + b) * f1 + g2 * math.gamma(1.0 + a) * f2


def _moment_float(fam: PolynomialFamily, t: int):
    """mu_t as a plain float when it fits; None when out of double range."""
    if fam.kind == "hermite":
        if t % 2 == 1:
            return 0.0
        v = math.sqrt(math.pi)
        for k in range(t // 2):
            v *= k + 0.5
            if not math.isfinite(v):
                return None
        return v
    if fam.kind == "laguerre":
        a = fam.alpha
        if a + 1.0 > 170.0:
            return None
        v = math.gamma(1.0 + a)
        for k in range(t):
            v *= 1.0 + a + k
            if not math.isfinite(v):
                return None
        return v
    if fam.kind == "gegenbauer":
        if t % 2 == 1:
            return 0.0
        lam = fam.lam
        if lam + 1.0 > 170.0:
            return None
        v = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
        for k in range(0, t, 2):
            v *= ((k + 1) / 2.0) / (lam + 1.0 + k / 2.0)
        return v
    a, b = fam.alpha, fam.beta
    if max(a, b) + 2.0 > 170.0:
        return None
    return _jacobi_moment_float(a, b, t)


def weight_moment_log(fam: PolynomialFamily, t: int) -> SignedLogReal:
    """mu_t = int x^t h(x) dx as a SignedLogReal (zero for odd symmetric cases)."""
    if t < 0:
        raise DomainError("moment order must be nonnegative")
    v = _moment_float(fam, t)
    if v is not None:
        return SignedLogReal.from_float(v)
    if fam.kind == "hermite":
        return SignedLogReal(1, log_gamma((t + 1) / 2.0))
    if fam.kind == "laguerre":
        return SignedLogReal(1, log_gamma(1.0 + fam.alpha + t))
    if fam.kind == "gegenbauer":
        lam = fam.lam
        return SignedLogReal(1, log_gamma((t + 1) / 2.0) + log_gamma(lam + 0.5)
                             - log_gamma(lam + 1.0 + t / 2.0))
    a, b = fam.alpha, fam.beta
    f1 = gauss_2f1_neg1(-a, t + 1.0, 2.0 + t + b)
    f2 = gauss_2f1_neg1(-b, t + 1.0, 2.0 + t + a)
    lg_t = log_gamma(1.0 + t)
    t1 = SignedLogReal.from_float(f1) * SignedLogReal(
        1 if t % 2 == 0 else -1, lg_t + log_gamma(1.0 + b) - log_gamma(2.0 + t + b))
    t2 = SignedLogReal.from_float(f2) * SignedLogReal(
        1, lg_t + log_gamma(1.0 + a) - log_gamma(2.0 + t + a))
    return t1 + t2


def weight_moment(fam: PolynomialFamily, t: int) -> float:
    """mu_t as a float (overflows to inf outside double range)."""
    return weight_moment_log(fam, t).to_float()
