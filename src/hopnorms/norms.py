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
from .families import (PolynomialFamily, eval_log_many, moment_ratios, norm_constant_log,
                       norm_constant_log_error, polynomial_zeros, tail_seeds)
from .logreal import SignedLogReal
from .quadrature import DEFAULT_CONFIG, LogIntegrand, LogQuadResult, QuadratureConfig, log_integral

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
                     phi_many: Optional[Callable[..., np.ndarray]] = None,
                     cfg: QuadratureConfig = DEFAULT_CONFIG,
                     extra_breakpoints: tuple = ()) -> LogQuadResult:
    """int exp(pol_power*ln|p_n| + weight_power*ln h) * phi dx.

    The shared engine behind the norm, entropy and information functionals.
    ``phi_many(x, core, ends)`` maps the points and the engine's logs there
    (see :class:`quadrature.LogIntegrand`) to the array of phi values; the
    core is pol_power ln|p_n| + weight_power times the weight's core.
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

    left, right = tail_seeds(fam, n, pol_power, weight_power)
    core = w.core

    def g_core_many(xs: np.ndarray) -> np.ndarray:
        return pol_power * eval_log_many(fam, n, xs)[1] + weight_power * core(xs)

    spec = LogIntegrand(a=lo, b=hi, g_core_many=g_core_many, e_left=e_l, e_right=e_r,
                        breakpoints=tuple(polynomial_zeros(fam, n)) + tuple(extra_breakpoints),
                        tail_seed_left=left, tail_seed_right=right, phi_many=phi_many)
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
    log_value, err = res.log_abs, res.rel_err
    if normalized:
        log_value -= q * norm_constant_log(fam, n).log_abs
        err += q * norm_constant_log_error(fam, n)
    return NormResult(SignedLogReal(1, log_value), "quadrature", err)


# -- weight moments -------------------------------------------------------

def weight_moment_log(fam: PolynomialFamily, t: int) -> SignedLogReal:
    """mu_t = int x^t h(x) dx as a SignedLogReal (zero for odd symmetric cases):
    ln mu_0 + ln r_t, with mu_0 = kappa_0 and r_t the exact moment ratio."""
    if t < 0:
        raise DomainError("moment order must be nonnegative")
    return norm_constant_log(fam, 0) * SignedLogReal.from_fraction(moment_ratios(fam, t)[t])


def weight_moment(fam: PolynomialFamily, t: int) -> float:
    """mu_t as a float (overflows to inf outside double range)."""
    return weight_moment_log(fam, t).to_float()
