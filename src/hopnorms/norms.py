"""Exact evaluation of unweighted and weighted Lq norms by quadrature.

Unweighted norm:  N_q[p_n] = int |p_n|^q h dx      (weight enters once)
Weighted norm:    W_q[p_n] = int [p_n^2 h]^q dx    (density to the q-th power)

Both are assembled as log-space integrands for :func:`quadrature.log_integrals`
with the domain split at the n real zeros of p_n; :func:`norm_quads`
integrates the norms of many points in lockstep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalFailure, check_order
from .families import (PolynomialFamily, moment_ratios, norm_constant_log,
                       norm_constant_log_error, polynomial_zeros)
from .logreal import SignedLogReal
from .quadrature import (DEFAULT_CONFIG, Basis, LogIntegrand, LogQuadResult, QuadratureConfig,
                         log_integral, log_integrals, raise_first)

__all__ = ["NormResult", "NORM_OPS", "norm_spec", "norm_result", "norm_quads",
           "unweighted_norm_quad", "weighted_norm_quad", "normalized_by_kappa", "weight_moment",
           "density_spec", "density_integral"]


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


NORM_OPS = ("unweighted-norm", "weighted-norm")
# (pol_power, weight_power) of each norm at order q
_POWERS = {"unweighted-norm": lambda q: (q, 1.0), "weighted-norm": lambda q: (2.0 * q, q)}


def density_spec(fam: PolynomialFamily, n: int, pol_power: float, weight_power: float,
                 phi_many: Optional[Callable[..., np.ndarray]] = None,
                 log_singular: bool = False, log_singular_ends: bool = False) -> LogIntegrand:
    """The integrand of :func:`density_integral`, as a LogIntegrand;
    ``log_singular`` marks a phi with a log singularity at the zeros of
    p_n, and ``log_singular_ends`` one at the finite ends of h with a
    nonzero exponent.  The engine grades each panel with a power taken
    from pol_power at the zeros, from the exponents of h^weight_power at
    the ends, and from these logs (see :class:`quadrature.LogIntegrand`)."""
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

    return LogIntegrand(a=lo, b=hi, basis=Basis(fam, n, pol_power, weight_power), e_left=e_l,
                        e_right=e_r, breakpoints=tuple(polynomial_zeros(fam, n)),
                        phi_many=phi_many, log_singular=log_singular,
                        log_singular_ends=log_singular_ends)


def density_integral(fam: PolynomialFamily, n: int, pol_power: float, weight_power: float,
                     phi_many: Optional[Callable[..., np.ndarray]] = None,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> LogQuadResult:
    """int exp(pol_power*ln|p_n| + weight_power*ln h) * phi dx.

    The shared engine behind the norm, entropy and information functionals.
    ``phi_many(x, core, ends)`` maps the points and the engine's logs there
    (see :class:`quadrature.LogIntegrand`) to the array of phi values; the
    core is pol_power ln|p_n| + weight_power times the weight's core.
    """
    return log_integral(density_spec(fam, n, pol_power, weight_power, phi_many), cfg)


def norm_spec(point: tuple) -> LogIntegrand:
    """The integrand of the norm of a point (op, fam, n, q, normalized), op
    one of NORM_OPS."""
    op, fam, n, q, _ = point
    if op not in _POWERS:
        raise DomainError(f"unknown norm {op!r}; expected one of {NORM_OPS}")
    check_order(q)
    return density_spec(fam, n, *_POWERS[op](q))


def norm_result(point: tuple, res: LogQuadResult) -> NormResult:
    """The NormResult of a point from the integral of its :func:`norm_spec`.
    ``normalized`` applies to weighted norms (W_q of the unit-mass density)."""
    op, fam, n, q, normalized = point
    norm = NormResult(SignedLogReal(1, res.log_abs), "quadrature", res.rel_err)
    return normalized_by_kappa(norm, fam, n, q) if normalized and op == "weighted-norm" else norm


def norm_quads(points: list[tuple], cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """The quadrature norms of many points (op, fam, n, q, normalized),
    integrated in one lockstep call of :func:`quadrature.log_integrals`.
    Each entry is the point's NormResult, or the DomainError or
    NumericalFailure that ended it."""
    out, specs = [], []
    for point in points:
        try:
            specs.append(norm_spec(point))
            out.append(None)
        except (DomainError, NumericalFailure) as exc:
            out.append(exc)
    results = iter(log_integrals(specs, cfg))
    for i, point in enumerate(points):
        if out[i] is not None:
            continue
        res = next(results)
        try:
            out[i] = res if isinstance(res, Exception) else norm_result(point, res)
        except (DomainError, NumericalFailure) as exc:
            out[i] = exc
    return out


def unweighted_norm_quad(fam: PolynomialFamily, n: int, q: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormResult:
    """N_q[p_n] by adaptive quadrature; q may be any positive real."""
    return raise_first(norm_quads([("unweighted-norm", fam, n, q, False)], cfg))[0]


def weighted_norm_quad(fam: PolynomialFamily, n: int, q: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       normalized: bool = False) -> NormResult:
    """W_q[p_n] (or W_q of the unit-mass density when normalized)."""
    return raise_first(norm_quads([("weighted-norm", fam, n, q, normalized)], cfg))[0]


def normalized_by_kappa(res: NormResult, fam: PolynomialFamily, n: int, q: float) -> NormResult:
    """W_q of the unit-mass density from W_q[p_n] = res: the value over
    kappa_n^q, and the error plus q times the rounding of ln kappa_n."""
    return NormResult(res.value * norm_constant_log(fam, n).powf(-q), res.method,
                      res.error_estimate + q * norm_constant_log_error(fam, n))


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
