"""Entropies and complexity measures of the polynomial probability densities.

The density attached to p_n is rho_n = p_n^2 h (mass kappa_n) or its
unit-mass version rho-hat_n = p_n^2 h / kappa_n.  Everything here reduces
to weighted norms and log-weighted integrals of that density:

    R_q = ln(W_q) / (1 - q)          Renyi entropy
    S   = -int rho ln rho            Shannon entropy
    E   = -int p^2 h ln p^2          polynomial Shannon functional
    I   = -int p^2 h ln h            weight cross term
    F   = int rho'^2 / rho           Fisher information (unit-mass only)

with S[rho-hat] = ln kappa + (E + I)/kappa, and complexity products built
on top (LMC-Renyi, plain LMC, Fisher-Shannon, Fisher-Renyi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .families import (PolynomialFamily, eval_log_many, log_derivative_numerator_many,
                       norm_constant_log, polynomial_zeros, weight_log_many)
from .logreal import SignedLogReal
from .norms import density_integral, weighted_norm_quad, unweighted_norm_quad
from .quadrature import DEFAULT_CONFIG, LogIntegrand, QuadratureConfig, log_integral

__all__ = [
    "DensityHandle", "renyi_entropy", "shannon_entropy", "functional_E", "functional_I",
    "fisher_information", "renyi_length", "shannon_length", "lmc_renyi", "lmc_plain",
    "fisher_shannon", "fisher_renyi", "shannon_from_Wq_derivative", "density_moment",
]

_RICHARDSON_H = 1e-3


@dataclass(frozen=True)
class DensityHandle:
    family: PolynomialFamily
    n: int
    normalized: bool = True

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("degree must be nonnegative")


def renyi_entropy(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """R_q = ln(W_q)/(1-q); computed in log space so any parameter size works."""
    if q == 1.0:
        raise DomainError("q = 1 is the Shannon limit; use shannon_entropy")
    if not q > 0:
        raise DomainError("q must be positive")
    w = weighted_norm_quad(d.family, d.n, q, cfg=cfg, normalized=d.normalized)
    return w.value.log_abs / (1.0 - q)


def _log_norm_shift(d: DensityHandle) -> float:
    return norm_constant_log(d.family, d.n).log_abs if d.normalized else 0.0


def shannon_entropy(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S = -int rho ln rho by direct quadrature (0 ln 0 handled by the
    vanishing-density guard inside the integrator)."""
    fam, n = d.family, d.n
    shift = _log_norm_shift(d)

    def phi_many(xs: np.ndarray) -> np.ndarray:
        signs, log_abs = eval_log_many(fam, n, xs)
        return np.where(signs == 0, 0.0, -(2.0 * log_abs + weight_log_many(fam, xs) - shift))

    res = density_integral(fam, n, pol_power=2.0, weight_power=1.0, phi_many=phi_many, cfg=cfg)
    return res.sign * math.exp(res.log_abs - shift) if res.sign != 0 else 0.0


def functional_E_log(fam: PolynomialFamily, n: int,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """-int p^2 h ln(p^2) dx as a SignedLogReal (survives huge parameters)."""
    def phi_many(xs: np.ndarray) -> np.ndarray:
        signs, log_abs = eval_log_many(fam, n, xs)
        return np.where(signs == 0, 0.0, -2.0 * log_abs)

    res = density_integral(fam, n, pol_power=2.0, weight_power=1.0, phi_many=phi_many, cfg=cfg)
    if res.sign == 0:
        return SignedLogReal.zero()
    return SignedLogReal(res.sign, res.log_abs)


def _norm_log(fam: PolynomialFamily, n: int, q: float, cfg: QuadratureConfig) -> float:
    return unweighted_norm_quad(fam, n, q, cfg=cfg).value.log_abs


def functional_E_qderiv_log(fam: PolynomialFamily, n: int,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """E = -2 dN_q/dq at q = 2, by Richardson-extrapolated central differences.

    (The derivative identity holds with this sign: dN_q/dq = int |p|^q ln|p| h,
    which equals -E/2 at q = 2.)
    """
    def central(h: float) -> SignedLogReal:
        hi = SignedLogReal(1, _norm_log(fam, n, 2.0 + h, cfg))
        lo = SignedLogReal(1, _norm_log(fam, n, 2.0 - h, cfg))
        return (hi - lo).scaled(1.0 / (2.0 * h))

    d1 = central(_RICHARDSON_H)
    d2 = central(0.5 * _RICHARDSON_H)
    extrap = (d2.scaled(4.0) - d1).scaled(1.0 / 3.0)
    return extrap.scaled(-2.0)


def _as_float(v: SignedLogReal, log_form: str) -> float:
    """v as a float; NumericalFailure, naming the log-space form, where it overflows."""
    x = v.to_float()
    if not math.isfinite(x):
        sign = "-" if v.sign < 0 else ""
        raise NumericalFailure(f"value {sign}exp({v.log_abs:.10g}) is non-finite as a float; "
                               f"{log_form} returns it in log space")
    return x


def functional_E(fam: PolynomialFamily, n: int, method: str = "quadrature",
                 cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """E[p_n] = -int p^2 h ln(p^2) dx.

    method 'quadrature' integrates directly; 'qderivative' differentiates
    the unweighted norm in q at q = 2.
    """
    if method == "quadrature":
        return _as_float(functional_E_log(fam, n, cfg), "functional_E_log")
    if method == "qderivative":
        return _as_float(functional_E_qderiv_log(fam, n, cfg), "functional_E_qderiv_log")
    raise DomainError(f"unknown method {method!r}")


def functional_I_log(fam: PolynomialFamily, n: int,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    def phi_many(xs: np.ndarray) -> np.ndarray:
        return -weight_log_many(fam, xs)

    res = density_integral(fam, n, pol_power=2.0, weight_power=1.0, phi_many=phi_many, cfg=cfg)
    if res.sign == 0:
        return SignedLogReal.zero()
    return SignedLogReal(res.sign, res.log_abs)


def functional_I(fam: PolynomialFamily, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """I[p_n] = -int p^2 h ln(h) dx (identically zero for the flat weight)."""
    if fam.weight.is_flat:
        return 0.0
    return _as_float(functional_I_log(fam, n, cfg), "functional_I_log")


def fisher_information(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """F = int rho'^2 / rho dx for the unit-mass density.

    rho'^2/rho = h N^2 / (d^2 kappa) with N = d (2 p' + p h'/h) the
    polynomial of :func:`families.log_derivative_numerator_many`.  At an endpoint
    where the weight exponent a is nonzero the integrand behaves like
    (x - end)^(a - 2), which is not integrable for a in (-1, 0) or (0, 1];
    such parameter ranges are rejected rather than silently truncated.
    """
    if not d.normalized:
        raise DomainError("fisher information is defined for the unit-mass density")
    fam, n = d.family, d.n
    w = fam.weight
    for a, side in ((w.e_lo, "lower"), (w.e_hi, "upper")):
        if -1.0 < a < 0.0 or 0.0 < a <= 1.0:
            raise DomainError(
                f"{fam.label()}: Fisher integrand has endpoint exponent {a - 2.0:g} <= -1 "
                f"at the {side} endpoint; integral diverges")

    shift = norm_constant_log(fam, n).log_abs
    core = w.core

    def g_core_many(xs: np.ndarray) -> np.ndarray:
        return core(xs) + 2.0 * log_derivative_numerator_many(fam, n, xs)[1] - shift

    # the 1/d^2 of the integrand lowers each nonzero endpoint exponent by 2
    spec = LogIntegrand(a=w.lo, b=w.hi, g_core_many=g_core_many,
                        e_left=w.e_lo - 2.0 if w.e_lo else 0.0,
                        e_right=w.e_hi - 2.0 if w.e_hi else 0.0,
                        breakpoints=tuple(polynomial_zeros(fam, n)))
    res = log_integral(spec, cfg)
    return math.exp(res.log_abs)


def renyi_length(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L_q = W_q^(1/(1-q)) = exp(R_q)."""
    return math.exp(renyi_entropy(d, q, cfg))


def shannon_length(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return math.exp(shannon_entropy(d, cfg))


def lmc_renyi(d: DensityHandle, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """exp(R_a - R_b) for 0 < a < b, both != 1."""
    if not (0 < a < b) or a == 1.0 or b == 1.0:
        raise DomainError("requires 0 < a < b with a, b != 1")
    return math.exp(renyi_entropy(d, a, cfg) - renyi_entropy(d, b, cfg))


def lmc_plain(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """e^S * W_2: Shannon length times disequilibrium; >= 1 for any density."""
    s = shannon_entropy(d, cfg)
    w2 = weighted_norm_quad(d.family, d.n, 2.0, cfg=cfg, normalized=d.normalized)
    return math.exp(s + w2.value.log_abs)


def fisher_shannon(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """F * exp(2S) / (2 pi e); equals 1 exactly for a Gaussian density."""
    return fisher_information(d, cfg) * math.exp(2.0 * shannon_entropy(d, cfg)) \
        / (2.0 * math.pi * math.e)


def fisher_renyi(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return fisher_information(d, cfg) * math.exp(2.0 * renyi_entropy(d, q, cfg)) \
        / (2.0 * math.pi * math.e)


def shannon_from_Wq_derivative(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S = -dW_q/dq at q = 1 (unit-mass density), Richardson-extrapolated."""
    if not d.normalized:
        raise DomainError("identity requires the unit-mass density")

    def w(q: float) -> float:
        return weighted_norm_quad(d.family, d.n, q, cfg=cfg, normalized=True).to_float()

    def central(h: float) -> float:
        return (w(1.0 + h) - w(1.0 - h)) / (2.0 * h)

    d1 = central(_RICHARDSON_H)
    d2 = central(0.5 * _RICHARDSON_H)
    return -(4.0 * d2 - d1) / 3.0


def density_moment(d: DensityHandle, k: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int x^k rho(x) dx; used by the variance/Cramer-Rao sanity checks."""
    shift = _log_norm_shift(d)
    res = density_integral(d.family, d.n, pol_power=2.0, weight_power=1.0,
                           phi_many=(lambda xs: xs ** k), cfg=cfg)
    return res.sign * math.exp(res.log_abs - shift) if res.sign != 0 else 0.0
