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
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalFailure, check_order
from .families import (PolynomialFamily, log_derivative_numerator_many, norm_constant_log,
                       norm_constant_log_size, numerator_peaks)
from .logreal import SignedLogReal
from .norms import density_integral, density_spec, norm_quads, norm_result, norm_spec
from .quadrature import (DEFAULT_CONFIG, LogIntegrand, LogQuadResult, QuadratureConfig,
                         log_integral, log_integrals, raise_first)

__all__ = [
    "DensityHandle", "renyi_entropy", "shannon_entropy", "functional_E", "functional_I",
    "fisher_information", "fisher_integral", "renyi_length", "shannon_length", "lmc_renyi",
    "lmc_plain", "fisher_shannon", "fisher_renyi", "shannon_from_Wq_derivative", "density_moment",
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


def _renyi_point(d: DensityHandle, q: float) -> tuple:
    """The :func:`norms.norm_quads` point of the W_q behind R_q."""
    if q == 1.0:
        raise DomainError("q = 1 is the Shannon limit; use shannon_entropy")
    check_order(q)
    return ("weighted-norm", d.family, d.n, q, d.normalized)


def _renyi_entropies(d: DensityHandle, qs: list[float], cfg: QuadratureConfig) -> list[float]:
    """R_q at each q, the W_q integrated in lockstep."""
    ws = raise_first(norm_quads([_renyi_point(d, q) for q in qs], cfg))
    return [w.value.log_abs / (1.0 - q) for w, q in zip(ws, qs)]


def renyi_entropy(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """R_q = ln(W_q)/(1-q); computed in log space so any parameter size works."""
    return _renyi_entropies(d, [q], cfg)[0]


def _log_norm_shift(d: DensityHandle) -> float:
    return norm_constant_log(d.family, d.n).log_abs if d.normalized else 0.0


def _shannon_spec(d: DensityHandle) -> LogIntegrand:
    """The integrand p_n^2 h phi of S, phi = -ln rho (see
    :func:`_density_value`).  phi is taken from the engine's own logs of
    p_n^2 h, so it stays finite at an endpoint pole of h; it is
    log-singular at the zeros of p_n, and at each finite end of h with a
    nonzero exponent e, where it holds e ln|x - c|."""
    shift = _log_norm_shift(d)

    def phi_many(xs: np.ndarray, core: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return shift - (core + ends)

    return density_spec(d.family, d.n, 2.0, 1.0, phi_many, log_singular=True,
                        log_singular_ends=True)


def _density_value(d: DensityHandle, res: LogQuadResult) -> float:
    """int rho phi from the integral res of p_n^2 h phi."""
    return res.sign * math.exp(res.log_abs - _log_norm_shift(d)) if res.sign != 0 else 0.0


def shannon_entropy(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S = -int rho ln rho by direct quadrature (0 ln 0 handled by the
    vanishing-density guard inside the integrator)."""
    return _density_value(d, log_integral(_shannon_spec(d), cfg))


def _functional_E_spec(fam: PolynomialFamily, n: int) -> LogIntegrand:
    """The integrand p^2 h phi of E, phi = -ln p^2, log-singular at the
    zeros of p_n."""
    weight_core = fam.weight.core

    def phi_many(xs: np.ndarray, core: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return weight_core(xs) - core  # core = ln p^2 + the weight's core

    return density_spec(fam, n, 2.0, 1.0, phi_many, log_singular=True)


def functional_E_log(fam: PolynomialFamily, n: int,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """-int p^2 h ln(p^2) dx as a SignedLogReal (survives huge parameters)."""
    res = log_integral(_functional_E_spec(fam, n), cfg)
    return SignedLogReal(res.sign, res.log_abs)  # sign 0 makes it zero


def functional_E_qderiv_log(fam: PolynomialFamily, n: int,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """E = -2 dN_q/dq at q = 2, by Richardson-extrapolated central differences.

    (The derivative identity holds with this sign: dN_q/dq = int |p|^q ln|p| h,
    which equals -E/2 at q = 2.)  The four N_q are integrated in lockstep.
    """
    return _q_derivative(lambda q: ("unweighted-norm", fam, n, q, False), 2.0, cfg).scaled(-2.0)


def _q_derivative(point, q0: float, cfg: QuadratureConfig) -> SignedLogReal:
    """d/dq at q0 of the norm of :func:`norms.norm_quads` point(q): central
    differences d_1 over q0 +- h and d_2 over q0 +- h/2, Richardson-
    extrapolated to (4 d_2 - d_1)/3, in log space.  The four norms are
    integrated in lockstep."""
    h = _RICHARDSON_H
    qs = (q0 + h, q0 - h, q0 + 0.5 * h, q0 - 0.5 * h)
    hi1, lo1, hi2, lo2 = (r.value for r in raise_first(norm_quads([point(q) for q in qs], cfg)))
    d1 = (hi1 - lo1).scaled(1.0 / (2.0 * h))
    d2 = (hi2 - lo2).scaled(1.0 / h)
    return (d2.scaled(4.0) - d1).scaled(1.0 / 3.0)


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


def _functional_I_spec(fam: PolynomialFamily, n: int) -> LogIntegrand:
    """The integrand p^2 h phi of I, phi = -ln h, taken from the engine's
    endpoint logs: log-singular at each finite end of h with a nonzero
    exponent, and smooth at the zeros of p_n."""
    weight_core = fam.weight.core

    def phi_many(xs: np.ndarray, core: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return -(weight_core(xs) + ends)

    return density_spec(fam, n, 2.0, 1.0, phi_many, log_singular_ends=True)


def functional_I_log(fam: PolynomialFamily, n: int,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """-int p^2 h ln(h) dx as a SignedLogReal."""
    res = log_integral(_functional_I_spec(fam, n), cfg)
    return SignedLogReal(res.sign, res.log_abs)  # sign 0 makes it zero


def functional_I(fam: PolynomialFamily, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """I[p_n] = -int p^2 h ln(h) dx (identically zero for the flat weight)."""
    if fam.weight.is_flat:
        return 0.0
    return _as_float(functional_I_log(fam, n, cfg), "functional_I_log")


def _fisher_spec(d: DensityHandle) -> Optional[LogIntegrand]:
    """The integrand rho'^2 / rho of F, see :func:`fisher_information`;
    None for a flat density (p_0 of a flat weight), whose F is 0.

    Its g = 2 ln|N| + ln(h/d^2) - ln kappa_n is -inf at the zeros of N,
    the critical points of rho, which break it into panels with one hump
    each, whose peaks :func:`families.numerator_peaks` gives from sums over
    the zeros of N and of p_n, with no recurrence (the spec names them).
    g_core sums the weight's core, 2 ln|N| and -ln kappa_n, each rounded at
    its own scale, so its size (see :class:`quadrature.LogIntegrand`) is
    |core| + 2 (|ln|N|| + 1) + the size of ln kappa_n: ln|N| carries the
    rounding of p_n and of p_n' = c q_{n-1}, two order-0 recurrences (q of
    the raised family of :func:`families._derivative`), as a basis's ln|p_n|
    does, and ln kappa_n sums log-gammas that cancel
    (:func:`families.norm_constant_log_size`).  With
    |g_core| alone the claim missed: at Laguerre(2), n = 60, ln kappa_n is
    off by 5e-14, and F missed its closed form by 4.4e-14 claiming
    1.1e-14."""
    if not d.normalized:
        raise DomainError("fisher information is defined for the unit-mass density")
    fam, n = d.family, d.n
    w = fam.weight
    for a, side in ((w.e_lo, "lower"), (w.e_hi, "upper")):
        if -1.0 < a < 0.0 or 0.0 < a <= 1.0:
            raise DomainError(
                f"{fam.label()}: Fisher integrand has endpoint exponent {a - 2.0:g} <= -1 "
                f"at the {side} endpoint; integral diverges")

    if n == 0 and w.is_flat:
        return None
    peaks = numerator_peaks(fam, n)
    if peaks is None:
        raise NumericalFailure(f"{fam.label()} n={n}: the Fisher integrand has no known peaks")
    shift, shift_size = norm_constant_log(fam, n).log_abs, norm_constant_log_size(fam, n)
    core = w.core

    def g_core_many(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, log_n = core(xs), log_derivative_numerator_many(fam, n, xs)[1]
        return h + 2.0 * log_n - shift, np.abs(h) + 2.0 * (np.abs(log_n) + 1.0) + shift_size

    # the 1/d^2 of the integrand lowers each nonzero endpoint exponent by 2
    return LogIntegrand(a=w.lo, b=w.hi, g_core_many=g_core_many, sized=True,
                        e_left=w.e_lo - 2.0 if w.e_lo else 0.0,
                        e_right=w.e_hi - 2.0 if w.e_hi else 0.0,
                        breakpoints=tuple(peaks[1]), peaks=peaks)


def fisher_information(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """F = int rho'^2 / rho dx for the unit-mass density.

    rho'^2/rho = h N^2 / (d^2 kappa) with N = d (2 p' + p h'/h) the
    polynomial of :func:`families.log_derivative_numerator_many`.  The
    integrand vanishes at the zeros of N, the critical points of rho, where
    the quadrature breaks it (see :func:`_fisher_spec`).  At an endpoint
    where the weight exponent a is nonzero the integrand behaves like
    (x - end)^(a - 2), which is not integrable for a in (-1, 0) or (0, 1];
    such parameter ranges are rejected rather than silently truncated.
    """
    return math.exp(fisher_integral(d, cfg).log_abs)


def fisher_integral(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> LogQuadResult:
    """ln F with its relative error claim, the integral behind
    :func:`fisher_information`; the exact zero for a flat density."""
    spec = _fisher_spec(d)
    if spec is None:
        return LogQuadResult(0, -math.inf, 0.0, 0)
    return log_integral(spec, cfg)


def renyi_length(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L_q = W_q^(1/(1-q)) = exp(R_q)."""
    return math.exp(renyi_entropy(d, q, cfg))


def shannon_length(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return math.exp(shannon_entropy(d, cfg))


def lmc_renyi(d: DensityHandle, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """exp(R_a - R_b) for 0 < a < b, both != 1; W_a and W_b in lockstep."""
    if not (0 < a < b) or a == 1.0 or b == 1.0:
        raise DomainError("requires 0 < a < b with a, b != 1")
    r_a, r_b = _renyi_entropies(d, [a, b], cfg)
    return math.exp(r_a - r_b)


def lmc_plain(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """e^S * W_2: Shannon length times disequilibrium; >= 1 for any density.
    S and W_2 are integrated in lockstep."""
    w2 = ("weighted-norm", d.family, d.n, 2.0, d.normalized)
    s, w = raise_first(log_integrals([_shannon_spec(d), norm_spec(w2)], cfg))
    return math.exp(_density_value(d, s) + norm_result(w2, w).value.log_abs)


def fisher_shannon(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """F * exp(2S) / (2 pi e); equals 1 exactly for a Gaussian density.
    F and S are integrated in lockstep; 0 for a flat density, whose F is 0."""
    fisher = _fisher_spec(d)
    if fisher is None:
        return 0.0
    f, s = raise_first(log_integrals([fisher, _shannon_spec(d)], cfg))
    return math.exp(f.log_abs) * math.exp(2.0 * _density_value(d, s)) / (2.0 * math.pi * math.e)


def fisher_renyi(d: DensityHandle, q: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """F * exp(2 R_q) / (2 pi e); F and W_q are integrated in lockstep; 0
    for a flat density, whose F is 0."""
    fisher, wq = _fisher_spec(d), _renyi_point(d, q)
    if fisher is None:
        return 0.0
    f, w = raise_first(log_integrals([fisher, norm_spec(wq)], cfg))
    return math.exp(f.log_abs) * math.exp(2.0 * (norm_result(wq, w).value.log_abs / (1.0 - q))) \
        / (2.0 * math.pi * math.e)


def shannon_from_Wq_derivative(d: DensityHandle, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S = -dW_q/dq at q = 1 (unit-mass density), Richardson-extrapolated;
    the four W_q are integrated in lockstep."""
    if not d.normalized:
        raise DomainError("identity requires the unit-mass density")
    return -_q_derivative(lambda q: ("weighted-norm", d.family, d.n, q, True), 1.0,
                          cfg).to_float()


def density_moment(d: DensityHandle, k: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int x^k rho(x) dx; used by the variance/Cramer-Rao sanity checks."""
    res = density_integral(d.family, d.n, pol_power=2.0, weight_power=1.0,
                           phi_many=(lambda xs, *_: xs ** k), cfg=cfg)
    return _density_value(d, res)
