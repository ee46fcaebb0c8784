"""Large-parameter asymptotics (alpha, beta or lambda to infinity).

Three ingredient sets:

  * the Temme-style expansion of the generalized Laguerre norm functional
    I1(m, alpha) = int x^(mu-1) e^(-lambda x) |L_m^(alpha)|^q dx with
    coefficients D0..D2 (exact rational expressions) and its q-derivative
    companion I2,
  * the mu = O(alpha) regime, which yields the Stirling-type forms
    c_{m,q} (alpha/e)^alpha alpha^(delta+(mq+1)/2) for the unweighted
    Laguerre norms and their Shannon companion,
  * endpoint-limit substitutions for the bounded-support families, giving
    Beta-integral forms for the unweighted/weighted Jacobi and Gegenbauer
    norms and the associated Shannon functionals.

All outputs are leading terms; ``AsymptoticValue.leading_exponents``
records the parameter powers so sweeps can check slopes.  Orthonormal
variants are produced by dividing the orthogonal form by kappa^q (exact
kappa for the bounded families, the Stirling kappa for Laguerre, which
reproduces the closed orthonormal displays).  Known defects of some of
these leading terms against exact oracles are surfaced as informational
checks in :mod:`hopnorms.validate`, not silently patched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, check_order
from .families import (PolynomialFamily, hermite, laguerre, norm_constant_log,
                       polynomial_zeros)
from .logreal import SignedLogReal
from .norms import NormResult, unweighted_norm_quad
from .quadrature import DEFAULT_CONFIG, Basis, LogIntegrand, QuadratureConfig, log_integral
from .special import digamma, log_gamma

__all__ = [
    "TemmeExpansion", "AsymptoticValue",
    "temme_I1", "temme_I2",
    "laguerre_unweighted_param", "laguerre_shannon_param", "laguerre_weighted_param",
    "laguerre_kappa_asym_log",
    "jacobi_unweighted_param", "jacobi_shannon_param", "jacobi_weighted_param",
    "gegenbauer_unweighted_param", "gegenbauer_shannon_param", "gegenbauer_weighted_param",
    "gegenbauer_shannon_tail", "jacobi_weighted_q2_normalized_printed",
    "gegenbauer_weighted_param_simplified",
    "temme_I1_quadrature", "temme_I2_quadrature", "PARAM_FORMS",
]


@dataclass(frozen=True)
class AsymptoticValue:
    value: SignedLogReal
    leading_exponents: dict = field(default_factory=dict)
    note: str = ""

    def to_float(self) -> float:
        return self.value.to_float()

    @property
    def log_value(self) -> float:
        return self.value.log_abs

    def as_norm_result(self, err_scale: float) -> NormResult:
        return NormResult(self.value, "asymptotic-parameter", err_scale)


# -- Temme expansion -------------------------------------------------------

def _d_terms(m: int, mu: float, lam: float, q: float) -> tuple[tuple, tuple]:
    """(D0, D1, D2) as functions of q (exact rational expressions), and their
    q-derivatives (D2 is quadratic in q)."""
    c1 = -2.0 * mu + m * lam + lam
    qa = (-12.0 * mu * lam * m * m - 12.0 * mu * lam * m + 3.0 * m ** 3 * lam * lam
          + 12.0 * mu * mu * m + 12.0 * mu * m + 6.0 * lam * lam * m * m + 3.0 * lam * lam * m)
    qb = (24.0 * mu * lam - 4.0 * m * m * lam * lam - 6.0 * m * lam * lam
          - 12.0 * mu * mu - 12.0 * mu - 2.0 * lam * lam)
    return ((1.0, q * m * c1 / (2.0 * lam), m * (q * q * qa + q * qb) / (24.0 * lam * lam)),
            (0.0, m * c1 / (2.0 * lam), m * (2.0 * q * qa + qb) / (24.0 * lam * lam)))


@dataclass(frozen=True)
class TemmeExpansion:
    m: int
    mu: float
    lambda_scale: float
    q: float

    def __post_init__(self):
        if self.m < 0:
            raise DomainError("degree m must be nonnegative")
        for name in ("mu", "lambda_scale", "q"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return _d_terms(self.m, self.mu, self.lambda_scale, self.q)[0]

    @property
    def derivative_coefficients(self) -> tuple[float, float, float]:
        return _d_terms(self.m, self.mu, self.lambda_scale, self.q)[1]


def temme_I1(m: int, alpha: float, mu: float, lambda_scale: float, q: float,
             order: int = 2) -> AsymptoticValue:
    """int_0^inf x^(mu-1) e^(-lambda x) |L_m^(alpha)(x)|^q dx, alpha -> inf.

    Partial sum alpha^(qm) Gamma(mu)/(lambda^mu m!^q) * sum_{k<=order} D_k/alpha^k.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    exp_ = TemmeExpansion(m, mu, lambda_scale, q)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    ds = exp_.coefficients
    series = sum(ds[k] / alpha ** k for k in range(order + 1))
    pref = (q * m * math.log(alpha) + log_gamma(mu)
            - mu * math.log(lambda_scale) - q * log_gamma(m + 1.0))
    val = SignedLogReal.from_float(series) * SignedLogReal(1, pref)
    return AsymptoticValue(val, {"alpha_power": q * m}, "alpha->inf, (m, mu, lambda, q) fixed")


def temme_I2(m: int, alpha: float, mu: float, lambda_scale: float,
             order: int = 2) -> AsymptoticValue:
    """int x^(mu-1) e^(-lambda x) L_m^2 ln(L_m^2) dx = 2 dI1/dq at q = 2."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    exp_ = TemmeExpansion(m, mu, lambda_scale, 2.0)
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    ds = exp_.coefficients
    dps = exp_.derivative_coefficients
    series = sum(ds[k] / alpha ** k for k in range(order + 1))
    dseries = sum(dps[k] / alpha ** k for k in range(order + 1))
    lead = 2.0 * m * math.log(alpha) - 2.0 * log_gamma(m + 1.0)  # ln(alpha^{2m}/m!^2)
    bracket = lead * series + 2.0 * dseries
    pref = 2.0 * m * math.log(alpha) + log_gamma(mu) - mu * math.log(lambda_scale) \
        - 2.0 * log_gamma(m + 1.0)
    val = SignedLogReal.from_float(bracket) * SignedLogReal(1, pref)
    return AsymptoticValue(val, {"alpha_power": 2 * m, "ln_alpha": 1},
                           "alpha->inf; derivative of I1 at q=2")


def _temme_spec(m: int, alpha: float, mu: float, lambda_scale: float, q: float,
                phi_many=None):
    """int x^(mu-1) e^(-lambda x) |L_m^(alpha)|^q phi: a basis of Laguerre(alpha)
    with its own end exponent mu - 1."""
    fam = laguerre(alpha)
    return LogIntegrand(a=0.0, b=math.inf, basis=Basis(fam, m, q, lambda_scale), e_left=mu - 1.0,
                        breakpoints=tuple(polynomial_zeros(fam, m)), phi_many=phi_many)


def temme_I1_quadrature(m: int, alpha: float, mu: float, lambda_scale: float, q: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """Quadrature oracle for the I1 functional (independent of the expansion)."""
    res = log_integral(_temme_spec(m, alpha, mu, lambda_scale, q), cfg)
    return SignedLogReal(res.sign, res.log_abs)


def temme_I2_quadrature(m: int, alpha: float, mu: float, lambda_scale: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> SignedLogReal:
    """Quadrature oracle for I2 = int x^(mu-1) e^(-lambda x) L_m^2 ln(L_m^2) dx."""
    def phi_many(xs, core, ends):
        return core + lambda_scale * xs  # core = 2 ln|L_m| - lambda x

    res = log_integral(_temme_spec(m, alpha, mu, lambda_scale, 2.0, phi_many=phi_many), cfg)
    if res.sign == 0:
        return SignedLogReal.zero()
    return SignedLogReal(res.sign, res.log_abs)


# -- Laguerre, mu = O(alpha) regime ---------------------------------------

@lru_cache(maxsize=None)
def _hermite_norm_log(m: int, q: float) -> float:
    res = unweighted_norm_quad(hermite(), m, q, QuadratureConfig(rel_tol=1e-12))
    return res.value.log_abs


def laguerre_unweighted_param(m: int, alpha: float, q: float, delta: float = 0.0) -> AsymptoticValue:
    """int x^(alpha+delta) e^(-x) |L_m^(alpha)|^q dx
    ~ c_{m,q} (alpha/e)^alpha alpha^(delta+(mq+1)/2), alpha -> inf,
    with c_{m,q} = N_q[H_m] / (m!^q 2^((mq-1)/2)).

    The 2-power follows from the Gaussian-limit substitution and is fixed
    by the exact q=2 identity N_2[L_m] = Gamma(m+alpha+1)/m!.
    """
    if m < 0:
        raise DomainError("degree must be nonnegative")
    if not (q > 0 and alpha > 0):
        raise DomainError("q and alpha must be positive")
    check_order(q)
    log_c = _hermite_norm_log(m, q) - q * log_gamma(m + 1.0) - 0.5 * (m * q - 1.0) * math.log(2.0)
    power = delta + (m * q + 1.0) / 2.0
    log_val = log_c + alpha * (math.log(alpha) - 1.0) + power * math.log(alpha)
    return AsymptoticValue(SignedLogReal(1, log_val),
                           {"alpha_power": power, "stirling_factor": 1},
                           "alpha->inf; (m, q, delta) fixed")


def laguerre_shannon_param(m: int, alpha: float) -> AsymptoticValue:
    """int x^alpha e^(-x) L_m^2 ln(L_m^2) dx
    ~ sqrt(2 pi)/(m-1)! (alpha/e)^alpha alpha^(m+3/2) ln alpha."""
    if m < 1:
        raise DomainError("needs m >= 1 (the prefactor carries (m-1)!)")
    if not alpha > 1:
        raise DomainError("alpha must exceed 1 (ln alpha factor)")
    log_val = (0.5 * math.log(2.0 * math.pi) - log_gamma(float(m))
               + alpha * (math.log(alpha) - 1.0) + (m + 1.5) * math.log(alpha)
               + math.log(math.log(alpha)))
    return AsymptoticValue(SignedLogReal(1, log_val),
                           {"alpha_power": m + 1.5, "ln_alpha": 1, "stirling_factor": 1},
                           "alpha->inf; positive-sign convention of the integral above")


def laguerre_kappa_asym_log(n: int, alpha: float) -> float:
    """Stirling form of kappa (squared norm): sqrt(2 pi)/n! (alpha/e)^alpha alpha^(n+1/2)."""
    return (0.5 * math.log(2.0 * math.pi) - log_gamma(n + 1.0)
            + alpha * (math.log(alpha) - 1.0) + (n + 0.5) * math.log(alpha))


def laguerre_weighted_param(n: int, alpha: float, q: float, normalized: bool = False) -> AsymptoticValue:
    """W_q[L_n^(alpha)] ~ alpha^(2qn) Gamma(q alpha + 1) / (q^(q alpha + 1) n!^(2q)).

    Orthonormal variant divides by the Stirling kappa to the q-th power.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if not (q > 0 and alpha > 0):
        raise DomainError("q and alpha must be positive")
    check_order(q)
    log_val = (2.0 * q * n * math.log(alpha) + log_gamma(q * alpha + 1.0)
               - (q * alpha + 1.0) * math.log(q) - 2.0 * q * log_gamma(n + 1.0))
    exps = {"alpha_power": 2.0 * q * n, "gamma_q_alpha": 1}
    if normalized:
        log_val -= q * laguerre_kappa_asym_log(n, alpha)
        exps = {"alpha_power": q * (n - 0.5) + 0.5}
    return AsymptoticValue(SignedLogReal(1, log_val), exps, "alpha->inf; q, n fixed")


# -- Jacobi ----------------------------------------------------------------

def _swap_if_beta(alpha, beta, large):
    if large == "alpha":
        return alpha, beta
    if large == "beta":
        return beta, alpha
    raise DomainError("large must be 'alpha' or 'beta'")


def jacobi_unweighted_param(n: int, alpha: float, beta: float, q: float,
                            large: str = "alpha") -> AsymptoticValue:
    """N_q[P_n^(alpha,beta)] ~ (Gamma(alpha+n+1)/n!) Gamma(1+nq+beta)
    / Gamma(2+alpha+nq+beta) * 2^(1+alpha+beta), alpha -> inf, beta fixed.

    ``large='beta'`` applies the alpha <-> beta exchange.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    check_order(q)
    a, b = _swap_if_beta(alpha, beta, large)
    if not (a > 0 and b > -1):
        raise DomainError("large parameter must be positive, the other > -1")
    log_val = (log_gamma(a + n + 1.0) - log_gamma(n + 1.0) + log_gamma(1.0 + n * q + b)
               - log_gamma(2.0 + a + n * q + b) + (1.0 + alpha + beta) * math.log(2.0))
    return AsymptoticValue(SignedLogReal(1, log_val),
                           {"alpha_power": n - 1.0 - b - n * q, "two_power_alpha": 1},
                           f"{large}->inf, other fixed")


def jacobi_shannon_param(n: int, alpha: float, beta: float) -> AsymptoticValue:
    """-int (1-x)^a (1+x)^b P_n^2 ln(P_n^2) dx
    ~ 2^(2+a+b) a^(-n-b-1) Gamma(1+2n+b)/Gamma(n) (psi(1+2n+b) - ln a)."""
    if n < 1:
        raise DomainError("needs n >= 1 (Gamma(n) pole at n = 0)")
    if not (alpha > 0 and beta > -1):
        raise DomainError("alpha must be positive, beta > -1")
    bracket = digamma(1.0 + 2.0 * n + beta) - math.log(alpha)
    log_mag = ((2.0 + alpha + beta) * math.log(2.0) - (n + beta + 1.0) * math.log(alpha)
               + log_gamma(1.0 + 2.0 * n + beta) - log_gamma(float(n)))
    val = SignedLogReal.from_float(bracket) * SignedLogReal(1, log_mag)
    return AsymptoticValue(val, {"alpha_power": -(n + beta + 1.0), "ln_alpha": 1,
                                 "two_power_alpha": 1},
                           "alpha->inf, beta fixed; sign flips once ln alpha > psi(1+2n+beta)")


def jacobi_weighted_param(n: int, alpha: float, beta: float, q: float,
                          normalized: bool = False) -> AsymptoticValue:
    """W_q[P_n^(alpha,beta)] ~ [P_n(1)]^(2q) 2^(1+q(alpha+beta))
    Gamma(1+q alpha) Gamma(1+2nq+q beta) / Gamma(2+q(alpha+beta+2n)).

    Orthonormal variant divides by the exact kappa^q (the division route;
    exact at n = 0 where the orthogonal form is a plain Beta integral).
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if not (q > 0 and alpha > 0 and beta > -1):
        raise DomainError("q, alpha must be positive; beta > -1")
    check_order(q)
    log_p1 = log_gamma(alpha + n + 1.0) - log_gamma(n + 1.0) - log_gamma(alpha + 1.0)
    log_val = (2.0 * q * log_p1 + (1.0 + q * (alpha + beta)) * math.log(2.0)
               + log_gamma(1.0 + q * alpha) + log_gamma(1.0 + 2.0 * n * q + q * beta)
               - log_gamma(2.0 + q * (alpha + beta + 2.0 * n)))
    exps = {"alpha_power": -(1.0 + q * beta), "two_power_alpha": q}
    if normalized:
        log_val -= q * norm_constant_log(PolynomialFamily("jacobi", alpha=alpha, beta=beta), n).log_abs
        exps = {"alpha_power": q - 1.0}
    return AsymptoticValue(SignedLogReal(1, log_val), exps, "alpha->inf, beta fixed")


def jacobi_weighted_q2_normalized_printed(n: int, alpha: float, beta: float) -> AsymptoticValue:
    """The closed q=2 orthonormal display as printed elsewhere:
    Gamma(1+4n+2 beta) / (2^(2(1+2n+beta)) n!^2 Gamma(1+n+beta)) * alpha.

    Kept verbatim for the documented-discrepancy check; it exceeds the
    division-route value (which matches the Beta oracle) by a factor 2 at
    n = 0."""
    log_val = (log_gamma(1.0 + 4.0 * n + 2.0 * beta)
               - 2.0 * (1.0 + 2.0 * n + beta) * math.log(2.0)
               - 2.0 * log_gamma(n + 1.0) - log_gamma(1.0 + n + beta) + math.log(alpha))
    return AsymptoticValue(SignedLogReal(1, log_val), {"alpha_power": 1.0},
                           "printed q=2 orthonormal form (documented discrepancy)")


# -- Gegenbauer ------------------------------------------------------------

def _log_gegen_at_one(n: int, lam: float) -> float:
    return log_gamma(n + 2.0 * lam) - log_gamma(n + 1.0) - log_gamma(2.0 * lam)


def gegenbauer_unweighted_param(n: int, lam: float, q: float,
                                normalized: bool = False) -> AsymptoticValue:
    """N_q[C_n^(lambda)] ~ [C_n(1)]^q Gamma((1+nq)/2) Gamma(1/2+n) / Gamma(1+lambda+nq/2).

    Implemented exactly as displayed (including the Gamma(1/2+n) factor);
    the n = 0 instance disagrees with the exact Beta oracle and is flagged
    informational by the validation harness.  Orthonormal variant
    multiplies by kappa^(-q/2)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if not (q > 0 and lam > 0):
        raise DomainError("q and lambda must be positive")
    check_order(q)
    log_val = (q * _log_gegen_at_one(n, lam) + log_gamma(0.5 * (1.0 + n * q))
               + log_gamma(0.5 + n) - log_gamma(1.0 + lam + 0.5 * n * q))
    exps = {"lambda_power": n * q - (1.0 + 0.5 * n * q)}
    if normalized:
        log_val -= 0.5 * q * norm_constant_log(PolynomialFamily("gegenbauer", lam=lam), n).log_abs
    return AsymptoticValue(SignedLogReal(1, log_val), exps, "lambda->inf; as-displayed form")


def gegenbauer_shannon_param(n: int, lam: float, normalized: bool = False) -> AsymptoticValue:
    """int C_n^2 h ln(C_n^2) dx ~ 2 kappa [ln C_n(1) + (n/2) psi(n+1/2)
    - (n/2) psi(n+2 lambda+1)]; orthonormal variant drops the kappa."""
    if n < 1:
        raise DomainError("needs n >= 1 (leading term vanishes at n = 0)")
    if not lam > 0.5:
        raise DomainError("lambda must exceed 1/2")
    bracket = (_log_gegen_at_one(n, lam) + 0.5 * n * digamma(n + 0.5)
               - 0.5 * n * digamma(n + 2.0 * lam + 1.0))
    val = SignedLogReal.from_float(2.0 * bracket)
    if not normalized:
        val = val * SignedLogReal(1, norm_constant_log(PolynomialFamily("gegenbauer", lam=lam), n).log_abs)
    return AsymptoticValue(val, {"ln_lambda": 1},
                           "lambda->inf; positive-sign convention of the integral above")


def gegenbauer_shannon_tail(n: int, lam: float) -> float:
    """The displayed simplified tail 2 ln(lambda^n 2^n / n!)."""
    return 2.0 * (n * math.log(lam) + n * math.log(2.0) - log_gamma(n + 1.0))


def gegenbauer_weighted_param(n: int, lam: float, q: float,
                              normalized: bool = False) -> AsymptoticValue:
    """W_q[C_n^(lambda)] ~ [C_n(1)]^(2q) Gamma(1/2+nq) Gamma(1+q(lambda-1/2))
    / Gamma(3/2+q(n+lambda-1/2)).

    The parity prefactor (1+(-1)^(2nq)) is the constant 2 (the integrand is
    even in x unconditionally), already cancelled against the displayed /2.
    Orthonormal variant divides by the exact kappa^q."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if not (q > 0 and lam > 0):
        raise DomainError("q and lambda must be positive")
    check_order(q)
    if q * (lam - 0.5) <= -1.0:
        raise DomainError("q(lambda - 1/2) must exceed -1 for integrability")
    log_val = (2.0 * q * _log_gegen_at_one(n, lam) + log_gamma(0.5 + n * q)
               + log_gamma(1.0 + q * (lam - 0.5)) - log_gamma(1.5 + q * (n + lam - 0.5)))
    exps = {"lambda_power": n * q - 0.5}
    if normalized:
        log_val -= q * norm_constant_log(PolynomialFamily("gegenbauer", lam=lam), n).log_abs
        exps = {"lambda_power": 0.5 * (q - 1.0)}
    return AsymptoticValue(SignedLogReal(1, log_val), exps, "lambda->inf; first-line form")


def gegenbauer_weighted_param_simplified(n: int, lam: float, q: float) -> AsymptoticValue:
    """The displayed second-line simplification
    2 Gamma(1/2+nq) 2^(2nq) / (q^(1/2+nq) n!^(2q)) lambda^(nq-1/2).

    Kept verbatim for the documented-discrepancy check; it exceeds the
    first-line form (which matches the Beta oracle) by a factor 2."""
    log_val = (math.log(2.0) + log_gamma(0.5 + n * q) + 2.0 * n * q * math.log(2.0)
               - (0.5 + n * q) * math.log(q) - 2.0 * q * log_gamma(n + 1.0)
               + (n * q - 0.5) * math.log(lam))
    return AsymptoticValue(SignedLogReal(1, log_val), {"lambda_power": n * q - 0.5},
                           "printed second-line form (documented discrepancy)")



# Each family's (weighted, unweighted) large-parameter form, called as
# form(n, *params, q[, normalized]); by name, so a caller that looks it up
# here also calls a wrapper installed on this module.
PARAM_FORMS = {k: (f"{k}_weighted_param", f"{k}_unweighted_param")
               for k in ("laguerre", "jacobi", "gegenbauer")}
