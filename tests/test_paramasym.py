import math
import sys

import pytest

from hopnorms import paramasym, quadrature
from hopnorms.errors import DomainError
from hopnorms.families import gegenbauer, jacobi, laguerre, norm_constant_log
from hopnorms.norms import unweighted_norm_quad, weighted_norm_quad
from hopnorms.paramasym import (TemmeExpansion, gegenbauer_shannon_param,
                                gegenbauer_shannon_tail, gegenbauer_unweighted_param,
                                gegenbauer_weighted_param,
                                gegenbauer_weighted_param_simplified,
                                jacobi_shannon_param, jacobi_unweighted_param,
                                jacobi_weighted_param,
                                jacobi_weighted_q2_normalized_printed,
                                laguerre_kappa_asym_log, laguerre_shannon_param,
                                laguerre_unweighted_param, laguerre_weighted_param,
                                temme_I1, temme_I1_quadrature, temme_I2,
                                temme_I2_quadrature)
from hopnorms.special import digamma, log_gamma

from .helpers import log_ratio_err


def test_temme_coefficients():
    e = TemmeExpansion(1, 1.0, 1.0, 2.0)
    d0, d1, d2 = e.coefficients
    assert (d0, d1, d2) == (1.0, 0.0, 1.0)
    dp0, dp1, dp2 = e.derivative_coefficients
    assert dp0 == 0.0
    assert dp1 == pytest.approx(0.0)   # m(-2mu+m lam+lam)/(2 lam) = 1*0/2
    assert dp2 == pytest.approx(1.5)


def test_temme_witness_exact():
    for a in (10.0, 100.0, 1000.0):
        v = temme_I1(1, a, 1.0, 1.0, 2.0, order=2).to_float()
        assert v == pytest.approx(a * a + 1.0, rel=1e-12)


def test_temme_m0_all_orders():
    for order in (0, 1, 2):
        v = temme_I1(0, 50.0, 2.5, 3.0, 1.7, order=order)
        want = log_gamma(2.5) - 2.5 * math.log(3.0)
        assert v.log_value == pytest.approx(want, rel=1e-14)
        assert temme_I2(0, 50.0, 2.5, 3.0, order=order).value.is_zero


@pytest.mark.parametrize("mu, lam", [(1.0, 1.0), (0.3, 2.0), (3.0, 0.5)])
def test_temme_oracle_meets_its_closed_form_at_m0(mu, lam):
    # L_0 = 1: the oracle's integrand is x^(mu - 1) e^(-lam x), a pole at
    # x = 0 for mu = 0.3; its basis takes its peaks from its own exponent
    # mu - 1.  Its integral is Gamma(mu)/lam^mu, met within the claim plus
    # the rounding of the terms
    spec = paramasym._temme_spec(0, 50.0, mu, lam, 2.0)
    assert quadrature._known_peaks(spec) is not None
    res = quadrature.log_integral(spec)
    terms = (math.lgamma(mu), -mu * math.log(lam))
    assert res.sign == 1
    assert (abs(res.log_abs - sum(terms))
            <= res.rel_err + 4.0 * sys.float_info.epsilon * sum(map(abs, terms)))


def test_temme_i2_central_difference_identity():
    h = 1e-5
    for m in (0, 1, 2, 3):
        for mu, lam in ((1.0, 1.0), (2.5, 2.0)):
            a = 500.0
            i2 = temme_I2(m, a, mu, lam, 2).to_float()
            d = 2.0 * (temme_I1(m, a, mu, lam, 2 + h).to_float()
                       - temme_I1(m, a, mu, lam, 2 - h).to_float()) / (2 * h)
            assert abs(i2 - d) <= 1e-6 * max(abs(i2), 1e-9)


def test_temme_order_improvement_vs_quadrature():
    m, mu, lam, q, a = 2, 3.0, 1.0, 3.0, 200.0
    oracle = temme_I1_quadrature(m, a, mu, lam, q).log_abs
    e0 = log_ratio_err(temme_I1(m, a, mu, lam, q, order=0).log_value, oracle)
    e2 = log_ratio_err(temme_I1(m, a, mu, lam, q, order=2).log_value, oracle)
    assert e2 < e0


def test_temme_i2_vs_quadrature():
    m, mu, lam, a = 1, 1.0, 1.0, 100.0
    got = temme_I2(m, a, mu, lam, 2).to_float()
    want = temme_I2_quadrature(m, a, mu, lam).to_float()
    assert got == pytest.approx(want, rel=1e-3)


def test_laguerre_unweighted_c0q():
    # c_{0,q} = sqrt(2 pi) for every q; value is the Stirling form of Gamma(a+1)
    a = 2000.0
    for q in (1.0, 3.7):
        v = laguerre_unweighted_param(0, a, q)
        assert v.log_value - (a * (math.log(a) - 1.0) + 0.5 * math.log(a)) == pytest.approx(
            0.5 * math.log(2.0 * math.pi), rel=1e-12)
    assert math.exp(laguerre_unweighted_param(0, a, 2.0).log_value - math.lgamma(a + 1.0)) \
        == pytest.approx(1.0, rel=1e-4)


def test_laguerre_unweighted_vs_quadrature():
    a = 300.0
    v = laguerre_unweighted_param(1, a, 2.0)
    nq = unweighted_norm_quad(laguerre(a), 1, 2.0)
    assert math.exp(v.log_value - nq.value.log_abs) == pytest.approx(1.0, abs=0.05)


def test_laguerre_shannon_form():
    # ratio of leading terms between consecutive degrees is alpha * (m-1)!/m! ... -> alpha/m
    a = 1e4
    r = laguerre_shannon_param(2, a).log_value - laguerre_shannon_param(1, a).log_value
    assert r == pytest.approx(math.log(a) - math.log(1.0), rel=1e-10)
    assert laguerre_shannon_param(1, 10.0).value.sign == 1
    with pytest.raises(DomainError):
        laguerre_shannon_param(0, 100.0)


def test_laguerre_weighted_n0_exact():
    for a, q in ((7.0, 1.0), (25.0, 2.5)):
        v = laguerre_weighted_param(0, a, q)
        want = log_gamma(q * a + 1.0) - (q * a + 1.0) * math.log(q)
        assert v.log_value == pytest.approx(want, rel=1e-14)
        wq = weighted_norm_quad(laguerre(a), 0, q)
        assert v.log_value == pytest.approx(wq.value.log_abs, abs=1e-9)


def test_laguerre_weighted_normalized_reproduces_closed_form():
    # orthogonal / kappa_asym^q == alpha^(q(n-1/2)+1/2) / (sqrt(q) n!^q (2 pi)^((q-1)/2))
    n, a, q = 2, 500.0, 2.0
    v = laguerre_weighted_param(n, a, q, normalized=True)
    closed = ((q * (n - 0.5) + 0.5) * math.log(a) - 0.5 * math.log(q)
              - q * log_gamma(n + 1.0) - 0.5 * (q - 1.0) * math.log(2.0 * math.pi))
    # the two agree up to Stirling corrections O(1/(q alpha))
    assert v.log_value == pytest.approx(closed, abs=1e-3)
    # and exactly: normalized * kappa_asym^q == orthogonal
    orth = laguerre_weighted_param(n, a, q).log_value
    assert v.log_value + q * laguerre_kappa_asym_log(n, a) == pytest.approx(orth, rel=1e-12)


def test_jacobi_unweighted_n0_exact():
    a, b = 25.0, 2.0
    for q in (1.0, 3.0):
        v = jacobi_unweighted_param(0, a, b, q)
        want = ((1.0 + a + b) * math.log(2.0) + log_gamma(a + 1.0) + log_gamma(b + 1.0)
                - log_gamma(a + b + 2.0))
        assert v.log_value == pytest.approx(want, rel=1e-14)


def test_jacobi_unweighted_beta_exchange():
    v1 = jacobi_unweighted_param(1, 2.0, 300.0, 2.0, large="beta")
    v2 = jacobi_unweighted_param(1, 300.0, 2.0, 2.0, large="alpha")
    assert v1.log_value == pytest.approx(v2.log_value, rel=1e-13)


def test_jacobi_unweighted_alpha_exponent_slope():
    # slope of ln N - (1+a+b) ln 2 wrt ln a matches the recorded exponent
    n, b, q = 1, 0.0, 3.0
    v1 = jacobi_unweighted_param(n, 1e3, b, q)
    v2 = jacobi_unweighted_param(n, 2e3, b, q)
    strip1 = v1.log_value - (1.0 + 1e3 + b) * math.log(2.0)
    strip2 = v2.log_value - (1.0 + 2e3 + b) * math.log(2.0)
    slope = (strip2 - strip1) / math.log(2.0)
    want = v1.leading_exponents["alpha_power"]
    assert want == n - 1 - b - n * q
    assert slope == pytest.approx(want, abs=0.02)


def test_jacobi_shannon_sign_flip():
    n, b = 1, 0.0
    flip = math.exp(digamma(1.0 + 2 * n + b))
    assert jacobi_shannon_param(n, flip * 0.9, b).value.sign == 1
    assert jacobi_shannon_param(n, flip * 1.1, b).value.sign == -1
    with pytest.raises(DomainError):
        jacobi_shannon_param(0, 100.0, 0.0)


def test_jacobi_weighted_n0_exact():
    a, b = 25.0, 2.0
    for q in (1.0, 2.0, 3.0):
        v = jacobi_weighted_param(0, a, b, q)
        want = ((1.0 + q * (a + b)) * math.log(2.0) + log_gamma(q * a + 1.0)
                + log_gamma(q * b + 1.0) - log_gamma(q * (a + b) + 2.0))
        assert v.log_value == pytest.approx(want, rel=1e-14)
        wq = weighted_norm_quad(jacobi(a, b), 0, q)
        assert v.log_value == pytest.approx(wq.value.log_abs, abs=1e-8)


def test_jacobi_orthonormal_division_vs_printed():
    # division route tracks the Beta oracle (3a/32 leading at n=0, b=2);
    # the printed q=2 display gives twice that
    a = 400.0
    division = math.exp(jacobi_weighted_param(0, a, 2.0, 2.0, normalized=True).log_value)
    printed = math.exp(jacobi_weighted_q2_normalized_printed(0, a, 2.0).log_value)
    oracle = math.exp(weighted_norm_quad(jacobi(a, 2.0), 0, 2.0, normalized=True).value.log_abs)
    assert division == pytest.approx(oracle, rel=1e-10)
    assert division / (3 * a / 32) == pytest.approx(1.0, abs=0.02)
    assert printed / (3 * a / 16) == pytest.approx(1.0, rel=1e-12)
    assert printed / division == pytest.approx(2.0, abs=0.03)


def test_gegenbauer_unweighted_as_displayed():
    # n = 0 instance equals pi/Gamma(1+lam) as displayed (and is known to
    # disagree with the exact Beta value; see the validation report)
    lam = 37.0
    v = gegenbauer_unweighted_param(0, lam, 2.0)
    assert v.log_value == pytest.approx(math.log(math.pi) - log_gamma(1.0 + lam), rel=1e-12)


def test_gegenbauer_unweighted_normalized_scaling():
    lam, n, q = 50.0, 2, 2.0
    v0 = gegenbauer_unweighted_param(n, lam, q).log_value
    v1 = gegenbauer_unweighted_param(n, lam, q, normalized=True).log_value
    assert v0 - v1 == pytest.approx(0.5 * q * norm_constant_log(gegenbauer(lam), n).log_abs,
                                    rel=1e-12)


def test_gegenbauer_weighted_exact_n1():
    # first-line form is the exact Beta integral for n = 1, every q
    lam = 37.0
    for q in (1.0, 2.0, 3.5):
        v = gegenbauer_weighted_param(1, lam, q)
        wq = weighted_norm_quad(gegenbauer(lam), 1, q)
        assert v.log_value == pytest.approx(wq.value.log_abs, abs=1e-9)


def test_gegenbauer_weighted_exact_n0():
    # n = 0, q = 3: sqrt(pi) Gamma(1+3(lam-1/2))/Gamma(3/2+3(lam-1/2)),
    # again a plain Beta integral; the second-line form doubles it
    lam, q = 12.0, 3.0
    v = gegenbauer_weighted_param(0, lam, q)
    want = (0.5 * math.log(math.pi) + log_gamma(1.0 + q * (lam - 0.5))
            - log_gamma(1.5 + q * (lam - 0.5)))
    assert v.log_value == pytest.approx(want, rel=1e-13)
    wq = weighted_norm_quad(gegenbauer(lam), 0, q)
    assert v.log_value == pytest.approx(wq.value.log_abs, abs=1e-9)
    second = gegenbauer_weighted_param_simplified(0, lam, q).log_value
    # the parity-factor mishandling in the printed second line shows up as
    # an exact factor 2 already at n = 0 in the lambda -> inf limit
    assert math.exp(gegenbauer_weighted_param_simplified(0, 4e4, q).log_value
                    - gegenbauer_weighted_param(0, 4e4, q).log_value) \
        == pytest.approx(2.0, rel=1e-3)


def test_gegenbauer_weighted_q2_tail():
    # normalized q=2 tail: Gamma(1/2+2n) lam^(1/2) / (sqrt(2) pi n!^2)
    n, lam = 1, 5e4
    v = gegenbauer_weighted_param(n, lam, 2.0, normalized=True)
    tail = (log_gamma(0.5 + 2 * n) + 0.5 * math.log(lam) - 0.5 * math.log(2.0)
            - math.log(math.pi) - 2.0 * log_gamma(n + 1.0))
    assert v.log_value == pytest.approx(tail, abs=2e-4)


def test_gegenbauer_simplified_factor_two():
    lam = 400.0
    first = gegenbauer_weighted_param(1, lam, 1.0).log_value
    second = gegenbauer_weighted_param_simplified(1, lam, 1.0).log_value
    assert math.exp(second - first) == pytest.approx(2.0, abs=0.02)


def test_gegenbauer_shannon_forms():
    # orthogonal = kappa * orthonormal
    lam, n = 200.0, 2
    vo = gegenbauer_shannon_param(n, lam, normalized=False).to_float()
    vn = gegenbauer_shannon_param(n, lam, normalized=True).to_float()
    kappa = norm_constant_log(gegenbauer(lam), n).to_float()
    assert vo == pytest.approx(kappa * vn, rel=1e-12)
    with pytest.raises(DomainError):
        gegenbauer_shannon_param(0, 100.0)
    # tail scaling: tail(n=2) - tail(n=1) = 2 ln(2 lam / 2) exactly
    lam = 1e6
    dt = gegenbauer_shannon_tail(2, lam) - gegenbauer_shannon_tail(1, lam)
    assert dt == pytest.approx(2.0 * math.log(lam), rel=1e-12)
    # bracket scaling: the same difference for the bracket form is
    # ln(2 lam) - 2 ln 2 + 2 psi(5/2) - psi(3/2) + o(1) -- half the tail's
    # growth, which is the documented factor-2 defect of the printed tail
    db = gegenbauer_shannon_param(2, lam, normalized=True).to_float() \
        - gegenbauer_shannon_param(1, lam, normalized=True).to_float()
    want = (math.log(2.0 * lam) - 2.0 * math.log(2.0)
            + 2.0 * digamma(2.5) - digamma(1.5))
    assert db == pytest.approx(want, rel=1e-3)


def test_gegenbauer_shannon_tail_value():
    assert gegenbauer_shannon_tail(1, 1e4) == pytest.approx(2 * math.log(2e4), rel=1e-12)


def test_orthonormal_orthogonal_consistency():
    # normalized * kappa^q == orthogonal, by construction, to 1e-12
    n, q = 1, 2.0
    a = 123.0
    lk = norm_constant_log(jacobi(a, 2.0), n).log_abs
    assert jacobi_weighted_param(n, a, 2.0, q, normalized=True).log_value + q * lk \
        == pytest.approx(jacobi_weighted_param(n, a, 2.0, q).log_value, rel=1e-12)
    lk = norm_constant_log(gegenbauer(a), n).log_abs
    assert gegenbauer_weighted_param(n, a, q, normalized=True).log_value + q * lk \
        == pytest.approx(gegenbauer_weighted_param(n, a, q).log_value, rel=1e-12)


def test_domain_rejections():
    with pytest.raises(DomainError):
        temme_I1(1, 100.0, 1.0, 1.0, 2.0, order=3)
    with pytest.raises(DomainError):
        TemmeExpansion(1, -1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        laguerre_weighted_param(0, -1.0, 2.0)
    with pytest.raises(DomainError):
        jacobi_unweighted_param(1, 100.0, 0.0, 2.0, large="gamma")
