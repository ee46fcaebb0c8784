import math

import mpmath
import numpy as np
import pytest

from hopnorms.errors import DomainError
from hopnorms.families import (eval_log_many, gegenbauer, gegenbauer_jacobi_factor_log,
                               hermite, jacobi, laguerre, norm_constant_log,
                               polynomial_zeros, weight_log_many)
from hopnorms.norms import (density_integral, unweighted_norm_quad, weight_moment,
                            weight_moment_log, weighted_norm_quad)
from hopnorms.quadrature import LogIntegrand, QuadratureConfig, log_integral
from hopnorms.special import log_gamma

from .helpers import FAMILY_CONFIGS, ONE_PER_FAMILY


def test_unweighted_examples():
    # |H_0|^q integrates to mu_0 = sqrt(pi) for any q
    r = unweighted_norm_quad(hermite(), 0, 7.3)
    assert r.to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-11)
    # int e^{-x^2} (2x)^4 = 12 sqrt(pi)
    r = unweighted_norm_quad(hermite(), 1, 4.0)
    assert r.to_float() == pytest.approx(12.0 * math.sqrt(math.pi), rel=1e-10)
    assert r.value.sign == 1
    assert r.method == "quadrature"


def test_weighted_examples():
    r = weighted_norm_quad(hermite(), 0, 2.0)
    assert r.to_float() == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)
    # gegenbauer n=1 q=1: 4 lam^2 B(3/2, lam+1/2)
    lam = 2.25
    want = (math.log(4.0 * lam * lam) + log_gamma(1.5) + log_gamma(lam + 0.5)
            - log_gamma(lam + 2.0))
    r = weighted_norm_quad(gegenbauer(lam), 1, 1.0)
    assert r.value.log_abs == pytest.approx(want, abs=1e-10)


def test_unit_mass_at_q1():
    for fam in FAMILY_CONFIGS:
        for n in (0, 3, 8, 15):
            r = weighted_norm_quad(fam, n, 1.0, normalized=True)
            assert r.to_float() == pytest.approx(1.0, abs=1e-9)


def test_n2_equals_kappa():
    for fam in FAMILY_CONFIGS:
        for n in (0, 5, 15):
            r = unweighted_norm_quad(fam, n, 2.0)
            assert r.value.log_abs == pytest.approx(
                norm_constant_log(fam, n).log_abs, abs=1e-9)


def test_orthogonality():
    # int p_n p_m h is zero below 1e-9 kappa_n for m < n; equals kappa_n at m = n
    for fam in ONE_PER_FAMILY:
        for n in (1, 4, 12):
            kappa_log = norm_constant_log(fam, n).log_abs
            for m in (0, n // 2, n - 1, n):
                def phi(x, *_, m=m, n=n):
                    (sm, lm), (sn, ln) = eval_log_many(fam, m, x), eval_log_many(fam, n, x)
                    return sm * sn * np.exp(lm + ln)
                def g(x):
                    return weight_log_many(fam, x)
                seeds = None
                lo, hi = fam.support
                spec = LogIntegrand(a=lo, b=hi, g_core_many=g, phi_many=phi,
                                    e_left=0.0, e_right=0.0,
                                    breakpoints=tuple(polynomial_zeros(fam, n)))
                if fam.kind in ("jacobi", "gegenbauer"):
                    spec = LogIntegrand(a=lo, b=hi, g_core_many=np.zeros_like, phi_many=phi,
                                        e_left=fam.weight.e_lo, e_right=fam.weight.e_hi,
                                        breakpoints=tuple(polynomial_zeros(fam, n)))
                res = log_integral(spec)
                if m == n:
                    assert res.log_abs == pytest.approx(kappa_log, abs=1e-9)
                else:
                    assert res.sign == 0 or res.log_abs < kappa_log + math.log(1e-9)


def test_gegenbauer_jacobi_norm_bridge():
    # N_q[C_n] = c^q N_q[P_n^(lam-1/2, lam-1/2)] exactly (same weight function)
    for lam in (1.0, 3.5):
        jfam = jacobi(lam - 0.5, lam - 0.5)
        for n, q in ((1, 2.0), (4, 3.0)):
            shift = q * gegenbauer_jacobi_factor_log(n, lam)
            lg = unweighted_norm_quad(gegenbauer(lam), n, q).value.log_abs
            lj = unweighted_norm_quad(jfam, n, q).value.log_abs
            assert lg == pytest.approx(lj + shift, abs=1e-9)


@pytest.mark.parametrize("a, q", [(1.0, 1000.0), (1.0, 3000.0), (1.5, 1000.0), (1.5, 1e4),
                                  (1.0, 1e5)])
def test_tiny_weighted_norm_meets_its_error_estimate(a, q):
    # W_q[L_0^(a)] = Gamma(qa + 1) / q^(qa + 1), far below e^-690: the value's
    # scale must not relax the tolerance
    r = weighted_norm_quad(laguerre(a), 0, q)
    assert _miss(r.value.log_abs, _laguerre_0_log(a, q)) <= r.error_estimate <= 1e-10


def _laguerre_0_log(a, q):
    """ln W_q[L_0^(a)] = ln Gamma(qa + 1) - (qa + 1) ln q to 40 digits; the
    float log_gamma is off by 1e-12 at Gamma(1501)."""
    with mpmath.workdps(40):
        return mpmath.loggamma(q * a + 1) - (q * a + 1) * mpmath.log(q)


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_tail_walk_climbs_from_zero_to_a_far_peak(q):
    # p_0 has no zero to start the tail walk from, so it starts at 0 and
    # must climb to the peak of (x^alpha e^-x)^q at x = alpha = 1e4
    r = weighted_norm_quad(laguerre(1e4), 0, q)
    assert _miss(r.value.log_abs, _laguerre_0_log(1e4, q)) <= r.error_estimate <= 1e-9


class Unweighted(str):
    """The want of N_q[p_n], where a row checks the unweighted norm."""


def _miss(log_value, want):
    """The relative miss of exp(log_value) against exp(want), want an mpf or
    a decimal string."""
    with mpmath.workdps(40):
        return abs(float(mpmath.expm1(mpmath.mpf(log_value) - mpmath.mpf(want))))


@pytest.mark.parametrize("fam, n, q, want", [
    # ln W_q of Hermite and Gegenbauer from 40-digit mpmath quadrature over
    # the peaks of p_n^2 h
    (hermite(), 2, 1e4, "16585.03302633495271"),
    (hermite(), 2, 1e6, "1658876.9829711120886"),
    (gegenbauer(1.75), 3, 1e5, "229372.04910390810196"),
    (laguerre(7.0), 2, 3e5, "2998925.8154806390995"),
    *[(laguerre(a), 0, q, _laguerre_0_log(a, q))
      for a, q in ((0.5, 1e5), (2.0, 1e5), (3.0, 1e5), (1.0, 1e6), (2.0, 1e6), (7.0, 1e6))],
    # Hermite n = 4, W and N; the tail walks start at the outermost zeros,
    # and N's peaks lie near x = +-sqrt(2q)
    (hermite(), 4, 1e4, "54103.14076624098747647"),
    (hermite(), 4, 1e5, "541065.4834786723119001"),
    (hermite(), 4, 1e6, "5410699.27220483165617"),
    (hermite(), 4, 1e4, Unweighted("205795.0571345669633645")),
    (hermite(), 4, 1e5, Unweighted("2518472.820260837708195")),
    (hermite(), 4, 1e6, Unweighted("29789903.61822598243573")),
], ids=lambda v: (v.label() if hasattr(v, "label") else f"N={v}" if isinstance(v, Unweighted)
                  else None))
def test_peaks_narrower_than_the_scan_grid(fam, n, q, want):
    # the peak of (p_n^2 h)^q, of width ~ 1/sqrt(q), falls between the scan
    # points and only a zoom reaches it.  Kept whole, its panel raised "a
    # positive integrand summed to zero" where every node missed the peak,
    # and Laguerre(7), n = 2 read 64 nats low where nodes met only a flank
    r = (unweighted_norm_quad if isinstance(want, Unweighted) else weighted_norm_quad)(fam, n, q)
    assert _miss(r.value.log_abs, want) <= r.error_estimate <= 1e-7


def test_weighted_endpoint_singular():
    # qa in (-1, 0): transform route against the exact Beta integral
    a, b, q = -0.3, 0.4, 1.0
    r = weighted_norm_quad(jacobi(a, b), 0, q)
    want = ((1.0 + q * (a + b)) * math.log(2.0) + log_gamma(q * a + 1.0)
            + log_gamma(q * b + 1.0) - log_gamma(q * (a + b) + 2.0))
    assert r.value.log_abs == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("fam", [jacobi(0.5, 1.5), jacobi(3.0, 3.0), jacobi(1.25, 0.75),
                                 gegenbauer(0.75), gegenbauer(1.75), gegenbauer(2.5)],
                         ids=lambda f: f.label())
def test_weighted_norm_of_p0_meets_the_beta_integral(fam):
    # W_q[P_0] = 2^(q(a + b) + 1) B(qa + 1, qb + 1).  At large q the end
    # terms qa ln(1 - x) and qb ln(1 + x) of g are large and cancel near a
    # central peak, so g's rounding is not set by its peak value.  At small
    # q the rule can be exact, and the sum's own rounding remains
    a, b = fam.weight.e_hi, fam.weight.e_lo
    for q in (0.5, 1.0, 2.0, 10.0, 1e3, 1e4, 1e5, 1e6):
        r = weighted_norm_quad(fam, 0, q)
        with mpmath.workdps(40):
            want = ((q * (a + b) + 1) * mpmath.log(2) + mpmath.loggamma(q * a + 1)
                    + mpmath.loggamma(q * b + 1) - mpmath.loggamma(q * (a + b) + 2))
        assert _miss(r.value.log_abs, want) <= r.error_estimate <= 1e-9, q


def test_integrability_rejection():
    with pytest.raises(DomainError):
        weighted_norm_quad(jacobi(-0.6, 0.0), 0, 2.0)  # q alpha = -1.2
    with pytest.raises(DomainError):
        unweighted_norm_quad(hermite(), 1, -1.0)
    with pytest.raises(DomainError):
        weighted_norm_quad(hermite(), 1, 0.0)


def test_monotone_refinement_norm_level():
    for fam, n, q in ((hermite(), 2, 3.0), (jacobi(2.5, 1.5), 1, 2.0)):
        errs = []
        tol = 1e-6
        for _ in range(5):
            errs.append(unweighted_norm_quad(fam, n, q, QuadratureConfig(rel_tol=tol)).error_estimate)
            tol /= 2.0
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_weight_moments_closed_forms():
    assert weight_moment(hermite(), 0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert weight_moment(hermite(), 3) == 0.0
    assert weight_moment(hermite(), 4) == pytest.approx(math.gamma(2.5), rel=1e-13)
    assert weight_moment(laguerre(0.0), 3) == pytest.approx(6.0, rel=1e-13)
    assert weight_moment(jacobi(0.0, 0.0), 0) == pytest.approx(2.0, rel=1e-13)


def test_weight_moments_against_quadrature():
    for fam in (jacobi(2.5, 1.5), jacobi(0.3, 1.1), gegenbauer(3.5),
                jacobi(-0.7, -0.6), gegenbauer(-0.25)):
        for t in (0, 1, 2, 5):
            lo, hi = fam.support
            spec = LogIntegrand(a=lo, b=hi, g_core_many=np.zeros_like,
                                phi_many=lambda x, *_: x ** t,
                                e_left=fam.weight.e_lo, e_right=fam.weight.e_hi,
                                breakpoints=(0.0,))
            res = log_integral(spec)
            want = weight_moment_log(fam, t)
            if want.sign == 0:
                assert res.sign == 0 or res.log_abs < math.log(1e-11)
            else:
                assert res.sign == want.sign
                assert res.log_abs == pytest.approx(want.log_abs, abs=1e-9)


def test_jacobi_moment_symmetry():
    # mu_t(alpha, beta) = (-1)^t mu_t(beta, alpha)
    for t in (1, 2, 3):
        m1 = weight_moment(jacobi(1.3, 0.4), t)
        m2 = weight_moment(jacobi(0.4, 1.3), t)
        assert m1 == pytest.approx((-1) ** t * m2, rel=1e-11)


def test_density_integral_mass():
    # pol_power=2, weight_power=1 integrates to kappa
    for fam in ONE_PER_FAMILY:
        res = density_integral(fam, 4, 2.0, 1.0)
        assert res.log_abs == pytest.approx(norm_constant_log(fam, 4).log_abs, abs=1e-10)


def test_extreme_parameter_weighted_norm():
    # exact finite identity: W_2[L_1^(a)] = Gamma(2a+1)/2^(2a+1) (a+1)(3a+2)/4,
    # a magnitude ~ e^9112 handled entirely in log space
    a = 800.0
    want = (math.lgamma(2 * a + 1) - (2 * a + 1) * math.log(2.0)
            + math.log((a + 1) * (3 * a + 2) / 4.0))
    r = weighted_norm_quad(laguerre(a), 1, 2.0)
    assert r.value.log_abs == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("lam,q", [(1000.0, 1000.0), (1e4, 100.0)])
def test_normalized_error_covers_norm_constant_rounding(lam, q):
    # the log-gammas of q ln kappa_0 cancel by ~1e-12 each, then scale by q;
    # W_q of the unit-mass density is B(1/2, q(lam-1/2)+1) / B(1/2, lam+1/2)^q
    with mpmath.workdps(40):
        lam_, q_ = mpmath.mpf(lam), mpmath.mpf(q)
        want = (mpmath.log(mpmath.beta(0.5, q_ * (lam_ - 0.5) + 1))
                - q_ * mpmath.log(mpmath.beta(0.5, lam_ + 0.5)))
    r = weighted_norm_quad(gegenbauer(lam), 0, q, normalized=True)
    assert abs(r.log_value - float(want)) <= r.error_estimate < 1e-6
