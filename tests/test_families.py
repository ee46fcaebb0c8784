import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from hopnorms import families
from hopnorms.errors import DomainError, SingularEvaluation
from hopnorms.families import (FAMILY_PARAMS, CoefficientList, PolynomialFamily, _eval_scaled,
                               basis_peaks, coefficients, eval_derivative, moment_ratios,
                               eval_log, eval_log_many, eval_poly, gegenbauer,
                               gegenbauer_jacobi_factor_log, hermite, jacobi, laguerre,
                               log_derivative_numerator_many, norm_constant_log,
                               norm_constant_log_error,
                               numerator_peaks, polynomial_zeros, weight_log,
                               weight_log_derivative, weight_log_many)
from hopnorms.norms import unweighted_norm_quad
from hopnorms.special import log_gamma

from .helpers import FAMILY_CONFIGS


def reference_value(fam, n, x):
    """p_n(x) from scipy.special, independent of the package's recurrence."""
    if fam.kind == "hermite":
        return float(special.eval_hermite(n, x))
    if fam.kind == "laguerre":
        return float(special.eval_genlaguerre(n, fam.alpha, x))
    if fam.kind == "jacobi":
        return float(special.eval_jacobi(n, fam.alpha, fam.beta, x))
    return float(special.eval_gegenbauer(n, fam.lam, x))


def mp_reference_value(fam, n, x):
    """p_n(x) from mpmath, at the caller's working precision."""
    import mpmath
    if fam.kind == "hermite":
        return mpmath.hermite(n, x)
    if fam.kind == "laguerre":
        return mpmath.laguerre(n, fam.alpha, x)
    if fam.kind == "jacobi":
        return mpmath.jacobi(n, fam.alpha, fam.beta, x)
    return mpmath.gegenbauer(n, fam.lam, x)


def reference_derivative(fam, n, x, value=reference_value):
    """p_n'(x) as a multiple of p_{n-1} of a shifted-parameter family,
    evaluated by `value`: H_n' = 2n H_{n-1}, L_n^(a)' = -L_{n-1}^(a+1),
    P_n^(a,b)' = (n+a+b+1)/2 P_{n-1}^(a+1,b+1), C_n^(l)' = 2l C_{n-1}^(l+1)."""
    if n == 0:
        return 0.0
    if fam.kind == "hermite":
        return 2 * n * value(fam, n - 1, x)
    if fam.kind == "laguerre":
        return -value(laguerre(fam.alpha + 1), n - 1, x)
    if fam.kind == "jacobi":
        return (0.5 * (n + fam.alpha + fam.beta + 1)
                * value(jacobi(fam.alpha + 1, fam.beta + 1), n - 1, x))
    return 2 * fam.lam * value(gegenbauer(fam.lam + 1), n - 1, x)


def reference_numerator_terms(fam, x):
    """(2d, r) of N = 2 d p_n' + r p_n: d is the product of the distances to
    the endpoints with a nonzero weight exponent, r = d h'/h."""
    w = fam.weight
    d_lo = x - w.lo if w.e_lo != 0 else 1
    d_hi = w.hi - x if w.e_hi != 0 else 1
    core_prime = -2 * x if fam.kind == "hermite" else -1 if fam.kind == "laguerre" else 0
    return 2 * d_lo * d_hi, d_lo * d_hi * core_prime + w.e_lo * d_hi - w.e_hi * d_lo


def test_eval_anchor_values():
    assert eval_poly(hermite(), 2, 1.0) == 2.0
    assert eval_poly(laguerre(2.0), 1, 0.0) == 3.0
    for fam in FAMILY_CONFIGS:
        assert eval_poly(fam, 0, 0.3) == 1.0


def test_eval_log_anchors():
    v = eval_log(jacobi(1.0, 0.0), 1, 1.0)
    assert v.sign == 1
    assert v.log_abs == pytest.approx(math.log(2.0), rel=1e-14)
    assert eval_log(hermite(), 1, 0.0).sign == 0
    want = log_gamma(203.0) - log_gamma(4.0) - log_gamma(200.0)
    v = eval_log(gegenbauer(100.0), 3, 1.0)
    assert v.sign == 1
    assert v.log_abs == pytest.approx(want, rel=1e-12)


def test_eval_log_agrees_with_eval():
    rng = random.Random(7)
    for fam in FAMILY_CONFIGS:
        lo, hi = fam.support
        lo = max(lo, -1.0) if math.isfinite(lo) else -8.0
        hi = min(hi, 1.0) if math.isfinite(hi) else 8.0
        for n in (0, 1, 4, 9):
            for _ in range(20):
                x = rng.uniform(lo, hi)
                want = reference_value(fam, n, x)
                v = eval_log(fam, n, x)
                assert eval_poly(fam, n, x) == pytest.approx(want, rel=1e-11)
                if 1e-300 < abs(want) < 1e300:
                    assert v.sign == (1 if want > 0 else -1 if want < 0 else 0)
                    if v.sign != 0:
                        assert v.to_float() == pytest.approx(want, rel=1e-11)


def test_eval_log_extreme_parameters():
    # stable far beyond float range: parameter 1e4, degree up to 200,
    # checked against an arbitrary-precision oracle
    import mpmath
    mpmath.mp.dps = 50
    cases = [
        (gegenbauer(1e4), 200, 0.73,
         mpmath.gegenbauer(200, mpmath.mpf(10000), mpmath.mpf(0.73))),
        (laguerre(1e4), 150, 123.0, mpmath.laguerre(150, mpmath.mpf(10000), 123)),
        (jacobi(1e4, 3.0), 120, -0.4,
         mpmath.jacobi(120, mpmath.mpf(10000), mpmath.mpf(3), mpmath.mpf(-0.4))),
        (hermite(), 200, 11.5, mpmath.hermite(200, mpmath.mpf(11.5))),
    ]
    for fam, n, x, want in cases:
        v = eval_log(fam, n, x)
        assert v.sign == (1 if want > 0 else -1)
        assert v.log_abs == pytest.approx(float(mpmath.log(abs(want))), rel=1e-13)


@pytest.mark.parametrize("fam,n,x", [
    (hermite(), 40, 1e25), (laguerre(2.5), 33, 1e30), (gegenbauer(3.5), 20, -1e40)],
    ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_eval_log_many_redoes_overflowing_blocks(fam, n, x):
    # p_n grows past the double range inside one block of 16 unrescaled
    # steps; the batched paths redo the point quietly, and N with it
    import mpmath
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        p = mp_reference_value(fam, n, xm)
        two_d, r = reference_numerator_terms(fam, xm)
        big_n = two_d * reference_derivative(fam, n, xm, mp_reference_value) + r * p
        want = [(mpmath.sign(v), float(mpmath.log(abs(v)))) for v in (p, big_n)]
    got = (eval_log_many(fam, n, [0.5, x]), log_derivative_numerator_many(fam, n, [0.5, x]))
    for (signs, log_abs), (ws, wl) in zip(got, want):
        assert signs[1] == ws
        assert log_abs[1] == pytest.approx(wl, rel=1e-13)


# families of one kind whose recurrence rows differ, with zero entries
# among them: Laguerre alpha = 0 has C_0 = 0, Jacobi alpha = +-beta has
# every B_k = 0 and Gegenbauer lambda = 1/2 has C_0 = 0
_ONE_KIND = (
    st.just(hermite()),
    st.sampled_from((0.0, 0.5, 2.5, 40.0)).map(laguerre),
    st.tuples(st.sampled_from((-0.5, 0.5, 1.5)), st.sampled_from((-0.5, 0.5, 3.0))).map(
        lambda t: jacobi(*t)),
    st.sampled_from((0.5, 0.75, 3.5, 1e3)).map(gegenbauer),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ONE_KIND).flatmap(lambda fam: st.lists(fam, min_size=2, max_size=4)),
       st.integers(0, 40), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5), st.data())
def test_eval_log_many_over_families_matches_each_family_alone(fams, n, us, data):
    # one recurrence over rows of points of several families of one kind,
    # each row with the family at[i]: the rows the families differ on become
    # per-point columns, zero B or C entries added rather than skipped.
    # Every point keeps the (sign, log_abs) bits of its family alone, at
    # zeros (x = 0 for odd symmetric cases) and where a block of 16 steps
    # overflows at x = +-1e40 and the point is redone step by step
    at = np.array(data.draw(st.lists(st.integers(0, len(fams) - 1), min_size=1, max_size=6)))
    xs = np.array([[0.0, -1e40, 1e40] + [(u + 1.0) * 20.0 * i for u in us]
                   for i in range(1, at.size + 1)])
    signs, log_abs = eval_log_many(fams, n, xs, np.repeat(at[:, None], xs.shape[1], axis=1))
    for row, k in enumerate(at.tolist()):
        alone = eval_log_many(fams[k], n, xs[row])
        assert signs[row].tolist() == alone[0].tolist()
        assert log_abs[row].tolist() == alone[1].tolist()


@pytest.mark.parametrize("fam,n,x", [(hermite(), 2, 1e160), (hermite(), 3, -1e200),
                                     (laguerre(2.5), 4, 1e90), (gegenbauer(3.5), 3, 1e120)],
                         ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_scalar_eval_survives_an_overflowing_step(fam, n, x):
    # one step's product (A x + B) p_k passes the double range before the
    # recurrence could rescale: the values are rescaled before the product
    import mpmath
    with mpmath.workdps(40):
        want = mp_reference_value(fam, n, mpmath.mpf(x))
        sign, log_abs = int(mpmath.sign(want)), float(mpmath.log(abs(want)))
    v = eval_log(fam, n, x)
    assert v.sign == sign and v.log_abs == pytest.approx(log_abs, rel=1e-14)
    signs, many = eval_log_many(fam, n, [x])
    assert v.log_abs == pytest.approx(many[0], rel=1e-14)
    assert eval_poly(fam, n, x) == math.inf * sign  # every case lies past the double range


def test_scalar_eval_anchors_past_the_double_range():
    assert eval_log(hermite(), 2, 1e160).log_abs == pytest.approx(738.2135241192145, rel=1e-14)
    assert eval_poly(hermite(), 3, 1e200) == math.inf


def test_eval_log_many_matches_eval_log():
    # the batched recurrence against the scalar one, including points where
    # the scalar path rescales and exact zeros (odd Hermite and Gegenbauer
    # degrees at x = 0)
    rescaled = 0
    for fam in FAMILY_CONFIGS:
        lo, hi = fam.support
        lo = lo if math.isfinite(lo) else -40.0
        hi = hi if math.isfinite(hi) else 1200.0 if fam.kind == "laguerre" else 40.0
        xs = [lo + (hi - lo) * j / 96.0 for j in range(97)] + [0.0, 0.5 * lo + 0.25]
        for n in (0, 1, 5, 64, 300):
            signs, log_abs = eval_log_many(fam, n, xs)
            for x, s, la in zip(xs, signs.tolist(), log_abs.tolist()):
                v = eval_log(fam, n, x)
                assert s == v.sign, (fam, n, x)
                if s != 0:
                    assert abs(la - v.log_abs) <= 1e-13 * max(1.0, abs(la)), (fam, n, x)
                rescaled += _eval_scaled(fam, n, x)[1] != 0.0
    assert rescaled > 0
    signs, log_abs = eval_log_many(hermite(), 1, [0.0])
    assert (signs[0], log_abs[0]) == (0, -math.inf)
    # a scalar xs past the first rescale
    sign, log_abs = eval_log_many(hermite(), 40, 1.5)
    v = eval_log(hermite(), 40, 1.5)
    assert sign == v.sign and log_abs == pytest.approx(v.log_abs, rel=1e-14)


def test_coefficients_match_horner():
    rng = random.Random(12)
    for fam in FAMILY_CONFIGS:
        for n in (0, 1, 5, 10, 15):
            cl = coefficients(fam, n)
            assert isinstance(cl, CoefficientList)
            lo, hi = fam.support
            lo = max(lo, -1.0) if math.isfinite(lo) else -4.0
            hi = min(hi, 1.0) if math.isfinite(hi) else 4.0
            for _ in range(50):
                x = rng.uniform(lo, hi)
                got = cl.horner(x)
                want = reference_value(fam, n, x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_eval_poly_overflow_is_signed_inf():
    # |H_300(25)| and |H_400(5)| exceed the double range: the float paths
    # saturate to +-inf with the log-space sign instead of returning nan
    fam = hermite()
    for n, x in ((300, 25.0), (400, 5.0)):
        v = eval_log(fam, n, x)
        assert v.log_abs > 710.0
        assert eval_poly(fam, n, x) == math.copysign(math.inf, v.sign)
        dv = eval_log(fam, n - 1, x)
        assert eval_derivative(fam, n, x) == math.copysign(math.inf, dv.sign)


@pytest.mark.parametrize("fam", FAMILY_CONFIGS, ids=lambda fam: fam.label())
def test_derivative_matches_the_shifted_parameter_identities(fam):
    # p_n' and N = 2 d p_n' + r p_n from the raised family's recurrence,
    # against scipy.special through the shifted-parameter identities
    rng = random.Random(11)
    lo, hi = fam.support
    lo = max(lo, -1.0) if math.isfinite(lo) else -8.0
    hi = min(hi, 1.0) if math.isfinite(hi) else 8.0
    xs = [rng.uniform(lo, hi) for _ in range(20)]
    for n in (0, 1, 4, 9, 30):
        signs, log_abs = log_derivative_numerator_many(fam, n, xs)
        for x, s, la in zip(xs, signs.tolist(), log_abs.tolist()):
            dp = reference_derivative(fam, n, x)
            assert eval_derivative(fam, n, x) == pytest.approx(dp, rel=1e-11, abs=1e-300)
            two_d, r = reference_numerator_terms(fam, x)
            p = reference_value(fam, n, x)
            want = two_d * dp + r * p
            assert abs(s * math.exp(la) - want) <= 1e-11 * (abs(two_d * dp) + abs(r * p)), (n, x)


def test_log_derivative_numerator_extreme_parameters():
    # the cases of test_eval_log_extreme_parameters, against mpmath
    import mpmath
    cases = [(gegenbauer(1e4), 200, 0.73), (laguerre(1e4), 150, 123.0),
             (jacobi(1e4, 3.0), 120, -0.4), (hermite(), 200, 11.5)]
    for fam, n, x in cases:
        with mpmath.workdps(50):
            xm = mpmath.mpf(x)
            two_d, r = reference_numerator_terms(fam, xm)
            want = (two_d * reference_derivative(fam, n, xm, mp_reference_value)
                    + r * mp_reference_value(fam, n, xm))
            want_sign, want_log = int(mpmath.sign(want)), float(mpmath.log(abs(want)))
        signs, log_abs = log_derivative_numerator_many(fam, n, [x])
        assert signs[0] == want_sign
        assert log_abs[0] == pytest.approx(want_log, rel=1e-13)


@pytest.mark.parametrize("fam", FAMILY_CONFIGS + (
    gegenbauer(-0.25), jacobi(-0.5, 0.3), laguerre(1e4), jacobi(1e4, 3.0), jacobi(0.5, 1e4),
    gegenbauer(1e4)), ids=lambda fam: fam.label())
def test_the_raised_family_is_the_family_of_sigma_h(fam):
    # p_n' = c q_{n-1}, q of the family whose weight is sigma h: each
    # finite-end exponent raised by 1, the core kept.  c q_{n-1} meets
    # p_n' of 40-digit mpmath, differentiated numerically, so the shifted-
    # parameter identities are not assumed
    import mpmath
    w = fam.weight
    up, c = families._derivative(fam, 0)
    assert c == 0.0
    assert up.weight == w._replace(e_lo=w.e_lo + (1.0 if math.isfinite(w.lo) else 0.0),
                                   e_hi=w.e_hi + (1.0 if math.isfinite(w.hi) else 0.0))
    lo, hi = (e if math.isfinite(e) else math.copysign(3.0, e) for e in fam.support)
    for n in (1, 7, 60, 200):
        up, c = families._derivative(fam, n)
        for x in (0.11, 0.73 * hi + 0.27 * lo):
            with mpmath.workdps(40):
                want = mpmath.diff(lambda t: mp_reference_value(fam, n, t), mpmath.mpf(x))
                want_sign, want_log = int(mpmath.sign(want)), float(mpmath.log(abs(want)))
            q = eval_log(up, n - 1, x)
            assert q.sign * math.copysign(1, c) == want_sign, (n, x)
            assert abs(q.log_abs + math.log(abs(c)) - want_log) <= 1e-13 * max(1.0, abs(want_log))


# families with a finite end of exponent 0 (where d differs from sigma),
# and with positive, negative and mixed end exponents
_END_CASES = ((laguerre(0.0), 40), (jacobi(0.0, 2.5), 8), (jacobi(3.0, 0.0), 30),
              (gegenbauer(0.5), 60), (laguerre(2.5), 100), (jacobi(2.5, 1.5), 7),
              (gegenbauer(3.5), 30), (jacobi(-0.5, 0.3), 5), (gegenbauer(-0.25), 9))


@pytest.mark.parametrize("fam,n", _END_CASES,
                         ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_derivative_and_numerator_meet_mpmath_at_the_ends(fam, n):
    # at each finite end c and at distances 1e-300, 1e-12 and 1e-6 from it
    # (c itself where c +- t rounds to c): a structure relation
    # sigma p_n' = (.) p_n + (.) p_{n-1} cancels there, the raised family
    # does not
    import mpmath
    w = fam.weight
    for c, side in ((w.lo, 1.0), (w.hi, -1.0)):
        if not math.isfinite(c):
            continue
        for x in {c + side * t for t in (0.0, 1e-300, 1e-12, 1e-6)}:
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                dp = reference_derivative(fam, n, xm, mp_reference_value)
                two_d, r = reference_numerator_terms(fam, xm)
                big_n = two_d * dp + r * mp_reference_value(fam, n, xm)
                want_sign, want_log = int(mpmath.sign(big_n)), float(mpmath.log(abs(big_n)))
                dp = float(dp)
            got = eval_derivative(fam, n, x)
            assert math.copysign(1.0, got) == math.copysign(1.0, dp), (c, x)
            assert abs(got - dp) <= 1e-12 * abs(dp), (c, x)
            signs, log_abs = log_derivative_numerator_many(fam, n, [x])
            assert signs[0] == want_sign, (c, x)
            assert abs(log_abs[0] - want_log) <= 1e-13 * max(1.0, abs(want_log)), (c, x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_scalar_functions_of_x_reject_points_outside_the_domain(x):
    # p_n, ln|p_n| and p_n' gave NaN (or p_0' = 0) at x = +-inf or NaN, and
    # h'/h gave NaN there and a number outside the support, where
    # weight_log raises
    for fam in FAMILY_CONFIGS:
        for f in (eval_poly, eval_log, eval_derivative):
            for n in (0, 3):
                with pytest.raises(DomainError):
                    f(fam, n, x)
        with pytest.raises(DomainError):
            weight_log_derivative(fam, x)
    for fam, y in ((jacobi(2.5, 1.5), 3.0), (laguerre(1.0), -0.5), (gegenbauer(3.5), -1.5)):
        with pytest.raises(DomainError):
            weight_log(fam, y)
        with pytest.raises(DomainError):
            weight_log_derivative(fam, y)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_batched_functions_of_x_reject_points_that_are_not_finite(x):
    # eval_log_many(hermite(), 2, [nan]) and eval_log_many(laguerre(1.0), 3,
    # [-inf]) gave sign -9223372036854775808 with ln NaN, where the scalar
    # evaluators raise; one bad point among good ones is enough
    for fam in FAMILY_CONFIGS:
        for n in (0, 2, 3):
            for f in (eval_log_many, log_derivative_numerator_many):
                with pytest.raises(DomainError):
                    f(fam, n, [0.5, x])
        with pytest.raises(DomainError):
            eval_log_many([fam, fam], 2, np.array([0.5, x]), np.array([0, 1]))


def test_coefficients_known():
    assert coefficients(hermite(), 2).coeffs == (-2.0, 0.0, 4.0)
    a = 1.7
    assert coefficients(laguerre(a), 1).coeffs == (a + 1.0, -1.0)
    assert coefficients(hermite(), 0).coeffs == (1.0,)


def test_coefficients_degree_cap():
    with pytest.raises(DomainError):
        coefficients(hermite(), 61)


def test_derivatives():
    assert eval_derivative(hermite(), 2, 1.0) == pytest.approx(8.0)
    assert eval_derivative(laguerre(0.0), 1, 5.0) == -1.0
    for fam in FAMILY_CONFIGS:
        assert eval_derivative(fam, 0, 0.2) == 0.0
    # finite-difference cross-check
    h = 1e-6
    for fam in FAMILY_CONFIGS:
        for n in (1, 3, 6):
            x = 0.37
            fd = (eval_poly(fam, n, x + h) - eval_poly(fam, n, x - h)) / (2 * h)
            assert eval_derivative(fam, n, x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_norm_constants():
    assert norm_constant_log(hermite(), 2).to_float() == pytest.approx(
        8.0 * math.sqrt(math.pi), rel=1e-14)
    assert norm_constant_log(laguerre(2.0), 1).to_float() == pytest.approx(6.0, rel=1e-14)
    assert norm_constant_log(gegenbauer(1.0), 0).to_float() == pytest.approx(
        math.pi / 2.0, rel=1e-14)


@pytest.mark.parametrize("fam", [jacobi(-0.7, -0.6), gegenbauer(-0.25)],
                         ids=lambda fam: fam.label())
def test_norm_constants_near_the_parameter_limits(fam):
    # a + b + 1 <= 0 at n = 0, and lambda in (-1/2, 0) at every n
    for n in range(4):
        want = unweighted_norm_quad(fam, n, 2.0).log_value
        assert abs(norm_constant_log(fam, n).log_abs - want) < 1e-11, n


def _mp_kappa_log(fam, n):
    """ln kappa_n from its closed form, in mpmath at the caller's precision."""
    import mpmath
    f = mpmath.mpf
    if fam.kind == "hermite":
        return mpmath.log(mpmath.sqrt(mpmath.pi) * 2 ** n * mpmath.factorial(n))
    if fam.kind == "laguerre":
        return mpmath.loggamma(n + f(fam.alpha) + 1) - mpmath.loggamma(n + 1)
    if fam.kind == "jacobi":
        a, b = f(fam.alpha), f(fam.beta)
        return mpmath.log(2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                          / ((2 * n + a + b + 1) * mpmath.gamma(n + a + b + 1)
                             * mpmath.factorial(n)))
    lam = f(fam.lam)
    return mpmath.log(mpmath.pi * 2 ** (1 - 2 * lam) * mpmath.gamma(n + 2 * lam)
                      / (mpmath.factorial(n) * (n + lam) * mpmath.gamma(lam) ** 2))


_NEAR = -1.0 + 1.234567e-9


@pytest.mark.parametrize("fam, n", [
    (hermite(), 0), (hermite(), 1000), (hermite(), 3000),
    (laguerre(2.0), 60), (laguerre(0.5), 3000), (laguerre(1e4), 2), (laguerre(_NEAR), 50),
    (jacobi(2.5, 1.5), 500), (jacobi(1e4, 1e4), 1000), (jacobi(_NEAR, _NEAR), 50),
    (jacobi(-0.7, -0.6), 0), (jacobi(-0.7, -0.6), 5),
    (gegenbauer(1e-8), 50), (gegenbauer(-1e-8), 50), (gegenbauer(1e4), 1000),
    (gegenbauer(1e-200), 3),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_norm_constant_meets_mpmath(fam, n):
    # ln kappa_n sums the logs of the rows: ungrouped rows missed by 5e-9 at
    # Gegenbauer(1e-8), and one log of C_1 A_0 = 2e-400 fails at Gegenbauer(1e-200)
    import mpmath
    with mpmath.workdps(40):
        want = _mp_kappa_log(fam, n)
    assert abs(norm_constant_log(fam, n).log_abs - float(want)) <= norm_constant_log_error(fam, n)


def test_weight_log():
    v = weight_log(hermite(), 2.0)
    assert (v.sign, v.log_abs) == (1, -4.0)
    v = weight_log(laguerre(3.0), 1.0)
    assert v.log_abs == pytest.approx(-1.0)
    v = weight_log(jacobi(1.0, 2.0), 0.0)
    assert (v.sign, v.log_abs) == (1, 0.0)
    with pytest.raises(SingularEvaluation):
        weight_log(jacobi(-0.5, 0.0), 1.0)


def test_weight_log_derivative():
    assert weight_log_derivative(hermite(), 3.0) == -6.0
    assert weight_log_derivative(laguerre(2.0), 2.0) == 0.0
    assert weight_log_derivative(jacobi(1.0, 1.0), 0.0) == 0.0
    with pytest.raises(SingularEvaluation):
        weight_log_derivative(laguerre(2.0), 0.0)
    with pytest.raises(SingularEvaluation):
        weight_log_derivative(jacobi(1.0, 1.0), 1.0)


def test_family_pickles_after_weight_use():
    import pickle
    for fam in FAMILY_CONFIGS:
        weight_log(fam, 0.5)  # fills the cached weight description
        assert pickle.loads(pickle.dumps(fam)) == fam


def test_family_domain_validation():
    with pytest.raises(DomainError):
        laguerre(-1.0)
    with pytest.raises(DomainError):
        jacobi(-1.5, 0.0)
    with pytest.raises(DomainError):
        gegenbauer(0.0)
    with pytest.raises(DomainError):
        gegenbauer(-0.6)
    for kind, params in (("laguerre", {"alpha": 1.0, "lam": 2.0}), ("hermite", {"beta": 1.0}),
                         ("jacobi", {"alpha": 1.0}), ("legendre", {})):
        with pytest.raises(DomainError):  # a foreign, a missing or no family at all
            PolynomialFamily(kind, **params)


def test_labels_and_params():
    fams = (hermite(), laguerre(2.5), jacobi(1.0, -0.5), gegenbauer(1.75))
    assert [f.label() for f in fams] == [
        "hermite", "laguerre(alpha=2.5)", "jacobi(alpha=1,beta=-0.5)", "gegenbauer(lambda=1.75)"]
    assert [f.params for f in fams] == [(), (2.5,), (1.0, -0.5), (1.75,)]
    assert [FAMILY_PARAMS[f.kind] for f in fams] == [(), ("alpha",), ("alpha", "beta"), ("lambda",)]


def test_jacobi_endpoint_values():
    # |P_n(-1)| = (beta+1)_n / n!,  |P_n(1)| = (alpha+1)_n / n!
    for a, b, n in ((1.5, 0.5, 4), (0.0, 2.0, 3), (2.5, 1.5, 6)):
        fam = jacobi(a, b)
        want_p = math.exp(log_gamma(a + n + 1) - log_gamma(a + 1) - log_gamma(n + 1.0))
        want_m = math.exp(log_gamma(b + n + 1) - log_gamma(b + 1) - log_gamma(n + 1.0))
        assert abs(eval_poly(fam, n, 1.0)) == pytest.approx(want_p, rel=1e-12)
        assert abs(eval_poly(fam, n, -1.0)) == pytest.approx(want_m, rel=1e-12)


def test_gegenbauer_jacobi_bridge():
    rng = random.Random(3)
    for lam in (0.75, 1.0, 3.5):
        gfam = gegenbauer(lam)
        jfam = jacobi(lam - 0.5, lam - 0.5)
        for n in (0, 1, 4, 7, 10):
            c = math.exp(gegenbauer_jacobi_factor_log(n, lam))
            for _ in range(20):
                x = rng.uniform(-0.99, 0.99)
                assert eval_poly(gfam, n, x) == pytest.approx(
                    c * eval_poly(jfam, n, x), rel=1e-10, abs=1e-12)


def test_polynomial_zeros():
    zs = polynomial_zeros(hermite(), 3)
    assert len(zs) == 3
    assert zs[1] == pytest.approx(0.0, abs=1e-12)
    assert zs[2] == pytest.approx(math.sqrt(1.5), rel=1e-12)
    zs.clear()  # a fresh list each call, whatever the cache holds
    assert len(polynomial_zeros(hermite(), 3)) == 3
    for fam in FAMILY_CONFIGS + (laguerre(1e4), jacobi(1e4, 0.5)):
        for n in (1, 6, 12, 64, 200):
            zs = polynomial_zeros(fam, n)
            assert len(zs) == n
            assert zs == sorted(zs)
            lo, hi = fam.support
            for z in zs:
                assert lo < z < hi
                # each zero is a sign change of a simple root
                near = reference_value(fam, n, z - 1e-4)
                if math.isfinite(near):  # beyond double range at n = 200, parameter 1e4
                    assert abs(reference_value(fam, n, z)) < 1e-6 * max(abs(near), 1.0)
                # and lies within 1e-10 relative of one (log space)
                h = 1e-10 * max(1.0, abs(z))
                assert eval_log(fam, n, z - h).sign * eval_log(fam, n, z + h).sign == -1


def _mp_root(fam, n, z):
    """The zero of p_n next to z: Newton steps from z on the exact rows, in
    mpmath at 45 digits, until a step is below 1e-40 relative."""
    import mpmath
    with mpmath.workdps(45):
        rows = [tuple(mpmath.mpf(v.numerator) / v.denominator for v in row)
                for row in families._rows(fam, n, Fraction)]
        x = mpmath.mpf(z)
        for _ in range(8):
            p0, p1, d0, d1 = 0, 1, 0, 0
            for A, B, C in rows:
                t = A * x + B
                p0, p1, d0, d1 = p1, t * p1 - C * p0, d1, A * p1 + t * d1 - C * d0
            step = p1 / d1
            x -= step
            if abs(step) < mpmath.mpf(10) ** -40 * max(1, abs(x)):
                return x
    raise AssertionError(f"no root next to {z}")


@pytest.mark.parametrize("fam", [hermite(), laguerre(1.25), laguerre(1e4), jacobi(2.5, 1.5),
                                 jacobi(1e4, 0.5), gegenbauer(-0.25), gegenbauer(3.5)],
                         ids=lambda fam: fam.label())
def test_zeros_meet_mpmath_roots(fam):
    # the eigenvalues need no Newton step on the float recurrence
    for n in (7, 200):
        zs = polynomial_zeros(fam, n)
        for i in (0, n // 2, n - 1):
            assert abs(zs[i] - float(_mp_root(fam, n, zs[i]))) <= 2e-14 * max(1.0, abs(zs[i]))


def _rising(a, k):
    """The Pochhammer symbol (a)_k."""
    return math.prod((a + j for j in range(k)), start=Fraction(1))


@pytest.mark.parametrize("fam", [hermite(), laguerre(0.0), laguerre(2.5), laguerre(-0.5),
                                 jacobi(2.5, 1.5), jacobi(-0.7, -0.6), gegenbauer(1.75),
                                 gegenbauer(0.25), gegenbauer(-0.25)], ids=lambda f: f.label())
def test_moment_ratios_exact_identities(fam):
    # the moments derived from the weight by Pearson's equation meet the
    # classical closed forms as exact rationals
    r = moment_ratios(fam, 12)
    assert len(r) == 13 and r[0] == 1
    if fam.kind == "hermite":  # r_2k = (2k - 1)!! / 2^k
        assert r[1::2] == [0] * 6
        assert r[0::2] == [Fraction(math.prod(range(1, 2 * k, 2)), 2 ** k) for k in range(7)]
    elif fam.kind == "laguerre":  # r_t = (alpha + 1)_t
        assert r == [_rising(Fraction(fam.alpha) + 1, t) for t in range(13)]
    elif fam.kind == "gegenbauer":  # r_2k = (1/2)_k / (lambda + 1)_k; lambda - 1/2 is exact here
        half, lam = Fraction(1, 2), Fraction(fam.lam)
        assert r[1::2] == [0] * 6
        assert r[0::2] == [_rising(half, k) / _rising(lam + 1, k) for k in range(7)]
    else:  # r_1 = (beta - alpha) / (alpha + beta + 2)
        a, b = Fraction(fam.alpha), Fraction(fam.beta)
        assert r[1] == (b - a) / (a + b + 2)


@pytest.mark.parametrize("n", [0, 1, 5, 40, 300])
def test_hermite_fisher_peaks_are_the_zeros_and_the_turning_points(n):
    # M = 4 (x^2 - 2n - 1) H_n: the Newton step from each zero is 0, and the
    # two end gaps peak at +-sqrt(2n + 1)
    tops, knots, g1, g2 = numerator_peaks(hermite(), n)
    turn = math.sqrt(2 * n + 1)
    assert tops[0] == pytest.approx(-turn, rel=1e-12) and tops[-1] == pytest.approx(turn, rel=1e-12)
    assert np.array_equal(tops[1:-1], np.array(polynomial_zeros(hermite(), n)))
    assert (g1 == 0.0).all() and (g2 < 0.0).all()


def _fisher_log(fam, n, x, side):
    """ln(h N^2/d^2) at x, without the power of h/d^2 at the end on side
    (-1 lower, 1 upper, 0 neither) where that power is a pole."""
    w = fam.weight
    g = 2.0 * log_derivative_numerator_many(fam, n, x)[1] + weight_log_many(fam, x)
    for end, e, dist in ((-1, w.e_lo, x - w.lo), (1, w.e_hi, w.hi - x)):
        if e != 0.0:  # d^2, and h's power too at the pole
            g = g - (e if end == side and e < 2.0 else 2.0) * np.log(dist)
    return g


@pytest.mark.parametrize("fam", [laguerre(0.0), laguerre(1.5), laguerre(2.0), laguerre(2.5),
                                 laguerre(1000.0), jacobi(2.5, 1.5), jacobi(2.0, 1.25),
                                 jacobi(3.0, 0.0), jacobi(0.0, 3.0), jacobi(100.0, 2.0),
                                 jacobi(1e4, 1.5),
                                 gegenbauer(1.75), gegenbauer(1e4), laguerre(1.0001)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_fisher_peaks_meet_a_fine_grid(fam, n):
    # each gap between the knots (the critical points of the density) peaks
    # within 0.2 sigma of the best of 20,001 points of ln(rho'^2/rho): one
    # Newton step from its zero of p_n, a bracketed Newton in the end gaps,
    # or the end itself where g rises toward it (at a pole, g without its power)
    tops, knots, g1, g2 = numerator_peaks(fam, n)
    w = fam.weight
    lo, hi = np.concatenate(([w.lo], knots)), np.concatenate((knots, [w.hi]))
    for i in np.flatnonzero(hi > lo):
        sigma = 1.0 / (abs(g1[i]) + math.sqrt(-g2[i]))
        a = lo[i] if math.isfinite(lo[i]) else hi[i] - 80.0 * sigma
        b = hi[i] if math.isfinite(hi[i]) else lo[i] + 80.0 * sigma
        xs = np.linspace(a, b, 20001)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _fisher_log(fam, n, xs, -1 if i == 0 else 1 if i == n + 1 else 0)
        best = xs[np.nanargmax(np.where(np.isfinite(g), g, -np.inf))]
        assert lo[i] <= tops[i] <= hi[i]
        assert abs(tops[i] - best) <= 0.2 * sigma + (b - a) / 20000


def test_flat_fisher_integrands_have_no_peaks():
    # Legendre p_0: N = 0, rho'^2/rho vanishes everywhere
    assert numerator_peaks(jacobi(0.0, 0.0), 0) is None
    assert numerator_peaks(gegenbauer(0.5), 0) is None


@pytest.mark.parametrize("fam", [jacobi(-0.5, 0.3), jacobi(-0.9, -0.9), laguerre(-0.5),
                                 gegenbauer(0.25)], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [0, 1, 5, 12])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 20.0])
def test_pole_peaks_meet_a_fine_grid(fam, n, ratio):
    # a weight with a pole: each gap between the knots (the zeros of p_n)
    # peaks within 0.2 sigma of the best of 20,001 points of
    # g = ln|p_n| + ratio ln h without the power of a pole at the gap's end;
    # Newton steps from the eigenproblem without the poles, bisected where g
    # is not concave, or the gap's end
    tops, knots, g1, g2 = basis_peaks(fam, n, ratio)
    w = fam.weight
    lo, hi = np.concatenate(([w.lo], knots)), np.concatenate((knots, [w.hi]))
    assert tops.size == lo.size
    for i in range(tops.size):
        assert lo[i] <= tops[i] <= hi[i]
        den = abs(g1[i]) + math.sqrt(max(-g2[i], 0.0))
        if den == 0.0:  # g is flat: at n = 0 between two poles, both powers left out
            assert np.ptp(eval_log_many(fam, n, np.linspace(lo[i], hi[i], 9)[1:-1])[1]) == 0.0
            continue
        sigma = 1.0 / den
        a = lo[i] if math.isfinite(lo[i]) else tops[i] - 80.0 * sigma
        b = hi[i] if math.isfinite(hi[i]) else tops[i] + 80.0 * sigma
        xs = np.linspace(a, b, 20001)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = eval_log_many(fam, n, xs)[1] + ratio * weight_log_many(fam, xs)
            for c, end, e, dist in ((w.lo, lo[i], w.e_lo, xs - w.lo),
                                    (w.hi, hi[i], w.e_hi, w.hi - xs)):
                if e < 0.0 and end == c:  # the pole beside the gap
                    g = g - ratio * e * np.log(dist)
        best = xs[np.argmax(np.where(np.isfinite(g), g, -np.inf))]
        assert abs(tops[i] - best) <= 0.2 * sigma + (b - a) / 20000


def test_peak_tables_run_no_recurrence(monkeypatch):
    # the zeros and the critical points are eigenvalues of the rows, and
    # g' and g'' of every peak table are sums over the zeros of p_n or of N:
    # cold tables, zeros included, run no recurrence, in the pole rule's
    # Newton steps and Fisher's neither
    bases = [(fam, n, ratio) for fam in (jacobi(-0.5, 0.3), laguerre(-0.5), gegenbauer(0.25))
             for n in (1, 5) for ratio in (0.5, 20.0)]
    fishers = [(laguerre(1.5), 5), (jacobi(2.0, 1.25), 1), (gegenbauer(1.75), 5)]
    for cached in (families._zeros, families.critical_points, basis_peaks, numerator_peaks):
        cached.cache_clear()

    def recurrence(*args, **kwargs):
        raise AssertionError("a peak table ran the recurrence")

    monkeypatch.setattr(families, "_eval_many", recurrence)
    for args in bases:
        assert basis_peaks(*args) is not None
    for args in fishers:
        assert numerator_peaks(*args) is not None


_ZERO_SUM_FAMILIES = [hermite(), laguerre(1.5), laguerre(-0.5), jacobi(2.5, 1.5),
                      jacobi(-0.5, 0.3), gegenbauer(0.75), gegenbauer(-0.25)]


@pytest.mark.parametrize("fam", _ZERO_SUM_FAMILIES, ids=lambda fam: fam.label())
@pytest.mark.parametrize("n", [0, 1, 5, 40, 300, 1000])
def test_log_abs_by_zeros_meets_the_recurrence_at_the_peaks(fam, n):
    # ln|p_n| = ln|k_n| + sum ln|x - x_k| where the quadrature takes its
    # peak values: at the basis_peaks tops, one ulp inside a finite end
    # (where a top on it is taken), and beyond the outer zeros along an
    # infinite end, where the tail probes lie.  Between the outer zero and
    # a finite end, the sum's rounding grows like dx_k/|x - x_k| over the
    # clustered zeros: at Jacobi(-0.5, 0.3), n = 1000, 9.2e-7 below x = 1
    # it misses mpmath by 6.2e-10 in ln, the recurrence by 1.6e-10
    tops, zeros = basis_peaks(fam, n, 0.5)[:2]
    lo, hi = fam.support
    outer = [zeros[0] if n else 0.0, zeros[-1] if n else 0.0]
    reach = (outer[1] - outer[0]) + 1.0
    beyond = [np.nextafter(end, x) if math.isfinite(end) else x + side * f * reach
              for x, end, side in ((outer[0], lo, -1.0), (outer[1], hi, 1.0))
              for f in ((1.0,) if math.isfinite(end) else (0.25, 1.0, 4.0, 16.0))]
    xs = np.concatenate([tops, beyond])
    want = eval_log_many(fam, n, xs)[1]
    got = families.log_abs_by_zeros(fam, n, xs)
    assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))
    assert got.shape == xs.shape
    with pytest.raises(DomainError):
        families.log_abs_by_zeros(fam, n, [0.5, math.inf])


def test_log_abs_by_zeros_over_families_matches_each_family_alone():
    # with ``at``, each point gathers the zeros and ln|k_n| of its own
    # family, and gets the bits that family alone gives it
    fams = [gegenbauer(0.75), gegenbauer(-0.25), gegenbauer(10.0)]
    xs = np.linspace(-0.99, 0.99, 31).reshape(31, 1)
    at = np.arange(31).reshape(31, 1) % 3
    got = families.log_abs_by_zeros(fams, 7, xs, at)
    assert got.shape == xs.shape
    for k, fam in enumerate(fams):
        rows = at == k
        assert np.array_equal(got[rows], families.log_abs_by_zeros(fam, 7, xs[rows]))


def test_sums_over_zeros_stay_in_blocks_at_large_degree(monkeypatch):
    # at n = 3000, 200 points would make one array of 600,000 differences:
    # every block holds at most _SUM_BLOCK, and the blocks give each point
    # the sum of its own row
    n, blocks = 3000, []
    differences = families._differences

    def counted(*args):
        for rows, u in differences(*args):
            blocks.append(u.size)
            yield rows, u

    monkeypatch.setattr(families, "_differences", counted)
    fams = [jacobi(2.5, 1.5), jacobi(-0.5, 0.3)]
    xs = np.linspace(-0.999, 0.999, 200)
    at = np.arange(200) % 2
    for fam, points, which in ((hermite(), 60.0 * xs, None), (fams, xs, at)):
        got = families.log_abs_by_zeros(fam, n, points, which)
        for k, f in enumerate([fam] if which is None else fam):
            rows = slice(None) if which is None else which == k
            lead = math.fsum(math.log(abs(A)) for A, _, _ in families._recurrence(f, n))
            zeros = np.array(families.polynomial_zeros(f, n))
            want = lead + np.log(np.abs(points[rows, None] - zeros)).sum(axis=1)
            assert np.array_equal(got[rows], want)
    assert len(blocks) > 2 and max(blocks) <= families._SUM_BLOCK


def test_peak_tables_stay_small_at_large_degree():
    # the sums over the zeros run over blocks of points: at n = 1000 one
    # n x n array of them would hold 8 MB
    numerator_peaks(hermite(), 1000)  # warms the zeros and the critical points
    basis_peaks.cache_clear()
    numerator_peaks.cache_clear()
    tracemalloc.start()
    try:
        numerator_peaks(hermite(), 1000)
        basis_peaks(hermite(), 1000, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
