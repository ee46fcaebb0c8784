import math

import numpy as np
import pytest

from hopnorms.errors import DomainError, UnsupportedAsymptotics
from hopnorms.families import (eval_log, eval_log_many, gegenbauer, hermite, jacobi, laguerre,
                               log_derivative_numerator_many, polynomial_zeros, weight_log,
                               weight_log_many)
from hopnorms.laplace import (locate_density_maximum, unweighted_norm_q_asym,
                              unweighted_norm_q_asym_jacobi, weighted_norm_q_asym)
from hopnorms.norms import unweighted_norm_quad, weighted_norm_quad
from hopnorms.validate import LAPLACE_CLOSED_FORMS, evaluate

from .helpers import log_ratio_err


def f_value(fam, n, x):
    return weight_log(fam, x).log_abs + 2.0 * eval_log(fam, n, x).log_abs


def family_id(v):
    return v.label() if hasattr(v, "label") else None


def test_maximizer_examples():
    pt = locate_density_maximum(laguerre(4.0), 0)
    assert pt.x0 == pytest.approx(4.0, rel=1e-13)
    assert pt.multiplicity == 1

    pt = locate_density_maximum(hermite(), 1)
    assert pt.x0 == pytest.approx(1.0, rel=1e-13)
    assert pt.multiplicity == 2
    assert pt.maximizers == pytest.approx((-1.0, 1.0))

    for a, b in ((1.5, 2.5), (1e3, 2.5)):
        pt = locate_density_maximum(jacobi(a, b), 0)
        assert pt.x0 == pytest.approx((b - a) / (a + b), rel=1e-12)
        assert pt.f2_at_x0 == pytest.approx(-(a + b) ** 3 / (4 * a * b), rel=1e-12)


def test_maximizer_cache_holds_a_hundred_keys():
    # one q-sweep pass asks for ~70 (family, n) keys; a second pass over a
    # hundred distinct keys must find every one cached
    keys = [(laguerre(1.0 + j), n) for j in range(20) for n in range(5)]
    locate_density_maximum.cache_clear()
    for key in keys:
        locate_density_maximum(*key)
    hits = locate_density_maximum.cache_info().hits
    for key in keys:
        locate_density_maximum(*key)
    assert locate_density_maximum.cache_info().hits - hits == 100


def test_laguerre_n1_closed_forms():
    for a in (1.0, 3.0, 11.0, 1e3, 1e4):
        pt = locate_density_maximum(laguerre(a), 1)
        s = math.sqrt(8 * a + 9)
        assert pt.x0 == pytest.approx(0.5 * (2 * a + 3 - s), rel=1e-12)
        assert pt.f2_at_x0 == pytest.approx((3 * s - 8 * a - 9) / (s - 2 * a - 3) ** 2,
                                            rel=1e-12)


def test_laguerre_maximum_left_of_first_zero():
    # the global maximum of x^0.5 e^-x L_5^(0.5)(x)^2 lies in (0, first zero)
    fam, n = laguerre(0.5), 5
    pt = locate_density_maximum(fam, n)
    z1 = polynomial_zeros(fam, n)[0]
    assert z1 == pytest.approx(0.4314, abs=1e-4)
    assert 0.0 < pt.x0 < z1
    assert pt.x0 == pytest.approx(0.05915, abs=1e-5)
    assert pt.f_at_x0 == pytest.approx(0.10222, abs=1e-5)
    grid = [1e-3 * j for j in range(1, 40001)]
    assert pt.f_at_x0 >= max(f_value(fam, n, x) for x in grid if eval_log(fam, n, x).sign)


@pytest.mark.parametrize("fam,n,lo,hi", [
    (laguerre(0.5), 11, 0.0, 60.0), (laguerre(1.0), 20, 0.0, 100.0),
    (jacobi(1000.0, 2.0), 1, -1.0, 1.0), (gegenbauer(1000.0), 4, -1.0, 1.0)],
    ids=family_id)
def test_maximum_beats_a_dense_grid(fam, n, lo, hi):
    # narrow maxima next to an endpoint or between close zeros, which a
    # coarse scan of the support steps over
    pt = locate_density_maximum(fam, n)
    grid = np.linspace(lo, hi, 200_001)[1:-1]
    with np.errstate(divide="ignore"):
        f = weight_log_many(fam, grid) + 2.0 * eval_log_many(fam, n, grid)[1]
    assert pt.f_at_x0 >= f.max() - 1e-12 * abs(pt.f_at_x0)
    assert pt.f_at_x0 == pytest.approx(f_value(fam, n, pt.x0), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("fam,n", [
    (laguerre(1e4), 1), (jacobi(1000.0, 2.0), 0), (gegenbauer(1000.0), 1)],
    ids=family_id)
def test_maximizers_are_sign_changes_of_the_numerator(fam, n):
    pt = locate_density_maximum(fam, n)
    for x in pt.maximizers:
        dx = 1e-9 * (1.0 + abs(x))
        left, right = log_derivative_numerator_many(fam, n, [x - dx, x + dx])[0]
        assert left * right == -1


def test_stationarity_residual():
    from hopnorms.families import eval_derivative, eval_poly, weight_log_derivative
    for fam, n in ((hermite(), 3), (laguerre(2.5), 2), (jacobi(1.5, 2.5), 2),
                   (gegenbauer(3.5), 3)):
        pt = locate_density_maximum(fam, n)
        for x in pt.maximizers:
            ratio = eval_derivative(fam, n, x) / eval_poly(fam, n, x)
            resid = ratio + 0.5 * weight_log_derivative(fam, x)
            assert abs(resid) <= 1e-10


def test_symmetric_maximizer_sets():
    for fam, n in ((hermite(), 2), (hermite(), 5), (jacobi(2.0, 2.0), 3),
                   (gegenbauer(3.5), 4)):
        pt = locate_density_maximum(fam, n)
        flipped = sorted(-x for x in pt.maximizers)
        assert flipped == pytest.approx(list(pt.maximizers), abs=1e-9)


def test_second_derivative_matches_finite_differences():
    h = 1e-5
    for fam, n in ((hermite(), 2), (laguerre(2.5), 1), (jacobi(1.5, 2.5), 1),
                   (jacobi(0.7, 3.2), 2), (gegenbauer(3.5), 2)):
        pt = locate_density_maximum(fam, n)
        x = pt.x0
        fd = (f_value(fam, n, x + h) - 2 * f_value(fam, n, x) + f_value(fam, n, x - h)) / h ** 2
        assert pt.f2_at_x0 == pytest.approx(fd, rel=1e-4)


def test_hermite_closed_form_values():
    # n=0: sqrt(pi/q), exact for every q; n=1: 2^{2q+1} e^{-q} sqrt(pi/2q);
    # n=2: 2^{6q+1} e^{-5q/2} sqrt(2pi/5q)
    for n, q, tol in ((0, 3.0, 1e-13), (0, 47.0, 1e-13), (1, 31.0, 1e-12), (2, 31.0, 1e-12)):
        fam, _, form = LAPLACE_CLOSED_FORMS[f"hermite-n{n}"]
        r = weighted_norm_q_asym(fam, n, q)
        assert r.value.log_abs == pytest.approx(form(fam, q), abs=tol)


def test_jacobi_n0_closed_form():
    form = LAPLACE_CLOSED_FORMS["jacobi-n0"][2]
    r = weighted_norm_q_asym(jacobi(2.0, 0.5), 0, 19.0)
    assert r.value.log_abs == pytest.approx(form(jacobi(2.0, 0.5), 19.0), abs=1e-12)


@pytest.mark.parametrize("q", [1e10, 1e14])
def test_claim_covers_f_at_x0_next_to_the_ends(q):
    # f(0) = 0 exactly; forming 1 -+ x0 before its log gave f(x0) = -1.4e-16,
    # which q multiplies: ln W was off by 1.4e-6 at q = 1e10 claiming 1e-10
    import mpmath
    res = weighted_norm_q_asym(gegenbauer(1.75), 0, q)
    with mpmath.workdps(40):  # W_q = B(1/2, 1.25 q + 1)
        want = float(mpmath.log(mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(1.25) * q + 1)))
    assert abs(res.log_value - want) <= res.error_estimate


def test_claim_covers_q_times_the_rounding_of_f_at_x0():
    # f(x0) sums terms of size ~10 that each round; at q = 1e12 its 2e-15
    # miss is 2e-3 in ln W, far above the 1/q of the leading term
    import mpmath
    a, b, n, q = 40.0, 30.0, 5, 1e12
    pt = locate_density_maximum(jacobi(a, b), n)
    res = weighted_norm_q_asym(jacobi(a, b), n, q)
    with mpmath.workdps(40):
        def f(x):
            return a * mpmath.log(1 - x) + b * mpmath.log(1 + x) \
                + 2 * mpmath.log(abs(mpmath.jacobi(n, a, b, x)))
        x0 = mpmath.findroot(lambda x: mpmath.diff(f, x), mpmath.mpf(pt.x0))
        f0 = f(x0)
        want = q * f0 + mpmath.log(2 * mpmath.pi / (q * -mpmath.diff(f, x0, 2))) / 2
        f_miss, miss = float(abs(f0 - pt.f_at_x0)), float(abs(res.log_value - want))
    assert 0.0 < f_miss <= pt.f_error
    assert miss <= res.error_estimate - 1.0 / q


def test_weighted_convergence_rate():
    # three rows of the q table are records of validate.CASES; Gegenbauer(2)
    # n = 1 and Laguerre(0.5) n = 11 are this test's own
    grids = [[(wq, wa) for q, wq, wa in evaluate(case) if q <= 200.0]
             for case in ("laplace-rate-hermite-n1", "laplace-rate-jacobi-n0",
                          "weighted-laguerre-a3-n1")]
    grids += [[(weighted_norm_quad(fam, n, q).value.log_abs,
                weighted_norm_q_asym(fam, n, q).value.log_abs) for q in (25.0, 50.0, 100.0, 200.0)]
              for fam, n in ((gegenbauer(2.0), 1), (laguerre(0.5), 11))]
    for rows in grids:
        errs = [log_ratio_err(wq, wa) for wq, wa in rows]
        assert len(errs) == 4
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        assert errs[-1] < 0.01


def test_unweighted_jacobi_formula_value():
    # (n=1, a=1, b=0): leading term 2^q (16/9) q^{-2}
    q = 150.0
    r = unweighted_norm_q_asym_jacobi(1, 1.0, 0.0, q)
    want = q * math.log(2.0) + math.log(16.0 / 9.0) - 2.0 * math.log(q)
    assert r.value.log_abs == pytest.approx(want, abs=1e-12)


def test_unweighted_jacobi_converges():
    for case in ("watson-rate-jacobi-110", "watson-rate-jacobi-2-0-05"):
        errs = [log_ratio_err(nq, na) for _, nq, na in evaluate(case)]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_legendre_tie_doubling():
    for q, exact, asym in evaluate("legendre-tie-doubling"):
        assert log_ratio_err(asym, exact) <= 2.0 / q


def test_gegenbauer_bridge_dispatch():
    lam, n, q = 2.0, 2, 80.0
    r = unweighted_norm_q_asym(gegenbauer(lam), n, q)
    nq = unweighted_norm_quad(gegenbauer(lam), n, q).value.log_abs
    assert log_ratio_err(nq, r.value.log_abs) < 0.2


def test_rejections():
    with pytest.raises(UnsupportedAsymptotics):
        unweighted_norm_q_asym(hermite(), 1, 10.0)
    with pytest.raises(UnsupportedAsymptotics):
        unweighted_norm_q_asym(laguerre(1.0), 1, 10.0)
    with pytest.raises(DomainError):
        unweighted_norm_q_asym_jacobi(0, 1.0, 0.0, 10.0)  # n = 0
    with pytest.raises(DomainError):
        locate_density_maximum(laguerre(0.0), 1)  # alpha = 0
    with pytest.raises(DomainError):
        locate_density_maximum(jacobi(0.0, 1.0), 1)
    with pytest.raises(DomainError):
        unweighted_norm_q_asym_jacobi(1, -0.8, -0.9, 10.0)  # max < -1/2
