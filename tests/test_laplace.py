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
    # n=0 exact for every q
    for q in (3.0, 47.0):
        r = weighted_norm_q_asym(hermite(), 0, q)
        assert r.to_float() == pytest.approx(math.sqrt(math.pi / q), rel=1e-13)
    # n=1: 2^{2q+1} e^{-q} sqrt(pi/2q);  n=2: 2^{6q+1} e^{-5q/2} sqrt(2pi/5q)
    q = 31.0
    r = weighted_norm_q_asym(hermite(), 1, q)
    want = (2 * q + 1) * math.log(2.0) - q + 0.5 * (math.log(math.pi) - math.log(2 * q))
    assert r.value.log_abs == pytest.approx(want, abs=1e-12)
    r = weighted_norm_q_asym(hermite(), 2, q)
    want = (6 * q + 1) * math.log(2.0) - 2.5 * q + 0.5 * (math.log(2 * math.pi) - math.log(5 * q))
    assert r.value.log_abs == pytest.approx(want, abs=1e-12)


def test_jacobi_n0_closed_form():
    a, b, q = 2.0, 0.5, 19.0
    r = weighted_norm_q_asym(jacobi(a, b), 0, q)
    want = (q * (a + b) * math.log(2.0) + a * q * math.log(a / (a + b))
            + b * q * math.log(b / (a + b))
            + 0.5 * math.log(8 * math.pi * a * b / (q * (a + b) ** 3)))
    assert r.value.log_abs == pytest.approx(want, abs=1e-12)


def test_weighted_convergence_rate():
    for fam, n in ((hermite(), 1), (jacobi(1.5, 2.5), 0), (laguerre(3.0), 1),
                   (gegenbauer(2.0), 1), (laguerre(0.5), 11)):
        errs = []
        for q in (25.0, 50.0, 100.0, 200.0):
            wq = weighted_norm_quad(fam, n, q).value.log_abs
            wa = weighted_norm_q_asym(fam, n, q).value.log_abs
            errs.append(log_ratio_err(wq, wa))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        assert errs[-1] < 0.01


def test_unweighted_jacobi_formula_value():
    # (n=1, a=1, b=0): leading term 2^q (16/9) q^{-2}
    q = 150.0
    r = unweighted_norm_q_asym_jacobi(1, 1.0, 0.0, q)
    want = q * math.log(2.0) + math.log(16.0 / 9.0) - 2.0 * math.log(q)
    assert r.value.log_abs == pytest.approx(want, abs=1e-12)


def test_unweighted_jacobi_converges():
    for n, a, b in ((1, 1.0, 0.0), (2, 0.0, 0.5)):
        errs = []
        for q in (50.0, 100.0, 200.0, 400.0):
            nq = unweighted_norm_quad(jacobi(a, b), n, q).value.log_abs
            na = unweighted_norm_q_asym_jacobi(n, a, b, q).value.log_abs
            errs.append(log_ratio_err(nq, na))
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_legendre_tie_doubling():
    for q in (50.0, 100.0, 400.0):
        asym = unweighted_norm_q_asym_jacobi(1, 0.0, 0.0, q).to_float()
        exact = 2.0 / (q + 1.0)
        assert abs(asym - exact) / exact <= 2.0 / q


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
