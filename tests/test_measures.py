import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hopnorms import measures, quadrature
from hopnorms.errors import DomainError, NumericalFailure
from hopnorms.families import (gegenbauer, hermite, jacobi, laguerre,
                               norm_constant_log)
from hopnorms.measures import (DensityHandle, density_moment, fisher_information, fisher_integral,
                               fisher_renyi, fisher_shannon, functional_E,
                               functional_E_log, functional_I, functional_I_log, lmc_plain,
                               lmc_renyi, renyi_entropy, renyi_length, shannon_entropy,
                               shannon_from_Wq_derivative, shannon_length)
from hopnorms.norms import weighted_norm_quad
from hopnorms.special import digamma

from .helpers import FAMILY_CONFIGS, ONE_PER_FAMILY, beta_entropy

GAUSS = DensityHandle(hermite(), 0, normalized=True)


def test_gaussian_suite():
    assert shannon_entropy(GAUSS) == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-7)
    assert fisher_information(GAUSS) == pytest.approx(2.0, abs=1e-6)
    assert fisher_shannon(GAUSS) == pytest.approx(1.0, abs=1e-6)
    assert renyi_entropy(GAUSS, 2.0) == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-9)
    assert shannon_length(GAUSS) == pytest.approx(math.sqrt(math.pi * math.e), rel=1e-7)
    assert fisher_renyi(GAUSS, 2.0) == pytest.approx(
        2.0 * math.exp(math.log(2.0 * math.pi)) / (2 * math.pi * math.e), rel=1e-7)


def test_renyi_gegenbauer_example():
    # W_2 = (2/pi)^2 * 4/3 for the unit semicircle-like density (lam=1, n=0)
    d = DensityHandle(gegenbauer(1.0), 0, True)
    w2 = (2.0 / math.pi) ** 2 * (4.0 / 3.0)
    assert renyi_entropy(d, 2.0) == pytest.approx(-math.log(w2), abs=1e-9)
    assert renyi_length(d, 2.0) == pytest.approx(1.0 / w2, rel=1e-9)


def test_renyi_q_validation():
    with pytest.raises(DomainError):
        renyi_entropy(GAUSS, 1.0)
    with pytest.raises(DomainError):
        renyi_entropy(GAUSS, -2.0)


def test_renyi_monotone_and_limit():
    for fam in ONE_PER_FAMILY:
        d = DensityHandle(fam, 3, True)
        rs = [renyi_entropy(d, q) for q in (0.5, 1.5, 2.0, 3.0, 5.0)]
        assert all(rs[i] >= rs[i + 1] - 1e-12 for i in range(len(rs) - 1))
        s = shannon_entropy(d)
        assert abs(renyi_entropy(d, 1.001) - s) <= 1e-2
        assert abs(renyi_length(d, 1.001) - shannon_length(d)) <= 1e-2 * shannon_length(d)


def test_functional_E_examples():
    assert functional_E(hermite(), 0) == pytest.approx(0.0, abs=1e-12)
    want = -2.0 * math.sqrt(math.pi) * (digamma(1.5) + math.log(4.0))
    assert functional_E(hermite(), 1) == pytest.approx(want, rel=1e-9)


def test_functional_E_dual_method():
    for fam in FAMILY_CONFIGS:
        for n in (0, 1, 5):
            e1 = functional_E(fam, n, "quadrature")
            e2 = functional_E(fam, n, "qderivative")
            assert abs(e1 - e2) <= 1e-5 * max(abs(e1), abs(e2), 1e-3), (fam.label(), n)
    with pytest.raises(DomainError):
        functional_E(hermite(), 1, "bogus")


def test_functional_I_examples():
    assert functional_I(hermite(), 0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)
    # -int 4x^2 e^{-x^2} ln(e^{-x^2}) = 4 int x^4 e^{-x^2} = 3 sqrt(pi)
    assert functional_I(hermite(), 1) == pytest.approx(3.0 * math.sqrt(math.pi), rel=1e-10)
    for n in (0, 3, 7):
        assert functional_I(jacobi(0.0, 0.0), n) == 0.0


def test_shannon_decomposition():
    for fam in FAMILY_CONFIGS:
        for n in (0, 2, 5):
            kappa = norm_constant_log(fam, n).to_float()
            lhs = shannon_entropy(DensityHandle(fam, n, True))
            rhs = math.log(kappa) + (functional_E(fam, n) + functional_I(fam, n)) / kappa
            assert abs(lhs - rhs) <= 1e-7, (fam.label(), n)


def test_shannon_from_wq_derivative():
    for fam in ONE_PER_FAMILY:
        for n in (0, 2, 5):
            d = DensityHandle(fam, n, True)
            s1 = shannon_entropy(d)
            s2 = shannon_from_Wq_derivative(d)
            assert abs(s1 - s2) <= 1e-5 * max(abs(s1), 1e-3), (fam.label(), n)


def test_unnormalized_density_entropy():
    # S[rho_n] with mass kappa: consistent with the normalized value through
    # S[rho] = kappa (S[rho-hat] - ln kappa) ... direct identity check
    fam, n = laguerre(2.5), 2
    kappa = norm_constant_log(fam, n).to_float()
    s_hat = shannon_entropy(DensityHandle(fam, n, True))
    s_raw = shannon_entropy(DensityHandle(fam, n, False))
    assert s_raw == pytest.approx(kappa * (s_hat - math.log(kappa)), rel=1e-8)


def test_fisher_cross_checks():
    # H1 density: rho = 4x^2 e^{-x^2}/(2 sqrt(pi)); F = 6 by moment algebra
    assert fisher_information(DensityHandle(hermite(), 1, True)) == pytest.approx(6.0, rel=1e-9)
    # Hermite closed form F = 4n + 2; H_200 overflows doubles on the support
    assert fisher_information(DensityHandle(hermite(), 200, True)) == pytest.approx(802.0, rel=1e-9)
    with pytest.raises(DomainError):
        fisher_information(DensityHandle(hermite(), 1, False))


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.75, 5.0, 1.0001])
def test_fisher_claim_covers_the_laguerre_closed_form(alpha):
    # F = ((2n + 1) a + 1)/(a^2 - 1) (Dehesa, Sanchez-Moreno & Yanez 2006), in
    # 40 digits.  Sized at |g_core| alone, the claim missed at 12 of these 36
    # points, as Laguerre(2), n = 60 by 4.6e-14 claiming 1.1e-14: ln kappa_n,
    # a difference of log-gammas near 190, is itself off by 5e-14 there
    a = mpmath.mpf(alpha)
    for n in (5, 10, 20, 30, 40, 60):
        res = fisher_integral(DensityHandle(laguerre(alpha), n))
        with mpmath.workdps(40):
            exact = mpmath.log(((2 * n + 1) * a + 1) / (a * a - 1))
        assert abs(float(exact - res.log_abs)) <= res.rel_err


def test_fisher_divergence_rejection():
    for lam in (1.0, 1.5):  # endpoint exponent in (0, 1]: divergent
        with pytest.raises(DomainError):
            fisher_information(DensityHandle(gegenbauer(lam), 0, True))
    with pytest.raises(DomainError):
        fisher_information(DensityHandle(laguerre(0.5), 1, True))
    # endpoint exponent in (-1, 0): the integrand behaves like (x - end)^(a - 2)
    for fam, n in ((laguerre(-0.5), 0), (gegenbauer(0.25), 0), (jacobi(-0.5, 2.0), 0),
                   (jacobi(-0.5, 2.0), 1), (jacobi(-0.5, 2.0), 2)):
        with pytest.raises(DomainError):
            fisher_information(DensityHandle(fam, n, True))
    # exponent 0 (flat) and > 1 are fine
    fisher_information(DensityHandle(jacobi(0.0, 0.0), 1, True))
    fisher_information(DensityHandle(gegenbauer(3.5), 1, True))


def test_cramer_rao():
    for fam, n in ((hermite(), 2), (laguerre(2.5), 1), (jacobi(2.5, 1.5), 2)):
        d = DensityHandle(fam, n, True)
        m1 = density_moment(d, 1)
        var = density_moment(d, 2) - m1 * m1
        assert fisher_information(d) >= 1.0 / var


def test_complexity_bounds_and_composition():
    for fam in ONE_PER_FAMILY:
        for n in (0, 4, 10):
            d = DensityHandle(fam, n, True)
            assert lmc_plain(d) >= 1.0 - 1e-9
    d = DensityHandle(hermite(), 2, True)
    assert lmc_renyi(d, 2.0, 3.0) >= 1.0
    assert lmc_renyi(d, 2.0, 3.0) == pytest.approx(
        math.exp(renyi_entropy(d, 2.0) - renyi_entropy(d, 3.0)), rel=1e-12)
    with pytest.raises(DomainError):
        lmc_renyi(d, 3.0, 2.0)
    with pytest.raises(DomainError):
        lmc_renyi(d, 1.0, 2.0)


def test_lmc_plain_is_exp_s_times_w2():
    d = DensityHandle(laguerre(2.5), 3, True)
    want = math.exp(shannon_entropy(d)) * weighted_norm_quad(
        laguerre(2.5), 3, 2.0, normalized=True).to_float()
    assert lmc_plain(d) == pytest.approx(want, rel=1e-9)


def test_functional_E_log_extreme_parameters():
    # log-space route stays finite where floats overflow
    v = functional_E_log(laguerre(1000.0), 1)
    assert math.isfinite(v.log_abs)
    assert v.sign == -1  # ln L^2 > 0 dominates, E = -int ... < 0


def test_float_functionals_refuse_values_outside_float_range():
    # E and I of Laguerre(1000), n = 2 are about -e^5928 and -e^5934
    fam = laguerre(1000.0)
    assert math.isfinite(functional_E_log(fam, 2).log_abs)
    assert math.isfinite(functional_I_log(fam, 2).log_abs)
    with pytest.raises(NumericalFailure, match="functional_E_log"):
        functional_E(fam, 2)
    with pytest.raises(NumericalFailure, match="functional_I_log"):
        functional_I(fam, 2)


def test_shannon_of_the_chebyshev_third_kind_density():
    # rho-hat of P_n^(1/2, -1/2) has S = ln pi - 1 for every n (Dehesa,
    # Martinez-Finkelshtein & Sanchez-Ruiz 2001).  Its weight has a pole at
    # x = -1, where the substituted panel's x rounds to -1: phi must take
    # ln h from t, not from x, or S reads -inf
    for n in (0, 1, 2, 3, 4, 5, 20):
        s = shannon_entropy(DensityHandle(jacobi(0.5, -0.5), n))
        assert abs(s - (math.log(math.pi) - 1.0)) <= 1e-11, n


@pytest.mark.parametrize("fam", [jacobi(-0.5, -0.5), jacobi(-0.3, 0.2), jacobi(0.0, -0.5),
                                 gegenbauer(0.25)], ids=lambda f: f.label())
def test_shannon_at_an_endpoint_pole(fam):
    # every one of these read -inf; the q-derivative of W_q never
    # evaluates ln h and is the reference
    for n in (0, 1, 2, 5):
        d = DensityHandle(fam, n)
        assert shannon_entropy(d) == pytest.approx(shannon_from_Wq_derivative(d), abs=1e-10)
    if fam == jacobi(-0.5, -0.5):  # the arcsine density
        assert shannon_entropy(DensityHandle(fam, 0)) == pytest.approx(
            math.log(math.pi / 2.0), abs=1e-11)


def test_functionals_built_on_shannon_at_an_endpoint_pole():
    # these read 0.0 when S was -inf
    d = DensityHandle(jacobi(0.5, -0.5), 2)
    assert shannon_length(d) == pytest.approx(math.pi / math.e, rel=1e-11)
    g = DensityHandle(gegenbauer(0.25), 2)
    s = shannon_from_Wq_derivative(g)
    assert shannon_length(g) == pytest.approx(math.exp(s), rel=1e-10)
    w2 = weighted_norm_quad(g.family, 2, 2.0, normalized=True).value.log_abs
    assert lmc_plain(g) == pytest.approx(math.exp(s + w2), rel=1e-10)


def test_functional_I_at_an_endpoint_pole():
    # -int p_2^2 h ln h for P_2^(1/2, -1/2) read SignedLogReal(-1, +inf)
    import mpmath
    with mpmath.workdps(30):
        def h(x):
            return (1 - x) ** 0.5 * (1 + x) ** -0.5

        want = -mpmath.quad(lambda x: mpmath.jacobi(2, 0.5, -0.5, x) ** 2 * h(x)
                            * mpmath.log(h(x)), [-1, 1])
    v = functional_I_log(jacobi(0.5, -0.5), 2)
    assert v.sign == -1 and math.isfinite(v.log_abs)
    assert v.to_float() == pytest.approx(float(want), rel=1e-11)
    assert functional_I(jacobi(0.5, -0.5), 2) == pytest.approx(float(want), rel=1e-11)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.floats(-0.95, 3.0), st.floats(-0.95, 3.0))
def test_shannon_of_the_beta_densities(a, b):
    # a result is right, or it is refused loudly: a phi that is log-singular
    # at an end can stall the refinement (see CHANGES.md), but no value may
    # come back wrong
    want = beta_entropy(a, b)
    try:
        s = shannon_entropy(DensityHandle(jacobi(a, b), 0))
    except NumericalFailure:
        return
    assert abs(s - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("a, b", [(3.0, -0.078125), (-0.6375, -0.075), (-0.3875, 1.4875)])
def test_shannon_at_an_endpoint_pole_converges(a, b):
    # the end panel at the pole carries phi's ln t against t^0, and halving
    # it only halves its error: with a 7-15 rule these ran out of depth
    s = shannon_entropy(DensityHandle(jacobi(a, b), 0))
    assert s == pytest.approx(beta_entropy(a, b), abs=1e-12)


@pytest.mark.parametrize("fam", [jacobi(0.5, 0.5), gegenbauer(1.0)], ids=lambda f: f.label())
def test_shannon_of_the_chebyshev_second_kind_density(fam):
    # rho-hat of U_n (Jacobi(1/2, 1/2), or Gegenbauer(1)) has
    # S = ln pi - 1 + 1/(2(n + 1)) (Dehesa, Martinez-Finkelshtein &
    # Sanchez-Ruiz 2001); its zeros are where the graded panels meet
    for n in (*range(21), 50, 200):
        s = shannon_entropy(DensityHandle(fam, n))
        assert abs(s - (math.log(math.pi) - 1.0 + 0.5 / (n + 1))) <= 1e-11, n


def _entropy_spec(kind: str, fam, n: int):
    return (measures._shannon_spec(DensityHandle(fam, n)) if kind == "shannon"
            else measures._functional_E_spec(fam, n))


# the lower end stays 1e-3 from -1: there, Shannon's claims on plain and
# graded panels alike stop covering their miss (see CHANGES.md)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-0.999, 3.0, exclude_max=True), st.floats(-0.999, 3.0, exclude_max=True),
       st.integers(0, 8), st.sampled_from(("shannon", "E")))
def test_graded_panels_agree_with_plain_ones(a, b, n, kind):
    # the same integrand with and without graded panels: the two sums agree
    # within the sum of their claims
    spec = _entropy_spec(kind, jacobi(a, b), n)
    graded = quadrature.log_integral(spec)
    plain = quadrature.log_integral(dataclasses.replace(spec, log_singular=False))
    assert graded.sign == plain.sign
    if plain.sign == 0:  # E of p_0 = 1
        return
    ratio = math.exp(graded.log_abs - plain.log_abs)
    assert abs(ratio - 1.0) <= graded.rel_err * ratio + plain.rel_err


@pytest.mark.parametrize("fam, a, b, parent", [(gegenbauer(2.5), 2.0, 2.0, 651),
                                               (jacobi(2.0, 1.25), 2.0, 1.25, 483)],
                         ids=["gegenbauer", "jacobi"])
def test_shannon_grades_its_log_singular_weight_ends(fam, a, b, parent):
    # p_0 has no zero to grade a panel at, but phi = -ln rho holds
    # e ln|x - c| at each weight end: graded there, the end panels take
    # 84 and 126 evaluations where plain ones took the parent's
    res = quadrature.log_integral(measures._shannon_spec(DensityHandle(fam, 0)))
    assert res.neval <= 250 < parent
    assert shannon_entropy(DensityHandle(fam, 0)) == pytest.approx(beta_entropy(a, b),
                                                                   abs=1e-12)


@pytest.mark.parametrize("fam", [gegenbauer(2.5), jacobi(2.0, 1.25)], ids=lambda f: f.label())
def test_functional_E_keeps_plain_weight_ends(fam):
    # E's phi = -ln p_n^2 is smooth at the weight's ends: at n = 0 its
    # panels and its bits are those of plain panels
    spec = measures._functional_E_spec(fam, 0)
    plain = dataclasses.replace(spec, log_singular=False)
    assert quadrature.log_integral(spec) == quadrature.log_integral(plain)


@pytest.mark.parametrize("fam, n, parent", [(hermite(), 300, 156_933),
                                            (jacobi(2.5, 1.5), 300, 194_565)],
                         ids=["hermite", "jacobi"])
def test_graded_shannon_takes_half_the_plain_nodes(fam, n, parent):
    # parent: the evaluations on plain panels with the 10-21 rule
    res = quadrature.log_integral(measures._shannon_spec(DensityHandle(fam, n)))
    assert res.neval <= parent // 2


@pytest.mark.parametrize("fam, n", [(hermite(), 5), (jacobi(2.5, 1.5), 8),
                                    (gegenbauer(3.5), 0), (laguerre(2.5), 3)],
                         ids=lambda v: getattr(v, "label", lambda: str(v))())
def test_complexities_integrate_their_pairs_in_lockstep(fam, n):
    # each of the two integrals is, bit for bit, the one integrated alone
    d = DensityHandle(fam, n)
    f = fisher_information(d)
    s = shannon_entropy(d)
    w2 = weighted_norm_quad(fam, n, 2.0, normalized=True).value.log_abs
    r3 = renyi_entropy(d, 3.0)
    assert fisher_shannon(d) == f * math.exp(2.0 * s) / (2.0 * math.pi * math.e)
    assert fisher_renyi(d, 3.0) == f * math.exp(2.0 * r3) / (2.0 * math.pi * math.e)
    assert lmc_plain(d) == math.exp(s + w2)
