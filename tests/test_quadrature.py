import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hopnorms.bell import unweighted_norm_bell
from hopnorms.errors import DomainError
from hopnorms.families import gegenbauer, hermite, jacobi, laguerre
from hopnorms import families, measures, norms, paramasym, quadrature
from hopnorms.norms import unweighted_norm_quad, weighted_norm_quad
from hopnorms.quadrature import (LogIntegrand, QuadratureConfig, QuadratureFailure, _graded,
                                 _Panel, _ungraded, log_integral)

from .helpers import beta_entropy, grid_peaks, named


def test_gaussian_full_line():
    spec = named(a=-math.inf, b=math.inf, g_core_many=lambda x: -x * x)
    res = log_integral(spec)
    assert res.sign == 1
    assert res.log_abs == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_shifted_narrow_gaussian():
    # peak at x = 4000 with curvature 1/4000; exercises the named peak + shift
    spec = named(a=0.0, b=math.inf, g_core_many=lambda x: 4000.0 * np.log(x) - x)
    res = log_integral(spec)
    want = math.lgamma(4001.0)
    assert res.log_abs == pytest.approx(want, abs=1e-9)


def test_endpoint_singularity_transform():
    # int_0^1 x^(-1/2) dx = 2, exponent supplied separately from the core
    spec = named(a=0.0, b=1.0, g_core_many=np.zeros_like, e_left=-0.5)
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(2.0, rel=1e-11)


def test_both_endpoints_singular():
    # int_-1^1 (1-x)^(-0.3) (1+x)^(-0.6) dx (a Beta integral)
    spec = named(a=-1.0, b=1.0, g_core_many=np.zeros_like, e_left=-0.6, e_right=-0.3)
    res = log_integral(spec)
    want = (0.1 * math.log(2.0) + math.lgamma(0.7) + math.lgamma(0.4) - math.lgamma(1.1))
    assert res.log_abs == pytest.approx(want, rel=1e-11)


def test_non_integrable_exponent_rejected():
    spec = named(a=0.0, b=1.0, g_core_many=np.zeros_like, e_left=-1.2)
    with pytest.raises(DomainError):
        log_integral(spec)


def test_signed_phi():
    # int_-inf^inf exp(-x^2) (x^3 - x) dx = 0 by parity; converges on the
    # rounding floor of int |f|
    spec = named(a=-math.inf, b=math.inf, g_core_many=lambda x: -x * x,
                 phi_many=lambda x, *_: x ** 3 - x)
    res = log_integral(spec)
    assert res.sign == 0 or res.log_abs < math.log(1e-11)


def test_phi_with_value():
    # int_0^inf e^{-x} x dx = 1 via phi
    spec = named(a=0.0, b=math.inf, g_core_many=lambda x: -x, phi_many=lambda x, *_: x)
    res = log_integral(spec)
    assert res.sign == 1
    assert math.exp(res.log_abs) == pytest.approx(1.0, rel=1e-11)


def test_breakpoint_cusp():
    # int_-1^1 |x|^0.5 dx = 4/3 with a cusp breakpoint at 0
    spec = named(a=-1.0, b=1.0, g_core_many=lambda x: 0.5 * np.log(np.abs(x)),
                 breakpoints=(0.0,))
    res = log_integral(spec)
    assert math.exp(res.log_abs) == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_monotone_refinement():
    spec = named(a=-1.0, b=1.0, g_core_many=lambda x: 3.0 * np.log(np.abs(np.sin(3 * x) + 1.1)))
    errs = []
    tol = 1e-6
    for _ in range(6):
        errs.append(log_integral(spec, QuadratureConfig(rel_tol=tol)).rel_err)
        tol /= 2.0
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_failure_carries_best_estimate(monkeypatch):
    c = 0.3331
    spec = named(a=0.0, b=1.0, g_core_many=lambda x: 0.5 * np.log(np.abs(x - c)))
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 3)
    with pytest.raises(QuadratureFailure) as exc_info:
        log_integral(spec, QuadratureConfig(rel_tol=1e-30))
    best = exc_info.value.best
    assert best is not None
    exact = (2.0 / 3.0) * (c ** 1.5 + (1.0 - c) ** 1.5)
    assert math.exp(best.log_abs) == pytest.approx(exact, rel=0.01)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)


def _laguerre_like():
    # a tail cut, a cusp breakpoint, a transformed singular left endpoint and phi
    spec = named(a=0.0, b=math.inf, e_left=-0.5, breakpoints=(1.5,),
                 g_core_many=lambda x: 3.0 * np.log(np.abs(x - 1.5)) - x,
                 phi_many=lambda x, *_: np.log(x + 2.0))
    want = mpmath.quad(lambda x: x ** -0.5 * abs(x - 1.5) ** 3 * mpmath.exp(-x) * mpmath.log(x + 2),
                       [0, 1.5, mpmath.inf])
    return spec, want


def _jacobi_like():
    # both endpoints singular and transformed, one interior breakpoint
    spec = named(a=-1.0, b=1.0, e_left=-0.3, e_right=-0.6, breakpoints=(0.25,),
                 g_core_many=lambda x: 4.0 * np.log(np.abs(x - 0.25)))
    want = mpmath.quad(lambda x: (1 + x) ** -0.3 * (1 - x) ** -0.6 * (x - 0.25) ** 4,
                       [-1, 0.25, 1])
    return spec, want


@pytest.mark.parametrize("make", [_laguerre_like, _jacobi_like])
def test_against_mpmath_reference(make):
    with mpmath.workdps(30):
        spec, want = make()
    res = log_integral(spec)
    assert res.sign == 1
    assert math.exp(res.log_abs) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_graded_panel_map(k):
    # v = v0 + (v1 - v0) tau(s), tau(s) = s^k/(s^k + (1 - s)^k), to a few
    # ulps of v1, and ln dv/ds to a few ulps of its terms; next to v0, v
    # carries only its own rounding
    v0, v1 = 0.3, 2.2
    s = np.array([[1e-12, 1e-6, 1e-3, 0.2, 0.5, 0.7, 1.0 - 1e-3, 1.0 - 2.0 ** -40]])
    _, v, parts = _graded([_Panel(0.0, 1.0, grade=(v0, v1, k))], s)
    jac = quadrature._lifted(parts)[0]
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for si, vi, ji in zip(s[0].tolist(), v[0].tolist(), jac[0].tolist()):
            si = mpmath.mpf(si)
            a, b = si ** k, (1 - si) ** k
            want = v0 + (mpmath.mpf(v1) - v0) * a / (a + b)
            dv = (v1 - v0) * k * (si * (1 - si)) ** (k - 1) / (a + b) ** 2
            assert abs(vi - want) <= (eps * abs(want) if si < 1e-3 else 4.0 * eps * v1)
            assert abs(ji - mpmath.log(dv)) <= 1e-13
    assert np.all(np.diff(v[0]) >= 0.0) and v0 <= v[0, 0] and v[0, -1] <= v1


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ungraded_inverts_the_graded_map(k):
    # the first pass maps its cuts into s with _ungraded: mapped back by
    # _graded they land on the points they came from
    grade = (0.3, 2.2, k)
    vs = [0.30001, 0.4, 1.0, 1.7, 2.19]
    s = _ungraded(grade, vs)
    assert len(s) == len(vs) and all(0.0 < si < 1.0 for si in s)
    _, v, _ = _graded([_Panel(0.0, 1.0, grade=grade)], np.array([s]))
    assert v[0] == pytest.approx(vs, rel=1e-14)


def _cut_ends(spec: LogIntegrand) -> tuple[float, float]:
    """The spec's ends, an infinite one cut 1 beyond the outermost breakpoint."""
    bps = sorted(spec.breakpoints)
    return (spec.a if math.isfinite(spec.a) else bps[0] - 1.0,
            spec.b if math.isfinite(spec.b) else bps[-1] + 1.0)


def _panel_powers(spec: LogIntegrand, lo: float, hi: float) -> list[int]:
    """The power k of each of the spec's panels between its (cut) ends lo
    and hi, 1 where plain."""
    panels = quadrature._spec_panels(quadrature._Specs([spec]), 0, lo, hi,
                                     sorted(spec.breakpoints))
    return [p.grade[2] if p.grade else 1 for p in panels]


# a raw spec on (0, 2) whose panels are only looked at, never integrated
_RAW = dict(a=0.0, b=2.0, g_core_many=np.zeros_like, peaks=((), (), (), ()))


@pytest.mark.parametrize("spec, ends, powers", [
    # a zero of p_n: a = 0.1 in |p_n|^0.1, s^(5.5 - 1) reaches 4 at k = 5
    (norms.density_spec(hermite(), 2, 0.1, 1.0), (-5.0, 5.0), [5, 5, 5]),
    # a zero of p_n under Shannon's phi, (x - x_k)^2 ln|x - x_k|; the tail cuts are smooth
    (measures._shannon_spec(measures.DensityHandle(hermite(), 2)), (-5.0, 5.0), [2, 2, 2]),
    # a zero of p_n in |p_n|^0.5: s^(1.5k - 1) is smooth at k = 2
    (norms.density_spec(hermite(), 2, 0.5, 1.0), (-5.0, 5.0), [2, 2, 2]),
    # a raw spec's knot has a = 0: smooth, or s^(k - 1) ln s under a log, above s^4 at k = 6
    (LogIntegrand(**_RAW, breakpoints=(1.0,)), (0.0, 2.0), [1, 1]),
    (LogIntegrand(**_RAW, breakpoints=(1.0,), log_singular=True), (0.0, 2.0), [6, 6]),
    # a finite end, e = 1.25: s^(2.25k - 1) passes 4 at k = 3, with or without a log
    (LogIntegrand(**_RAW, e_left=1.25), (0.0, 2.0), [3]),
    (LogIntegrand(**_RAW, e_left=1.25, log_singular_ends=True), (0.0, 2.0), [3]),
    # a pole, e = -0.25: s^(0.75k - 1) is smooth at k = 4, and passes 4 at k = 7 under a log
    (LogIntegrand(**_RAW, e_left=-0.25), (0.0, 2.0), [4]),
    (LogIntegrand(**_RAW, e_left=-0.25, log_singular_ends=True), (0.0, 2.0), [7]),
    # a pole, e = -0.9: s^(0.1k - 1) is smooth at k = 10, though e + 1 rounds
    # to 0.09999999999999998, where k = 51 would reach 4
    (LogIntegrand(**_RAW, e_left=-0.9), (0.0, 2.0), [10]),
    # an integer end exponent, e = 2: smooth, or graded under a log
    (LogIntegrand(**_RAW, e_left=2.0), (0.0, 2.0), [1]),
    (LogIntegrand(**_RAW, e_left=2.0, log_singular_ends=True), (0.0, 2.0), [2]),
    # an end with exponent 0, and tail cuts, are smooth under any log
    (LogIntegrand(**_RAW, log_singular=True, log_singular_ends=True), (0.0, 2.0), [1]),
    (measures._shannon_spec(measures.DensityHandle(hermite(), 0)), (-5.0, 5.0), [1]),
], ids=["zero", "zero-log", "zero-smooth-at-2", "knot", "knot-log", "end", "end-log", "pole",
        "pole-log", "pole-rounded", "plain-end", "plain-end-log", "smooth-end", "tail-cut"])
def test_each_panel_takes_its_power_from_its_ends(spec, ends, powers):
    # k is the least integer >= 1 at which s^(k(a + 1) - 1), a the local
    # exponent at a panel end, reaches 4 or, with no log, is smooth; with a
    # log it must pass 4; a panel takes the larger k of its two ends
    assert _panel_powers(spec, *ends) == powers


def _log_singular_spec(log_singular: bool) -> LogIntegrand:
    # rho = x^-0.5 (x - 0.7)^2 (x - 1.3)^2 on (0, 2), integrand -rho ln rho:
    # log-singular at both zeros and at the pole x = 0
    return named(a=0.0, b=2.0, e_left=-0.5, breakpoints=(0.7, 1.3),
                 g_core_many=lambda x: 2.0 * np.log(np.abs((x - 0.7) * (x - 1.3))),
                 phi_many=lambda x, core, ends: -(core + ends), log_singular=log_singular)


def test_graded_panels_of_a_log_singular_integrand():
    # the graded sum meets the mpmath value within its claim, with half
    # of the plain panels' evaluations
    with mpmath.workdps(30):
        def f(x):
            rho = x ** -0.5 * (x - 0.7) ** 2 * (x - 1.3) ** 2
            return -rho * mpmath.log(rho)
        want = float(mpmath.quad(f, [0, 0.7, 1.3, 2]))
    graded, plain = log_integral(_log_singular_spec(True)), log_integral(_log_singular_spec(False))
    for res in (graded, plain):
        assert res.sign == (1 if want > 0 else -1)
        assert abs(math.exp(res.log_abs) / abs(want) - 1.0) <= res.rel_err
    assert 2 * graded.neval <= plain.neval


def test_live_windows_of_several_panels():
    # one narrow peak per panel, each at its own height and named: the
    # first pass cuts each panel toward its own
    k, centres, heights = 1e4, np.array([0.4, 1.55, 2.7]), np.array([0.0, 3.0, -2.0])

    def g(x):
        i = np.clip(np.floor(x), 0, 2).astype(int)
        return heights[i] - k * (x - centres[i]) ** 2

    peaks = (centres, np.array([1.0, 2.0]), np.zeros(3), np.full(3, -2.0 * k))
    res = log_integral(LogIntegrand(a=0.0, b=3.0, g_core_many=g, breakpoints=(1.0, 2.0),
                                    peaks=peaks))
    want = 0.5 * math.log(math.pi / k) + math.log(np.exp(heights).sum())
    assert res.sign == 1
    assert math.exp(res.log_abs - want) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("a, q", [(2.0, 1e6), (7.0, 1e6)])
def test_error_covers_the_rounding_of_g_at_its_scale(a, q):
    # int x^(qa) e^(-qx) dx = Gamma(qa + 1) / q^(qa + 1): g peaks near -1e6
    # nats, where its own rounding exceeds rel_tol.  The claim must cover
    # that rounding, and the refinement must stop at it instead of stalling
    spec = named(a=0.0, b=math.inf, g_core_many=lambda x: q * (a * np.log(x) - x),
                 breakpoints=(0.98 * a, 1.02 * a))
    res = log_integral(spec)
    with mpmath.workdps(40):
        want = mpmath.loggamma(q * a + 1) - (q * a + 1) * mpmath.log(q)
        miss = float(abs(res.log_abs - want))
    assert res.sign == 1 and miss <= res.rel_err <= 1e-8


@pytest.mark.parametrize("c, w", [(1 / 3, 1e-6), (1 / 3, 1e-7), (100.3, 1e-4)])
def test_error_covers_the_rounding_of_the_nodes(c, w):
    # a peak of width w next to |x| ~ c: each node x rounds by a few eps |x|,
    # which moves g by eps |x| / w, far beyond the rounding of g's own terms.
    # The integral over (c - 1, c + 1) is w sqrt(2 pi) to double precision
    spec = named(a=c - 1.0, b=c + 1.0, g_core_many=lambda x: -0.5 * ((x - c) / w) ** 2)
    res = log_integral(spec)
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.mpf(w) * mpmath.sqrt(2 * mpmath.pi))
        miss = abs(float(mpmath.expm1(mpmath.mpf(res.log_abs) - want)))
    assert res.sign == 1 and miss <= res.rel_err <= 1e-8


def test_positive_integrand_that_sums_to_zero_fails():
    # g is 0 at its named top and far below it at every later point, as
    # where the nodes miss a peak; that must not read as an integral of 0.
    # (A concave peak no longer vanishes: the first pass puts nodes within
    # 1.5 sigma of the peak.)
    calls = []

    def g(x):
        calls.append(None)
        return np.full_like(x, 0.0 if len(calls) == 1 else -1e4)

    peaks = (np.array([0.5]), np.array([]), np.zeros(1), np.zeros(1))
    with pytest.raises(QuadratureFailure, match="summed to zero"):
        log_integral(LogIntegrand(a=0.0, b=1.0, g_core_many=g, peaks=peaks))


def test_gauss_kronrod_table():
    # K21 integrates x^k exactly for k <= 31, its embedded G10 for k <= 19
    xk, wk, wg = quadrature._XK, quadrature._WK, quadrature._WG
    assert xk.size == 21 and wg.size == 10
    assert np.array_equal(xk, -xk[::-1]) and np.array_equal(wk, wk[::-1])
    assert np.array_equal(wg, wg[::-1])
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(wk @ xk ** k - exact) <= 1e-15, k
        if k <= 19:
            assert abs(wg @ xk[1::2] ** k - exact) <= 1e-15, k


@pytest.fixture
def batches(monkeypatch):
    """The polynomial evaluations of the norms' bases, one per batch."""
    calls = []
    eval_log_many = quadrature.eval_log_many

    def counted(*args):
        calls.append(None)
        return eval_log_many(*args)

    monkeypatch.setattr(quadrature, "eval_log_many", counted)
    return calls


def test_refinement_splits_in_rounds(batches):
    # greedy one-interval splitting made 316 calls here, refinement in rounds ~10
    r = weighted_norm_quad(hermite(), 100, 2.0)
    assert len(batches) <= 20
    assert r.log_value == pytest.approx(864.5467788760479, rel=1e-12)


@pytest.mark.parametrize("fam, n, q, most", [(hermite(), 12, 1.0, 4), (laguerre(0.5), 18, 1.0, 5),
                                             (jacobi(2.5, 1.5), 40, 3.0, 5)])
def test_first_gauss_kronrod_pass_leaves_little_to_refine(batches, fam, n, q, most):
    # a 7-15 rule, with each tail panel halved toward its mass next to the
    # outermost zero one pass at a time, took 8, 9 and 6 integrand batches
    # here; the 10-21 rule over tail panels cut from the outer peaks' tops
    # and widths takes 2, 2 and 2: the peak batch and the first pass
    r = weighted_norm_quad(fam, n, q)
    assert len(batches) <= most
    assert r.error_estimate <= 1e-11


@pytest.fixture
def gk_batches(monkeypatch):
    """The Gauss-Kronrod batches: the first pass, then one per refinement round."""
    calls = []
    gk_rows = quadrature._gk_rows

    def counted(*args, **kwargs):
        calls.append(None)
        return gk_rows(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk_rows", counted)
    return calls


@pytest.mark.parametrize("fam, n, q, most", [(jacobi(1000.0, 2.0), 0, 2.0, 1),
                                             (hermite(), 2, 1000.0, 2)],
                         ids=["jacobi-end-mass", "hermite-laplace-peak"])
def test_peaked_panels_are_cut_toward_their_peaks(gk_batches, fam, n, q, most):
    # Jacobi(1000, 2) at W_2 holds its mass within 0.004 of -1, and Hermite
    # n = 2 at W_1000 has peaks of width 0.016 that stay within 120 nats of
    # their tops over 0.37.
    # Halved toward the peak one round at a time, they took a first pass and
    # 5 and 3 rounds; cut at their peaks' widths, they take at most the
    # first pass and one round
    r = weighted_norm_quad(fam, n, q)
    assert len(gk_batches) <= most
    assert r.error_estimate <= 1e-11


def test_a_lockstep_q_grid_finishes_in_its_first_pass(gk_batches):
    # the CI's q sweep of Jacobi(2, 1), n = 4: its slowest row set 6 batches
    # (a first pass and 5 rounds) before peaked panels were cut
    points = [("weighted-norm", jacobi(2.0, 1.0), 4, float(q), False)
              for q in (1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000)]
    quadrature.raise_first(norms.norm_quads(points))
    assert len(gk_batches) <= 1


def _degree_zero_weighted_norm(fam, q: float) -> tuple:
    """The terms of ln W_q of p_0 = 1, the integral of h^q, in closed form."""
    w = fam.weight
    if w.c2:  # Hermite: sqrt(pi/q)
        return 0.5 * math.log(math.pi), -0.5 * math.log(q)
    if w.c1:  # Laguerre(alpha): Gamma(alpha q + 1)/q^(alpha q + 1)
        e = w.e_lo * q + 1.0
        return math.lgamma(e), -e * math.log(q)
    # Jacobi(alpha, beta), Gegenbauer as Jacobi(lambda - 1/2, lambda - 1/2):
    # 2^((alpha + beta) q + 1) B(alpha q + 1, beta q + 1)
    a, b = w.e_hi * q + 1.0, w.e_lo * q + 1.0
    return (a + b - 1.0) * math.log(2.0), math.lgamma(a), math.lgamma(b), -math.lgamma(a + b)


@pytest.mark.parametrize("fam", [hermite(), laguerre(0.5), laguerre(100.0), laguerre(1e4),
                                 jacobi(1000.0, 2.0), jacobi(2.5, 1.5), jacobi(0.5, 1e4),
                                 jacobi(0.0, 2390.0), gegenbauer(1.75), gegenbauer(1e4)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("q", [1.0, 2.0, 10.0, 316.0, 4583.0, 1e4])
def test_degree_zero_norms_meet_their_closed_forms(fam, q):
    _meets_degree_zero_closed_form(fam, q)


def _meets_degree_zero_closed_form(fam, q: float) -> None:
    """W_q of p_0 meets its closed form within the claim plus the rounding
    of the terms of the closed form."""
    terms = _degree_zero_weighted_norm(fam, q)
    r = weighted_norm_quad(fam, 0, q)
    assert r.value.sign == 1
    assert (abs(r.value.log_abs - sum(terms))
            <= r.error_estimate + 4.0 * np.finfo(float).eps * sum(map(abs, terms)))


@pytest.mark.parametrize("fam", [jacobi(-0.5, 0.3), jacobi(-0.9, -0.9), laguerre(-0.5),
                                 gegenbauer(0.25)], ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.5, 1.0, 1.05, "pole"])
def test_degree_zero_pole_norms_meet_their_closed_forms(fam, scale):
    # a weight with a pole, whose peaks the pole rule names: W_q of p_0 from
    # q = 0.5 up to q = 0.99/|e| for the end exponent e < 0, where h^q is
    # nearly non-integrable
    w = fam.weight
    q = 0.99 / -min(w.e_lo, w.e_hi) if scale == "pole" else scale
    assert quadrature._known_peaks(norms.norm_spec(("weighted-norm", fam, 0, q, False))) is not None
    _meets_degree_zero_closed_form(fam, q)


_PARAMETER = st.floats(-1.0, 4.0).map(lambda e: 10.0 ** e)  # 0.1 to 1e4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(("hermite", "laguerre", "jacobi", "gegenbauer")), _PARAMETER, _PARAMETER,
       st.integers(0, 6),
       st.one_of(st.floats(1.0, 1e4), st.sampled_from(range(2, 42, 2)).map(float)))
def test_norms_of_narrow_peaks_are_finite_and_meet_bell(kind, a, b, n, q):
    # at large q or a large weight parameter the integrand is a narrow peak
    # or mass pressed against an end, which the first pass cuts toward:
    # every norm is finite, and meets the exact engine within the sum of
    # the two claims wherever that applies (even q, n q <= 240)
    fam = {"hermite": hermite, "laguerre": lambda: laguerre(a), "jacobi": lambda: jacobi(a, b),
           "gegenbauer": lambda: gegenbauer(0.4 + a)}[kind]()
    unweighted = unweighted_norm_quad(fam, n, q)
    for r in (weighted_norm_quad(fam, n, q), unweighted):
        assert r.value.sign == 1 and math.isfinite(r.value.log_abs)
        assert math.isfinite(r.error_estimate)
    if q % 2 == 0 and n * q <= 240:
        bell = unweighted_norm_bell(fam, n, int(q))
        assert (abs(unweighted.value.log_abs - bell.value.log_abs)
                <= unweighted.error_estimate + bell.error_estimate)


_ENDPOINT_EXPONENTS = (-0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 2.5, 3.75, 5.5)


def _end_power_families():
    fams = [hermite()]  # no finite end: the plain panels alone
    for i, e in enumerate(_ENDPOINT_EXPONENTS):
        fams += [laguerre(e), jacobi(e, _ENDPOINT_EXPONENTS[(i + 4) % 9])]
        if e != -0.5:  # lambda = 0 is excluded
            fams.append(gegenbauer(e + 0.5))
    return fams


@pytest.mark.parametrize("fam", _end_power_families(), ids=lambda f: f.label())
def test_substituted_norms_against_the_exact_engine(fam):
    # N_2 and N_4 with every endpoint exponent graded (or, for Hermite,
    # none) meet the exact rational moment sum within their claimed error
    for n in (0, 1, 5, 20):
        for q in (2, 4):
            r, exact = unweighted_norm_quad(fam, n, float(q)), unweighted_norm_bell(fam, n, q)
            miss = abs(math.expm1(r.log_value - exact.log_value))
            assert miss <= r.error_estimate + exact.error_estimate, (n, q)


@pytest.mark.parametrize("fam, n, q, most", [(gegenbauer(1.75), 28, 4.0, 8),
                                             (laguerre(0.5), 40, 2.0, 10)])
def test_weak_endpoint_powers_cost_few_batches(batches, fam, n, q, most):
    # (1 - x)^1.25 at both ends of Gegenbauer(1.75) N_4, and x^0.5 at the
    # left end of Laguerre(0.5) N_2, once took 19 and 23 integrand batches:
    # their end intervals were halved a dozen times, the error falling about
    # 5x per round.  Substituted in t, they took 5 and 8 (3 and 3 with the
    # 10-21 rule); graded with k = 3 and 2, they take 2 and 3
    r = unweighted_norm_quad(fam, n, q)
    assert len(batches) <= most
    assert r.error_estimate <= 1e-11


# -- lockstep -------------------------------------------------------------

def _outcome(res):
    """A spec's LogQuadResult, or the type and message of the error that ended it."""
    return (type(res).__name__, str(res)) if isinstance(res, Exception) else tuple(res)


_LOCKSTEP_FAMILIES = (hermite(), laguerre(0.5), laguerre(3.0), jacobi(2.0, 1.0),
                      jacobi(0.5, 1.5), gegenbauer(0.75), gegenbauer(3.0))


def _raw_spec(kind: int, c: float, w: float) -> LogIntegrand:
    """A raw integrand with named peaks: a Gaussian on the line with a
    signed phi, a peak between finite ends whose weak powers the engine
    grades, or a narrow peak in a wide panel, which the first pass
    cuts toward."""
    if kind == 0:
        return named(a=-math.inf, b=math.inf, g_core_many=lambda x: -((x - c) / w) ** 2,
                     phi_many=lambda x, *_: x ** 3 - c)
    if kind == 1:
        return named(a=-1.0, b=2.0, e_left=w - 0.5, e_right=0.25,
                     g_core_many=lambda x: -((x - c) / w) ** 2,
                     phi_many=lambda x, core, ends: core + ends + 1.0)
    return named(a=0.0, b=1e4, g_core_many=lambda x: -((x - 5e3 * (1.0 + c)) / w) ** 2)


_spec_strategy = st.one_of(
    st.tuples(st.sampled_from(range(len(_LOCKSTEP_FAMILIES))), st.integers(0, 6),
              st.floats(0.5, 1e4), st.booleans()).map(
        lambda t: norms.density_spec(_LOCKSTEP_FAMILIES[t[0]], t[1],
                                     *((2.0 * t[2], t[2]) if t[3] else (t[2], 1.0)))),
    st.tuples(st.integers(0, 2), st.floats(-0.5, 1.5), st.floats(0.05, 2.0)).map(
        lambda t: _raw_spec(*t)),
    # log-singular entropy integrands, on graded panels
    st.tuples(st.sampled_from(range(len(_LOCKSTEP_FAMILIES))), st.integers(0, 6),
              st.booleans()).map(
        lambda t: (measures._shannon_spec(measures.DensityHandle(_LOCKSTEP_FAMILIES[t[0]], t[1]))
                   if t[2] else measures._functional_E_spec(_LOCKSTEP_FAMILIES[t[0]], t[1]))),
)


# families of one kind by their large parameter: q grids hold one family,
# parameter grids one per row, and the rows share a basis either way
_GRID_FAMILIES = (lambda v: hermite(), laguerre, lambda v: jacobi(v, 0.5),
                  lambda v: jacobi(2.0, v), gegenbauer)


def _shared_basis_specs(t) -> list:
    """Norm specs of one degree and family kind, one per (parameter, q)."""
    make, n, weighted, points = _GRID_FAMILIES[t[0]], t[1], t[2], t[3]
    return [norms.density_spec(make(v), n, *((2.0 * q, q) if weighted else (q, 1.0)))
            for v, q in points]


_shared_strategy = st.tuples(
    st.sampled_from(range(len(_GRID_FAMILIES))), st.integers(0, 6), st.booleans(),
    st.lists(st.tuples(st.sampled_from((0.5, 2.0, 10.0, 316.0, 1e4)), st.floats(0.5, 1e4)),
             min_size=2, max_size=5)).map(_shared_basis_specs)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(_spec_strategy.map(lambda s: [s]), _shared_strategy),
                min_size=1, max_size=3).map(lambda groups: sum(groups, [])).filter(
                    lambda specs: len(specs) >= 2), st.data())
def test_lockstep_rows_match_their_lone_integrals(specs, data):
    # each spec's result, or its error, is the same alone as in lockstep
    # with the others, to the last bit and evaluation: raw specs, and norm
    # specs that share a basis at different q or parameters, whose
    # polynomial is evaluated once per batch over all their rows
    alone = [_outcome(quadrature.log_integrals([s])[0]) for s in specs]
    order = data.draw(st.permutations(range(len(specs))))
    together = quadrature.log_integrals([specs[i] for i in order])
    assert [_outcome(r) for r in together] == [alone[i] for i in order]


def _raw_twin(spec: LogIntegrand) -> LogIntegrand:
    """The spec of a basis with its g_core as a raw g_core_many, whose
    peaks a dense grid names (:func:`helpers.grid_peaks`): a reference that
    shares no peak placement with the basis."""
    fam, n, a, b = spec.basis
    return named(a=spec.a, b=spec.b, e_left=spec.e_left, e_right=spec.e_right,
                 breakpoints=spec.breakpoints, phi_many=spec.phi_many,
                 g_core_many=lambda x: a * families.eval_log_many(fam, n, x)[1]
                 + b * fam.weight.core(x))


def test_failing_rows_do_not_stop_the_lockstep():
    # N_q of Hermite n = 3 at q = 1e17: the peaks, of width ~ 1e-9 next to
    # |x| ~ 1, lie below the resolution of their tops, and the nodes that
    # find them exceed the shifted clamp; an exponent of -1.2 is not
    # integrable; the third row passes
    specs = [norms.density_spec(hermite(), 3, 1e17, 1.0),
             named(a=0.0, b=1.0, g_core_many=np.zeros_like, e_left=-1.2),
             norms.density_spec(jacobi(2.0, 1.0), 4, 6.0, 3.0)]
    alone = [quadrature.log_integrals([s])[0] for s in specs]
    together = quadrature.log_integrals(specs)
    assert "exceeds shifted clamp" in str(together[0])
    assert isinstance(together[1], DomainError)
    assert isinstance(together[2], quadrature.LogQuadResult)
    assert [_outcome(r) for r in together] == [_outcome(r) for r in alone]
    with pytest.raises(DomainError, match="non-integrable left endpoint exponent"):
        log_integral(specs[1])


@pytest.mark.parametrize("specs", [
    [norms.density_spec(jacobi(2.0, 1.0), 4, 2.0 * q, q)
     for q in (1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10000)],
    [norms.density_spec(gegenbauer(lam), 4, 4.0, 2.0)
     for lam in (10, 32, 100, 316, 1000, 3162, 10000)],
], ids=["jacobi-q-grid", "gegenbauer-lambda-grid"])
def test_lockstep_rows_share_one_polynomial_evaluation_per_batch(specs, monkeypatch):
    # the rows of a q grid share p_n; those of a lambda grid differ only in
    # their recurrence rows, which become per-point columns: either way one
    # recurrence per integrand batch serves every row
    alone = [_outcome(quadrature.log_integrals([s])[0]) for s in specs]
    batches, evals, depth = [], [], []
    logf_rows, eval_many = quadrature._logf_rows, families._eval_many

    def counted_rows(*args, **kwargs):
        batches.append(None)
        return logf_rows(*args, **kwargs)

    def counted_eval(*args, **kwargs):
        if not depth:  # a redo of overflowing points is part of its call
            evals.append(None)
        depth.append(None)
        try:
            return eval_many(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(quadrature, "_logf_rows", counted_rows)
    monkeypatch.setattr(families, "_eval_many", counted_eval)
    together = quadrature.log_integrals(specs)
    assert [_outcome(r) for r in together] == alone
    assert len(batches) > 0 and len(evals) == len(batches)


# -- peaks known in closed form ---------------------------------------------

# an end exponent of 0 (Laguerre(0), Jacobi(a, 0), Legendre) puts its end
# panel's peak at that end.  Positive exponents start at 1e-3: below that a
# peak can lie nearer its end than a float resolves
_EXPONENT = st.one_of(st.just(0.0), st.floats(1e-3, 8.0), st.floats(8.0, 1e4))


def _family(kind: str, a: float, b: float):
    return {"hermite": hermite, "laguerre": lambda: laguerre(a), "jacobi": lambda: jacobi(a, b),
            "gegenbauer": lambda: gegenbauer(0.5 + a)}[kind]()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("hermite", "laguerre", "jacobi", "gegenbauer")), _EXPONENT, _EXPONENT,
       st.integers(0, 12), st.floats(1.0, 1e6), st.booleans())
@example("laguerre", 0.0, 0.0, 0, 83508.0, True)
def test_known_peaks_meet_the_grid_reference(kind, a, b, n, q, weighted):
    # a norm spec takes its peaks from one eigenproblem; its raw twin takes
    # them from a dense grid.  The two agree within the sum of their
    # claims (a twin that stalls claims its best estimate's).
    # Where the twin's top misses a narrow peak and exceeds the clamp, the
    # spec still answers.  The example's twin falls linearly from its peak
    # at x = 0, where g is not concave: without a width from g' there, the
    # first pass did not cut toward the peak and every node underflowed
    spec = norms.density_spec(_family(kind, a, b), n, *((2.0 * q, q) if weighted else (q, 1.0)))
    assert quadrature._known_peaks(spec) is not None
    _meets_its_raw_twin(spec)


def _meets_its_raw_twin(spec: LogIntegrand) -> None:
    """The spec and its raw twin, in lockstep, agree within the sum of their
    claims; a twin that exceeds the clamp is let pass."""
    known, raw = quadrature.log_integrals([spec, _raw_twin(spec)])
    assert known.sign == 1 and math.isfinite(known.log_abs) and math.isfinite(known.rel_err)
    if isinstance(raw, Exception) and not isinstance(raw, QuadratureFailure):
        assert "exceeds shifted clamp" in str(raw)
        return
    raw = raw.best if isinstance(raw, QuadratureFailure) else raw
    assert raw.sign == 1
    assert abs(math.expm1(known.log_abs - raw.log_abs)) <= known.rel_err + raw.rel_err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("hermite", "laguerre", "jacobi", "gegenbauer")), _EXPONENT, _EXPONENT,
       st.integers(1, 12), st.floats(1e-3, 3.0, exclude_max=True).filter(lambda p: p % 1.0),
       st.booleans())
def test_cusped_norms_meet_the_grid_reference(kind, a, b, n, power, weighted):
    # |p_n|^power with a non-integer power below 3 has a cusp at every zero,
    # where the spec's panels are graded; its raw twin takes plain panels
    # and peaks named from a dense grid.  The two agree within the sum of
    # their claims
    spec = norms.density_spec(_family(kind, a, b), n, power, 0.5 * power if weighted else 1.0)
    assert 1 not in _panel_powers(spec, *_cut_ends(spec))
    graded, raw = quadrature.log_integrals([spec, _raw_twin(spec)])
    assert graded.sign == 1 and math.isfinite(graded.log_abs)
    raw = raw.best if isinstance(raw, QuadratureFailure) else raw
    assert raw.sign == 1
    assert abs(math.expm1(graded.log_abs - raw.log_abs)) <= graded.rel_err + raw.rel_err


# a pole: an end exponent in (-1, 0); Gegenbauer's lambda - 1/2 = e/2
_POLE = st.floats(-0.99, -0.01)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("laguerre", "jacobi", "gegenbauer")), _POLE, st.one_of(_POLE, _EXPONENT),
       st.booleans(), st.integers(0, 12), st.floats(0.05, 1e4), st.booleans())
def test_pole_norms_meet_the_grid_reference(kind, e, other, swap, n, q, weighted):
    # one or both end exponents in (-1, 0): the pole rule names the peaks
    # (families.basis_peaks), its raw twin's come from a dense grid, and the
    # two agree within the sum of their claims
    fam = {"laguerre": lambda: laguerre(e), "gegenbauer": lambda: gegenbauer(0.5 + 0.5 * e),
           "jacobi": lambda: jacobi(*((other, e) if swap else (e, other)))}[kind]()
    w = fam.weight
    assume(not weighted or q * min(w.e_lo, w.e_hi) > -1.0)
    spec = norms.density_spec(fam, n, *((2.0 * q, q) if weighted else (q, 1.0)))
    _meets_its_raw_twin(spec)


@pytest.mark.parametrize("fam, q, want", [
    (jacobi(-0.5, 0.3), 0.05, "1.01619420898474006848314828603"),
    (jacobi(-0.9, -0.9), 0.3, "1.59014239609231104988997051058"),
], ids=["wendroff-fails", "three-critical-points"])
def test_pole_norms_meet_mpmath(fam, q, want):
    # ln N_q of p_2, to 40 digits by mpmath with the pole end substituted,
    # u = (x - c)^(1 + e).  At b/a = 1/q = 20 the eigenproblem of
    # families.critical_points fails Wendroff's condition for Jacobi(-0.5,
    # 0.3); Jacobi(-0.9, -0.9) at b/a = 3.33 has three critical points in
    # its middle gap, where g is not concave
    r = unweighted_norm_quad(fam, 2, q)
    assert abs(r.log_value - float(want)) <= r.error_estimate


# ln of int |p_n|^a h^b over the support, to 40 digits: mpmath.quad split
# at the zeros of p_n (refined by findroot), p_n from its explicit sum,
# at 50 and at 70 digits, which agree to the digits given
_CUSP_VALUES = [
    (hermite(), 6, 0.3, 1.0, "1.915986993661358396992807469251145370394"),
    (jacobi(1.5, 2.5), 5, 0.9, 1.0, "-0.1072872674512654587845285788533278106224"),
    (laguerre(1.5), 6, 2.001, 1.0, "2.975618165543159362175259766729951011919"),
    (gegenbauer(1.75), 5, 2.7, 1.0, "3.860334062321833307349467383408801672532"),
    (hermite(), 4, 2.7, 1.0, "10.34718536038089392877859959635620194918"),
    (jacobi(1.5, 2.5), 1, 1.98, 0.99, "0.3870961196948269826531766194111903713507"),
]


@pytest.mark.parametrize("fam, n, a, b, want", _CUSP_VALUES,
                         ids=[f"{c[0].label()}-n{c[1]}-a{c[2]}" for c in _CUSP_VALUES])
def test_cusped_norms_meet_mpmath(fam, n, a, b, want):
    spec = norms.density_spec(fam, n, a, b)
    assert 1 not in _panel_powers(spec, *_cut_ends(spec))
    res = log_integral(spec)
    assert res.sign == 1
    assert abs(res.log_abs - float(want)) <= res.rel_err


@pytest.mark.parametrize("integral, parent", [
    (lambda: weighted_norm_quad(jacobi(1.5, 2.5), 1, 0.99), 4),
    (lambda: unweighted_norm_quad(hermite(), 6, 0.5), 21),
    (lambda: measures.shannon_entropy(measures.DensityHandle(hermite(), 15)), 3),
    (lambda: measures.functional_E_log(laguerre(1.5), 9), 3),
    (lambda: measures.functional_I_log(jacobi(2.0, 1.25), 8), 8),
], ids=["W-jacobi-q0.99", "N-hermite-q0.5", "shannon-hermite-15", "E-laguerre-9",
        "I-jacobi-8"])
def test_graded_panels_finish_in_their_first_pass(gk_batches, integral, parent):
    # parent: the Gauss-Kronrod batches before the cusps of |p_n|^a, a not an
    # integer, were graded (the norms), before a graded panel was cut toward
    # its peak (Shannon and E, whose tail panels hold their outer hump), and
    # before I's log-singular weight ends were graded
    integral()
    assert len(gk_batches) == 1 < parent


def test_a_log_singular_pole_takes_its_own_power(gk_batches):
    # Shannon of the Beta density of Jacobi(-0.5, 0.3): phi = -ln rho holds
    # ln(1 - x) at the pole x = 1, which the one power k = 2 of every graded
    # panel left as s ln s, 12 batches; its own power k = 11 leaves
    # s^4.5 ln s
    d = measures.DensityHandle(jacobi(-0.5, 0.3), 0)
    res = log_integral(measures._shannon_spec(d))
    assert len(gk_batches) <= 3
    s, want = measures._density_value(d, res), beta_entropy(-0.5, 0.3)
    assert abs(s - want) <= res.rel_err * abs(s)


@pytest.mark.parametrize("b", [0.5, -0.9999])
def test_shannon_next_to_a_near_integrable_pole_meets_its_claim(b):
    # Shannon of Jacobi(-0.9999, b), n = 0: phi = -ln rho holds -0.9999 ln(1 - x)
    # at x = 1, graded with k = 50,001, where nearly all the mass lies within
    # exp(-1e4) of the end and x rounds onto it; the end's log comes from s.
    # The substitution in t once missed the Beta form by 2e-4 here
    d = measures.DensityHandle(jacobi(-0.9999, b), 0)
    res = log_integral(measures._shannon_spec(d))
    s, want = measures._density_value(d, res), beta_entropy(-0.9999, b)
    assert abs(s - want) <= res.rel_err * abs(s)


def test_a_weak_cusp_takes_its_own_power(gk_batches):
    # N_0.1 of Hermite n = 6: |x - x_k|^0.1 at each zero became s^1.2 under
    # k = 2, 10 batches; its own power k = 5 makes it s^4.5
    unweighted_norm_quad(hermite(), 6, 0.1)
    assert len(gk_batches) <= 3


def test_fisher_grades_its_pole_ends(gk_batches):
    # Fisher of Jacobi(1.3, 1.7), n = 3: h/d^2 has the poles (1 -+ x)^(-0.7)
    # and ^(-0.3), which plain end panels halved toward for 8 batches;
    # graded with k = 10 and 8 they finish in the first
    measures.fisher_integral(measures.DensityHandle(jacobi(1.3, 1.7), 3))
    assert len(gk_batches) == 1


def test_fisher_grades_a_weak_end_power(gk_batches):
    # Fisher of Jacobi(1.5, 2.5), n = 0: h/d^2 has (1 + x)^0.5 at x = -1,
    # graded with k = 2; plain in t, its end panel took 3 batches, halved
    # toward the density's peak rather than the end
    measures.fisher_integral(measures.DensityHandle(jacobi(1.5, 2.5), 0))
    assert len(gk_batches) <= 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("hermite", "laguerre", "jacobi", "gegenbauer")), _EXPONENT, _EXPONENT,
       st.integers(0, 12))
def test_critical_points_put_one_peak_in_each_gap(kind, a, b, n):
    # one point between each pair of neighbouring knots (finite ends and
    # zeros of p_n), where the density's numerator N changes sign; at an end
    # whose exponent is 0 the point is that end.  Legendre's p_0^2 h is flat,
    # N = 0, and every point a peak: the midpoint stands for them
    fam = _family(kind, a, b)
    w = fam.weight
    knots = [w.lo, *families.polynomial_zeros(fam, n), w.hi]
    crit = families.critical_points(fam, n, 0.5)
    assert len(crit) == n + 1
    if n == 0 and w.is_flat:
        assert crit == (0.0,)
        return
    for x, lo, hi in zip(crit, knots, knots[1:]):
        assert lo <= x <= hi
        if x == lo or x == hi:
            assert (w.e_lo if x == lo else w.e_hi) == 0.0
            continue
        dx = 1e-6 * min(x - lo, hi - x, 1.0 + abs(x))
        left, right = families.log_derivative_numerator_many(fam, n, [x - dx, x + dx])[0]
        assert left * right == -1


def test_basis_norms_without_a_pole_take_no_newton_steps(monkeypatch):
    # norms, entropies and a lockstep q grid: every spec with a basis and
    # exponents >= 0 takes its peaks from the eigenproblem, not the pole
    # rule's Newton steps
    def gap_tops(*args):
        raise AssertionError("Newton steps served a weight without a pole")

    families.basis_peaks.cache_clear()
    monkeypatch.setattr(families, "_gap_tops", gap_tops)
    for fam in (hermite(), laguerre(0.0), laguerre(2.5), jacobi(2.5, 1.5), jacobi(3.0, 0.0),
                gegenbauer(0.5), gegenbauer(1.75)):
        for n in (0, 1, 5):
            weighted_norm_quad(fam, n, 3.0)
            unweighted_norm_quad(fam, n, 1e3)
            measures.shannon_entropy(measures.DensityHandle(fam, n))
    quadrature.raise_first(norms.norm_quads([("weighted-norm", jacobi(2.0, 1.0), 4, q, False)
                                             for q in (1.0, 10.0, 1e3, 1e4)]))


# Fisher densities: every family; h/d^2 with a pole at an end (Laguerre(1.5),
# Jacobi(1.5, 2.5), Jacobi(2, 1.25), Gegenbauer(1.75)) or exponent 0 there
# (Laguerre(2), Jacobi(2, 2)); parameters from 100 to 1e4; Hermite n = 100-111
_FISHER_DENSITIES = (
    [(fam, n) for fam in (hermite(), laguerre(1.5), laguerre(2.0), laguerre(2.5), jacobi(1.5, 2.5),
                          jacobi(2.0, 1.25), jacobi(2.0, 2.0), gegenbauer(1.75), gegenbauer(2.5))
     for n in (0, 1, 5)]
    + [(fam, n) for fam in (laguerre(100.0), laguerre(1e4), jacobi(100.0, 2.0), jacobi(1e4, 1.5),
                            gegenbauer(100.0), gegenbauer(1e4))
       for n in (0, 1, 4)]
    + [(hermite(), n) for n in range(100, 112)])


def test_fisher_meets_its_grid_reference_twin():
    # Fisher's spec names its peaks in closed form (families.numerator_peaks).
    # Each value lies within the sum of its claim and that of its twin, whose
    # peaks a dense grid names over the same breakpoints
    densities = [measures.DensityHandle(fam, n) for fam, n in _FISHER_DENSITIES]
    specs = [measures._fisher_spec(d) for d in densities]
    twins = [quadrature.log_integral(dataclasses.replace(spec, peaks=grid_peaks(
        lambda x, g=spec.g_core_many: g(x)[0], spec.a, spec.b, spec.e_left, spec.e_right,
        spec.breakpoints))) for spec in specs]
    for spec, twin in zip(specs, twins):
        res = quadrature.log_integral(spec)
        assert res.sign == 1 and math.isfinite(res.log_abs)
        assert abs(math.expm1(res.log_abs - twin.log_abs)) <= res.rel_err + twin.rel_err
    for d in densities[:27]:
        assert measures.fisher_shannon(d) > 0.0 and measures.fisher_renyi(d, 2.0) > 0.0


@pytest.mark.parametrize("fam", [jacobi(0.0, 0.0), gegenbauer(0.5)], ids=lambda f: f.label())
def test_flat_fisher_is_zero_without_quadrature(gk_batches, fam):
    # p_0 of the flat weight: rho is constant, N = 0, and F is exactly 0,
    # as are the products with F (the parent integrated it, one batch)
    d = measures.DensityHandle(fam, 0)
    assert measures.fisher_integral(d) == (0, -math.inf, 0.0, 0)
    assert measures.fisher_information(d) == 0.0
    assert measures.fisher_shannon(d) == 0.0 and measures.fisher_renyi(d, 2.0) == 0.0
    assert not gk_batches


def _two_gaussians(x):
    return np.logaddexp(-0.5 * ((x - 0.3) / 1e-4) ** 2, -0.5 * ((x - 0.7) / 1e-4) ** 2)


def test_a_raw_integrand_names_its_peaks():
    # two Gaussians of width 1e-4 at 0.3 and 0.7 on (0, 1): without its
    # peaks a raw g_core once kept one per panel and returned ln W - ln 2
    # claiming 4.9e-12; now it must name them, one per panel of a breakpoint
    with pytest.raises(DomainError, match="must name its peaks"):
        log_integral(LogIntegrand(a=0.0, b=1.0, g_core_many=_two_gaussians))
    peaks = (np.array([0.3, 0.7]), np.array([0.5]), np.zeros(2), np.full(2, -1e8))
    res = log_integral(LogIntegrand(a=0.0, b=1.0, g_core_many=_two_gaussians, breakpoints=(0.5,),
                                    peaks=peaks))
    want = math.log(2.0 * 1e-4 * math.sqrt(2.0 * math.pi))  # -7.5983
    assert res.sign == 1 and abs(res.log_abs - want) <= res.rel_err


def test_error_claims_are_python_floats():
    # the rounding terms, where they win, were numpy scalars
    assert type(weighted_norm_quad(laguerre(1e4), 2, 50.0).error_estimate) is float
    assert type(measures.fisher_integral(measures.DensityHandle(laguerre(2.0), 60)).rel_err) is float


def test_known_peaks_cut_the_points_of_a_large_degree(monkeypatch):
    # Hermite n = 1000, W_1: the scan, its zooms and the live windows took
    # 54,476 points, 33,033 of them scan points
    points = []
    logf_rows = quadrature._logf_rows

    def counted(specs, panels, us, *args, **kwargs):
        points.append(us.size)
        return logf_rows(specs, panels, us, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_logf_rows", counted)
    r = weighted_norm_quad(hermite(), 1000, 1.0)
    assert sum(points) <= 25_000
    assert r.error_estimate <= 1e-11


# -- tail cuts derived from the peak table ------------------------------------

def _first_pass(monkeypatch, specs):
    """Integrate the specs in lockstep and return the batches in order ("eval"
    for each evaluation batch, "gk" for each Gauss-Kronrod batch, whose rows
    are one evaluation batch of their own) and the specs and panels of the
    first Gauss-Kronrod pass."""
    events, first = [], []
    logf_rows, gk_rows = quadrature._logf_rows, quadrature._gk_rows

    def evaluated(*args, **kwargs):
        events.append("eval")
        return logf_rows(*args, **kwargs)

    def passed(lockstep, panels, *args, **kwargs):
        events.append("gk")
        if not first:
            first.extend((lockstep, panels))
        return gk_rows(lockstep, panels, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_logf_rows", evaluated)
    monkeypatch.setattr(quadrature, "_gk_rows", passed)
    results = quadrature.log_integrals(specs)
    monkeypatch.undo()
    return results, events, first


def test_one_evaluation_batch_comes_before_the_first_pass(monkeypatch):
    # the peak tables' batch also probes each infinite end, so the tail
    # cuts take no batch of their own: a walk outward from the outermost
    # breakpoint took one more batch before the first Gauss-Kronrod pass
    specs = [norms.density_spec(hermite(), 4, 2.0, 1.0), norms.density_spec(hermite(), 0, 1.0, 1.0),
             norms.density_spec(laguerre(2.5), 3, 2.0, 1.0),
             norms.density_spec(laguerre(-0.5), 1, 0.25, 1.0),
             norms.density_spec(jacobi(2.5, 1.5), 5, 4.0, 2.0),
             measures._shannon_spec(measures.DensityHandle(hermite(), 3))]
    results, events, _ = _first_pass(monkeypatch, specs)
    assert all(isinstance(r, quadrature.LogQuadResult) for r in results)
    assert events.index("gk") == 1


# Hermite and Laguerre far out at large q or alpha, poles of Laguerre at the
# other end of the support, and the Temme oracle's own end exponent -0.7
_TAILS = [*[norms.density_spec(hermite(), n, 2.0 * q, q) for n in (0, 4) for q in (1.0, 1e4)],
          norms.density_spec(laguerre(1e4), 0, 2.0, 1.0),
          *[norms.density_spec(laguerre(e), n, q, 1.0)
            for e in (-0.5, -0.9) for n in (0, 1, 2) for q in (0.0625, 0.25)],
          norms.density_spec(laguerre(-0.96875), 1, 0.5, 1.0),
          *[paramasym._temme_spec(m, 50.0, 0.3, 2.0, 2.0) for m in (0, 3)]]


def test_tail_cuts_lie_150_nats_below_their_outer_tops(monkeypatch):
    # each infinite end is cut from an anchor t and a width: the panel's top
    # and sigma, or, where a pole lies beyond the outer gap, the top of g
    # without its power, which lies further out.  Past a probe
    # y = t +- sqrt(300) width, g without its pole powers falls at least as
    # fast as its secant s from t, so g at the cut lies at least
    # _TAIL_CUTOFF nats below the outer top (below g at the top without the
    # power of a pole at the panel's end), and the cut lies no further out
    # than y + max(0, g(y) - (g(top) - _TAIL_CUTOFF))/|s|.  A walk outward from
    # the outermost breakpoint in growing steps cut Hermite n = 0 at q = 1e4
    # at x = 4.17, where g lay 174,098 nats below its top, in place of 0.12;
    # a probe from the top of g for Laguerre(-0.96875), n = 1, q = 1/2 lay
    # where g without the pole's power still rose
    for spec in _TAILS:
        (result,), _, (lockstep, panels) = _first_pass(monkeypatch, [spec])
        assert isinstance(result, quadrature.LogQuadResult)
        pole = min(spec.e_left, 0.0)  # Laguerre's: the left end, x = 0
        *_, a, bare = quadrature._known_peaks(spec)

        def g(x, bare=False):
            line = _Panel(-math.inf, math.inf)
            value = float(quadrature._logf_rows(lockstep, [line], np.array([[x]]))[0][0, 0])
            return value - pole * math.log(x) if bare and pole else value

        for d, p in ((-1, panels[0]), (1, panels[-1])):
            if math.isfinite((spec.a, spec.b)[d > 0]):
                continue
            t, width = p.top, p.sigma
            if bare is not None:
                j = 0 if d < 0 else -1
                t, width = bare[0][j], 1.0 / (a * abs(bare[2][j]) + math.sqrt(-a * bare[3][j]))
            cut = (p.grade or (p.lo, p.hi))[d > 0]
            y = t + d * math.sqrt(2.0 * quadrature._TAIL_CUTOFF) * width
            at = t if t != spec.a else math.nextafter(t, math.inf)
            s = (g(y, True) - g(at, True)) / abs(y - t)
            reach = abs(y - t) + max(0.0, g(y) - (p.peak - quadrature._TAIL_CUTOFF)) / -s
            assert g(cut) <= p.peak - quadrature._TAIL_CUTOFF, (spec, d)
            assert 0.0 < d * (cut - p.top) and d * (cut - t) <= reach * (1.0 + 1e-12), (spec, d)
