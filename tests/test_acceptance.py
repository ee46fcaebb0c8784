"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Two sub-criteria implement leading-term displays that provably disagree
with their own exact oracles (analysis in the validation report's
informational checks); those tests are strict xfails: they run the stated
check at the stated tolerance and are expected to fail.
"""
import math

import pytest

from hopnorms.bell import unweighted_norm_bell
from hopnorms.errors import DomainError
from hopnorms.families import hermite, jacobi, laguerre, norm_constant_log
from hopnorms.laplace import weighted_norm_q_asym
from hopnorms.measures import (DensityHandle, fisher_information, fisher_shannon,
                               functional_E, functional_I,
                               shannon_entropy, shannon_from_Wq_derivative)
from hopnorms.norms import unweighted_norm_quad, weighted_norm_quad
from hopnorms.paramasym import (gegenbauer_shannon_param, gegenbauer_shannon_tail,
                                jacobi_unweighted_param, jacobi_weighted_param,
                                laguerre_weighted_param, temme_I1, temme_I2)
from hopnorms.validate import FAMILY_GRID, LAPLACE_CLOSED_FORMS, evaluate, run_suite, worst_of

_CACHE = {}


def _cached(key, fn):
    if key not in _CACHE:
        _CACHE[key] = fn()
    return _CACHE[key]


def _w_quad_log(fam, n, q, normalized=False):
    return _cached(("w", fam, n, q, normalized),
                   lambda: weighted_norm_quad(fam, n, q, normalized=normalized).value.log_abs)


def _n_quad_log(fam, n, q):
    return _cached(("n", fam, n, q),
                   lambda: unweighted_norm_quad(fam, n, q).value.log_abs)


def _shannon(fam, n):
    return _cached(("s", fam, n), lambda: shannon_entropy(DensityHandle(fam, n, True)))


def _ratio_err(log_a, log_b):
    return abs(math.expm1(log_a - log_b))


def _log_domain_err(log_asym, log_quad):
    return abs(log_asym / log_quad - 1.0)


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_01_normalization():
    grid = [(fam, n) for fam in FAMILY_GRID for n in range(16)]
    worst_w1 = worst_of(_ratio_err(_w_quad_log(fam, n, 1.0, True), 0.0) for fam, n in grid)
    worst_n2 = worst_of(_ratio_err(_n_quad_log(fam, n, 2.0), norm_constant_log(fam, n).log_abs)
                        for fam, n in grid)
    ok = worst_w1 <= 1e-9 and worst_n2 <= 1e-9
    assert _report(1, ok, f"W_1[rho-hat]=1 and N_2=kappa, n=0..15 "
                          f"(worst {worst_w1:.2e}, {worst_n2:.2e}; tol 1e-9)")


def test_criterion_02_engine_equivalence():
    worst = worst_of(_ratio_err(unweighted_norm_bell(fam, n, q).value.log_abs,
                                _n_quad_log(fam, n, float(q)))
                     for fam in FAMILY_GRID for q in (2, 4) for n in range(7))
    ok = worst <= 1e-8
    assert _report(2, ok, f"bell vs quadrature, q in (2,4), n<=6 "
                          f"(worst rel {worst:.2e}; tol 1e-8)")


def test_criterion_03_laplace_closed_forms_and_rate():
    worst_closed = worst_of(
        _ratio_err(weighted_norm_q_asym(fam, n, q).value.log_abs, form(fam, q))
        for q in (25.0, 50.0, 200.0) for fam, n, form in LAPLACE_CLOSED_FORMS.values())

    # rate: C fitted at q=25 with 1.5x headroom (the q*err product can dip by
    # up to ~34% at q=25 from the O(1/q) correction; genuine rate failures
    # overshoot the head-roomed bound severalfold) and a 1e-9 noise floor for
    # the exact n=0 case, where the ratio sits at quadrature precision
    rate_ok = True
    for case in ("hermite-n0", "hermite-n1", "hermite-n2", "jacobi-n0"):
        errs = {q: _ratio_err(lq, la) for q, lq, la in evaluate(f"laplace-rate-{case}")}
        c = max(errs[25.0], 1e-9) * 25.0 * 1.5
        rate_ok &= all(errs[q] <= c / q for q in (50.0, 100.0, 200.0))

    ok = worst_closed <= 1e-12 and rate_ok
    assert _report(3, ok, f"laplace closed forms (worst rel {worst_closed:.2e}; tol 1e-12) "
                          f"and C/q rate bound ({'held' if rate_ok else 'violated'})")


def test_criterion_04_watson_unweighted_jacobi():
    decreasing = True
    for case in ("jacobi-110", "jacobi-2-0-05"):
        errs = [_ratio_err(nq, na) for _, nq, na in evaluate(f"watson-rate-{case}")]
        decreasing &= all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    # the doubled endpoint term against the exact 2/(q+1), q = 50..400
    tie_ok = all(_ratio_err(asym, exact) <= 2.0 / q
                 for q, exact, asym in evaluate("legendre-tie-doubling"))
    ok = decreasing and tie_ok
    assert _report(4, ok, f"watson-type unweighted jacobi: errors decreasing "
                          f"({decreasing}), legendre tie within 2/q ({tie_ok})")


def test_criterion_05_temme_witness():
    worst_witness = worst_of(abs(temme_I1(1, a, 1.0, 1.0, 2.0, order=2).to_float()
                                 / (a * a + 1.0) - 1.0) for a in (10.0, 100.0, 1000.0))
    errs = []
    h = 1e-5
    for m in (0, 1, 2, 3):
        for mu, lam in ((1.0, 1.0), (2.5, 2.0)):
            for a in (50.0, 1000.0):
                i2 = temme_I2(m, a, mu, lam, 2).to_float()
                d = 2.0 * (temme_I1(m, a, mu, lam, 2 + h).to_float()
                           - temme_I1(m, a, mu, lam, 2 - h).to_float()) / (2 * h)
                errs.append(abs(i2 - d) / max(abs(i2), 1e-9))
    worst_ident = worst_of(errs)
    ok = worst_witness <= 1e-12 and worst_ident <= 1e-6
    assert _report(5, ok, f"temme witness alpha^2+1 (worst {worst_witness:.2e}; tol 1e-12), "
                          f"I2 derivative identity (worst {worst_ident:.2e}; tol 1e-6)")


def test_criterion_06_parameter_n0_exactness():
    worst = worst_of(err for a in (10.0, 30.0) for q in (1.0, 2.0, 3.0) for err in (
        _ratio_err(laguerre_weighted_param(0, a, q).log_value, _w_quad_log(laguerre(a), 0, q)),
        _ratio_err(jacobi_unweighted_param(0, a, 2.0, q).log_value,
                   _n_quad_log(jacobi(a, 2.0), 0, q)),
        _ratio_err(jacobi_weighted_param(0, a, 2.0, q).log_value,
                   _w_quad_log(jacobi(a, 2.0), 0, q))))
    ok = worst <= 1e-8
    assert _report(6, ok, f"n=0 parameter forms vs quadrature (worst rel {worst:.2e}; tol 1e-8)")


def _param_rate(asym_log_fn, quad_log_fn):
    e400 = _log_domain_err(asym_log_fn(400.0), quad_log_fn(400.0))
    e800 = _log_domain_err(asym_log_fn(800.0), quad_log_fn(800.0))
    return e400, e800


def test_criterion_07_parameter_rates():
    # log-domain comparison (ratio of log-magnitudes): the leading terms
    # carry the correct exponential scale while sub-leading parameter powers
    # differ, so linear ratios do not converge but log ratios must.  The
    # unnormalized laguerre form is supplementary: it converges log-domain.
    cases = {}
    for case in ("jacobi-unweighted", "jacobi-weighted-orthogonal", "gegenbauer-weighted-q1",
                 "gegenbauer-weighted-q2", "laguerre-weighted-orthogonal"):
        errs = {a: _log_domain_err(la, lq) for a, lq, la in evaluate(f"parameter-rate-{case}")}
        cases[case] = (errs[400.0], errs[800.0])
    ok = True
    for label, (e400, e800) in cases.items():
        # gegenbauer n=1 is an exact identity: both errors sit at quadrature
        # noise, so "strictly smaller" gets a 1e-8 floor there
        ok &= e400 <= 0.05 and e800 < max(e400, 1e-8)
    detail = ", ".join(f"{k}: {v[0]:.3g}->{v[1]:.3g}" for k, v in cases.items())
    assert _report(7, ok, f"parameter-asymptotic log-domain rates ({detail})")


@pytest.mark.xfail(strict=True, reason=(
    "the printed orthonormal Laguerre display grows like alpha^(q(n-1/2)+1/2) "
    "while the exact W_q of the unit-mass density decays like alpha^((1-q)/2) "
    "for n >= 1 (exact check: W_1[L_1] = Gamma(alpha+2) vs the orthogonal form "
    "alpha^2 Gamma(alpha+1)); no comparison domain makes the stated 5% bound "
    "attainable, see the informational validation check"))
def test_criterion_07_laguerre_normalized_leg():
    e400, e800 = _param_rate(
        lambda a: laguerre_weighted_param(1, a, 2.0, normalized=True).log_value,
        lambda a: _w_quad_log(laguerre(a), 1, 2.0, normalized=True))
    ok = e400 <= 0.05 and e800 < e400
    _report(7, ok, f"laguerre weighted normalized leg (err 400: {e400:.3g}, 800: {e800:.3g})")
    assert ok


def test_criterion_08_documented_discrepancies():
    checks = {c.name: c for c in run_suite("convergence")}
    jac = checks["discrepancy-jacobi-orthonormal-q2"]
    geg = checks["discrepancy-gegenbauer-simplified-factor2"]
    ok = (jac.status == "info" and geg.status == "info"
          and jac.measured["division_rel_err_vs_oracle"] <= 0.02
          and abs(jac.measured["division_over_3a32"] - 1.0) <= 0.02
          and abs(jac.measured["printed_over_3a16"] - 1.0) <= 1e-9
          and geg.measured["first_rel_err_vs_oracle"] <= 0.02
          and abs(geg.measured["second_over_first"] - 2.0) <= 0.02)
    assert _report(8, ok, "documented discrepancies reproduce: division route 3a/32 vs "
                          f"printed 3a/16 (measured {jac.measured['printed_over_3a16']:.6f} "
                          f"of 3a/16), gegenbauer second/first = "
                          f"{geg.measured['second_over_first']:.4f}; both informational")


def test_criterion_09_information_identities():
    errs = []
    for fam in FAMILY_GRID:
        for n in range(6):
            e1 = functional_E(fam, n, "quadrature")
            e2 = functional_E(fam, n, "qderivative")
            s1 = _shannon(fam, n)
            s2 = shannon_from_Wq_derivative(DensityHandle(fam, n, True))
            kappa = norm_constant_log(fam, n).to_float()
            rhs = math.log(kappa) + (e1 + functional_I(fam, n)) / kappa
            errs.append((abs(e1 - e2) / max(abs(e1), abs(e2), 1e-3),
                         abs(s1 - s2) / max(abs(s1), abs(s2), 1e-3), abs(s1 - rhs)))
    worst_e, worst_s, worst_d = map(worst_of, zip(*errs))
    g = DensityHandle(hermite(), 0, True)
    s = shannon_entropy(g)
    f = fisher_information(g)
    cfs = fisher_shannon(g)
    gauss_ok = (abs(s - 0.5 * math.log(math.pi * math.e)) <= 1e-6
                and abs(f - 2.0) <= 1e-6 and abs(cfs - 1.0) <= 1e-6)
    ok = worst_e <= 1e-5 and worst_s <= 1e-5 and worst_d <= 1e-7 and gauss_ok
    assert _report(9, ok, f"identity suite: E dual {worst_e:.2e} (tol 1e-5), "
                          f"S=-dW/dq {worst_s:.2e} (tol 1e-5), decomposition "
                          f"{worst_d:.2e} (tol 1e-7), gaussian {gauss_ok}")


def _fisher_shannon_grid():
    """(combo, value-or-'rejected') over the full n <= 10 grid."""
    out = {}
    for fam in FAMILY_GRID:
        for n in range(11):
            d = DensityHandle(fam, n, True)
            try:
                out[(fam.label(), n)] = fisher_information(d) * math.exp(
                    2.0 * _shannon(fam, n)) / (2.0 * math.pi * math.e)
            except DomainError:
                out[(fam.label(), n)] = "rejected"
    return out


# the two exact counterexamples to the >=1 bound: densities with a jump at a
# finite support endpoint (flat weight, n=0) have infinite true Fisher
# information, and the interior integral understates it; the exponential
# density gives C_FS = e/(2 pi) and the uniform density gives C_FS = 0
_BOUNDARY_COUNTEREXAMPLES = {
    ("laguerre(alpha=0)", 0): math.e / (2.0 * math.pi),
    ("jacobi(alpha=0,beta=0)", 0): 0.0,
}


def test_criterion_10_complexity_bounds():
    min_lmc = math.inf
    for fam in FAMILY_GRID:
        for n in range(11):
            w2 = _w_quad_log(fam, n, 2.0, True)
            min_lmc = min(min_lmc, math.exp(_shannon(fam, n) + w2))
    grid = _cached("cfs-grid", _fisher_shannon_grid)
    rejected = [k for k, v in grid.items() if v == "rejected"]
    min_cfs = min(v for k, v in grid.items()
                  if v != "rejected" and k not in _BOUNDARY_COUNTEREXAMPLES)
    counter_ok = all(
        abs(grid[k] - want) <= 1e-6 for k, want in _BOUNDARY_COUNTEREXAMPLES.items())
    ok = (min_lmc >= 1.0 - 1e-9 and min_cfs >= 1.0 - 1e-9 and counter_ok
          and all(lbl.startswith("gegenbauer(lambda=1)") for lbl, _ in rejected))
    assert _report(10, ok, f"lmc >= 1 on the full grid (min {min_lmc:.6f}); "
                           f"fisher-shannon >= 1 away from boundary-jump densities "
                           f"(min {min_cfs:.6f}); the two jump densities match their "
                           f"exact sub-unity values; fisher rejected on "
                           f"{len(rejected)} divergent combos (gegenbauer lam=1)")


@pytest.mark.xfail(strict=True, reason=(
    "fisher_shannon >= 1 cannot hold on the full stated grid: the bound "
    "requires densities that vanish at their support boundary, and the grid "
    "includes the uniform density (jacobi(0,0), n=0; interior Fisher "
    "information exactly 0, C_FS = 0) and the exponential density "
    "(laguerre(0), n=0; C_FS = e/(2 pi) ~ 0.4327), both exact values"))
def test_criterion_10_fisher_shannon_full_grid_leg():
    grid = _cached("cfs-grid", _fisher_shannon_grid)
    vals = [v for v in grid.values() if v != "rejected"]
    ok = min(vals) >= 1.0 - 1e-9
    _report(10, ok, f"fisher-shannon >= 1 on the full grid as stated "
                    f"(min {min(vals):.6f})")
    assert ok


def test_criterion_11_shannon_parameter_rates():
    results = {}
    for label in ("laguerre", "jacobi"):
        errs = {a: _log_domain_err(la, lq)
                for a, lq, la in evaluate(f"parameter-rate-{label}-shannon")}
        results[label] = (errs[1e3], errs[4e3])
    ok = all(e1 <= 0.15 and e2 < e1 for e1, e2 in results.values())
    detail = ", ".join(f"{k}: {v[0]:.3g}->{v[1]:.3g}" for k, v in results.items())
    assert _report(11, ok, f"shannon parameter rates, log-domain, tol 15% ({detail})")


@pytest.mark.xfail(strict=True, reason=(
    "the simplified tail 2 ln(lambda^n 2^n/n!) doubles the true leading "
    "coefficient: the bracket form (which tracks quadrature) behaves like "
    "n ln(lambda) while the tail grows like 2n ln(lambda); the measured "
    "ratio at lambda=1e4 is ~0.5, far outside the stated 10%"))
def test_criterion_11_gegenbauer_tail_leg():
    ok = True
    ratios = {}
    for n in (1, 2):
        bracket = gegenbauer_shannon_param(n, 1e4, normalized=True).to_float()
        tail = gegenbauer_shannon_tail(n, 1e4)
        ratios[n] = bracket / tail
        ok &= abs(bracket / tail - 1.0) <= 0.10
    _report(11, ok, f"gegenbauer orthonormal E vs simplified tail at lambda=1e4 "
                    f"(ratios {ratios})")
    assert ok
