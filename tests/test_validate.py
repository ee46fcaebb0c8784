import importlib.util
import math
from pathlib import Path

import pytest

from hopnorms import measures, validate
from hopnorms.logreal import SignedLogReal
from hopnorms.norms import NormResult
from hopnorms.validate import CASES, SUITES, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_all_pass(suite):
    checks = run_suite(suite)
    assert checks
    failed = [c.name for c in checks if c.failed]
    assert not failed, f"{suite}: {failed}"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_documented_discrepancies_are_informational():
    names = {c.name: c for c in run_suite("all")}
    for name in ("discrepancy-laguerre-weighted-orthonormal",
                 "discrepancy-jacobi-orthonormal-q2",
                 "discrepancy-gegenbauer-simplified-factor2",
                 "discrepancy-gegenbauer-unweighted-as-displayed",
                 "discrepancy-gegenbauer-shannon-tail",
                 "fisher-shannon-boundary-counterexamples"):
        assert names[name].status == "info"
        assert names[name].note


# every check of `hopnorms validate all`, in report order, by suite
_REPORT = {
    "identities": (
        "gaussian-shannon", "gaussian-fisher", "gaussian-fisher-shannon", "gaussian-renyi-2",
        "fisher-closed-forms", "e-functional-dual-method", "shannon-from-wq-derivative",
        "shannon-decomposition", "renyi-monotonicity", "unit-mass", "n2-equals-kappa",
        "lmc-lower-bound", "fisher-shannon-lower-bound", "fisher-shannon-boundary-counterexamples"),
    "paper-closed-forms": (
        "eval-anchors", "laplace-closed-forms", "laguerre-n0-maximizer",
        "jacobi-endpoint-values", "legendre-tie-doubling", "temme-exactness-witness",
        "weight-moment-values", "bell-n2-equals-kappa"),
    "convergence": (
        "laplace-rate-hermite-n0", "laplace-rate-hermite-n1", "laplace-rate-hermite-n2",
        "laplace-rate-jacobi-n0", "watson-rate-jacobi-110", "watson-rate-jacobi-2-0-05",
        "temme-order-improvement", "parameter-n0-exactness",
        "parameter-rate-laguerre-weighted-orthogonal", "parameter-rate-jacobi-unweighted",
        "parameter-rate-jacobi-weighted-orthogonal", "parameter-rate-gegenbauer-weighted-q1",
        "parameter-rate-gegenbauer-weighted-q2", "discrepancy-laguerre-weighted-orthonormal",
        "discrepancy-jacobi-orthonormal-q2", "discrepancy-gegenbauer-simplified-factor2",
        "discrepancy-gegenbauer-unweighted-as-displayed", "parameter-rate-laguerre-shannon",
        "parameter-rate-jacobi-shannon", "discrepancy-gegenbauer-shannon-tail"),
}
_INFORMATIONAL = {"fisher-shannon-boundary-counterexamples",
                  "discrepancy-laguerre-weighted-orthonormal", "discrepancy-jacobi-orthonormal-q2",
                  "discrepancy-gegenbauer-simplified-factor2",
                  "discrepancy-gegenbauer-unweighted-as-displayed",
                  "discrepancy-gegenbauer-shannon-tail"}


@pytest.fixture(scope="module")
def report():
    return {c.name: c for c in run_suite("all")}


def test_report_is_pinned(report):
    want = [(name, suite, "info" if name in _INFORMATIONAL else "pass")
            for suite, names in _REPORT.items() for name in names]
    assert [(c.name, c.suite, c.status) for c in report.values()] == want
    assert len(want) == 42 and sum(status == "pass" for *_, status in want) == 36


@pytest.mark.parametrize("engine,log,check,suite", [
    ("weighted_norm_q_asym", math.nan, "laplace-closed-forms", "paper-closed-forms"),
    ("unweighted_norm_bell", math.nan, "bell-n2-equals-kappa", "paper-closed-forms"),
    ("weighted_norm_quad", math.nan, "unit-mass", "identities"),
    ("jacobi_unweighted_param", math.nan, "parameter-n0-exactness", "convergence"),
    # every error infinite fits an infinite C, which every error then meets
    ("weighted_norm_q_asym", -math.inf, "laplace-rate-hermite-n0", "convergence"),
])
def test_a_non_finite_engine_value_fails_its_check(monkeypatch, engine, log, check, suite):
    broken = NormResult(SignedLogReal(1, log), "broken", 0.0)
    monkeypatch.setattr(validate, engine, lambda *args, **kwargs: broken)
    assert {c.name: c for c in run_suite(suite)}[check].status == "fail"


@pytest.mark.parametrize("measure,check", [("lmc_plain", "lmc-lower-bound"),
                                           ("fisher_shannon", "fisher-shannon-lower-bound")])
def test_a_nan_after_the_first_value_fails_a_lower_bound(monkeypatch, measure, check):
    # min() keeps a NaN only in first place; the third call is a later value of either check
    real, calls = getattr(measures, measure), []

    def third_is_nan(density):
        calls.append(density)
        return math.nan if len(calls) == 3 else real(density)
    monkeypatch.setattr(measures, measure, third_is_nan)
    assert {c.name: c for c in run_suite("identities")}[check].status == "fail"


def test_convergence_tables_write_the_checked_rows(tmp_path, report):
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_tables.py"
    spec = importlib.util.spec_from_file_location("convergence_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--table", "all", "--outdir", str(tmp_path)]) == 0

    rows = {}
    for name, columns, count in (("q", "q,log_quad,log_asym,ratio_minus_1", 32),
                                 ("parameter", "parameter,log_quad,log_asym,log_ratio", 25),
                                 ("shannon", "parameter,log_quad,log_asym,log_ratio", 8)):
        header, *lines = (tmp_path / f"{name}_convergence.csv").read_text().splitlines()
        assert header == f"case,{columns}" and len(lines) == count
        for line in lines:
            label, *values = line.split(",")
            rows.setdefault(label, []).append(tuple(map(float, values[:3])))
    # each check's measurement, recomputed from the printed logs, is the report's
    checked = [c for c in CASES if c.table and c.rule]
    assert len(checked) == 12
    for case in checked:
        assert case.rule(rows[case.table[1]])[1] == report[case.name].measured
