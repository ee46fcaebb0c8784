import importlib
import json
import math
import pathlib
import shlex
import subprocess
import sys

import pytest

from hopnorms import paramasym
from hopnorms.cli import build_parser, main
from hopnorms.families import jacobi
from hopnorms.measures import DensityHandle, renyi_entropy


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_record(line):
    out = {}
    for tok in line.strip().split():
        k, _, v = tok.partition("=")
        out[k] = v
    return out


def test_compute_weighted_norm(capsys):
    rc, out, _ = run_cli(["compute", "--family", "hermite", "--n", "0",
                          "--op", "weighted-norm", "--q", "4", "--engine", "quadrature"], capsys)
    assert rc == 0
    rec = parse_record(out)
    assert float(rec["value"]) == pytest.approx(math.sqrt(math.pi / 4.0), rel=1e-10)
    assert float(rec["rel_err_estimate"]) <= 1e-11


def test_compute_laplace_x0(capsys):
    rc, out, _ = run_cli(["compute", "--family", "laguerre", "--alpha", "2", "--n", "0",
                          "--op", "laplace-x0"], capsys)
    assert rc == 0
    rec = parse_record(out)
    assert float(rec["x0"]) == 2.0


def test_compute_wrapper_fidelity(capsys):
    rc, out, _ = run_cli(["compute", "--family", "jacobi", "--alpha", "1", "--beta", "0",
                          "--n", "1", "--op", "renyi", "--q", "2"], capsys)
    assert rc == 0
    rec = parse_record(out)
    lib = renyi_entropy(DensityHandle(jacobi(1.0, 0.0), 1, True), 2.0)
    assert float(rec["value"]) == lib  # bit-for-bit


def test_compute_json_schema(capsys):
    rc, out, _ = run_cli(["compute", "--family", "hermite", "--n", "1",
                          "--op", "shannon", "--format", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["record"]["family"] == "hermite"


def test_sweep_deterministic_csv(tmp_path, capsys):
    args = ["sweep", "--family", "hermite", "--n", "2", "--op", "weighted-norm",
            "--grid", "q=25,50,100,200", "--engine", "quadrature", "--engine", "asymptotic-q"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 1 + 8  # header + 4 grid points x 2 engines
    header = lines[0].split(",")
    assert header[:7] == ["family", "n", "q", "alpha", "beta", "lambda", "engine"]
    # engines alternate per grid point in canonical order
    assert lines[1].split(",")[6] == "quadrature"
    assert lines[2].split(",")[6] == "asymptotic-q"


def test_cached_parser_carries_nothing_between_calls(capsys):
    # the parser is built once per process; the repeated --engine of one
    # sweep must not leak into the next
    base = ["sweep", "--family", "hermite", "--n", "2", "--op", "weighted-norm",
            "--grid", "q=25,50"]
    rc, _, _ = run_cli(base + ["--engine", "quadrature", "--engine", "asymptotic-q"], capsys)
    assert rc == 0 and build_parser() is build_parser()
    rc, cached, _ = run_cli(base + ["--engine", "asymptotic-q"], capsys)
    build_parser.cache_clear()
    rc_fresh, fresh, _ = run_cli(base + ["--engine", "asymptotic-q"], capsys)
    assert rc == rc_fresh == 0
    assert cached == fresh
    assert len(cached.strip().splitlines()) == 1 + 2


def test_sweep_json(tmp_path, capsys):
    out_file = tmp_path / "rows.json"
    rc, _, _ = run_cli(["sweep", "--family", "laguerre", "--alpha", "2.5", "--n", "1",
                        "--op", "unweighted-norm", "--grid", "q=2,4",
                        "--engine", "quadrature", "--engine", "bell",
                        "--format", "json", "--out", str(out_file)], capsys)
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 4
    by_engine = {(r["engine"], r["q"]): r for r in payload["rows"]}
    for q in (2.0, 4.0):
        lq = by_engine[("quadrature", q)]["log_value"]
        lb = by_engine[("bell", q)]["log_value"]
        assert abs(lq - lb) < 1e-8


def test_sweep_rejects_incompatible_engine(capsys):
    rc, _, err = run_cli(["sweep", "--family", "hermite", "--n", "2",
                          "--op", "unweighted-norm", "--grid", "q=3",
                          "--engine", "bell"], capsys)
    assert rc == 2
    assert "bell" in err


def test_sweep_rejects_hermite_parameter_engine(capsys):
    rc, _, err = run_cli(["sweep", "--family", "hermite", "--n", "1",
                          "--op", "weighted-norm", "--grid", "q=2",
                          "--engine", "asymptotic-parameter"], capsys)
    assert rc == 2


def test_unweighted_norm_rejects_normalized(capsys):
    # unweighted norms have no unit-mass form; the flag must not be printed
    # as normalized=true over an unnormalized value
    base = ["--family", "gegenbauer", "--lambda", "1000", "--n", "2", "--op", "unweighted-norm",
            "--normalized"]
    rc, out, err = run_cli(["compute"] + base + ["--q", "2"], capsys)
    assert rc == 2 and out == "" and "--normalized" in err
    rc, out, err = run_cli(["sweep"] + base + ["--grid", "q=2", "--engine", "quadrature",
                                               "--engine", "asymptotic-parameter"], capsys)
    assert rc == 2 and out == "" and "--normalized" in err


@pytest.mark.parametrize("flags, named", [
    (["--op", "shannon", "--engine", "asymptotic-q"], "--engine"),
    (["--op", "laplace-x0", "--engine", "bell"], "--engine"),
    (["--op", "shannon", "--normalized"], "--normalized"),
    (["--op", "weighted-norm", "--q", "4", "--orthogonal"], "--orthogonal"),
])
def test_compute_rejects_a_flag_its_op_ignores(flags, named, capsys):
    # each used to be dropped: the record claimed an engine or density it did not use
    rc, out, err = run_cli(["compute", "--family", "hermite", "--n", "2", *flags], capsys)
    assert rc == 2 and out == "" and named in err


@pytest.mark.parametrize("flags, op, q, engine", [
    (["--family", "hermite"], "unweighted-norm", "3", "bell"),
    (["--family", "hermite"], "unweighted-norm", "2.5", "bell"),
    (["--family", "hermite"], "unweighted-norm", "inf", "bell"),  # was an OverflowError
    (["--family", "hermite"], "weighted-norm", "2", "bell"),
    (["--family", "hermite"], "weighted-norm", "2", "asymptotic-parameter"),
    (["--family", "laguerre", "--alpha", "1"], "unweighted-norm", "20", "asymptotic-q"),
    (["--family", "jacobi", "--alpha", "1", "--beta", "2", "--normalized"],
     "unweighted-norm", "2", "quadrature"),
])
def test_compute_and_sweep_reject_alike(flags, op, q, engine, capsys):
    base = [*flags, "--n", "2", "--op", op, "--engine", engine]
    compute = run_cli(["compute", *base, "--q", q], capsys)
    sweep = run_cli(["sweep", *base, "--grid", "q=" + q], capsys)
    assert compute[0] == 2 and compute[1] == "" and compute[2].startswith("error: ")
    assert sweep == compute


@pytest.mark.parametrize("target, op, engine", [
    ("hopnorms.cli.weighted_norm_quad", "weighted-norm", "quadrature"),
    ("hopnorms.cli.unweighted_norm_bell", "unweighted-norm", "bell"),
    ("hopnorms.paramasym.jacobi_weighted_param", "weighted-norm", "asymptotic-parameter"),
])
def test_engine_table_resolves_names_when_called(target, op, engine, monkeypatch, capsys):
    # a wrapper installed after import (as the benchmark's tracer installs
    # its spans) must see the calls of compute and of sweep alike
    module, _, name = target.rpartition(".")
    orig = getattr(importlib.import_module(module), name)
    calls = []
    monkeypatch.setattr(target, lambda *a, **k: calls.append(1) or orig(*a, **k))
    base = ["--family", "jacobi", "--alpha", "300", "--beta", "2", "--n", "1",
            "--op", op, "--engine", engine]
    assert run_cli(["compute", *base, "--q", "2"], capsys)[0] == 0
    assert len(calls) == 1
    assert run_cli(["sweep", *base, "--grid", "q=2,4"], capsys)[0] == 0
    assert len(calls) == 3


def test_readme_cli_examples_run(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [shlex.split(l) for l in block.replace("\\\n", " ").splitlines()]
    examples = [l[1:] for l in lines if l[:2] in (["hopnorms", "compute"], ["hopnorms", "sweep"])]
    assert len(examples) >= 4  # the block was found and read
    for argv in examples:
        assert run_cli(argv, capsys)[0] == 0, argv


def test_sweep_geometric_grid(capsys):
    rc, out, _ = run_cli(["sweep", "--family", "laguerre", "--n", "1", "--q", "2",
                          "--op", "weighted-norm", "--grid", "alpha=geom:100:800:4",
                          "--engine", "asymptotic-parameter"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    alphas = [float(l.split(",")[3]) for l in lines[1:]]
    assert alphas == pytest.approx([100.0, 200.0, 400.0, 800.0])


def test_sweep_records_row_failures(capsys):
    # jacobi beta=0 violates the laplace-route precondition: the failing rows
    # carry the diagnostic in the error column and the exit code reflects it
    rc, out, _ = run_cli(["sweep", "--family", "jacobi", "--alpha", "1", "--beta", "0",
                          "--n", "1", "--op", "weighted-norm", "--grid", "q=50,100",
                          "--engine", "quadrature", "--engine", "asymptotic-q"], capsys)
    assert rc == 3
    lines = out.strip().splitlines()
    assert len(lines) == 5
    quad_rows = [l for l in lines[1:] if ",quadrature," in l]
    asym_rows = [l for l in lines[1:] if ",asymptotic-q," in l]
    assert all(l.endswith(",") for l in quad_rows)  # empty error column
    assert all("alpha, beta > 0" in l for l in asym_rows)


def test_usage_errors(capsys):
    for family, given, message in (("laguerre", [], "laguerre requires --alpha"),
                                   ("jacobi", ["--alpha", "1"], "jacobi requires --alpha and --beta"),
                                   ("gegenbauer", [], "gegenbauer requires --lambda")):
        rc, out, err = run_cli(["compute", "--family", family, *given, "--n", "0",
                                "--op", "weighted-norm", "--q", "2"], capsys)  # missing parameter
        assert (rc, out, err) == (2, "", f"error: {message}\n")
    rc, _, _ = run_cli(["compute", "--family", "hermite", "--n", "0",
                        "--op", "renyi"], capsys)  # missing q
    assert rc == 2
    rc, _, _ = run_cli(["bogus-command"], capsys)
    assert rc == 2
    rc, _, _ = run_cli(["compute", "--family", "hermite", "--n", "0",
                        "--op", "weighted-norm", "--q", "2", "--tol", "0"], capsys)
    assert rc == 2
    for grid in ("q=1,abc", "q=geom:1:10:x"):  # malformed grid values
        rc, _, err = run_cli(["sweep", "--family", "hermite", "--n", "0", "--op", "weighted-norm",
                              "--grid", grid, "--engine", "quadrature"], capsys)
        assert rc == 2 and "Traceback" not in err
    for grid in ("n=1.5", "n=-1"):  # degrees that are not nonnegative integers
        rc, out, err = run_cli(["sweep", "--family", "hermite", "--n", "0", "--op", "weighted-norm",
                                "--q", "2", "--grid", grid, "--engine", "quadrature"], capsys)
        assert rc == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "hermite", "--n", "2", "--op", "weighted-norm", "--q", "2",
     "--grid", "alpha=1,2", "--engine", "quadrature"],
    ["sweep", "--family", "jacobi", "--alpha", "1", "--beta", "2", "--n", "2", "--op",
     "weighted-norm", "--q", "2", "--grid", "lambda=1,2", "--engine", "quadrature"],
    ["compute", "--family", "laguerre", "--alpha", "2", "--lambda", "5", "--n", "1",
     "--op", "weighted-norm", "--q", "2"],
    ["compute", "--family", "hermite", "--beta", "1", "--n", "1", "--op", "laplace-x0"],
])
def test_parameter_the_family_does_not_take_is_usage_error(argv, capsys):
    # it used to be dropped: the sweeps printed identical rows with an empty column
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == "" and "takes no" in err


@pytest.mark.parametrize("op, normalized", [("weighted-norm", False), ("weighted-norm", True),
                                            ("unweighted-norm", False)])
@pytest.mark.parametrize("flags, form", [
    (["--family", "laguerre", "--alpha", "500"], "laguerre"),
    (["--family", "jacobi", "--alpha", "300", "--beta", "2.5"], "jacobi"),
    (["--family", "gegenbauer", "--lambda", "400"], "gegenbauer"),
])
def test_parameter_engine_record_is_the_paramasym_form(flags, form, op, normalized, capsys):
    n, q = 2, 3.0
    argv = ["compute", *flags, "--n", str(n), "--q", str(q), "--op", op,
            "--engine", "asymptotic-parameter", "--format", "json"]
    rc, out, _ = run_cli(argv + ["--normalized"] * normalized, capsys)
    assert rc == 0
    rec = json.loads(out)["record"]
    params = [float(v) for v in flags[3::2]]
    if op == "weighted-norm":
        want = getattr(paramasym, f"{form}_weighted_param")(n, *params, q, normalized)
    else:
        want = getattr(paramasym, f"{form}_unweighted_param")(n, *params, q)
    assert rec["log_value"] == want.value.log_abs
    assert rec["rel_err_estimate"] == 1.0 / params[0]


def test_non_finite_result_is_computation_failure(capsys):
    # E of laguerre(1000), n = 2 is beyond double range as a float; the CLI
    # must not print log_value=inf with exit code 0
    rc, out, err = run_cli(["compute", "--op", "functional-e", "--family", "laguerre",
                            "--alpha", "1000", "--n", "2"], capsys)
    assert rc == 3
    assert out == ""
    assert "non-finite" in err


def test_sweep_row_with_failed_quadrature_carries_error(capsys):
    # at q = 1e12 the peak, of width ~ 5e-7, is narrower than the zooms
    # resolve, and the nodes that find it exceed the shifted clamp
    rc, out, _ = run_cli(["sweep", "--family", "hermite", "--n", "2", "--op", "weighted-norm",
                          "--grid", "q=2,1000000000000", "--engine", "quadrature"], capsys)
    assert rc == 3
    rows = out.strip().splitlines()[1:]
    assert rows[0].endswith(",") and not rows[1].endswith(",")


def test_fisher_divergence_is_usage_error(capsys):
    rc, _, err = run_cli(["compute", "--family", "gegenbauer", "--lambda", "1",
                          "--n", "0", "--op", "fisher"], capsys)
    assert rc == 2
    assert "diverges" in err


def test_validate_identities_exit_code(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, out, _ = run_cli(["validate", "identities", "--out", str(report)], capsys)
    assert rc == 0
    assert "[PASS]" in out
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert all(c["status"] in ("pass", "fail", "info") for c in payload["checks"])


def test_console_entry_point():
    res = subprocess.run([sys.executable, "-m", "hopnorms.cli", "compute",
                          "--family", "hermite", "--n", "0", "--op", "weighted-norm",
                          "--q", "4"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "value=" in res.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds ~17 MB of RSS and ~0.15 s to every process that
    # imports it, and no part of the package needs it
    res = subprocess.run([sys.executable, "-c", "import sys, hopnorms, hopnorms.cli; "
                          "print('scipy.optimize' in sys.modules)"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
