"""End-to-end command line runs: exit codes, report schema, determinism."""
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pullconn import cli
from pullconn.catalog import CATALOG
from pullconn.cli import main, parse_grid, parse_params, parse_range, ConfigError
from pullconn.immersion import NotImmersionError


def run_json(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ----------------------------------------------------------------------------
# flag parsing
# ----------------------------------------------------------------------------

def test_param_parsing():
    assert parse_params(["d=3", "amplitude=0.05", "base=veronese"]) == {
        "d": 3, "amplitude": 0.05, "base": "veronese"}
    with pytest.raises(ConfigError):
        parse_params(["oops"])
    with pytest.raises(ConfigError, match="'d' is given more than once"):
        parse_params(["d=1:2", "d=3"])


def test_grid_parsing():
    assert parse_grid("3x4") == (3, 4)
    assert parse_grid("3×4") == (3, 4)
    for bad in ("3", "0x2", "axb"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_range_parsing():
    assert parse_range("1:4") == [1, 2, 3, 4]
    assert parse_range("0:0.2:0.1") == pytest.approx([0.0, 0.1, 0.2])
    with pytest.raises(ConfigError):
        parse_range("4:1")
    with pytest.raises(ConfigError):
        parse_range("1:4:-1")


# ----------------------------------------------------------------------------
# list
# ----------------------------------------------------------------------------

def test_list_contains_catalog(tmp_path):
    code, report = run_json(tmp_path, ["list"])
    assert code == 0
    assert report["schema"] == "pullconn-report/1"
    names = {e["name"] for e in report["examples"]}
    assert names == {"linear", "veronese", "totally-real", "clifford",
                     "hline", "grassmann-sub", "perturbed"}


# ----------------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------------

def test_analyze_veronese_grid_verdicts(tmp_path):
    code, report = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--param", "d=3",
        "--grid", "4x4", "--workers", "1"])
    assert code == 0
    agg = report["aggregate"]
    assert agg["points"] == 16
    assert agg["all_fat"] is True
    assert agg["all_parallel"] is True
    assert agg["all_inequality_strict"] is True
    assert agg["max_theta"] < 1e-6
    assert abs(agg["min_fatness_margin"] - 1.0) < 1e-6


def test_aggregate_equals_point_extremes(tmp_path):
    code, report = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--grid", "3x3", "--workers", "1"])
    assert code == 0
    pts = report["points"]
    agg = report["aggregate"]
    assert agg["max_shape"] == max(p["shape"]["value"] for p in pts)
    assert agg["min_fatness_margin"] == min(p["fatness"]["margin"] for p in pts)
    assert agg["max_parallel_residual"] == max(p["parallel"]["residual"] for p in pts)
    assert agg["min_inequality_margin"] == min(p["inequality"]["min_margin"] for p in pts)
    assert agg["max_theta"] == max(p["theta"]["value"] for p in pts)


def test_analyze_totally_real_not_fat(tmp_path):
    code, report = run_json(tmp_path, [
        "analyze", "--example", "totally-real", "--grid", "2x2", "--workers", "1"])
    assert code == 0
    agg = report["aggregate"]
    assert agg["all_fat"] is False
    assert agg["min_fatness_margin"] < 1e-8
    for p in report["points"]:
        assert abs(p["theta"]["value"] - np.pi / 2) < 1e-6


def test_analyze_normalize_corollary(tmp_path):
    code, report = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--grid", "2x2",
        "--normalize", "--workers", "1"])
    assert code == 0
    for p in report["points"]:
        assert abs(p["normalization"]["value"] - 4.0) < 1e-6
        assert abs(p["corollary"]["rhs"] - 0.125) < 1e-6
        assert p["corollary"]["satisfied"] is False  # lhs = 1/4 at degree two


def test_analyze_null_fields_carry_reasons(tmp_path):
    """Real charts skip the angle; every skipped value names why."""
    code, report = run_json(tmp_path, [
        "analyze", "--example", "grassmann-sub", "--random", "2",
        "--seed", "3", "--workers", "1"])
    assert code == 0

    def check(node):
        if isinstance(node, dict):
            missing = [k for k, v in node.items() if v is None and k != "reason"]
            if missing:
                assert isinstance(node.get("reason"), str), (missing, node)
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    for p in report["points"]:
        assert p["theta"]["value"] is None
        check(p)


def test_analyze_records_carry_refinement_telemetry(tmp_path):
    """Certified quantities report the most rounds any start took and
    whether every start stopped by its rule; exact ones report 0 rounds."""
    code, report = run_json(tmp_path, [
        "analyze", "--example", "perturbed", "--field", "h", "--param", "base=hline",
        "--random", "2", "--workers", "1"])
    assert code in (0, 1)
    for p in report["points"]:
        assert p["fatness"]["rounds"] >= 1 and p["fatness"]["converged"] is True
        assert p["theta"]["rounds"] == p["fatness"]["rounds"]
        assert p["theta"]["converged"] is True
        assert p["shape"]["rounds"] >= 1 and p["shape"]["converged"] is True
    code, report = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--grid", "2x2", "--workers", "1"], "v.json")
    assert code == 0
    for p in report["points"]:
        assert p["fatness"]["rounds"] == 0 and p["fatness"]["converged"] is True
        assert p["shape"]["rounds"] == 0 and p["shape"]["converged"] is True


def test_analyze_exit_codes_config(tmp_path):
    # unknown example
    assert main(["analyze", "--example", "nosuch"]) == 2
    # field the chart is not defined over
    assert main(["analyze", "--example", "veronese", "--field", "h"]) == 2
    # unknown parameter name
    assert main(["analyze", "--example", "veronese", "--param", "q=1"]) == 2
    # grid sampling of a four-dimensional chart
    assert main(["analyze", "--example", "grassmann-sub", "--grid", "2x2"]) == 2
    # grid and random are exclusive
    assert main(["analyze", "--example", "veronese", "--grid", "2x2",
                 "--random", "3"]) == 2
    # missing --example entirely
    assert main(["analyze"]) == 2


def test_analyze_field_the_base_does_not_carry_exit2(capsys):
    # veronese is complex only: its own entry refuses the field
    assert main(["analyze", "--example", "perturbed", "--field", "h",
                 "--param", "base=veronese"]) == 2
    assert "example 'veronese' is not defined over 'h'" in capsys.readouterr().err


def test_analyze_base_parameter_unknown_to_base_exit2(capsys):
    # hline has no degree d
    assert main(["analyze", "--example", "perturbed", "--param", "base=hline",
                 "--param", "base_d=5"]) == 2
    assert "'base_d' does not apply to base 'hline'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--example", "hline", "--random", "4", "--seed", "7"],
    ["--example", "linear", "--field", "h", "--random", "1"],
])
def test_analyze_quaternionic_runs_exit0(tmp_path, argv):
    code, report = run_json(tmp_path, ["analyze", *argv, "--workers", "1"])
    assert code == 0
    assert report["aggregate"]["failed_points"] == 0
    for p in report["points"]:
        assert p["fatness"]["gap"] <= 1e-12


def test_analyze_boundary_margin_exit2():
    """A sampling margin that leaves no interior of the box is a ConfigError
    (exit 2); analyze has no --fd-step that could widen the margin."""
    chart = cli.make_chart("veronese", None, {})   # box (-1.2, 1.2)²
    with pytest.raises(ConfigError, match="sampling margin 1.3 leaves no interior"):
        cli.sample_points(chart, (2, 2), None, 0, 1.3)
    assert len(cli.sample_points(chart, (2, 2), None, 0, 1.1)) == 4
    assert main(["analyze", "--example", "veronese", "--fd-step", "0.7",
                 "--grid", "2x2"]) == 2


def _only_error_line(capsys, text):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and text in err[0], err


@pytest.mark.parametrize("argv,text", [
    (["analyze", "--example", "veronese", "--param", "=3"], "--param expects key=value, got '=3'"),
    (["sweep", "--example", "veronese", "--param", "d=1:2:3:4"],
     "range expects lo:hi[:step], got '1:2:3:4'"),
    (["sweep", "--example", "veronese", "--param", "d=a:b"], "range expects numbers, got 'a:b'"),
    (["analyze", "--example", "veronese", "--random", "0"], "--random must request at least one point"),
    (["sweep", "--param", "d=1:2"], "sweep needs --example NAME"),
    (["analyze", "--example", "perturbed", "--param", "base=grassmann-sub"],
     "perturbation wrapper supports rank-one charts only"),
], ids=["empty-key", "range-parts", "range-text", "random-0", "sweep-no-example", "wrapper-rank"])
def test_refusals_exit2_with_one_error_line(argv, text, capsys):
    assert main(argv + ["--workers", "1"]) == 2
    _only_error_line(capsys, text)


def test_workers_below_one_exit2(capsys):
    """--workers 0 used to mean every CPU and --workers -3 one process."""
    for value in ("0", "-3"):
        assert main(["analyze", "--example", "veronese", "--grid", "1x1",
                     "--workers", value]) == 2
        _only_error_line(capsys, "--workers must be at least 1")
    assert main(["sweep", "--example", "veronese", "--param", "d=1:2",
                 "--workers", "0"]) == 2
    _only_error_line(capsys, "--workers must be at least 1")


def test_negative_seed_exit2(capsys):
    """--seed -1 used to exit 3 with numpy's ValueError."""
    assert main(["analyze", "--example", "grassmann-sub", "--random", "2",
                 "--seed", "-1"]) == 2
    _only_error_line(capsys, "--seed must be non-negative")


@pytest.mark.parametrize("argv", [
    ["analyze", "--example", "veronese", "--grid", "2x2"],
    ["analyze", "--example", "veronese"],                  # the default 4x4 grid of a 2-d chart
    ["sweep", "--example", "veronese", "--param", "d=1:2"],   # the default 3x3 grid
], ids=["analyze-grid", "analyze-default-grid", "sweep-default-grid"])
def test_seed_on_a_grid_sample_exit2(argv, capsys):
    """A grid has no seed: --seed used to be echoed while the grid ignored it."""
    assert main(argv + ["--seed", "5", "--workers", "1"]) == 2
    _only_error_line(capsys, "--seed applies to --random samples; 'veronese' is sampled on a")


def test_sweep_refuses_before_any_value_is_analyzed(monkeypatch, capsys):
    """A value refused late in the range (d = 1.5; m = 3, whose 2-d chart is
    sampled on a grid, with --seed) used to come after the earlier values
    were analyzed."""
    calls = []
    monkeypatch.setattr(cli, "analyze_sample", lambda *a: calls.append(a) or ([], []))
    for argv in (["--example", "veronese", "--param", "d=1:2:0.5"],
                 ["--example", "linear", "--field", "r", "--param", "m=2:3", "--seed", "5"]):
        assert main(["sweep", *argv, "--workers", "1"]) == 2
        capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("value", ["0", "-0.001", "nan", "inf"])
def test_fd_step_not_finite_positive_exit2(value, capsys):
    """verify, the one command with finite differences, refuses the step;
    analyze and sweep take no --fd-step at all (the chart's jet is exact)."""
    assert main(["verify", "--fd-step", value]) == 2
    _only_error_line(capsys, "--fd-step must be finite and positive")
    for argv in (["analyze", "--example", "perturbed", "--grid", "1x1"],
                 ["sweep", "--example", "veronese", "--param", "d=1:2"]):
        assert main(argv + ["--workers", "1", "--fd-step", value]) == 2
        assert "unrecognized arguments: --fd-step" in capsys.readouterr().err


def test_fractional_integer_parameter_exit2(capsys):
    """d=2.7 used to build veronese with d = 2; d=3.0 is the integer 3."""
    assert main(["analyze", "--example", "veronese", "--param", "d=2.7"]) == 2
    _only_error_line(capsys, "parameter 'd' must be an integer, got 2.7")
    assert main(["analyze", "--example", "perturbed", "--param", "base=linear",
                 "--param", "base_m=2.5", "--field", "r"]) == 2
    _only_error_line(capsys, "parameter 'm' must be an integer, got 2.5")
    assert main(["sweep", "--example", "veronese", "--param", "d=1:2:0.5"]) == 2
    _only_error_line(capsys, "parameter 'd' must be an integer, got 1.5")
    assert cli.make_chart("veronese", None, {"d": 3.0}).params == {"d": 3}


def test_render_error_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    """A report that cannot be rendered (a NaN under allow_nan=False) is an
    internal error: exit 3, one error line, no report written."""
    record = cli.point_record

    def nan_record(pa):
        return {**record(pa), "gram_min_eig": float("nan")}

    monkeypatch.setattr(cli, "point_record", nan_record)
    out = tmp_path / "report.json"
    assert main(["analyze", "--example", "veronese", "--grid", "1x1",
                 "--workers", "1", "--out", str(out)]) == 3
    _only_error_line(capsys, "ValueError: Out of range float values are not JSON compliant")
    assert not out.exists()


def test_analyze_expectation_failure_exit1(tmp_path):
    """amplitude=0 contradicts the perturbed entry's declared purpose."""
    code, report = run_json(tmp_path, [
        "analyze", "--example", "perturbed", "--param", "amplitude=0",
        "--random", "2", "--workers", "1"])
    assert code == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["breaks-parallel"]


ADVERTISED = [(e["name"], f) for e in cli.cmd_list(None)[0]["examples"] for f in e["fields"]]
# (argv after `analyze`, exit code, text of the one error line)
EDGE_CASES = [
    (["--example", "perturbed", "--param", "amplitude=nan"], 2, "'amplitude' must be finite"),
    (["--example", "perturbed", "--param", "amplitude=inf"], 2, "'amplitude' must be finite"),
    (["--example", "veronese", "--param", "d=2", "--param", "d=3"], 2, "'d' is given more than once"),
    (["--example", "perturbed", "--field", "r", "--param", "base=linear"], 0, None),
    (["--example", "clifford", "--out", "missing/dir/x.json"], 2, "cannot write --out"),
    (["--example", "veronese", "--param", "d=68"], 0, None),
]


@pytest.mark.parametrize("argv,want,text", [
    (["--example", name, "--field", f], 0, None) for name, f in ADVERTISED] + EDGE_CASES,
    ids=[f"{name}-{f}" for name, f in ADVERTISED]
    + ["nan", "inf", "repeated", "r-linear", "out", "veronese-d68"])
def test_every_advertised_combination_exits_cleanly(argv, want, text, tmp_path, monkeypatch, capsys):
    """Every example × field that `list` advertises, with default
    parameters, finishes (0); the edge cases finish or are refused with one
    error line (2).  A declared check never fails there (1), nothing
    crashes (3)."""
    monkeypatch.chdir(tmp_path)   # a later --out in argv wins
    code = main(["analyze", "--random", "1", "--workers", "1", "--out", "report.json", *argv])
    assert code == want
    if code == 2:
        _only_error_line(capsys, text or "error: ")
    else:
        for c in json.loads((tmp_path / "report.json").read_text())["checks"]:
            # a check no point defines (r-linear's breaks-parallel) is null with a reason
            assert c["pass"] is not False and (c["pass"] is None) == isinstance(c["reason"], str)


def test_analyze_internal_error_exit3(tmp_path, monkeypatch, capsys):
    """An exception that is not a configuration error exits 3, never 1."""
    def broken(*args, **kwargs):
        raise RuntimeError("frame layer broke")

    monkeypatch.setattr(cli, "analyze_point", broken)
    out = tmp_path / "report.json"
    assert main(["analyze", "--example", "veronese", "--grid", "2x2",
                 "--workers", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: RuntimeError: frame layer broke"]
    assert not out.exists()


def test_unwritable_out_is_refused_before_any_point(tmp_path, monkeypatch, capsys):
    """An --out that cannot be opened exits 2 before analyze_point runs; an
    existing --out keeps its contents when the run fails."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("frame layer broke")

    monkeypatch.setattr(cli, "analyze_point", counted)
    assert main(["analyze", "--example", "perturbed", "--field", "h", "--param", "base=linear",
                 "--workers", "1", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    _only_error_line(capsys, "cannot write --out")
    assert calls == []
    out = tmp_path / "report.json"
    out.write_text("earlier report")
    assert main(["analyze", "--example", "veronese", "--grid", "1x1",
                 "--workers", "1", "--out", str(out)]) == 3
    assert len(calls) == 1 and out.read_text() == "earlier report"


def _analyze_under_a_memory_limit(argv):
    """`analyze` in a fresh process under a 1.5 GB address-space limit."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "pullconn.cli", "analyze", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)


@pytest.mark.parametrize("argv", [
    ["--example", "linear", "--field", "h", "--param", "N=20000", "--random", "1"],
    ["--example", "linear", "--param", "N=200000", "--random", "1"],
    ["--example", "totally-real", "--param", "n=150", "--random", "1"],
    ["--example", "grassmann-sub", "--param", "k=10", "--param", "m=60", "--param", "N=60",
     "--random", "1"],
], ids=["linear-h-N20000", "linear-c-N200000", "totally-real-n150", "grassmann-sub-n500"])
def test_oversized_stencil_exits2_under_a_memory_limit(argv):
    """Charts whose arrays would pass POINT_BYTES per point are refused by
    make_chart, before any work: large N through the (n, n, N, k) column
    jets (no N×N array is formed), large dimension n through the jets and
    the derivative component's (t, n, n, n)."""
    run = _analyze_under_a_memory_limit(argv)
    err = run.stderr.splitlines()
    assert run.returncode == 2 and len(err) == 1 and "MiB bound" in err[0], run.stderr


def test_a_chart_within_the_point_bound_runs_under_a_memory_limit():
    """linear N = 25000 over C and N = 3000 over H, and totally-real
    n = 60 (3,546 probe pairs): the sphere nets and the probe pairs are cut
    into chunks of STACK_BYTES, so only the chart's own jets grow with it."""
    for argv in (["linear", "--param", "N=25000"], ["linear", "--field", "h", "--param", "N=3000"],
                 ["totally-real", "--param", "n=60"]):
        run = _analyze_under_a_memory_limit(["--example", *argv, "--random", "1", "--workers", "1"])
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["aggregate"]["points"] == 1


def _singular(chart, u, **kwargs):
    raise NotImmersionError(u, 0.0)


def test_failed_point_records_name_the_exception(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "analyze_point", _singular)
    code, report = run_json(tmp_path, ["analyze", "--example", "veronese",
                                       "--grid", "1x2", "--workers", "1"])
    assert code == 1
    assert [r["error"] for r in report["failed_points"]] == ["NotImmersionError"] * 2
    assert "not an immersion" in report["failed_points"][0]["reason"]


def test_an_empty_sample_claims_no_verdict(tmp_path, monkeypatch):
    """When every point fails, the all-point verdicts are null, not vacuously
    true, and every declared check but immersion passes neither way."""
    monkeypatch.setattr(cli, "analyze_point", _singular)
    code, report = run_json(tmp_path, ["analyze", "--example", "veronese",
                                       "--grid", "1x2", "--workers", "1"])
    assert code == 1
    agg = report["aggregate"]
    assert [agg[k] for k in ("all_fat", "all_parallel", "all_radial",
                             "all_inequality_strict")] == [None] * 4
    assert [(c["name"], c["value"], c["pass"], c["reason"]) for c in report["checks"]] == [
        ("immersion", 2, False, None),
        ("holomorphic", None, None, "no point was analyzed"),
        ("parallel", None, None, "no point was analyzed")]


def test_csv_lists_failed_points_after_the_records(monkeypatch, capsys):
    """A failed point is a CSV row too, with its u, error and reason."""
    analyze, calls = cli.analyze_point, []

    def middle_fails(chart, u, **kwargs):
        calls.append(u)
        return _singular(chart, u) if len(calls) == 2 else analyze(chart, u, **kwargs)

    monkeypatch.setattr(cli, "analyze_point", middle_fails)
    assert main(["analyze", "--example", "veronese", "--grid", "1x3",
                 "--workers", "1", "--format", "csv"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["error"] for r in rows] == ["", "", "NotImmersionError"]
    assert [float(rows[2]["u0"]), float(rows[2]["u1"])] == list(calls[1])
    assert "not an immersion" in rows[2]["reason"] and rows[2]["fatness.margin"] == ""


def test_analyze_workers_match_serial(tmp_path):
    code1, r1 = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--grid", "2x2",
        "--workers", "1"], "w1.json")
    code2, r2 = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--grid", "2x2",
        "--workers", "3"], "w3.json")
    assert code1 == code2 == 0
    r1.pop("timing")
    r2.pop("timing")
    r1["config"].pop("workers")
    r2["config"].pop("workers")
    assert r1 == r2


def test_analyze_deterministic_given_seed(tmp_path):
    argv = ["analyze", "--example", "perturbed", "--random", "3",
            "--seed", "11", "--workers", "1"]
    _, r1 = run_json(tmp_path, argv, "a.json")
    _, r2 = run_json(tmp_path, argv, "b.json")
    r1.pop("timing")
    r2.pop("timing")
    assert r1 == r2


def test_csv_flattening(capsys):
    code = main(["analyze", "--example", "veronese", "--grid", "2x2",
                 "--workers", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4
    assert {"u0", "u1", "fatness.margin", "parallel.residual",
            "inequality.min_margin", "theta.value"} <= set(rows[0])
    assert rows[0]["normalization.value"] == ""  # skipped without --normalize
    assert float(rows[0]["fatness.margin"]) == pytest.approx(1.0)


def test_list_csv_has_one_row_per_entry(capsys):
    assert main(["list", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["name"] for row in rows] == sorted(CATALOG)
    for row in rows:
        entry = CATALOG[row["name"]]
        assert row["fields"] == "|".join(f.value for f in entry.fields)
        assert (json.loads(row["defaults"]), json.loads(row["expected"])) == (entry.defaults,
                                                                              entry.expected)


def test_verify_csv_has_one_row_per_check(tmp_path, capsys):
    code, report = run_json(tmp_path, ["verify"])
    assert main(["verify", "--format", "csv"]) == code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["name"], float(row["value"]), row["pass"]) for row in rows] == [
        (c["name"], c["value"], str(c["pass"])) for c in report["checks"]]


@pytest.mark.parametrize("argv", [
    ["list"],
    ["analyze", "--example", "veronese", "--param", "d=3", "--random", "3", "--normalize"],
    ["analyze", "--example", "perturbed", "--field", "h", "--param", "base=hline", "--random", "2"],
    ["verify"],
    ["sweep", "--example", "veronese", "--param", "d=1:2", "--grid", "2x2"],
], ids=["list", "analyze", "analyze-h", "verify", "sweep"])
def test_report_bodies_are_plain_json_values(argv):
    """Each command builds its report from plain Python values (render_report
    converts nothing): a JSON round trip returns the body unchanged, with no
    tuple, non-string key or NaN in it."""
    body, _ = cli.COMMANDS[argv[0]](cli.build_parser().parse_args(argv))
    assert json.loads(json.dumps(body, allow_nan=False)) == body


@pytest.mark.parametrize("d", [2, 4, 8])
def test_halton_matches_scipy_bit_for_bit(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in range(60):
        for n in (1, 5, 12):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert np.array_equal(cli._halton(d, n, seed), want), (seed, n)


def test_analyze_and_verify_load_no_scipy():
    """A random-sample analyze with --normalize and a verify pass, in one
    process, load no scipy module: the package runs on numpy alone (scipy's
    import cost about 0.2 s and 20 MB of RSS per run).  Nor do they load
    multiprocessing, which only a pool of workers uses (about 0.67 MB of
    RSS and 6 ms per process)."""
    code = ("import sys, pullconn.cli as c; "
            "assert c.main(['analyze', '--example', 'hline', '--random', '2', "
            "'--workers', '1', '--normalize']) == 0; "
            "assert c.main(['verify']) == 0; "
            "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')]; "
            "assert loaded == [], loaded")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def test_verify_battery_green(tmp_path):
    code, report = run_json(tmp_path, ["verify"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "curvature-norm-vs-oracle/clifford" in names
    assert "loop-generator-factor/G2R4" in names
    assert "derivative-vs-transported-oracle/perturbed" in names
    assert "fd-order/veronese" in names
    for c in report["checks"]:
        assert c["pass"] is True, c


def test_verify_fd_step_outside_its_range_exit2(capsys):
    """A step whose stencil leaves a chart's box (margin 2h) used to exit 3
    with ChartDomainError, and a subnormal step made the oracle's quotients
    overflow to NaN, which the worst-error maxima dropped, so every row
    passed.  Both are refused before any oracle runs, with the admitted range;
    the largest step it names still runs."""
    for value in ("1e9", "1e-300", "5e-324", "0.5"):
        assert main(["verify", "--fd-step", value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: --fd-step {float(value)} takes the difference stencil"), err
    most = err[0].split()[-1]
    assert float(most) == 0.3   # veronese's centre -0.6 in the box (-1.2, 1.2)
    assert main(["verify", "--fd-step", most, "--out", os.devnull]) == 1


@pytest.mark.parametrize("oracle_name,rows", [
    # dr_oracle pairs through curvature_pairing_fd, so its row reads NaN too
    ("curvature_pairing_fd", ["curvature-norm-vs-oracle/clifford", "curvature-norm-vs-oracle/veronese",
                              "derivative-vs-transported-oracle/perturbed", "fd-order/veronese"]),
    ("dr_oracle", ["derivative-vs-transported-oracle/perturbed"]),
])
def test_verify_fails_a_nan_oracle_value(tmp_path, monkeypatch, oracle_name, rows):
    """A NaN oracle value fails its row, which reads null with a reason; the
    worst-error maxima used to drop it, so the row read 0.0 and passed (with
    a NaN dr_oracle alone, verify exited 0).  The other rows are untouched."""
    from pullconn import oracle

    real = getattr(oracle, oracle_name)
    monkeypatch.setattr(oracle, oracle_name, lambda *args, **kwargs: real(*args, **kwargs) * np.nan)
    code, report = run_json(tmp_path, ["verify"])
    assert code == 1
    for c in report["checks"]:
        if c["name"] in rows:
            assert (c["value"], c["pass"], c["reason"]) == (None, False, "the value is not finite"), c
        else:
            assert c["pass"] is True and "reason" not in c, c


def test_verify_coarse_step_fails(tmp_path):
    """An absurd finite-difference step must be caught, not absorbed."""
    code, report = run_json(tmp_path, ["verify", "--fd-step", "0.2"])
    assert code == 1
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "curvature-norm-vs-oracle/veronese" in failed


def test_verify_fd_step_reaches_the_transported_oracle(tmp_path):
    """--fd-step is the step of dr_oracle's curvature pairing too (its
    Christoffel symbols and transports take the chart's jet), so the
    derivative row moves with it."""
    rows = []
    for argv, name in ((["verify"], "a.json"), (["verify", "--fd-step", "2e-3"], "b.json")):
        code, report = run_json(tmp_path, argv, name)
        assert code == 0
        rows.append({c["name"]: c["value"] for c in report["checks"]})
    key = "derivative-vs-transported-oracle/perturbed"
    assert rows[0][key] != rows[1][key]


def test_reported_seconds_lie_within_the_call(tmp_path):
    """timing.seconds is the run's own elapsed time: positive and no more
    than the wall time of the main call that reports it."""
    start = time.perf_counter()
    code, report = run_json(tmp_path, ["analyze", "--example", "veronese", "--random", "4",
                                       "--workers", "1"])
    wall = time.perf_counter() - start
    assert code == 0
    assert 0.0 < report["timing"]["seconds"] <= wall


def test_verify_times_every_check(tmp_path):
    _, report = run_json(tmp_path, ["verify"])
    seconds = report["timing"]["checks"]
    assert list(seconds) == [c["name"] for c in report["checks"]]
    assert all(s >= 0.0 for s in seconds.values())
    assert sum(seconds.values()) <= report["timing"]["seconds"]


# chart work of one `verify` pass: 27 calls and 3,070 rows (36 calls and
# 3,070 rows when each trial of the loop-generator check built its own exp
# chart; 36 calls and 9,470 rows when the Christoffel symbols took a 1 + 4n² row projector
# stencil per node; 38 calls and 15,792 rows when the transports took
# finite-difference stencils and the second fundamental form its own call;
# 182 calls and 41,574 rows when the Christoffel stencil was nested and
# each holonomy leg, curve parameter and frame pair took its own call)
VERIFY_CHART_CALLS = 27
VERIFY_CHART_ROWS = 3_070


def test_verify_chart_work_stays_within_its_budget(monkeypatch, capsys):
    """Counts the cols calls (a jet of any order) and the eval_point calls
    (order 0), and their rows, of the charts `verify` builds; a re-nested
    stencil or an unstacked loop fails here without any timing.  A row is
    one matrix of the returned columns: a chart over a stack of points, as
    the loop-generator check's exp chart is, returns (rows, trials, N,
    k[, 4]) and counts rows × trials."""
    from pullconn import oracle

    work = [0, 0]

    def counted(fn, field):
        def wrapped(U):
            out = fn(U)
            V = getattr(out, "v", out)
            work[0] += 1
            work[1] += int(np.prod(V.shape[:V.ndim - field.matrix_ndim]))
            return out
        return wrapped

    def traced(factory):
        def build(*args, **kwargs):
            chart = factory(*args, **kwargs)
            return dataclasses.replace(chart, cols=counted(chart.cols, chart.field),
                                       eval_point=counted(chart.eval_point, chart.field))
        return build

    monkeypatch.setattr(cli, "build_chart", traced(cli.build_chart))
    monkeypatch.setattr(oracle, "exp_chart", traced(oracle.exp_chart))
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert work[0] <= VERIFY_CHART_CALLS and work[1] <= VERIFY_CHART_ROWS, work


def test_verify_traces_little_memory(capsys):
    """One in-process `verify` pass peaks below 3 MiB of traced allocations
    (1.44 MiB with one exp chart per loop-generator trial, 2.17 MiB with the
    trials stacked, both on a first pass).  The benchmark's peak RSS bound
    is 5% on `verify-oracles`, and its timed loop keeps every result
    (ROADMAP item 1), so a stack that trades memory for calls shows here
    before it reads there as a regression."""
    tracemalloc.start()
    try:
        assert main(["verify"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("argv,nets", [
    (["--example", "hline"], False),
    (["--example", "linear", "--field", "h"], False),
    (["--example", "perturbed", "--param", "base=hline"], True),
], ids=["hline", "linear-h", "perturbed-hline"])
def test_sphere_nets_only_where_the_pencil_is_not_clifford(monkeypatch, capsys, argv, nets):
    """Quaternionic-holomorphic points certify their fatness pencil in closed
    form and have no second fundamental form, so one analyze point builds
    no sphere net; a perturbed point still searches one."""
    from pullconn import immersion

    built = []
    net = immersion._sphere_net

    def counted(*args):
        built.append(args)
        return net(*args)

    monkeypatch.setattr(immersion, "_sphere_net", counted)
    assert main(["analyze", *argv, "--random", "1", "--workers", "1"]) == 0
    capsys.readouterr()
    assert bool(built) is nets, built


def test_flags_a_command_does_not_take_exit2(capsys):
    """A flag the subcommand would ignore is refused by the parser."""
    assert main(["verify", "--example", "veronese"]) == 2
    assert main(["list", "--grid", "2x2"]) == 2
    assert main(["list", "--fd-step", "0.01"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

def test_sweep_veronese_curvature_ratios(tmp_path):
    code, report = run_json(tmp_path, [
        "sweep", "--example", "veronese", "--param", "d=1:4",
        "--grid", "2x2", "--workers", "1"])
    assert code == 0
    assert report["parameter"] == "d"
    ratios = [row["kb_ratio"]["value"] for row in report["rows"]]
    assert ratios == pytest.approx([1.0, 0.5, 1.0 / 3.0, 0.25], abs=1e-4)
    for row in report["rows"]:
        assert abs(row["min_fatness_margin"] - 1.0) < 1e-6


def test_sweep_amplitude_margins_decrease(tmp_path):
    """At amplitude 0 the chart is its parallel base, so the declared
    breaks-parallel check fails on that row alone, and the sweep exits 1."""
    code, report = run_json(tmp_path, [
        "sweep", "--example", "perturbed", "--param", "amplitude=0:0.2:0.1",
        "--random", "3", "--seed", "2", "--workers", "1"])
    assert code == 1
    assert [[c["name"] for c in row["checks"] if c["pass"] is False]
            for row in report["rows"]] == [["breaks-parallel"], [], []]
    margins = [row["min_fatness_margin"] for row in report["rows"]]
    assert abs(margins[0] - 1.0) < 1e-9
    assert margins[0] > margins[1] > margins[2]


def test_sweep_row_is_the_analyze_aggregate(tmp_path):
    """Each sweep row carries aggregate_records of its value's points."""
    code, sweep = run_json(tmp_path, [
        "sweep", "--example", "veronese", "--param", "d=2:3", "--grid", "2x2",
        "--workers", "1"], "sweep.json")
    assert code == 0
    code, analyze = run_json(tmp_path, [
        "analyze", "--example", "veronese", "--param", "d=3", "--grid", "2x2",
        "--workers", "1"], "analyze.json")
    assert code == 0
    row, agg = sweep["rows"][1], analyze["aggregate"]
    assert row["d"] == 3
    assert {k: row[k] for k in agg} == agg
    assert set(row) == set(agg) | {"d", "kb_probe", "kb_ratio", "failures", "checks"}
    assert (row["failures"], row["checks"]) == (analyze["failed_points"], analyze["checks"])


def test_sweep_names_its_failed_points_and_exits_1(tmp_path, monkeypatch):
    """A point that is not an immersion shows in its row with its exception
    type and message, and fails the row's immersion check, as in analyze."""
    calls = []
    real = cli.analyze_point

    def every_fourth_fails(chart, u, **kwargs):
        calls.append(1)
        if len(calls) % 4 == 1:
            raise NotImmersionError(u, 0.0)
        return real(chart, u, **kwargs)

    monkeypatch.setattr(cli, "analyze_point", every_fourth_fails)
    code, report = run_json(tmp_path, ["sweep", "--example", "veronese", "--param", "d=1:2",
                                       "--grid", "2x2", "--workers", "1"])
    assert code == 1
    for row in report["rows"]:
        assert (row["points"], row["failed_points"]) == (3, 1)
        assert [f["error"] for f in row["failures"]] == ["NotImmersionError"]
        assert "not an immersion" in row["failures"][0]["reason"]
        assert row["checks"][0] == {"name": "immersion", "detail": row["checks"][0]["detail"],
                                    "value": 1, "tolerance": 0, "pass": False, "reason": None}


@pytest.mark.parametrize("argv,code,reason", [
    (["--example", "perturbed", "--param", "base=clifford", "--param", "amplitude=0:0.1:0.1"],
     1, "reference curvature vanishes"),   # exit 1: amplitude 0 leaves clifford parallel
    (["--example", "linear", "--field", "r", "--param", "m=2", "--param", "N=2:3"],
     0, "base dimension below two"),
], ids=["flat-reference", "one-dimensional-base"])
def test_sweep_kb_ratio_is_null_with_its_reason(tmp_path, argv, code, reason):
    """kb_ratio has no value when the first value's probe curvature is zero
    (the flat clifford base) or when no value's base has a plane to probe."""
    got, report = run_json(tmp_path, ["sweep", *argv, "--random", "2", "--workers", "1"])
    assert got == code
    assert [row["kb_ratio"] for row in report["rows"]] == [{"value": None, "reason": reason}] * 2


def test_sweep_empty_range_exit2():
    assert main(["sweep", "--example", "veronese", "--param", "d=4:1"]) == 2
    assert main(["sweep", "--example", "veronese", "--param", "d=2"]) == 2


def test_sweep_csv(capsys):
    code = main(["sweep", "--example", "veronese", "--param", "d=1:2",
                 "--grid", "2x2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    assert float(rows[1]["kb_ratio.value"]) == pytest.approx(0.5, abs=1e-4)


def test_sweep_workers_match_serial(tmp_path):
    argv = ["sweep", "--example", "veronese", "--param", "d=1:2", "--grid", "2x2"]
    code1, r1 = run_json(tmp_path, argv + ["--workers", "1"], "w1.json")
    code2, r2 = run_json(tmp_path, argv + ["--workers", "2"], "w2.json")
    assert code1 == code2 == 0
    assert (r1["config"]["workers"], r2["config"]["workers"]) == (1, 2)
    for r in (r1, r2):
        r.pop("timing")
        r["config"].pop("workers")
    assert r1 == r2
