"""End-to-end command line runs: exit codes, report schema, determinism."""
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pullconn import cli
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
        assert p["shape"]["rounds"] >= 1 and p["shape"]["converged"] is True


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
    # veronese is complex only
    assert main(["analyze", "--example", "perturbed", "--field", "h",
                 "--param", "base=veronese"]) == 2
    assert "over 'c', not 'h'" in capsys.readouterr().err


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
    """A step so large the stencil cannot stay inside the box is refused."""
    assert main(["analyze", "--example", "veronese", "--fd-step", "0.7",
                 "--grid", "2x2"]) == 2


def _only_error_line(capsys, text):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and text in err[0], err


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


@pytest.mark.parametrize("value", ["0", "-0.001", "nan", "inf"])
def test_fd_step_not_finite_positive_exit2(value, capsys):
    """Refused on analytic (veronese) and finite-difference (perturbed)
    charts alike; a zero step used to crash the latter with LinAlgError."""
    for example in ("veronese", "perturbed"):
        assert main(["analyze", "--example", example, "--grid", "1x1",
                     "--workers", "1", "--fd-step", value]) == 2
        _only_error_line(capsys, "--fd-step must be finite and positive")
    assert main(["verify", "--fd-step", value]) == 2
    _only_error_line(capsys, "--fd-step must be finite and positive")


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


@pytest.mark.parametrize("argv", [
    ["--example", "linear", "--param", "N=3000", "--random", "1"],
    ["--example", "totally-real", "--param", "n=60", "--random", "1"],
], ids=["linear-N3000", "totally-real-n60"])
def test_oversized_stencil_exits2_under_a_memory_limit(argv):
    """Charts whose projector stencil would pass STENCIL_BYTES per point are
    refused by make_chart; under a 1.5 GB address-space limit they once
    exited 3 with MemoryError."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "pullconn.cli", "analyze", *argv],
                         capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120)
    err = run.stderr.splitlines()
    assert run.returncode == 2 and len(err) == 1 and "MiB bound" in err[0], run.stderr


def test_failed_point_records_name_the_exception(tmp_path, monkeypatch):
    def singular(chart, u, **kwargs):
        raise NotImmersionError(u, 0.0)

    monkeypatch.setattr(cli, "analyze_point", singular)
    code, report = run_json(tmp_path, ["analyze", "--example", "veronese",
                                       "--grid", "1x2", "--workers", "1"])
    assert code == 1
    assert [r["error"] for r in report["failed_points"]] == ["NotImmersionError"] * 2
    assert "not an immersion" in report["failed_points"][0]["reason"]


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


@pytest.mark.parametrize("d", [2, 4, 8])
def test_halton_matches_scipy_bit_for_bit(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in range(60):
        for n in (1, 5, 12):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert np.array_equal(cli._halton(d, n, seed), want), (seed, n)


def test_sampling_leaves_scipy_stats_unimported():
    """Random sampling costs no scipy.stats import (about 40 MB of RSS)."""
    code = ("import sys, pullconn.cli as c; "
            "ch = c.make_chart('hline', None, {}); "
            "assert len(c.sample_points(ch, None, 4, 0, None)) == 4; "
            "assert 'scipy.stats' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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


def test_verify_coarse_step_fails(tmp_path):
    """An absurd finite-difference step must be caught, not absorbed."""
    code, report = run_json(tmp_path, ["verify", "--fd-step", "0.2"])
    assert code == 1
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "curvature-norm-vs-oracle/veronese" in failed


def test_verify_fd_step_reaches_the_transported_oracle(tmp_path):
    """--fd-step is the step of dr_oracle's Christoffel symbols, transports
    and pairing too, so the derivative row moves with it."""
    rows = []
    for argv, name in ((["verify"], "a.json"), (["verify", "--fd-step", "2e-3"], "b.json")):
        code, report = run_json(tmp_path, argv, name)
        assert code == 0
        rows.append({c["name"]: c["value"] for c in report["checks"]})
    key = "derivative-vs-transported-oracle/perturbed"
    assert rows[0][key] != rows[1][key]


def test_verify_times_every_check(tmp_path):
    _, report = run_json(tmp_path, ["verify"])
    seconds = report["timing"]["checks"]
    assert list(seconds) == [c["name"] for c in report["checks"]]
    assert all(s >= 0.0 for s in seconds.values())
    assert sum(seconds.values()) <= report["timing"]["seconds"]


# chart work of one `verify` pass: 38 calls and 15,792 rows (182 calls and
# 41,574 rows when the Christoffel stencil was nested and each holonomy leg,
# curve parameter and frame pair took its own call)
VERIFY_CHART_CALLS = 38
VERIFY_CHART_ROWS = 15_792


def test_verify_chart_work_stays_within_its_budget(monkeypatch, capsys):
    """Counts the eval_point and analytic_diff calls, and their rows, of the
    charts `verify` builds; a re-nested stencil or an unstacked loop fails
    here without any timing."""
    from pullconn import oracle

    work = [0, 0]

    def counted(fn):
        def wrapped(U):
            work[0] += 1
            work[1] += len(U)
            return fn(U)
        return None if fn is None else wrapped

    def traced(factory):
        def build(*args, **kwargs):
            chart = factory(*args, **kwargs)
            return dataclasses.replace(chart, eval_point=counted(chart.eval_point),
                                       analytic_diff=counted(chart.analytic_diff))
        return build

    monkeypatch.setattr(cli, "build_chart", traced(cli.build_chart))
    monkeypatch.setattr(oracle, "exp_chart", traced(oracle.exp_chart))
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert work[0] <= VERIFY_CHART_CALLS and work[1] <= VERIFY_CHART_ROWS, work


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
    code, report = run_json(tmp_path, [
        "sweep", "--example", "perturbed", "--param", "amplitude=0:0.2:0.1",
        "--random", "3", "--seed", "2", "--workers", "1"])
    assert code == 0
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
    assert set(row) == set(agg) | {"d", "kb_probe", "kb_ratio"}


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
