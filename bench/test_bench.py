"""The benchmark's own tests: a short run of each workload, and each
correctness check firing on a corrupted value.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from pullconn import cli, connection  # noqa: E402
from pullconn.algebra import Field  # noqa: E402
from workload import FRAME_CHARTS, _summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# analyze-quat: per pass the four hline points pass and the two
# perturbed points fail the fatness check
FAILED_SHARE = {"analyze-frame": 0, "analyze-quat": Fraction(1, 3), "verify-oracles": 0}


def _run(workload, trace, seconds=1, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(workload, trace, seconds=1):
    proc = _run(workload, trace, seconds)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    res = _result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert Fraction(res["failed"], res["attempted"]) == FAILED_SHARE[workload]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_counts_do_not_depend_on_run_length():
    one, two = _result("analyze-frame", 1, 0), _result("analyze-frame", 1, 3)
    assert two["attempted"] > one["attempted"]
    assert set(one["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith("calls_per_op")]
    assert {n: one["metrics"][n]["value"] for n in calls} == \
        {n: two["metrics"][n]["value"] for n in calls}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("analyze-frame", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _frame_record(label, example, field, params, count):
    chart = cli.make_chart(example, None if field is None else Field.parse(field), params)
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    rec = _summary(connection.analyze_point(chart, u, normalize=True))
    return rec, checks.lam_for(label, chart.field.value)


@pytest.mark.parametrize("spec", FRAME_CHARTS, ids=[s[0] for s in FRAME_CHARTS])
def test_frame_checks_fire_on_corruption(spec):
    label = spec[0]
    rec, lam = _frame_record(*spec)
    assert checks.check_point(label, lam, rec) == []
    corrupt = {"normalization": rec["normalization"] * 1.01}
    for key in checks.frame_expected(label, lam):
        if key == "parallel_holds":
            corrupt[key] = False
        elif key == "kb" and abs(rec["kb"]) > 0.1:
            corrupt[key] = rec["kb"] * 1.01
        else:
            corrupt[key] = rec[key] + 1e-3
    if label == "perturbed":
        corrupt["margin"] = rec["margin"] + 1e-3
    for key, value in corrupt.items():
        assert checks.check_point(label, lam, {**rec, key: value}), key


def test_breaks_parallel_fires_on_parallel_pass():
    recs = [{"parallel": 0.05}, {"parallel": 2e-4}]
    assert checks.check_breaks_parallel("perturbed", recs) == []
    assert checks.check_breaks_parallel("perturbed", [{"parallel": 2e-4}])


def test_fatness_check_fires_on_raised_margin():
    chart = cli.make_chart("hline", None, {})
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    margin = connection.analyze_point(chart, u, normalize=True).fatness.margin
    floor = checks.sampled_fatness(checks.jay_matrices(chart, u))
    assert floor == pytest.approx(1.0, abs=1e-12)
    assert checks.fatness_overestimate(margin, floor) == []
    assert checks.fatness_overestimate(margin + 1e-3, floor)


def _verify_report(**values):
    names = {"curvature-norm-vs-oracle/clifford": 1e-12, "loop-generator-factor/G2R4": 3e-13,
             "derivative-vs-transported-oracle/perturbed": 2e-9, "fd-order/veronese": 15.997}
    names.update(values)
    # every check claims to pass: the benchmark must not rely on that flag
    return {"checks": [{"name": n, "value": v, "pass": True} for n, v in names.items()]}


def test_verify_checks_fire_on_corruption():
    assert checks.check_verify(0, _verify_report()) == []
    assert checks.check_verify(1, _verify_report())
    assert checks.check_verify(0, _verify_report(**{"loop-generator-factor/G2R4": 2e-3}))
    assert checks.check_verify(0, _verify_report(**{"fd-order/veronese": 14.0}))
    failing = _verify_report()
    failing["checks"][0]["pass"] = False
    assert checks.check_verify(0, failing)
