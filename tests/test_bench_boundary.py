"""The benchmark's reading of the program, checked in the tier-1 suite.

bench/checks.py pairs frame vectors through the public point_frame and
inner_re to build its fatness floor, and bench/workload.py calls
analyze_point and `pullconn verify` and reads their results.  The
benchmark's own tests live outside the tier-1 paths, so these tests load
checks.py and workload.py (without writing bytecode next to them), hold
the pairing and the fatness check to the frame layer, and run one checked
pass of each workload.
"""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from pullconn import cli
from pullconn.connection import fatness_margin
from pullconn.immersion import point_frame

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _load_workload():
    """workload.py sets OPENBLAS_NUM_THREADS for its own process when it
    is imported; the variable is put back as it was."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    try:
        return _load("bench_workload", BENCH / "workload.py")
    finally:
        if saved is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


checks = _load("bench_checks", BENCH / "checks.py")
workload = _load_workload()

CASES = [("hline", {}), ("perturbed", {"base": "hline", "amplitude": 0.05})]


def _point(example, params):
    chart = cli.make_chart(example, None, params)
    return chart, cli.sample_points(chart, None, 1, 0, None)[0]


@pytest.mark.parametrize("example,params", CASES, ids=[c[0] for c in CASES])
def test_bench_jay_matrices_match_the_frame_layer(example, params):
    chart, u = _point(example, params)
    L = checks.jay_matrices(chart, u)
    assert L.shape == (3, chart.dim, chart.dim)
    assert abs(L - point_frame(chart, u).L).max() < 1e-12


@pytest.mark.parametrize("example,params", CASES, ids=[c[0] for c in CASES])
def test_bench_fatness_check_fires_just_above_the_margin(example, params):
    chart, u = _point(example, params)
    margin = fatness_margin(point_frame(chart, u)).margin
    floor = checks.sampled_fatness(checks.jay_matrices(chart, u))
    assert checks.fatness_overestimate(margin, floor) == []
    assert checks.fatness_overestimate(margin + 1e-6, floor)


@pytest.mark.parametrize("name", ["analyze-frame", "analyze-quat", "verify-oracles"])
def test_bench_workload_pass_is_clean(name, monkeypatch):
    """One pass of each workload's operations, checked as the benchmark
    checks them: no failed operation and no check message."""
    monkeypatch.setitem(sys.modules, "checks", checks)   # the workload's `import checks`
    cls = workload.VerifyWorkload if name == "verify-oracles" else workload.AnalyzeWorkload
    work = cls(name, 1)
    results = [op() for op in work.operations()]
    assert work.check(results, 1) == (0, [])
