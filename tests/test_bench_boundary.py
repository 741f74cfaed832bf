"""The benchmark's reading of the program, checked in the tier-1 suite.

bench/checks.py pairs frame vectors through the public point_frame and
inner_re to build its fatness floor.  The benchmark's own tests live
outside the tier-1 paths, so these tests load checks.py (without writing
bytecode next to it) and hold its pairing and its fatness check to the
frame layer.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from pullconn import cli
from pullconn.connection import fatness_margin
from pullconn.immersion import point_frame

CHECKS_PY = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


checks = _load_checks()

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
