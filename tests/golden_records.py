"""Golden point records: `cli.point_record` output on fixed inputs.

    PYTHONPATH=src python tests/golden_records.py

rewrites tests/golden_records.json from the current code.  The inputs are
the benchmark's `analyze-frame` inputs at sample seeds 1 and 3, its
`analyze-quat` inputs (sample seed 0), and the default samples of
`analyze --example linear --field h` and
`analyze --example perturbed --field h --param base=linear`, all with
normalize=True.  tests/test_golden_records.py recomputes the records and
holds them to the file with `compare`.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pullconn import cli
from pullconn.algebra import Field
from pullconn.connection import analyze_point

PATH = Path(__file__).with_name("golden_records.json")

# (label, example, field, params, points per sample)
FRAME_CHARTS = [
    ("veronese/d=1", "veronese", None, {"d": 1}, 8),
    ("veronese/d=2", "veronese", None, {"d": 2}, 8),
    ("veronese/d=3", "veronese", None, {"d": 3}, 8),
    ("veronese/d=4", "veronese", None, {"d": 4}, 8),
    ("clifford", "clifford", None, {}, 8),
    ("totally-real", "totally-real", None, {}, 8),
    ("linear/r", "linear", "r", {}, 8),
    ("linear/c", "linear", "c", {}, 8),
    ("grassmann-sub", "grassmann-sub", None, {}, 8),
    ("perturbed", "perturbed", None, {}, 8),
]
QUAT_CHARTS = [
    ("hline", "hline", None, {}, 4),
    ("perturbed/base=hline/amplitude=0.05", "perturbed", None,
     {"base": "hline", "amplitude": 0.05}, 1),
    ("perturbed/base=hline/amplitude=0.3", "perturbed", None,
     {"base": "hline", "amplitude": 0.3}, 1),
]
# the CLI's default sample: 12 Halton points, seed 0
CLI_CHARTS = [
    ("linear/h", "linear", "h", {}, 12),
    ("perturbed/h/base=linear", "perturbed", "h", {"base": "linear"}, 12),
]
INPUTS = ([(f"frame/seed={s}/{spec[0]}", s, spec[1:]) for s in (1, 3) for spec in FRAME_CHARTS]
          + [(f"quat/{spec[0]}", 0, spec[1:]) for spec in QUAT_CHARTS]
          + [(f"cli/{spec[0]}", 0, spec[1:]) for spec in CLI_CHARTS])

# telemetry that flips on 1-ulp changes of the input; reported, not compared
UNCOMPARED = {"rounds", "converged"}
RTOL = ATOL = 1e-12


def compute() -> dict:
    """{label: [point_record, ...]} over INPUTS."""
    out = {}
    for label, seed, (example, field, params, count) in INPUTS:
        chart = cli.make_chart(example, None if field is None else Field.parse(field), params)
        points = cli.sample_points(chart, None, count, seed, None)
        out[label] = [cli.point_record(analyze_point(chart, u, normalize=True))
                      for u in points]
    return out


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, path + (i,))
    else:
        yield path, obj


def _angles_as_cosines(rec: dict) -> dict:
    """The θ record with value, grid_best and value + gap replaced by their
    cosines: arccos amplifies rounding near θ = 0."""
    theta = dict(rec["theta"])
    if theta["value"] is not None:
        theta["gap"] = float(np.cos(theta["value"] + theta["gap"]))
        theta["value"] = float(np.cos(theta["value"]))
        theta["grid_best"] = float(np.cos(theta["grid_best"]))
    return {**rec, "theta": theta}


def compare(want: dict, got: dict) -> list:
    """Every difference between two record sets that the tolerance rule
    does not allow: floats with |v| > 1e-6 within RTOL relative, others
    within ATOL absolute, every other value (verdicts, reasons) equal."""
    bad = []
    if want.keys() != got.keys():
        return [f"labels differ: {sorted(want.keys() ^ got.keys())}"]
    for label in want:
        if len(want[label]) != len(got[label]):
            bad.append(f"{label}: {len(want[label])} records, got {len(got[label])}")
            continue
        for i, (w, g) in enumerate(zip(want[label], got[label])):
            wl = dict(_leaves(_angles_as_cosines(w)))
            gl = dict(_leaves(_angles_as_cosines(g)))
            if wl.keys() != gl.keys():
                bad.append(f"{label}[{i}]: keys differ: {sorted(map(str, wl.keys() ^ gl.keys()))}")
                continue
            for path, wv in wl.items():
                if path[-1] in UNCOMPARED:
                    continue
                gv = gl[path]
                name = f"{label}[{i}]." + ".".join(map(str, path))
                if isinstance(wv, float) and isinstance(gv, float):
                    tol = RTOL * abs(wv) if abs(wv) > 1e-6 else ATOL
                    if not abs(gv - wv) <= tol:
                        bad.append(f"{name}: {wv!r} -> {gv!r}")
                elif wv != gv:
                    bad.append(f"{name}: {wv!r} -> {gv!r}")
    return bad


if __name__ == "__main__":
    records = compute()
    # one record per line, so a regenerated file diffs point by point
    PATH.write_text("{\n" + ",\n".join(
        json.dumps(label) + ": [\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs)
        + "\n]" for label, recs in records.items()) + "\n}\n")
    print(f"wrote {sum(map(len, records.values()))} records to {PATH}")
