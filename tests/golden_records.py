"""Golden point records: `report.point_record` output on fixed inputs, and
the `verify` report.

    PYTHONPATH=src python tests/golden_records.py [--report]

rewrites tests/golden_records.json and tests/golden_verify.json from the
current code; with --report it leaves the files alone and prints, for every
record field, the largest relative and absolute move of the current code's
records against the file, and how many records changed a value that is not
a float on both sides (such as `fatness.margin: 16 records float → null`),
then every `verify` row's move; it exits 1 when any record or `verify`
difference lies outside the tolerance rule, else 0.  The
inputs are the benchmark's `analyze-frame` inputs at sample seeds 1 and 3, its
`analyze-quat` inputs (sample seed 0), and the default samples of
`analyze --example linear --field h` and
`analyze --example perturbed --field h --param base=linear`, all with
normalize=True.  The `verify` report is stored without its `timing` block.
tests/test_golden_records.py recomputes both and holds them to the files
with `compare` and `compare_verify`.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from pullconn import cli
from pullconn.algebra import Field
from pullconn.connection import analyze_point
from pullconn.report import TELEMETRY, point_record

PATH = Path(__file__).with_name("golden_records.json")
VERIFY_PATH = Path(__file__).with_name("golden_verify.json")

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
UNCOMPARED = {name for name, _, _ in TELEMETRY}
RTOL = ATOL = 1e-12
SMALL = 1e-6   # floats up to this size are held to ATOL, larger ones to RTOL
# verify rows held to a looser relative tolerance than RTOL: fd-order/veronese
# is the ratio e(0.02)/e(0.01) of two oracle errors of about 1e-7 and 1e-8,
# each a difference of O(1) pairings, so a last-bit change in the
# differentials moves it by about 1e-6 relative
VERIFY_RTOL = {"fd-order/veronese": 1e-5}


def compute() -> dict:
    """{label: [point_record, ...]} over INPUTS."""
    out = {}
    for label, seed, (example, field, params, count) in INPUTS:
        chart = cli.make_chart(example, None if field is None else Field.parse(field), params)
        points = cli.sample_points(chart, None, count, seed, None)
        out[label] = [point_record(analyze_point(chart, u, normalize=True))
                      for u in points]
    return out


def compute_verify() -> dict:
    """The report of one in-process `verify` run, without `timing`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify"])
    report = json.loads(out.getvalue())
    del report["timing"]
    return report


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
    does not allow: floats with |v| > SMALL within RTOL relative, others
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
                    tol = RTOL * abs(wv) if abs(wv) > SMALL else ATOL
                    if not abs(gv - wv) <= tol:
                        bad.append(f"{name}: {wv!r} -> {gv!r}")
                elif wv != gv:
                    bad.append(f"{name}: {wv!r} -> {gv!r}")
    return bad


def compare_verify(want: dict, got: dict) -> list:
    """Every difference between two `verify` reports that the tolerance rule
    does not allow: each row's value as a record float, with the relative
    tolerance of VERIFY_RTOL where it names the row, and every other entry
    (names, tolerances, verdicts, config) equal."""
    rows = [(w, g) for w, g in zip(want["checks"], got["checks"]) if w["name"] == g["name"]]
    if len(rows) != len(want["checks"]) or len(rows) != len(got["checks"]):
        return [f"rows differ: {[c['name'] for c in got['checks']]}"]
    bad = [f"{key}: {want[key]!r} -> {got.get(key)!r}" for key in want.keys() | got.keys()
           if key != "checks" and want.get(key) != got.get(key)]
    for w, g in rows:
        rtol = VERIFY_RTOL.get(w["name"], RTOL)
        tol = rtol * abs(w["value"]) if abs(w["value"]) > SMALL else ATOL
        if not abs(g["value"] - w["value"]) <= tol:
            bad.append(f"{w['name']}.value: {w['value']!r} -> {g['value']!r}")
        bad += [f"{w['name']}.{key}: {w[key]!r} -> {g.get(key)!r}"
                for key in w.keys() | g.keys() if key != "value" and w.get(key) != g.get(key)]
    return bad


def moves(want: dict, got: dict) -> dict:
    """{field: [largest relative move, its record, largest absolute move,
    its record]} over the float leaves of two record sets with equal labels
    and record counts, θ taken as cosines as in compare.  A field is a path
    inside a record, such as "theta.grid_best"; relative moves count only
    values above SMALL, which compare judges relatively (None if none is)."""
    out = {}
    for label in want:
        for i, (w, g) in enumerate(zip(want[label], got[label])):
            gl = dict(_leaves(_angles_as_cosines(g)))
            for path, wv in _leaves(_angles_as_cosines(w)):
                gv = gl.get(path)
                if not (isinstance(wv, float) and isinstance(gv, float)):
                    continue
                move = abs(gv - wv)
                m = out.setdefault(".".join(map(str, path)), [None, None, -1.0, None])
                if abs(wv) > SMALL and (m[0] is None or move / abs(wv) > m[0]):
                    m[:2] = move / abs(wv), f"{label}[{i}]"
                if move > m[2]:
                    m[2:] = move, f"{label}[{i}]"
    return out


def _kind(value) -> str:
    """A number by its type, anything else by its JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return type(value).__name__
    return json.dumps(value)


def kind_moves(want: dict, got: dict) -> dict:
    """{(field, kind before, kind after): records} over the leaves of two
    record sets that changed and are not floats on both sides, such as a
    float that became null or a verdict that flipped."""
    out = {}
    for label in want:
        for w, g in zip(want[label], got[label]):
            gl = dict(_leaves(g))
            for path, wv in _leaves(w):
                gv = gl.get(path)
                if (wv == gv and type(wv) is type(gv)) or (
                        isinstance(wv, float) and isinstance(gv, float)):
                    continue
                key = (".".join(map(str, path)), _kind(wv),
                       _kind(gv) if path in gl else "absent")
                out[key] = out.get(key, 0) + 1
    return out


def report(want: dict, got: dict) -> str:
    """One line per field, largest relative move first, then the fields
    judged only absolutely; then one line per field and change of kind,
    most records first; then every difference compare does not allow."""
    rows = sorted(moves(want, got).items(),
                  key=lambda kv: (kv[1][0] is None, -(kv[1][0] or kv[1][2]), kv[0]))
    lines = [f"{key}: relative " + ("-" if rel is None else f"{rel:.2e} at {rw}")
             + f", absolute {absolute:.2e} at {aw}"
             for key, (rel, rw, absolute, aw) in rows]
    lines += [f"{key}: {count} records {before} → {after}" for (key, before, after), count
              in sorted(kind_moves(want, got).items(), key=lambda kv: (-kv[1], kv[0]))]
    bad = compare(want, got)
    lines.append(f"{len(bad)} differences outside the tolerance rule")
    return "\n".join(lines + bad)


def report_verify(want: dict, got: dict) -> str:
    """Each `verify` row's value and relative move, then every difference
    compare_verify does not allow."""
    lines = [f"verify {w['name']}: {w['value']!r} -> {g['value']!r}, relative "
             f"{abs(g['value'] - w['value']) / max(abs(w['value']), 1e-300):.2e}"
             for w, g in zip(want["checks"], got["checks"])]
    bad = compare_verify(want, got)
    return "\n".join(lines + [f"{len(bad)} verify differences outside the tolerance rule"] + bad)


def report_files(records: dict, verify: dict, path: Path = PATH, verify_path: Path = VERIFY_PATH) -> int:
    """Prints report and report_verify of records and verify against the
    files; the exit status of --report: 1 when any record or `verify`
    difference lies outside the tolerance rule, else 0."""
    want, want_verify = json.loads(path.read_text()), json.loads(verify_path.read_text())
    print(report(want, records))
    print(report_verify(want_verify, verify))
    return int(bool(compare(want, records) or compare_verify(want_verify, verify)))


if __name__ == "__main__":
    import sys

    records, verify = compute(), compute_verify()
    if sys.argv[1:] == ["--report"]:
        sys.exit(report_files(records, verify))
    # one record per line, so a regenerated file diffs point by point
    PATH.write_text("{\n" + ",\n".join(
        json.dumps(label) + ": [\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs)
        + "\n]" for label, recs in records.items()) + "\n}\n")
    VERIFY_PATH.write_text(json.dumps(verify, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, records.values()))} records to {PATH} "
          f"and {len(verify['checks'])} verify rows to {VERIFY_PATH}")
