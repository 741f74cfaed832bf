"""Point records and the `verify` report against the checked-in golden files
(tests/golden_records.py says how they are made and what the tolerance rule
is)."""
import copy
import json

from golden_records import (
    PATH, VERIFY_PATH, compare, compare_verify, compute, compute_verify, report, report_files,
)


def test_point_records_match_the_golden_file():
    want = json.loads(PATH.read_text())
    assert compare(want, compute()) == []


def test_report_names_the_largest_move_of_each_field():
    want = json.loads(PATH.read_text())
    got = json.loads(PATH.read_text())
    label = next(lab for lab, recs in got.items() if recs[0]["shape"]["value"] > 1.0)
    got[label][0]["shape"]["value"] *= 1.0 + 1e-9
    lines = report(want, got).splitlines()
    assert lines[0].startswith(f"shape.value: relative 1.00e-09 at {label}[0]")
    assert lines[-2:] == ["1 differences outside the tolerance rule",
                          f"{label}[0].shape.value: {want[label][0]['shape']['value']!r} -> "
                          f"{got[label][0]['shape']['value']!r}"]


def test_report_counts_the_moves_of_values_that_are_not_floats():
    want = json.loads(PATH.read_text())
    got = copy.deepcopy(want)
    label = next(lab for lab, recs in got.items() if recs[0]["fatness"]["fat"] and len(recs) > 1)
    for rec in got[label][:2]:
        rec["fatness"]["margin"] = None
    got[label][0]["fatness"]["fat"] = False
    lines = report(want, got).splitlines()
    assert [line for line in lines if "→" in line] == [
        "fatness.margin: 2 records float → null", "fatness.fat: 1 records true → false"]


def test_verify_report_matches_the_golden_file():
    """Every row within the records' rule (the rows other than fd-order are
    oracle errors below 1e-6, held to 1e-12 absolute), except fd-order/veronese:
    a ratio of two errors of about 1e-8, which a last-bit change in the
    differentials moves by about 1e-6 relative, so it is held to 1e-5."""
    assert compare_verify(json.loads(VERIFY_PATH.read_text()), compute_verify()) == []


def test_verify_comparison_fires_on_each_tolerance():
    want = json.loads(VERIFY_PATH.read_text())
    rows = {c["name"]: i for i, c in enumerate(want["checks"])}
    assert compare_verify(want, copy.deepcopy(want)) == []
    for name, scale, fires in [("fd-order/veronese", 5e-6, False),
                               ("fd-order/veronese", 2e-5, True),
                               ("curvature-norm-vs-oracle/clifford", 0.0, True)]:
        got = copy.deepcopy(want)
        row = got["checks"][rows[name]]
        row["value"] = row["value"] * (1.0 + scale) if scale else row["value"] + 2e-12
        assert bool(compare_verify(want, got)) is fires, (name, scale)
    got = copy.deepcopy(want)
    got["checks"][0]["pass"] = not got["checks"][0]["pass"]
    assert compare_verify(want, got) == [f"{want['checks'][0]['name']}.pass: True -> False"]


def test_report_exits_1_on_a_corrupted_copy(tmp_path, capsys):
    """--report's status: 0 when the records and `verify` match the files
    within the rule, 1 when a copy of either file has one value moved past
    it."""
    records, verify = json.loads(PATH.read_text()), json.loads(VERIFY_PATH.read_text())
    assert report_files(records, verify) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 verify differences outside the tolerance rule"
    label = next(iter(records))
    bad = copy.deepcopy(records)
    bad[label][0]["shape"]["value"] = bad[label][0]["shape"]["value"] * (1.0 + 1e-9) + 1e-9
    (tmp_path / "records.json").write_text(json.dumps(bad))
    assert report_files(records, verify, path=tmp_path / "records.json") == 1
    assert "1 differences outside the tolerance rule" in capsys.readouterr().out.splitlines()
    bad = copy.deepcopy(verify)
    bad["checks"][0]["value"] += 1e-9
    (tmp_path / "verify.json").write_text(json.dumps(bad))
    assert report_files(records, verify, verify_path=tmp_path / "verify.json") == 1
    assert capsys.readouterr().out.splitlines()[-2] == "1 verify differences outside the tolerance rule"
