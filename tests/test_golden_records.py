"""Point records against the checked-in golden file (tests/golden_records.py
says how it is made and what the tolerance rule is)."""
import json

from golden_records import PATH, compare, compute, report


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
