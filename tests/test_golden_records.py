"""Point records against the checked-in golden file (tests/golden_records.py
says how it is made and what the tolerance rule is)."""
import json

from golden_records import PATH, compare, compute


def test_point_records_match_the_golden_file():
    want = json.loads(PATH.read_text())
    assert compare(want, compute()) == []
