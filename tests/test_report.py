"""The report contract of `pullconn.report` on the records `analyze` writes."""
import json

import pytest

from pullconn.cli import main
from pullconn.report import QUANTITIES
from test_cli import ADVERTISED


@pytest.mark.parametrize("name,field", ADVERTISED, ids=[f"{n}-{f}" for n, f in ADVERTISED])
def test_point_records_follow_the_table(name, field, tmp_path):
    """One point of every example × field that `list` advertises: the record
    has the table's keys and fields, a quantity whose reason is set has every
    other field null, and one whose reason is not set has none null."""
    out = tmp_path / "report.json"
    assert main(["analyze", "--example", name, "--field", field, "--random", "1",
                 "--workers", "1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["points"][0]
    assert list(rec) == ["u", "gram_min_eig"] + [key for key, _, _ in QUANTITIES]
    for key, fields, _ in QUANTITIES:
        assert list(rec[key]) == [f for f, _, _ in fields] + ["reason"]
        values = [v for f, v in rec[key].items() if f != "reason"]
        if rec[key]["reason"] is None:
            assert None not in values, (key, rec[key])
        else:
            assert values == [None] * len(values), (key, rec[key])
