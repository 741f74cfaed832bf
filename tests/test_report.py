"""The report contract of `pullconn.report` on the records `analyze` writes."""
import json
import math

import pytest

from pullconn.algebra import Field
from pullconn.catalog import CATALOG
from pullconn.cli import main, make_chart, sample_points
from pullconn.connection import analyze_point
from pullconn.report import QUANTITIES, expectation_checks, point_record
from test_cli import ADVERTISED

# (verdict, record key, record field)
VERDICTS = (("fat", "fatness", "fat"), ("parallel", "parallel", "holds"),
            ("radial", "radial", "holds"), ("inequality_strict", "inequality", "strict"))


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


@pytest.mark.parametrize("name,field,params", [
    ("totally-real", Field.COMPLEX, {"n": 1}),
    ("linear", Field.REAL, {}),
], ids=["totally-real-n1", "linear-r"])
def test_verdict_is_null_where_the_record_gives_a_reason(name, field, params):
    """PointAnalysis.verdict reads the reasons of QUANTITIES, as the record
    does: on a one-dimensional base parallel, radial and the inequality have
    no frame pairs, and rank one over R has no probes."""
    chart = make_chart(name, field, params)
    pa = analyze_point(chart, sample_points(chart, None, 1, 0)[0], normalize=True)
    rec = point_record(pa)
    verdict = pa.verdict
    for name_, key, reads in VERDICTS:
        assert verdict[name_] == rec[key][reads], name_
        assert (verdict[name_] is None) is (rec[key]["reason"] is not None), name_
    assert verdict.get("corollary_satisfied") == rec["corollary"]["satisfied"]
    if name == "totally-real":
        assert verdict == {"fat": False, "parallel": None, "radial": None,
                           "inequality_strict": None, "corollary_satisfied": True}
    else:
        assert set(verdict.values()) == {None}


VERDICT_CASES = [(name, Field.parse(field), {}) for name, field in ADVERTISED] + [
    ("totally-real", Field.COMPLEX, {"n": 1})]


@pytest.mark.parametrize("name,field,params", VERDICT_CASES,
                         ids=[f"{n}-{f.value}" for n, f, _ in VERDICT_CASES[:-1]] + ["totally-real-n1"])
def test_result_verdicts_agree_with_the_record(name, field, params):
    """One point of every example × field that `list` advertises, and a
    one-dimensional base: each result's own verdict property, and
    PointAnalysis.verdict, equal the record's verdict field, null where
    the record gives a reason."""
    chart = make_chart(name, field, params)
    pa = analyze_point(chart, sample_points(chart, None, 1, 0)[0], normalize=True)
    rec = point_record(pa)
    for name_, key, reads in VERDICTS:
        assert getattr(getattr(pa, key), reads) == rec[key][reads], name_
        assert pa.verdict[name_] == rec[key][reads], name_
    assert pa.verdict.get("corollary_satisfied") == rec["corollary"]["satisfied"]


def test_an_every_point_check_fails_when_one_point_misses_it():
    """A catalog check holds at every point of the sample, so its value is
    the worst point's: veronese's holomorphic check passes on veronese
    points and fails once a totally-real point, of Wirtinger angle π/2,
    joins them."""
    def records(name):
        chart = make_chart(name, Field.COMPLEX, {})
        return [point_record(analyze_point(chart, u)) for u in sample_points(chart, None, 2, 0)]

    def holomorphic(recs):
        return next(c for c in expectation_checks(CATALOG["veronese"], recs, [])
                    if c["name"] == "holomorphic")

    veronese = records("veronese")
    assert holomorphic(veronese)["pass"] is True
    mixed = holomorphic(veronese + records("totally-real"))
    assert mixed["pass"] is False
    assert mixed["value"] == pytest.approx(math.pi / 2)
