"""Work counts of one point analysis, which do not depend on the machine's
speed: calls of numpy's general contraction and Python-level calls."""
import cProfile
import pstats

import numpy as np
import pytest

from pullconn import cli
from pullconn.catalog import CATALOG
from pullconn.connection import analyze_point

EXAMPLES = [(name, field) for name, entry in CATALOG.items() for field in entry.fields]


def _first_point(name, field):
    chart = cli.make_chart(name, field, {})
    return chart, cli.sample_points(chart, None, 1, 0, None)[0]


@pytest.mark.parametrize("name,field", EXAMPLES, ids=[f"{n}-{f.value}" for n, f in EXAMPLES])
def test_analyze_point_makes_no_tensordot_call(monkeypatch, name, field):
    """Every contraction of a point analysis is a reshaped matmul.  Before
    they were, one `analyze_point` made 24 `np.tensordot` calls on hline
    and linear/h, 34 on perturbed/h, 7 on linear/c and grassmann-sub and 4
    on veronese."""
    chart, u = _first_point(name, field)
    calls = []
    tensordot = np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda *a, **k: calls.append(1) or tensordot(*a, **k))
    analyze_point(chart, u, normalize=True)
    assert not calls


# Python-level calls of one warmed hline analyze_point, as cProfile counts
# them (pstats total_calls, C functions included): 1,853 when each
# quaternion product ended in np.tensordot, 917 with one matmul per
# product.  Re-measure with the body of the test below.
HLINE_POINT_CALLS = 1_000


def test_hline_point_makes_few_python_calls():
    chart, u = _first_point("hline", None)
    analyze_point(chart, u, normalize=True)   # fills the normalization and probe caches
    prof = cProfile.Profile()
    prof.enable()
    analyze_point(chart, u, normalize=True)
    prof.disable()
    calls = pstats.Stats(prof).total_calls
    assert calls <= HLINE_POINT_CALLS, calls
