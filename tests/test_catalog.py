"""The catalog's one gate, `CatalogEntry.build`: every parameter rule is
checked there, without the command line."""
from dataclasses import replace

import pytest

from pullconn.algebra import Field
from pullconn.catalog import CATALOG, linear_embedding
from pullconn.report import EXPECTATIONS

# (example, field, extra parameters, the ValueError's text)
REFUSALS = [
    ("veronese", None, {"q": 1}, "unknown parameter 'q' for example 'veronese' (known: ['d'])"),
    ("perturbed", None, {"base": "hline", "base_d": 5},
     "parameter 'base_d' does not apply to base 'hline' (known: ['base_N'])"),
    ("perturbed", "r", {"base_d": 5}, "parameter 'base_d' does not apply to base 'linear'"),
    ("perturbed", None, {"base": "nosuch"}, "unknown base 'nosuch'"),
    ("veronese", None, {"d": 2.7}, "parameter 'd' must be an integer, got 2.7"),
    ("perturbed", None, {"seed": 1.5}, "parameter 'seed' must be an integer, got 1.5"),
    ("perturbed", "r", {"base": "linear", "base_m": 2.5}, "parameter 'm' must be an integer, got 2.5"),
    ("veronese", None, {"d": "two"}, "parameter 'd' must be an integer, got 'two'"),
    ("perturbed", None, {"amplitude": float("nan")}, "parameter 'amplitude' must be finite, got nan"),
    ("veronese", None, {"d": float("inf")}, "parameter 'd' must be finite, got inf"),
    ("veronese", "h", {}, "example 'veronese' is not defined over 'h'; fields: ['c']"),
    ("perturbed", "h", {"base": "veronese"}, "example 'veronese' is not defined over 'h'"),
    # values the gate admits and the chart's own builder refuses
    ("veronese", None, {"d": 0}, "degree must be >= 1"),
    ("linear", None, {"m": 5}, "need 2 <= m <= N"),
    ("hline", None, {"N": 1}, "need N >= 2"),
    ("grassmann-sub", None, {"k": 4}, "need 1 <= k < m <= N"),
    ("totally-real", None, {"n": 0}, "need n >= 1"),
]


@pytest.mark.parametrize("name,field,params,text", REFUSALS,
                         ids=["unknown", "base-key", "base-key-default-base", "base-name",
                              "fractional", "fractional-seed", "fractional-base", "string-int",
                              "nan", "inf", "field", "base-field", "range-d", "range-m",
                              "range-N", "range-k", "range-n"])
def test_build_refuses_each_rule_with_its_message(name, field, params, text):
    with pytest.raises(ValueError) as err:
        CATALOG[name].build(field, **params)
    assert text in str(err.value)


def test_build_refuses_a_chart_over_another_field():
    """The last rule: a builder that ignores the field it is given."""
    entry = replace(CATALOG["linear"], make=lambda field, m, N: linear_embedding(Field.COMPLEX, m, N))
    with pytest.raises(ValueError, match="with default parameters builds a chart over 'c', not 'r'"):
        entry.build(Field.REAL)
    assert entry.build(Field.COMPLEX).field is Field.COMPLEX


# every example × field that `list` advertises, with default parameters: the
# built chart's field, N, k, dim and params
ADVERTISED_CHARTS = {
    ("clifford", "c"): ("c", 3, 1, 2, {}),
    ("grassmann-sub", "r"): ("r", 5, 2, 4, {"k": 2, "m": 4, "N": 5}),
    ("hline", "h"): ("h", 3, 1, 4, {"N": 3}),
    ("linear", "r"): ("r", 4, 1, 2, {"m": 3, "N": 4}),
    ("linear", "c"): ("c", 4, 1, 4, {"m": 3, "N": 4}),
    ("linear", "h"): ("h", 4, 1, 8, {"m": 3, "N": 4}),
    ("perturbed", "r"): ("r", 4, 1, 2, {"base": "linear", "amplitude": 0.05, "seed": 7,
                                        "base_m": 3, "base_N": 4}),
    ("perturbed", "c"): ("c", 3, 1, 2, {"base": "veronese", "amplitude": 0.05, "seed": 7, "base_d": 2}),
    ("perturbed", "h"): ("h", 3, 1, 4, {"base": "hline", "amplitude": 0.05, "seed": 7, "base_N": 3}),
    ("totally-real", "c"): ("c", 3, 1, 2, {"n": 2}),
    ("veronese", "c"): ("c", 3, 1, 2, {"d": 2}),
}


def test_every_advertised_combination_builds_its_chart():
    assert set(ADVERTISED_CHARTS) == {(name, f.value) for name, e in CATALOG.items() for f in e.fields}
    for (name, field), want in ADVERTISED_CHARTS.items():
        chart = CATALOG[name].build(field)
        assert (chart.field.value, chart.N, chart.k, chart.dim, chart.params) == want, (name, field)


def test_every_declared_property_is_checked():
    """An `expected` key no EXPECTATIONS row reads would be advertised by
    `list` and checked nowhere."""
    read = {key for key, *_ in EXPECTATIONS}
    for name, entry in CATALOG.items():
        assert set(entry.expected.items()) <= read, name
