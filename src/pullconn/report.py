"""The report contract, schema ``pullconn-report/1``: every quantity an
``analyze`` or ``sweep`` report carries for its points, declared once.

``QUANTITIES`` declares each per-point quantity: its record key, the record
fields with what each reads of the result, and the reason the quantity is
undefined at a point.  When a record's ``reason`` is set, every other field
of that record is null, and aggregates and checks skip the record.
``AGGREGATES`` reduces a sample's records to extremes and all-point
verdicts, and ``EXPECTATIONS`` turns a catalog entry's declared properties
into checks.  ``cli`` builds its reports, JSON or flat CSV, from these
tables; ``tests/golden_records.py`` compares every field but ``TELEMETRY``.
"""
from __future__ import annotations

import functools
import math
import operator

from .constants import STRICT_EPS

SCHEMA = "pullconn-report/1"

NO_PROBES = "no vertical probes in rank one over R"
LOW_DIM = "base dimension below two"
REAL_ANGLE = "Wirtinger angle undefined over R"
NO_PAIRS = "no frame pairs in a one-dimensional base"
NO_POINT = "no point was analyzed"

# A field is (record field, what it reads of the result, cast): an attribute,
# a position in the corollary's (lhs, rhs, satisfied), or None for the result.
# refinement telemetry flips on 1-ulp changes of the input
TELEMETRY = (("rounds", "rounds", int), ("converged", "converged", bool))
CERTIFIED = (("value", "value", float), ("grid_best", "grid_best", float),
             ("gap", "gap", float)) + TELEMETRY
RESIDUAL = (("residual", "value", float), ("holds", "holds", bool), ("probes", "probes", int))


def _residual_reason(res):
    if res.degenerate:
        return NO_PROBES
    return NO_PAIRS if res.probes == 0 else None


def _inequality_reason(ineq):
    if not math.isfinite(ineq.min_margin):
        return LOW_DIM
    return NO_PROBES if ineq.degenerate else None


def _corollary_reason(pa):
    if pa.theta is None:
        return REAL_ANGLE
    return "run with --normalize to evaluate the shape bound" if pa.corollary is None else None


# (record key = the PointAnalysis attribute holding the result, fields,
#  reason(pa): why the quantity is undefined at the point, None where it is defined)
QUANTITIES = (
    ("shape", CERTIFIED, lambda pa: None),
    ("theta", CERTIFIED, lambda pa: REAL_ANGLE if pa.theta is None else None),
    ("fatness", (("margin", "margin", float), ("fat", "fat", bool), ("gap", "gap", float))
     + TELEMETRY, lambda pa: NO_PROBES if pa.fatness.degenerate else None),
    ("parallel", RESIDUAL, lambda pa: _residual_reason(pa.parallel)),
    ("radial", RESIDUAL, lambda pa: _residual_reason(pa.radial)),
    ("inequality", (("min_margin", "min_margin", float), ("strict", "strict", bool),
                    ("probes", "probes", int)), lambda pa: _inequality_reason(pa.inequality)),
    ("kb_probe", (("value", None, float),), lambda pa: LOW_DIM if pa.kb_probe is None else None),
    ("normalization", (("value", None, float),),
     lambda pa: None if pa.normalization is not None
     else "run with --normalize to report the ambient curvature maximum"),
    ("corollary", (("lhs", 0, float), ("rhs", 1, float), ("satisfied", 2, bool)), _corollary_reason),
)


def _read(result, reads):
    if reads is None:
        return result
    return result[reads] if isinstance(reads, int) else getattr(result, reads)


def point_record(pa) -> dict:
    """The JSON record of one PointAnalysis: ``u``, ``gram_min_eig``, then
    one sub-record per quantity."""
    rec = {"u": [float(x) for x in pa.u], "gram_min_eig": float(pa.gram_min_eig)}
    for key, fields, reason in QUANTITIES:
        why = reason(pa)
        result = getattr(pa, key)
        rec[key] = {name: None if why else cast(_read(result, reads)) for name, reads, cast in fields}
        rec[key]["reason"] = why
    return rec


def _collect(records, path):
    """The values at a record path, nulls left out."""
    vals = (functools.reduce(operator.getitem, path, rec) for rec in records)
    return [v for v in vals if v is not None]


# (aggregate key, record path, reduction)
AGGREGATES = (
    ("min_gram_eig", ("gram_min_eig",), min),
    ("max_shape", ("shape", "value"), max),
    ("min_shape", ("shape", "value"), min),
    ("max_theta", ("theta", "value"), max),
    ("min_fatness_margin", ("fatness", "margin"), min),
    ("max_parallel_residual", ("parallel", "residual"), max),
    ("max_radial_residual", ("radial", "residual"), max),
    ("min_inequality_margin", ("inequality", "min_margin"), min),
    ("min_kb", ("kb_probe", "value"), min),
    ("max_kb", ("kb_probe", "value"), max),
    ("all_fat", ("fatness", "fat"), all),
    ("all_parallel", ("parallel", "holds"), all),
    ("all_radial", ("radial", "holds"), all),
    ("all_inequality_strict", ("inequality", "strict"), all),
)


def aggregate_records(records, failures) -> dict:
    """Extremes over the records that define each quantity (null where none
    does), and all-point verdicts, null unless at least one record exists
    and every record defines the verdict."""
    out = {"points": len(records), "failed_points": len(failures)}
    for key, path, reduce in AGGREGATES:
        vals = _collect(records, path)
        if reduce is all:
            out[key] = bool(all(vals)) if records and len(vals) == len(records) else None
        else:
            out[key] = reduce(vals) if vals else None
    return out


VANISHES = 1e-6   # a sampled quantity this small counts as zero
VISIBLE = 1e-3    # a residual this large is visibly nonzero

# (catalog key and the value that declares the property, check name, detail,
#  record path, target, tolerance, comparison): the check's value is the
# largest |quantity − target| over the records, and it passes when
# comparison(value, tolerance) holds
EXPECTATIONS = (
    (("totally_geodesic", True), "totally-geodesic", "second fundamental form vanishes",
     ("shape", "value"), 0.0, VANISHES, operator.lt),
    (("holomorphic", True), "holomorphic", "Wirtinger angle zero at every point",
     ("theta", "value"), 0.0, VANISHES, operator.lt),
    (("parallel", True), "parallel", "curvature derivative residual below threshold",
     ("parallel", "residual"), 0.0, STRICT_EPS, operator.le),
    (("wirtinger", "pi/2"), "totally-real-angle", "Wirtinger angle pi/2 at every point",
     ("theta", "value"), math.pi / 2, VANISHES, operator.lt),
    (("flat", True), "flat", "base sectional curvature zero",
     ("kb_probe", "value"), 0.0, VANISHES, operator.lt),
    (("breaks_parallel", True), "breaks-parallel",
     "the perturbation leaves a visibly nonparallel curvature",
     ("parallel", "residual"), 0.0, VISIBLE, operator.gt),
)


def expectation_checks(entry, records, failures) -> list:
    """The immersion check, then one check per property the catalog entry
    declares.  A check that no record defines passes neither way: its value
    and pass are null, with the first record's reason."""
    checks = [{"name": "immersion", "detail": "full-rank differential at every sampled point",
               "value": len(failures), "tolerance": 0, "pass": not failures, "reason": None}]
    for (key, declared), name, detail, path, target, tol, compare in EXPECTATIONS:
        if entry.expected.get(key) != declared:
            continue
        vals = _collect(records, path)
        worst = max((abs(v - target) for v in vals), default=None)
        why = None if vals else (records[0][path[0]]["reason"] if records else NO_POINT)
        checks.append({"name": name, "detail": detail, "value": worst, "tolerance": tol,
                       "pass": None if why else bool(compare(worst, tol)), "reason": why})
    return checks
