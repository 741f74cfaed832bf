"""Command line interface: sample charts, check formulas against oracles,
and sweep chart families.

Subcommands
-----------
list     catalog of example charts with defaults and headline properties
analyze  per-point frame analysis over a sample of chart points
verify   closed-form quantities re-derived by brute force (finite
         differences, parallel transport, holonomy loops) at fixed tolerances
sweep    one chart parameter over a range, one summary row per value

Exit status: 0 on success, 1 when a declared expectation or verification
check fails, 2 for configuration errors (bad flags, empty sweep ranges,
charts over the stencil's memory bound, sampling that would leave a chart's
safe interior, an ``--out`` file that cannot be opened, refused before any
work), 3 for an internal error: any other exception, reported as one
``error:`` line on stderr naming its type and message.

Reports are a single JSON document (schema ``pullconn-report/1``) or a flat
CSV.  Every numeric field is always present; a quantity that does not apply
is null with a sibling ``reason``.  Runs with identical configuration and
seed produce identical reports except for the ``timing`` block.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import multiprocessing as mp
import os
import re
import sys
import time

import numpy as np

from . import oracle
from .algebra import Field
from .catalog import CATALOG, build_chart, perturbed_base
from .connection import analyze_point, curvature_norm
from .constants import FD_STEP, FD_STEP2, STRICT_EPS
from .immersion import (
    STENCIL_BYTES,
    ChartDomainError,
    NotImmersionError,
    point_frame,
    second_fundamental_form,
    stencil_bytes,
)

SCHEMA = "pullconn-report/1"


class ConfigError(ValueError):
    """Bad flags, parameters, or sampling requests.  Mapped to exit code 2."""


# ----------------------------------------------------------------------------
# small parsers
# ----------------------------------------------------------------------------

def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_params(pairs):
    """``key=value`` strings to a dict with int/float coercion; a key given
    twice is an error."""
    out = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ConfigError(f"--param expects key=value, got '{raw}'")
        key, val = raw.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"--param expects key=value, got '{raw}'")
        if key in out:
            raise ConfigError(f"--param '{key}' is given more than once")
        out[key] = _coerce(val.strip())
    return out


def parse_grid(text: str):
    parts = re.split(r"[x×X]", text)
    if len(parts) != 2:
        raise ConfigError(f"--grid expects AxB, got '{text}'")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--grid expects integer AxB, got '{text}'") from None
    if a < 1 or b < 1:
        raise ConfigError("--grid sizes must be at least 1")
    return a, b


def parse_range(text: str):
    """``lo:hi`` or ``lo:hi:step`` to an inclusive list of values."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"range expects lo:hi[:step], got '{text}'")
    nums = [_coerce(p) for p in parts]
    if any(isinstance(v, str) for v in nums):
        raise ConfigError(f"range expects numbers, got '{text}'")
    lo, hi = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step <= 0:
        raise ConfigError(f"range step must be positive in '{text}'")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    if count < 1:
        raise ConfigError(f"empty sweep range '{text}'")
    integral = all(isinstance(v, int) for v in (lo, hi)) and isinstance(step, int)
    vals = [lo + i * step for i in range(count)]
    return [int(v) if integral else float(v) for v in vals]


def _parse_field(text):
    if text is None:
        return None
    try:
        return Field.parse(text)
    except Exception as exc:
        raise ConfigError(str(exc)) from None


# ----------------------------------------------------------------------------
# chart construction and sampling
# ----------------------------------------------------------------------------

def _validate_params(name: str, field, params: dict):
    entry = CATALOG[name]
    for key in params:
        if name == "perturbed" and key.startswith("base_"):
            base = params.get("base", perturbed_base(field))
            known = CATALOG[base].defaults if base in CATALOG else {}
            if key[5:] in known:
                continue
            raise ConfigError(
                f"parameter '{key}' does not apply to base '{base}' "
                f"(known: {sorted('base_' + k for k in known)})"
            )
        if key in entry.defaults:
            continue
        raise ConfigError(
            f"unknown parameter '{key}' for example '{name}' "
            f"(known: {sorted(entry.defaults)})"
        )


def make_chart(name: str, field, params: dict):
    if name not in CATALOG:
        raise ConfigError(f"unknown example '{name}'; known: {sorted(CATALOG)}")
    entry = CATALOG[name]
    if field is not None and field not in entry.fields:
        raise ConfigError(
            f"example '{name}' is not defined over {field.value!r}; "
            f"fields: {[f.value for f in entry.fields]}"
        )
    _validate_params(name, field, params)
    try:
        chart = build_chart(name, field=field, **params)
    except Exception as exc:
        raise ConfigError(f"could not build '{name}': {exc}") from exc
    if field is not None and chart.field is not field:
        raise ConfigError(
            f"example '{name}' with {params or 'default parameters'} builds a "
            f"chart over {chart.field.value!r}, not {field.value!r}"
        )
    if stencil_bytes(chart) > STENCIL_BYTES:
        raise ConfigError(f"example '{name}' needs {stencil_bytes(chart) >> 20} MiB of projectors "
                          f"per point, over the {STENCIL_BYTES >> 20} MiB bound")
    return chart


def safety_margin(fd_step) -> float:
    """Half-width the sampler keeps clear of the chart box edges."""
    h = FD_STEP if fd_step is None else float(fd_step)
    return 1.05 * max(2.0 * h, 4.0 * FD_STEP2)


def sample_points(chart, grid, random_n, seed, fd_step):
    """Sample interior chart coordinates.

    Two-dimensional charts default to a uniform grid; higher dimensions use
    a scrambled Halton sequence.  Raises ConfigError when the finite
    difference stencils would not fit inside the box.
    """
    margin = safety_margin(fd_step)
    lows = np.array([lo + margin for lo, _ in chart.box])
    highs = np.array([hi - margin for _, hi in chart.box])
    if np.any(lows >= highs):
        raise ConfigError(
            f"sampling margin {margin:.3g} leaves no interior of the chart box "
            f"{list(chart.box)}; lower --fd-step or widen the chart"
        )
    if grid is not None and random_n is not None:
        raise ConfigError("--grid and --random are mutually exclusive")
    if grid is None and random_n is None and chart.dim == 2:
        grid = (4, 4)
    if grid is not None:
        if chart.dim != 2:
            raise ConfigError(
                f"--grid applies to 2-d charts; '{chart.name}' has dimension "
                f"{chart.dim} (use --random N)"
            )
        a, b = grid
        us = np.linspace(lows[0], highs[0], a)
        vs = np.linspace(lows[1], highs[1], b)
        return [np.array([x, y]) for x in us for y in vs]
    if random_n is None:
        random_n = 12
    if random_n < 1:
        raise ConfigError("--random must request at least one point")
    unit = _halton(chart.dim, random_n, seed)
    return [lows + row * (highs - lows) for row in unit]


def _primes(count: int) -> list:
    out = []
    p = 2
    while len(out) < count:
        if all(p % q for q in out):
            out.append(p)
        p += 1
    return out


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points (n, d) of the Owen-scrambled Halton sequence.

    Bit for bit scipy's ``qmc.Halton(d, scramble=True, seed=seed).random(n)``
    without importing scipy.stats (about 40 MB and 1 s): for each prime
    base, ⌈54/log₂ base⌉ − 1 shuffled digit permutations, applied to the
    base-b digits of the point index, least significant first.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((d, n))
    for row, base in zip(out, _primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        scale = 1.0 / base
        for perm in perms:
            row += perm[q % base] * scale
            scale /= base
            q = q // base
    return out.T


# ----------------------------------------------------------------------------
# per-point records (JSON-safe, null + reason for skipped quantities)
# ----------------------------------------------------------------------------

def _cm_record(cm, reason=None):
    if cm is None:
        return {"value": None, "grid_best": None, "gap": None, "rounds": None,
                "converged": None, "reason": reason}
    return {"value": float(cm.value), "grid_best": float(cm.grid_best),
            "gap": float(cm.gap), "rounds": int(cm.rounds),
            "converged": bool(cm.converged), "reason": None}


def _residual_record(res) -> dict:
    why = None
    if res.degenerate:
        why = "no vertical probes in rank one over R"
    elif res.probes == 0:
        why = "no frame pairs in a one-dimensional base"
    return {"residual": float(res.value), "holds": res.holds,
            "probes": res.probes, "reason": why}


def point_record(pa) -> dict:
    fat = pa.fatness
    ineq = pa.inequality
    rec = {
        "u": [float(x) for x in pa.u],
        "gram_min_eig": float(pa.gram_min_eig),
        "shape": _cm_record(pa.shape),
        "theta": _cm_record(pa.theta,
                            reason=None if pa.theta is not None
                            else "Wirtinger angle undefined over R"),
        "fatness": {
            "margin": float(fat.margin),
            "fat": fat.fat,
            "gap": float(fat.gap),
            "rounds": int(fat.rounds),
            "converged": bool(fat.converged),
            "reason": "no vertical probes in rank one over R" if fat.degenerate else None,
        },
        "parallel": _residual_record(pa.parallel),
        "radial": _residual_record(pa.radial),
        "inequality": {
            "min_margin": None if not np.isfinite(ineq.min_margin) else float(ineq.min_margin),
            "strict": ineq.strict,
            "probes": ineq.probes,
            "reason": "base dimension below two" if not np.isfinite(ineq.min_margin)
                      else ("no vertical probes in rank one over R" if ineq.degenerate else None),
        },
        "kb_probe": {"value": pa.kb_probe,
                     "reason": None if pa.kb_probe is not None else "base dimension below two"},
        "normalization": {"value": pa.normalization,
                          "reason": None if pa.normalization is not None
                          else "run with --normalize to scale curvature"},
    }
    if pa.corollary is not None:
        lhs, rhs, ok = pa.corollary
        rec["corollary"] = {"lhs": float(lhs), "rhs": float(rhs),
                            "satisfied": bool(ok), "reason": None}
    else:
        why = ("Wirtinger angle undefined over R" if pa.theta is None
               else "run with --normalize to evaluate the shape bound")
        rec["corollary"] = {"lhs": None, "rhs": None, "satisfied": None, "reason": why}
    return rec


def _collect(records, path):
    out = []
    for rec in records:
        v = rec
        for key in path:
            v = v[key]
        if v is not None:
            out.append(v)
    return out


def _agg_min(records, path):
    vals = _collect(records, path)
    return min(vals) if vals else None


def _agg_max(records, path):
    vals = _collect(records, path)
    return max(vals) if vals else None


def aggregate_records(records, failures) -> dict:
    """Extremes over per-point records plus all-point verdicts."""
    def verdict(path):
        vals = _collect(records, path)
        if len(vals) < len(records):
            return None
        return bool(all(vals))

    return {
        "points": len(records),
        "failed_points": len(failures),
        "min_gram_eig": _agg_min(records, ("gram_min_eig",)),
        "max_shape": _agg_max(records, ("shape", "value")),
        "min_shape": _agg_min(records, ("shape", "value")),
        "max_theta": _agg_max(records, ("theta", "value")),
        "min_fatness_margin": _agg_min(records, ("fatness", "margin")),
        "max_parallel_residual": _agg_max(records, ("parallel", "residual")),
        "max_radial_residual": _agg_max(records, ("radial", "residual")),
        "min_inequality_margin": _agg_min(records, ("inequality", "min_margin")),
        "min_kb": _agg_min(records, ("kb_probe", "value")),
        "max_kb": _agg_max(records, ("kb_probe", "value")),
        "all_fat": verdict(("fatness", "fat")),
        "all_parallel": verdict(("parallel", "holds")),
        "all_radial": verdict(("radial", "holds")),
        "all_inequality_strict": verdict(("inequality", "strict")),
    }


# ----------------------------------------------------------------------------
# declared expectations from the catalog
# ----------------------------------------------------------------------------

def expectation_checks(entry, records, failures) -> list:
    """Turn a catalog entry's headline properties into pass/fail checks.  A
    residual check that no record defines passes neither way: its pass is
    null, with the records' reason."""
    checks = [{
        "name": "immersion",
        "detail": "full-rank differential at every sampled point",
        "value": len(failures),
        "tolerance": 0,
        "pass": not failures,
        "reason": None,
    }]
    exp = entry.expected

    def add(name, detail, value, tol, ok, reason=None):
        checks.append({"name": name, "detail": detail, "value": value,
                       "tolerance": tol, "pass": None if reason else bool(ok),
                       "reason": reason})

    defined = [r for r in records if r["parallel"]["reason"] is None]
    undefined = None if defined else (records[0]["parallel"]["reason"] if records
                                      else "no point was analyzed")

    if exp.get("totally_geodesic"):
        worst = _agg_max(records, ("shape", "value"))
        add("totally-geodesic", "second fundamental form vanishes",
            worst, 1e-6, worst is not None and worst < 1e-6)
    if exp.get("holomorphic"):
        worst = _agg_max(records, ("theta", "value"))
        add("holomorphic", "Wirtinger angle zero at every point",
            worst, 1e-6, worst is not None and worst < 1e-6)
    if exp.get("parallel"):
        ok = all(r["parallel"]["holds"] for r in defined)
        worst = _agg_max(defined, ("parallel", "residual"))
        add("parallel", "curvature derivative residual below threshold",
            worst, STRICT_EPS, ok, undefined)
    if exp.get("wirtinger") == "pi/2":
        vals = _collect(records, ("theta", "value"))
        worst = max((abs(v - np.pi / 2) for v in vals), default=None)
        add("totally-real-angle", "Wirtinger angle pi/2 at every point",
            worst, 1e-6, worst is not None and worst < 1e-6)
    if exp.get("flat"):
        vals = _collect(records, ("kb_probe", "value"))
        worst = max((abs(v) for v in vals), default=None)
        add("flat", "base sectional curvature zero",
            worst, 1e-6, worst is not None and worst < 1e-6)
    if exp.get("breaks_parallel"):
        best = _agg_max(defined, ("parallel", "residual"))
        add("breaks-parallel", "the perturbation leaves a visibly nonparallel curvature",
            best, 1e-3, best is not None and best > 1e-3, undefined)
    return checks


# ----------------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------------

# set before the pool forks, so every worker inherits the one built chart
_WORKER = {}


def _pool_point(task):
    idx, u = task
    try:
        pa = analyze_point(_WORKER["chart"], np.asarray(u),
                           normalize=_WORKER["normalize"],
                           fd_step=_WORKER["fd_step"])
        return idx, "ok", point_record(pa)
    except (NotImmersionError, ChartDomainError) as exc:
        return idx, "error", {"u": [float(x) for x in np.asarray(u)],
                              "error": type(exc).__name__, "reason": str(exc)}


def analyze_sample(chart, points, normalize, fd_step, workers):
    """Run analyze_point over a sample, preserving point order."""
    _WORKER.update(chart=chart, normalize=normalize, fd_step=fd_step)
    results = [None] * len(points)
    if workers <= 1 or len(points) <= 1:
        for i, u in enumerate(points):
            results[i] = _pool_point((i, u))[1:]
    else:
        ctx = mp.get_context("fork")
        with ctx.Pool(min(workers, len(points))) as pool:
            for idx, status, rec in pool.imap_unordered(
                    _pool_point, list(enumerate(points)), chunksize=1):
                results[idx] = (status, rec)
    records = [rec for status, rec in results if status == "ok"]
    failures = [rec for status, rec in results if status != "ok"]
    return records, failures


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def cmd_list(args) -> tuple:
    rows = []
    for name in sorted(CATALOG):
        e = CATALOG[name]
        rows.append({
            "name": e.name,
            "summary": e.summary,
            "fields": [f.value for f in e.fields],
            "defaults": dict(e.defaults),
            "expected": dict(e.expected),
        })
    return {"examples": rows}, 0


def _config_echo(args, chart=None, seed=None):
    cfg = {
        "example": getattr(args, "example", None),
        "field": getattr(args, "field", None),
        "params": parse_params(getattr(args, "param", None)),
        "grid": getattr(args, "grid", None),
        "random": getattr(args, "random", None),
        "seed": seed,
        "fd_step": getattr(args, "fd_step", None),
        "normalize": bool(getattr(args, "normalize", False)),
        "workers": getattr(args, "workers", None),
    }
    if chart is not None:
        cfg["chart"] = {"name": chart.name, "field": chart.field.value,
                        "N": chart.N, "k": chart.k, "dim": chart.dim,
                        "params": {k: v for k, v in chart.params.items()
                                   if np.isscalar(v)}}
    return cfg


def _workers(args) -> int:
    return args.workers if args.workers is not None else (os.cpu_count() or 1)


def _check_flags(args) -> None:
    """Reject numeric flags that a command would bend or crash on."""
    workers, seed = getattr(args, "workers", None), getattr(args, "seed", None)
    h = getattr(args, "fd_step", None)
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    if h is not None and not (math.isfinite(h) and h > 0):
        raise ConfigError(f"--fd-step must be finite and positive, got {h}")


def cmd_analyze(args) -> tuple:
    if not args.example:
        raise ConfigError("analyze needs --example NAME (see `pullconn list`)")
    field = _parse_field(args.field)
    params = parse_params(args.param)
    chart = make_chart(args.example, field, params)
    grid = parse_grid(args.grid) if args.grid else None
    seed = args.seed if args.seed is not None else 0
    points = sample_points(chart, grid, args.random, seed, args.fd_step)
    records, failures = analyze_sample(
        chart, points, args.normalize, args.fd_step, _workers(args))
    agg = aggregate_records(records, failures)
    checks = expectation_checks(CATALOG[args.example], records, failures)
    report = {
        "config": _config_echo(args, chart, seed),
        "points": records,
        "failed_points": failures,
        "aggregate": agg,
        "checks": checks,
    }
    code = 1 if any(c["pass"] is False for c in checks) else 0
    return report, code


def _rel_err(a: float, b: float, floor: float = 0.05) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def _norm_vs_oracle(chart, u, h) -> float:
    """Worst relative error of the closed-form curvature norm against the
    finite-difference oracle, over frame directions and vertical probes;
    one oracle call per probe pairs every two frame directions."""
    pf = point_frame(chart, u)
    worst = 0.0
    for alpha in pf.probes:
        w, v = alpha.fiber_pair(pf.pt.V)
        comps = oracle.curvature_pairing_fd(chart, u, pf.coeff[:, None], pf.coeff[None], w, v,
                                            h=h, use_analytic=False)
        for a in range(pf.n):
            closed = curvature_norm(pf.E[a], alpha, pf.E)
            worst = max(worst, _rel_err(closed, float(np.linalg.norm(comps[a]))))
    return worst


def _dr_vs_oracle(chart, u, triples, h) -> float:
    """Worst |closed-form derivative component - 2 x transported oracle|."""
    pf = point_frame(chart, u, h=h)
    ff = second_fundamental_form(chart, u, pf=pf)
    w, v = pf.probes[0].fiber_pair(pf.pt.V)
    worst = 0.0
    for triple in triples:
        orc = oracle.dr_oracle(chart, u, *pf.coeff[list(triple)], w, v, h=h)
        worst = max(worst, abs(ff.DR[(0,) + triple] - 2.0 * orc))
    return worst


def cmd_verify(args) -> tuple:
    """Fixed battery: every closed-form quantity against a brute-force twin.
    timing.checks holds each row's seconds since the previous row."""
    h = args.fd_step if args.fd_step is not None else FD_STEP
    checks = []
    seconds = {}
    last = time.perf_counter()

    def add(name, detail, value, tol, passed=None):
        nonlocal last
        checks.append({"name": name, "detail": detail, "value": float(value),
                       "tolerance": tol, "pass": bool(value < tol if passed is None else passed)})
        now = time.perf_counter()
        seconds[name], last = now - last, now

    chart = build_chart("clifford")
    err = max(_norm_vs_oracle(chart, np.array([0.3, -0.4]), h),
              _norm_vs_oracle(chart, np.array([0.7, 0.2]), h))
    add("curvature-norm-vs-oracle/clifford",
        "closed-form curvature norm against finite differences", err, 1e-4)

    chart = build_chart("veronese", d=2)
    err = max(_norm_vs_oracle(chart, np.array([0.35, -0.15]), h),
              _norm_vs_oracle(chart, np.array([-0.6, 0.45]), h))
    add("curvature-norm-vs-oracle/veronese",
        "closed-form curvature norm against finite differences", err, 1e-4)

    res = oracle.lemma_omega_check(Field.REAL, 4, 2, trials=10)
    add("loop-generator-factor/G2R4",
        "holonomy loop generators fit -G/2 with factor 1/2",
        abs(res.c_fit - 0.5), 1e-3)
    add("loop-generator-deviation/G2R4",
        "per-trial scatter of the loop generator fit",
        res.max_deviation, 1e-4)

    chart = build_chart("perturbed", amplitude=0.05, seed=7)
    err = max(
        _dr_vs_oracle(chart, np.array([0.25, -0.3]), [(0, 1, 0), (0, 1, 1)], h),
        _dr_vs_oracle(chart, np.array([-0.45, 0.2]), [(0, 1, 0), (1, 0, 1)], h),
    )
    add("derivative-vs-transported-oracle/perturbed",
        "covariant derivative component against transported differences",
        err, 2e-3)

    chart = build_chart("veronese", d=2)
    u0 = np.array([0.3, 0.2])
    e1 = _norm_vs_oracle(chart, u0, 0.02)
    e2 = _norm_vs_oracle(chart, u0, 0.01)
    ratio = e1 / max(e2, 1e-15)
    add("fd-order/veronese", "halving the step shrinks the oracle error by 4x",
        ratio, 4.0, passed=ratio >= 4.0)

    report = {"config": _config_echo(args, seed=None), "checks": checks,
              "timing": {"checks": seconds}}
    code = 0 if all(c["pass"] for c in checks) else 1
    return report, code


def cmd_sweep(args) -> tuple:
    if not args.example:
        raise ConfigError("sweep needs --example NAME (see `pullconn list`)")
    field = _parse_field(args.field)
    raw = parse_params(args.param)
    ranged = {k: v for k, v in raw.items() if isinstance(v, str) and ":" in v}
    fixed = {k: v for k, v in raw.items() if k not in ranged}
    if len(ranged) != 1:
        raise ConfigError("sweep needs exactly one ranged --param key=lo:hi[:step]")
    key, range_text = next(iter(ranged.items()))
    values = parse_range(range_text)
    seed = args.seed if args.seed is not None else 0
    grid = parse_grid(args.grid) if args.grid else None

    rows = []
    base_kb = None
    for val in values:
        params = dict(fixed)
        params[key] = val
        chart = make_chart(args.example, field, params)
        if grid is not None:
            points = sample_points(chart, grid, None, seed, args.fd_step)
        elif args.random is not None:
            points = sample_points(chart, None, args.random, seed, args.fd_step)
        elif chart.dim == 2:
            points = sample_points(chart, (3, 3), None, seed, args.fd_step)
        else:
            points = sample_points(chart, None, 6, seed, args.fd_step)
        records, failures = analyze_sample(
            chart, points, args.normalize, args.fd_step, _workers(args))
        kb = records[0]["kb_probe"]["value"] if records else None
        if base_kb is None and kb is not None:
            base_kb = kb
        if kb is None:
            ratio, why = None, "base dimension below two"
        elif base_kb is None or abs(base_kb) < 1e-12:
            ratio, why = None, "reference curvature vanishes"
        else:
            ratio, why = float(kb / base_kb), None
        rows.append({
            key: val,
            **aggregate_records(records, failures),
            "kb_probe": {"value": kb,
                         "reason": None if kb is not None else "base dimension below two"},
            "kb_ratio": {"value": ratio, "reason": why},
        })
    report = {
        "config": _config_echo(args, seed=seed),
        "parameter": key,
        "values": values,
        "rows": rows,
    }
    return report, 0


# ----------------------------------------------------------------------------
# output
# ----------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _flatten(prefix: str, obj, row: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}{i}", v, row)
    else:
        row[prefix] = "" if obj is None else obj


def _csv_rows(report: dict):
    if "points" in report and isinstance(report["points"], list):
        items = report["points"]
    elif "rows" in report:
        items = report["rows"]
    elif "checks" in report:
        items = report["checks"]
    elif "examples" in report:
        items = [{**e, "fields": "|".join(e["fields"]),
                  "defaults": json.dumps(e["defaults"]),
                  "expected": json.dumps(e["expected"])}
                 for e in report["examples"]]
    else:
        items = [report]
    flat = []
    columns = []
    for item in items:
        row = {}
        _flatten("", item, row)
        for key in row:
            if key not in columns:
                columns.append(key)
        flat.append(row)
    return columns, flat


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"
    columns, rows = _csv_rows(report)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def check_out(path: str) -> None:
    """Refuse an --out that cannot be opened for writing, before any work is
    done and without truncating an existing file."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    if not existed:
        os.remove(path)


def emit(report: dict, args) -> None:
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pullconn",
        description="Pulled-back universal connections on Grassmannians: "
                    "sample example charts, decide fatness and parallelism, "
                    "and re-derive every closed form by brute force.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampling(p):
        p.add_argument("--field", choices=["r", "c", "h"],
                       help="scalar field of the ambient Grassmannian")
        p.add_argument("--example", help="catalog chart name (see `list`)")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="chart parameter; repeatable; sweep accepts lo:hi[:step]")
        p.add_argument("--grid", metavar="AxB",
                       help="uniform sample grid (2-d charts only)")
        p.add_argument("--random", type=int, metavar="N",
                       help="low-discrepancy sample of N interior points")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument("--normalize", action="store_true",
                       help="scale curvature so holomorphic sectionals reach 1")
        p.add_argument("--workers", type=int,
                       help="worker processes for point analysis "
                            "(default: available parallelism)")

    def add_fd_step(p):
        p.add_argument("--fd-step", type=float, dest="fd_step",
                       help="finite difference step for chart differentials")

    def add_output(p):
        p.add_argument("--out", help="write the report to FILE instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    analyze = sub.add_parser("analyze", help="per-point analysis of one chart")
    verify = sub.add_parser("verify", help="closed forms against brute-force oracles")
    sweep = sub.add_parser("sweep", help="one summary row per parameter value")
    listing = sub.add_parser("list", help="catalog of example charts")
    for p in (analyze, sweep):
        add_sampling(p)
    for p in (analyze, verify, sweep):
        add_fd_step(p)
    for p in (analyze, verify, sweep, listing):
        add_output(p)
    return parser


COMMANDS = {"list": cmd_list, "analyze": cmd_analyze,
            "verify": cmd_verify, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        _check_flags(args)
        if args.out:
            check_out(args.out)
        body, code = COMMANDS[args.command](args)
        report = {"schema": SCHEMA, "command": args.command, **body}
        report["timing"] = {"seconds": time.perf_counter() - start, **report.get("timing", {})}
        emit(report, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
