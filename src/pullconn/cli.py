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
charts over the per-point memory bound, sampling that would leave a chart's
safe interior, an ``--out`` file that cannot be opened, refused before any
work), 3 for an internal error: any other exception, reported as one
``error:`` line on stderr naming its type and message.

Reports are a single JSON document (schema ``pullconn-report/1``) or a flat
CSV.  Every numeric field is always present; a quantity that does not apply
is null with a sibling ``reason``.  Runs with identical configuration and
seed produce identical reports except for the ``timing`` block.  The point
records, their aggregates and the catalog checks are declared in ``report``;
this module samples, runs the commands and renders what they return.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import oracle
from .algebra import Field
from .catalog import CATALOG, build_chart
from .connection import POINT_BYTES, analyze_point, point_bytes
from .immersion import ChartDomainError, NotImmersionError, point_frame
from .report import NO_POINT, SCHEMA, aggregate_records, expectation_checks, point_record


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


# ----------------------------------------------------------------------------
# chart construction and sampling
# ----------------------------------------------------------------------------

def make_chart(name: str, field, params: dict):
    """The catalog chart, or ConfigError for an unknown name, what
    `CatalogEntry.build` refuses, or a chart over the per-point memory bound."""
    if name not in CATALOG:
        raise ConfigError(f"unknown example '{name}'; known: {sorted(CATALOG)}")
    try:
        chart = build_chart(name, field=field, **params)
    except Exception as exc:
        raise ConfigError(f"could not build '{name}': {exc}") from exc
    if point_bytes(chart) > POINT_BYTES:
        raise ConfigError(f"example '{name}' needs about {point_bytes(chart) >> 20} MiB of "
                          f"arrays per point, over the {POINT_BYTES >> 20} MiB bound")
    return chart


# the half-width the sampler keeps clear of the box edges: the reach of the
# second-difference stencil that the analysis once took, kept so samples stay put
SAMPLE_MARGIN = 1.05 * 4.0 * 10.0 ** -2.5


def sample_points(chart, grid, random_n, seed, margin=None):
    """Sample interior chart coordinates, margin (default SAMPLE_MARGIN)
    clear of the box edges: the uniform grid (a, b) of a 2-d chart, or
    random_n points of the scrambled Halton sequence of `seed`.  Raises
    ConfigError when the margin leaves no interior.
    """
    margin = SAMPLE_MARGIN if margin is None else margin
    lows = np.array([lo + margin for lo, _ in chart.box])
    highs = np.array([hi - margin for _, hi in chart.box])
    if np.any(lows >= highs):
        raise ConfigError(
            f"sampling margin {margin:.3g} leaves no interior of the chart box "
            f"{list(chart.box)}"
        )
    if grid is not None and random_n is not None:
        raise ConfigError("--grid and --random are mutually exclusive")
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
    if random_n < 1:
        raise ConfigError("--random must request at least one point")
    unit = _halton(chart.dim, random_n, seed)
    return [lows + row * (highs - lows) for row in unit]


def _command_sample(chart, args, default):
    """The points `analyze` or `sweep` runs: --grid, --random, or by default
    the grid default[0] on a 2-d chart and default[1] Halton points on any
    other.  --seed seeds only Halton points, so a grid refuses it."""
    grid = parse_grid(args.grid) if args.grid else None
    count = args.random
    if grid is None and count is None:
        grid, count = (default[0], None) if chart.dim == 2 else (None, default[1])
    points = sample_points(chart, grid, count, args.seed or 0)
    if count is None and args.seed is not None:
        raise ConfigError(f"--seed applies to --random samples; '{chart.name}' is sampled "
                          f"on a {grid[0]}x{grid[1]} grid")
    return points


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
# worker pool
# ----------------------------------------------------------------------------

# set before the pool forks, so every worker inherits the one built chart
_WORKER = {}


def _pool_point(u):
    try:
        pa = analyze_point(_WORKER["chart"], np.asarray(u), normalize=_WORKER["normalize"])
        return "ok", point_record(pa)
    except (NotImmersionError, ChartDomainError) as exc:
        return "error", {"u": [float(x) for x in np.asarray(u)],
                         "error": type(exc).__name__, "reason": str(exc)}


def analyze_sample(chart, points, normalize, workers):
    """Run analyze_point over a sample, preserving point order."""
    _WORKER.update(chart=chart, normalize=normalize)
    if workers <= 1 or len(points) <= 1:
        results = [_pool_point(u) for u in points]
    else:
        import multiprocessing as mp   # here only: a serial run never pays its import
        with mp.get_context("fork").Pool(min(workers, len(points))) as pool:
            results = pool.map(_pool_point, points, chunksize=1)
    records = [rec for status, rec in results if status == "ok"]
    failures = [rec for status, rec in results if status != "ok"]
    return records, failures


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

def cmd_list(args) -> tuple:
    rows = [{"name": e.name, "summary": e.summary, "fields": [f.value for f in e.fields],
             "defaults": dict(e.defaults), "expected": dict(e.expected)}
            for _, e in sorted(CATALOG.items())]
    return {"examples": rows}, 0


def _config_echo(args, chart=None):
    """The command's own flags as parsed, --param as a dict and --seed resolved (0 when not given)."""
    cfg = {}
    for key, value in vars(args).items():
        if key == "param":
            cfg["params"] = parse_params(value)
        elif key not in ("command", "out", "format"):
            cfg[key] = (value or 0) if key == "seed" else value
    if chart is not None:
        cfg["chart"] = {"name": chart.name, "field": chart.field.value,
                        "N": chart.N, "k": chart.k, "dim": chart.dim,
                        "params": chart.params}
    return cfg


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
    chart = make_chart(args.example, args.field, parse_params(args.param))
    points = _command_sample(chart, args, ((4, 4), 12))
    records, failures = analyze_sample(chart, points, args.normalize, args.workers)
    agg = aggregate_records(records, failures)
    checks = expectation_checks(CATALOG[args.example], records, failures)
    report = {
        "config": _config_echo(args, chart),
        "points": records,
        "failed_points": failures,
        "aggregate": agg,
        "checks": checks,
    }
    code = 1 if any(c["pass"] is False for c in checks) else 0
    return report, code


def _rel_err(a: float, b: float, floor: float = 0.05) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def _worst(errs) -> float:
    """The largest error, NaN when any is NaN (max() keeps whichever it met first)."""
    return float(np.max(list(errs), initial=0.0))


def _norm_vs_oracle(chart, u, **fd) -> float:
    """Worst relative error of the curvature norm the analysis reads,
    ½‖L[t, :, a]‖ for the tangential J-action L, against the finite-difference
    oracle (at the step h=... in fd, else its own), over frame directions a and
    vertical probes t; one oracle call per probe pairs every two frame directions."""
    pf = point_frame(chart, u)
    errs = []
    for t, alpha in enumerate(pf.probes):
        w, v = alpha.fiber_pair(pf.pt.V)
        comps = oracle.curvature_pairing_fd(chart, u, pf.coeff[:, None], pf.coeff[None], w, v, **fd)
        errs += [_rel_err(0.5 * float(np.linalg.norm(pf.L[t, :, a])), float(np.linalg.norm(comps[a])))
                 for a in range(pf.n)]
    return _worst(errs)


def _dr_vs_oracle(chart, u, triples, **fd) -> float:
    """Worst |closed-form derivative component - 2 x transported oracle|."""
    pf = point_frame(chart, u)
    w, v = pf.probes[0].fiber_pair(pf.pt.V)
    return _worst(abs(pf.DR[(0,) + t] - 2.0 * oracle.dr_oracle(chart, u, *pf.coeff[list(t)], w, v, **fd))
                  for t in triples)


def _check_fd_step(h: float, stencils) -> None:
    """ConfigError unless, at every (chart, centres U (B, n)) pair, the stencil
    of step h stays in the box (margin 2h, as differential_fd checks) and h is
    at least twice the largest float spacing of U, so that its half step moves
    every centre and no difference quotient overflows."""
    least = 2.0 * max(float(np.spacing(np.abs(U)).max()) for _, U in stencils)
    most = min(float(np.minimum(U - lo, hi - U).min()) / 2.0
               for chart, U in stencils for lo, hi in [np.array(chart.box, dtype=float).T])
    if not least <= h <= most:
        raise ConfigError(f"--fd-step {h} takes the difference stencil out of a chart's box or onto "
                          f"its centres; verify takes a step from {least} to {most}")


def cmd_verify(args) -> tuple:
    """Fixed battery: every closed-form quantity against a brute-force twin.
    timing.checks holds each row's seconds since the previous row.  A given
    --fd-step passes _check_fd_step at every row before any oracle runs."""
    fd = {} if args.fd_step is None else {"h": args.fd_step}
    veronese = build_chart("veronese", d=2)
    norm_rows = [("clifford", build_chart("clifford"), [[0.3, -0.4], [0.7, 0.2]]),
                 ("veronese", veronese, [[0.35, -0.15], [-0.6, 0.45]])]
    perturbed = build_chart("perturbed", amplitude=0.05, seed=7)
    dr_rows = [([0.25, -0.3], [(0, 1, 0), (0, 1, 1)]), ([-0.45, 0.2], [(0, 1, 0), (1, 0, 1)])]
    if args.fd_step is not None:
        _check_fd_step(args.fd_step, [(chart, np.array(us)) for _, chart, us in norm_rows] + [
            (perturbed, oracle.dr_centres(u, point_frame(perturbed, np.array(u)).coeff[t[2]]))
            for u, triples in dr_rows for t in triples])
    checks, seconds, last = [], {}, time.perf_counter()

    def add(name, detail, value, tol, passed=None):
        nonlocal last
        row = {"name": name, "detail": detail, "value": float(value),
               "tolerance": tol, "pass": bool(value < tol if passed is None else passed)}
        if not math.isfinite(value):
            row.update({"value": None, "pass": False, "reason": "the value is not finite"})
        checks.append(row)
        now = time.perf_counter()
        seconds[name], last = now - last, now

    for name, chart, us in norm_rows:
        add(f"curvature-norm-vs-oracle/{name}", "closed-form curvature norm against finite differences",
            _worst(_norm_vs_oracle(chart, np.array(u), **fd) for u in us), 1e-4)

    res = oracle.lemma_omega_check(Field.REAL, 4, 2, trials=10)
    add("loop-generator-factor/G2R4", "holonomy loop generators fit -G/2 with factor 1/2",
        abs(res.c_fit - 0.5), 1e-3)
    add("loop-generator-deviation/G2R4", "per-trial scatter of the loop generator fit",
        res.max_deviation, 1e-4)

    add("derivative-vs-transported-oracle/perturbed",
        "covariant derivative component against transported differences",
        _worst(_dr_vs_oracle(perturbed, np.array(u), triples, **fd) for u, triples in dr_rows), 2e-3)

    u0 = np.array([0.3, 0.2])
    ratio = _norm_vs_oracle(veronese, u0, h=0.02) / max(_norm_vs_oracle(veronese, u0, h=0.01), 1e-15)
    add("fd-order/veronese", "halving the step shrinks the oracle error by 4x",
        ratio, 4.0, passed=ratio >= 4.0)

    report = {"config": _config_echo(args), "checks": checks,
              "timing": {"checks": seconds}}
    code = 0 if all(c["pass"] for c in checks) else 1
    return report, code


def cmd_sweep(args) -> tuple:
    if not args.example:
        raise ConfigError("sweep needs --example NAME (see `pullconn list`)")
    raw = parse_params(args.param)
    ranged = {k: v for k, v in raw.items() if isinstance(v, str) and ":" in v}
    fixed = {k: v for k, v in raw.items() if k not in ranged}
    if len(ranged) != 1:
        raise ConfigError("sweep needs exactly one ranged --param key=lo:hi[:step]")
    key, range_text = next(iter(ranged.items()))
    values = parse_range(range_text)

    charts = [make_chart(args.example, args.field, {**fixed, key: val}) for val in values]
    samples = [_command_sample(chart, args, ((3, 3), 6)) for chart in charts]   # refusals before any work
    rows = []
    base_kb = None
    for val, chart, points in zip(values, charts, samples):
        records, failures = analyze_sample(chart, points, args.normalize, args.workers)
        probe = records[0]["kb_probe"] if records else {"value": None, "reason": NO_POINT}
        kb = probe["value"]
        if base_kb is None and kb is not None:
            base_kb = kb
        if kb is None:
            ratio, why = None, probe["reason"]
        elif abs(base_kb) < 1e-12:
            ratio, why = None, "reference curvature vanishes"
        else:
            ratio, why = float(kb / base_kb), None
        rows.append({
            key: val,
            **aggregate_records(records, failures),
            "kb_probe": probe,
            "kb_ratio": {"value": ratio, "reason": why},
            "failures": failures,
            "checks": expectation_checks(CATALOG[args.example], records, failures),
        })
    report = {
        "config": _config_echo(args),
        "parameter": key,
        "values": values,
        "rows": rows,
    }
    code = 1 if any(c["pass"] is False for row in rows for c in row["checks"]) else 0
    return report, code


# ----------------------------------------------------------------------------
# output
# ----------------------------------------------------------------------------

def _flatten(prefix: str, obj, row: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}{i}", v, row)
    else:
        row[prefix] = "" if obj is None else obj


# the rows each command's CSV lists
CSV_ROWS = {
    "list": lambda r: [{**e, "fields": "|".join(e["fields"]), "defaults": json.dumps(e["defaults"]),
                        "expected": json.dumps(e["expected"])} for e in r["examples"]],
    "analyze": lambda r: r["points"] + r["failed_points"],
    "sweep": lambda r: r["rows"],
    "verify": lambda r: r["checks"],
}


def render_report(report: dict, fmt: str) -> str:
    """The report as JSON, exactly as the command built it (every value is
    already a plain Python value), or as CSV, one flattened row per item of
    the command's CSV_ROWS."""
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    rows = []
    for item in CSV_ROWS[report["command"]](report):
        row = {}
        _flatten("", item, row)
        rows.append(row)
    columns = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
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
        p.add_argument("--seed", type=int, help="seed of a --random sample (default 0)")
        p.add_argument("--normalize", action="store_true",
                       help="also report the ambient curvature maximum λ and the "
                            "shape bound, whose left side is shape²/λ; rescales nothing")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for point analysis (default 1); a pool "
                            "pays off only on samples of hundreds of points")

    def add_output(p):
        p.add_argument("--out", help="write the report to FILE instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    analyze = sub.add_parser("analyze", help="per-point analysis of one chart")
    verify = sub.add_parser("verify", help="closed forms against brute-force oracles")
    sweep = sub.add_parser("sweep", help="one summary row per parameter value")
    listing = sub.add_parser("list", help="catalog of example charts")
    for p in (analyze, sweep):
        add_sampling(p)
    verify.add_argument("--fd-step", type=float, dest="fd_step",
                        help="finite difference step of the curvature pairing oracle (default 1e-3)")
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
