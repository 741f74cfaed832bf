"""One workload in one fresh process: set up, run whole passes, check.

    python3 bench/workload.py --workload NAME --seed N --seconds S
                              [--trace] [--setup-only]

bench/run.py starts this script; it is not meant to be run by hand.  The
last line of standard output is one JSON object with the set-up times and,
unless --setup-only, the timed phase and its checks.
"""
import time

T0 = time.perf_counter()  # set-up starts here, before numpy or pullconn load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the machine has two cores and one caller.  Must be set
# before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Workload inputs: (label, example, field, params, points per pass).  The
# field is the one make_chart builds (None: the catalog default).
FRAME_CHARTS = [
    ("veronese/d=1", "veronese", None, {"d": 1}, 8),
    ("veronese/d=2", "veronese", None, {"d": 2}, 8),
    ("veronese/d=3", "veronese", None, {"d": 3}, 8),
    ("veronese/d=4", "veronese", None, {"d": 4}, 8),
    ("clifford", "clifford", None, {}, 8),
    ("totally-real", "totally-real", None, {}, 8),
    ("linear/r", "linear", "r", {}, 8),
    ("linear/c", "linear", "c", {}, 8),
    ("grassmann-sub", "grassmann-sub", None, {}, 8),
    ("perturbed", "perturbed", None, {}, 8),
]
QUAT_CHARTS = [
    ("hline", "hline", None, {}, 4),
    ("perturbed/base=hline/amplitude=0.05", "perturbed", None,
     {"base": "hline", "amplitude": 0.05}, 1),
    ("perturbed/base=hline/amplitude=0.3", "perturbed", None,
     {"base": "hline", "amplitude": 0.3}, 1),
]
# Quaternionic points are sampled with seed 0 whatever --seed is.  The
# perturbed points all fail the fatness check, and about 2% of hline
# points make fatness_margin raise LinAlgError; a seeded sample would make
# the failed share of a run depend on the seed.
QUAT_SEED = 0

# The charts `pullconn verify` builds; set-up builds them once.
VERIFY_CHARTS = [("clifford", {}), ("veronese", {"d": 2}),
                 ("perturbed", {"amplitude": 0.05, "seed": 7})]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["analyze-frame", "analyze-quat", "verify-oracles"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _summary(pa) -> dict:
    """The scalars of one PointAnalysis that the checks read."""
    return {
        "kb": pa.kb_probe,
        "shape": float(pa.shape.value),
        "theta": None if pa.theta is None else float(pa.theta.value),
        "margin": float(pa.fatness.margin),
        "parallel": float(pa.parallel.value),
        "parallel_holds": pa.parallel.holds,
        "normalization": pa.normalization,
    }


class AnalyzeWorkload:
    """One operation is one analyze_point(..., normalize=True) call."""

    def __init__(self, name, seed):
        from pullconn import cli, connection, immersion
        from pullconn.algebra import Field

        self.connection = connection
        self.point_errors = (immersion.NotImmersionError, immersion.ChartDomainError)
        self.quat = name == "analyze-quat"
        specs, sample_seed = (QUAT_CHARTS, QUAT_SEED) if self.quat else (FRAME_CHARTS, seed)
        t = time.perf_counter()
        self.inputs = []   # (label, chart, u): one pass
        for label, example, field, params, count in specs:
            chart = cli.make_chart(example, None if field is None else Field.parse(field), params)
            for u in cli.sample_points(chart, None, count, sample_seed, None):
                self.inputs.append((label, chart, u))
        self.chart_build_s = time.perf_counter() - t

    def warm_up(self):
        """One point per normalization key fills the curvature_normalization
        cache, as the first point of every `pullconn analyze` run does."""
        seen = set()
        for _, chart, u in self.inputs:
            key = (chart.field, chart.N, chart.k)
            if key not in seen:
                seen.add(key)
                self.run_op(chart, u)

    def operations(self):
        return [functools.partial(self.run_op, chart, u) for _, chart, u in self.inputs]

    def run_op(self, chart, u):
        # looked up at each call, so the traced run sees the wrapper
        try:
            return _summary(self.connection.analyze_point(chart, u, normalize=True))
        except self.point_errors as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def check(self, results, passes):
        """Returns (failed operation count, check messages)."""
        import checks

        msgs, failed = [], 0
        floors = {}
        for p in range(passes):
            by_label = {}
            for i, (label, chart, u) in enumerate(self.inputs):
                rec = results[p * len(self.inputs) + i]
                if "error" in rec:
                    failed += 1
                    continue
                if self.quat:
                    if i not in floors:
                        floors[i] = checks.sampled_fatness(checks.jay_matrices(chart, u))
                    if checks.fatness_overestimate(rec["margin"], floors[i]):
                        failed += 1
                        continue
                msgs += checks.check_point(label, checks.lam_for(label, chart.field.value), rec)
                by_label.setdefault(label, []).append(rec)
            if "perturbed" in by_label:
                msgs += checks.check_breaks_parallel("perturbed", by_label["perturbed"])
        return failed, msgs


class VerifyWorkload:
    """One operation is one in-process `pullconn verify` pass."""

    def __init__(self, name, seed):
        from pullconn import cli

        self.cli = cli
        t = time.perf_counter()
        for example, params in VERIFY_CHARTS:
            cli.make_chart(example, None, params)
        self.chart_build_s = time.perf_counter() - t

    def warm_up(self):
        """`pullconn verify` has no cache to fill."""

    def operations(self):
        return [self.run_op]

    def run_op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify"])
        return {"code": code, "report": json.loads(out.getvalue())}

    def check(self, results, passes):
        import checks

        msgs = []
        for rec in results:
            msgs += checks.check_verify(rec["code"], rec["report"])
        return 0, msgs


def _layer_metrics(tracer, ops, normalization_s):
    """Per-layer metrics from the aggregated spans of the timed phase."""
    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    out = {}
    for name in ["catalog.chart_eval", "immersion.differential", "algebra.matmul",
                 "linalg.svd", "linalg.eigh", "oracle.parallel_transport",
                 "oracle.christoffel", "oracle.curvature_pairing_fd"]:
        out[f"{name}.calls_per_op"] = (stat(name)[0] / ops, "calls/op")
    for name in ["immersion.wirtinger_max", "connection.fatness_margin",
                 "immersion.point_frame", "immersion.second_fundamental_form",
                 "immersion.shape_norm", "connection.parallel_residual",
                 "connection.radial_residual", "connection.inequality_min_margin",
                 "oracle.dr_oracle", "oracle.base_transport", "oracle.lemma_omega_check"]:
        out[f"{name}.ms_per_op"] = (stat(name)[1] * 1e3 / ops, "ms/op")
    for name in ["catalog.chart_eval", "connection.analyze_point", "algebra.matmul"]:
        out[f"{name}.self_ms_per_op"] = (stat(name)[2] * 1e3 / ops, "ms/op")
    out["homogeneous.curvature_normalization.ms_per_run"] = (normalization_s * 1e3, "ms")
    return out


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "pullconn" / "__init__.py").is_file():
        sys.exit(f"error: no pullconn sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    t = time.perf_counter()
    import pullconn.cli  # noqa: F401  (the CLI module loads every layer)
    import_s = time.perf_counter() - t

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cls = VerifyWorkload if args.workload == "verify-oracles" else AnalyzeWorkload
    work = cls(args.workload, args.seed)
    work.warm_up()
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "import_s": import_s, "chart_build_s": work.chart_build_s}
    if args.setup_only:
        print(json.dumps(out))
        return

    normalization_s = 0.0
    if tracer is not None:
        normalization_s = tracer.stats.get("homogeneous.curvature_normalization",
                                           [0, 0.0, 0.0])[1]
        tracer.reset()
    ops = work.operations()
    times, results = [], []
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    passes = 0
    while True:
        for op in ops:
            t = clock()
            results.append(op())
            times.append(clock() - t)
        passes += 1
        if clock() >= deadline:
            break
    elapsed = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # before the checks, which call point_frame and svd themselves
        out["layers"] = _layer_metrics(tracer, len(times), normalization_s)
        out["trace"] = {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                        for name, s in sorted(tracer.stats.items())}
        out["missing"] = tracer.missing

    failed, msgs = work.check(results, passes)
    out.update({
        "passes": passes,
        "attempted": len(times),
        "failed": failed,
        "check_messages": msgs,
        "elapsed_s": elapsed,
        "ops_per_s": len(times) / elapsed,
        "op_ms": [1e3 * x for x in times],
        "op_ms_p50": 1e3 * statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
