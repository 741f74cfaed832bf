"""Benchmark of pullconn: one workload per invocation, from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-frame, analyze-quat, verify-oracles (see README.md).
Each workload runs in fresh processes started from bench/workload.py: with
--trace 0, SETUPS processes set up and the last one also runs the timed
phase; with --trace 1 one process runs with the per-layer tracer.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every metric carries its value and unit.  The child's full record (each
operation's time, check messages, the trace table) goes to
.bench_out/<workload>-seed<N>-trace<0|1>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["analyze-frame", "analyze-quat", "verify-oracles"]
SETUPS = 3          # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170   # the whole invocation, all processes included


def _child(args, extra, deadline):
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"error: {args.workload} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        sys.exit(f"error: {args.workload} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pullconn" / "__init__.py").is_file():
        sys.exit(f"error: no pullconn sources under {ROOT / 'src'}")

    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        res = _child(args, ["--trace"], deadline)
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in res["layers"].items()}
        metrics["setup.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["setup.chart_build_s"] = {"value": res["chart_build_s"], "unit": "s"}
        if res["missing"]:
            print(f"traced functions missing: {', '.join(res['missing'])}", file=sys.stderr)
    else:
        setups = [_child(args, ["--setup-only"], deadline) for _ in range(SETUPS - 1)]
        res = _child(args, [], deadline)
        res["setups"] = setups + [{k: res[k] for k in ("setup_s", "import_s", "chart_build_s")}]
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in res["setups"]),
                        "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_ms.p50": {"value": res["op_ms_p50"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1) + "\n")
    for msg in res["check_messages"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["check_messages"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
