"""One end-to-end SFI campaign benchmark with a per-layer traced run.

Each workload runs in a fresh child process, like a real ``repro
inject``: set-up (source to protected module), then campaigns back to
back for ``--seconds``, then the correctness oracle over every journal.
The command prints every metric by name with its unit, and its last
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``, which also writes a span file under
``.bench_e2e/spans/``).  It exits non-zero on any correctness failure.

Usage::

    python3 benchmarks/e2e/bench_e2e.py [--workload W ...] [--seed S]
        [--seconds N] [--trace 0|1] [--json OUT] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: Journals, server logs and span files of the runs.
WORK_ROOT = REPO_ROOT / ".bench_e2e"
ORDER = ("seu-gzip", "pool-crc32", "served-crc32", "surfaces-stencil3")
#: A workload process that runs longer than this is killed.
CHILD_TIMEOUT = 170.0

UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "first_tenth_s": "s",
    "peak_rss_mb": "MB",
    "frontend.build_s": "s",
    "pipeline.compile_s": "s",
    "pipeline.profile_s": "s",
    "pipeline.passes_executed": "count",
    "pipeline.regions_selected": "count",
    "pipeline.ckpt_sites": "count",
    "engine.decode_s": "s",
    "engine.golden_events": "count",
    "engine.ref_trial_ms_p50": "ms",
    "engine.fast_over_ref": "x",
    "sfi.golden_s": "s",
    "sfi.plan_s": "s",
    "sfi.trial_ms_p50": "ms",
    "sfi.trial_ms_p95": "ms",
    "sfi.trial_samples": "count",
    "sfi.trial_busy_s": "s",
    "sfi.covered_frac": "ratio",
    "sfi.hang_frac": "ratio",
    "sfi.rollbacks": "count",
    "sfi.wasted_work": "count",
    "sfi.double_faults": "count",
    "sfi.metadata_repairs": "count",
    "sfi.cfe_detections": "count",
    "journal.record_us_p50": "us",
    "journal.record_us_p95": "us",
    "journal.busy_s": "s",
    "journal.bytes": "bytes",
    "parallel.first_result_s": "s",
    "parallel.result_gap_ms_p95": "ms",
    "parallel.efficiency": "ratio",
    "parallel.worker_skew": "ratio",
    "parallel.pool_restarts": "count",
    "service.start_s": "s",
    "service.submit_ms": "ms",
    "service.first_line_s": "s",
    "service.wait_s": "s",
    "service.drain_s": "s",
    "service.efficiency": "ratio",
    "service.worker_restarts": "count",
    "service.quarantined_batches": "count",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv: List[str], run_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=ORDER, default=None,
                        help="workloads to run, in this order (default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed the run's inputs derive from")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measuring window per workload "
                             f"(default {run_seconds:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics and write "
                             "a span file")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write every workload's full result")
    parser.add_argument("--smoke", action="store_true",
                        help="campaigns a fiftieth of the size")
    parser.add_argument("--child", default=None, choices=ORDER,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Measure one workload in a fresh process; returns its result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    # A session of its own, so a hung child goes down with the server
    # and pool workers it started.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: workload process exited "
                           f"{process.returncode}")
    return json.loads(lines[-1])


def print_result(result: Dict[str, Any], names: List[str]) -> None:
    print(f"# {result['workload']}: jobs={result['jobs']}, "
          f"{result['campaigns']} campaigns x "
          f"{result['trials_per_campaign']} trials, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name in names:
        value = result["metrics"][name]
        print(f"{result['workload']:<18} {name:<28} {value:>14.6g} "
              f"{UNITS[name]}")
    for problem in result["problems"]:
        print(f"# FAIL {result['workload']}: {problem}")
    if result["spans"]:
        print(f"# spans: {result['spans']}")


def main(argv: List[str]) -> int:
    if not (SRC / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print(f"bench_e2e: no src/repro or BENCHMARK.json under {REPO_ROOT}; "
              "run it from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    args = parse_args(argv, spec["run_seconds"])
    nproc = os.cpu_count() or 1
    if nproc < 2:
        print(f"bench_e2e: needs at least 2 CPUs, found {nproc}: pool jobs "
              "and server workers are fixed at 2 and would oversubscribe",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import JOBS, WORKLOADS

    if args.child is not None:
        from measure import measure

        result = measure(WORKLOADS[args.child], args.seed, args.seconds,
                         bool(args.trace), args.smoke, WORK_ROOT)
        print(json.dumps(result))
        return 0

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[section]]
    for name, unit in wanted:
        if UNITS.get(name) != unit:
            print(f"bench_e2e: BENCHMARK.json gives {name} the unit {unit!r}, "
                  f"the benchmark reports {UNITS.get(name)!r}",
                  file=sys.stderr)
            return 2
    names = args.workload or list(ORDER)
    print(f"# bench_e2e: nproc={nproc}, pool jobs={JOBS}, "
          f"server workers={JOBS}, seed={args.seed}, "
          f"seconds={args.seconds:g}, trace={args.trace}, "
          f"smoke={int(args.smoke)}", flush=True)
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        try:
            results[name] = run_child(name, args)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"bench_e2e: {name}: no result ({exc})", file=sys.stderr)
            return 1
        shown = sorted(results[name]["metrics"]) if args.trace else [
            metric for metric, _ in wanted]
        print_result(results[name], shown)
        sys.stdout.flush()

    failed = sum(r["failed"] for r in results.values())
    correct = all(r["correct"] for r in results.values())
    if {"pool-crc32", "served-crc32"} <= results.keys():
        # Same module, seeds and trial counts: the two executors must
        # agree trial for trial.
        pool = results["pool-crc32"]["counts"]["outcomes"]
        served = results["served-crc32"]["counts"]["outcomes"]
        if pool != served:
            correct = False
            failed += sum(served.values())
            print(f"# FAIL served-crc32 vs pool-crc32: outcome histograms "
                  f"differ ({served} != {pool})")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "order": names, "results": results,
        }, indent=1) + "\n")
    metrics = {}
    for name, result in results.items():
        for metric, unit in wanted:
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": result["metrics"][metric], "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
