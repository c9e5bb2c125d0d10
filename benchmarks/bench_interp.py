"""Wall-clock benchmark: fast engine vs reference engine.

Runs three workloads through both interpreter engines on three legs —
**plain** (uninstrumented module), **instrumented** (the full Encore
pipeline's output), and **under-SFI** (a seeded fault-injection
campaign) — asserting bit-identical results everywhere and reporting
steps/sec plus the fast-over-reference speedup.  ``--check`` enforces
the acceptance bars: geometric-mean speedup >= 5x on the instrumented
legs, >= 3x in trials/sec on the under-SFI legs (trials run decoded
code between their fault and detection stops), with every leg
bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_interp.py \
        [--workloads 164.gzip 183.equake cjpeg] [--repeat 3] \
        [--trials 30] [--json BENCH_interp.json] [--check]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.encore import compile_for_encore  # noqa: E402
from repro.runtime import (  # noqa: E402
    DECODE_CACHE,
    DetectionModel,
    make_interpreter,
    run_campaign,
)
from repro.workloads import build_workload  # noqa: E402

DEFAULT_WORKLOADS = ("164.gzip", "183.equake", "cjpeg")
ENGINES = ("fast", "reference")


def time_run(engine, module, built, repeat):
    """Best-of-``repeat`` wall time for one full execution."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        interp = make_interpreter(module, engine=engine,
                                  externals=built.externals)
        start = time.perf_counter()
        result = interp.run(built.entry, built.args,
                            output_objects=built.output_objects)
        best = min(best, time.perf_counter() - start)
    return result, best


def run_leg(name, module, built, repeat):
    """Both engines on one (workload, module) leg; returns a report row."""
    DECODE_CACHE.program_for(module)  # decode once, outside the clock
    results, times = {}, {}
    for engine in ENGINES:
        results[engine], times[engine] = time_run(engine, module, built, repeat)
    identical = results["fast"] == results["reference"]
    events = results["reference"].events
    return {
        "leg": name,
        "events": events,
        "fast_steps_per_sec": round(events / times["fast"]),
        "reference_steps_per_sec": round(events / times["reference"]),
        "speedup": round(times["reference"] / times["fast"], 2),
        "identical": identical,
    }


def run_sfi_leg(module, built, trials):
    """A seeded campaign on both engines: equality plus trials/sec."""
    rows = {}
    for engine in ENGINES:
        start = time.perf_counter()
        campaign = run_campaign(
            module,
            function=built.entry,
            args=built.args,
            output_objects=built.output_objects,
            externals=built.externals,
            detector=DetectionModel(dmax=40),
            trials=trials,
            seed=7,
            engine=engine,
        )
        rows[engine] = (campaign, time.perf_counter() - start)
    identical = rows["fast"][0].trials == rows["reference"][0].trials
    return {
        "leg": "under-sfi",
        "trials": trials,
        "fast_trials_per_sec": round(trials / rows["fast"][1], 1),
        "reference_trials_per_sec": round(trials / rows["reference"][1], 1),
        "speedup": round(rows["reference"][1] / rows["fast"][1], 2),
        "identical": identical,
    }


def bench_workload(name, repeat, trials):
    built = build_workload(name)
    instrumented = compile_for_encore(
        built.module,
        function=built.entry,
        args=built.args,
        externals=built.externals,
    ).module
    return {
        "workload": name,
        "legs": [
            run_leg("plain", built.module, built, repeat),
            run_leg("instrumented", instrumented, built, repeat),
            run_sfi_leg(instrumented, built, trials),
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=DEFAULT_WORKLOADS)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per leg; best-of reported")
    parser.add_argument("--trials", type=int, default=30,
                        help="SFI campaign trials per workload")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail unless geomean instrumented speedup "
                             ">= 5x, geomean under-SFI speedup >= 3x, and "
                             "every leg is bit-identical")
    args = parser.parse_args(argv)

    reports = [
        bench_workload(name, max(1, args.repeat), args.trials)
        for name in args.workloads
    ]

    all_identical = True
    instrumented_speedups = []
    sfi_speedups = []
    for report in reports:
        print(f"\n{report['workload']}")
        for leg in report["legs"]:
            all_identical = all_identical and leg["identical"]
            if leg["leg"] == "under-sfi":
                sfi_speedups.append(leg["speedup"])
                print(f"  {'under-sfi':<13} fast "
                      f"{leg['fast_trials_per_sec']:>8.1f} trials/s   "
                      f"ref {leg['reference_trials_per_sec']:>8.1f} trials/s"
                      f"   {leg['speedup']:>5.2f}x   "
                      f"identical={leg['identical']}")
                continue
            if leg["leg"] == "instrumented":
                instrumented_speedups.append(leg["speedup"])
            print(f"  {leg['leg']:<13} fast "
                  f"{leg['fast_steps_per_sec'] / 1e3:>8.0f}k steps/s   "
                  f"ref {leg['reference_steps_per_sec'] / 1e3:>8.0f}k steps/s"
                  f"   {leg['speedup']:>5.2f}x   identical={leg['identical']}")

    geomean = _geomean(instrumented_speedups)
    sfi_geomean = _geomean(sfi_speedups)
    print(f"\ninstrumented speedup geomean: {geomean:.2f}x "
          f"over {len(instrumented_speedups)} workloads")
    print(f"under-SFI speedup geomean:    {sfi_geomean:.2f}x")
    print(f"all legs bit-identical:       {all_identical}")

    if args.json:
        payload = {
            "benchmark": "bench_interp",
            "workloads": reports,
            "instrumented_speedup_geomean": round(geomean, 2),
            "sfi_speedup_geomean": round(sfi_geomean, 2),
            "all_identical": all_identical,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if not all_identical:
        print("FAIL: engines diverged on some leg", file=sys.stderr)
        return 1
    if args.check:
        if geomean < 5.0:
            print(f"FAIL: instrumented geomean {geomean:.2f}x < 5x",
                  file=sys.stderr)
            return 1
        if sfi_geomean < 3.0:
            print(f"FAIL: under-SFI geomean {sfi_geomean:.2f}x < 3x",
                  file=sys.stderr)
            return 1
        print(f"CHECK PASSED: bit-identical everywhere, "
              f"{geomean:.2f}x >= 5x on instrumented legs, "
              f"{sfi_geomean:.2f}x >= 3x under SFI")
    return 0


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


if __name__ == "__main__":
    raise SystemExit(main())
