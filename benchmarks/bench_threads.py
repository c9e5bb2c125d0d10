"""Wall-clock and invariant benchmark for the cooperative scheduler.

Three legs over the multithreaded workload suite:

* **threaded** — each spawn/join workload runs on both engines;
  results, event counts, and the full scheduler switch log must be
  bit-identical, and the scheduler's per-step bookkeeping cost is
  bounded by comparing reference-engine throughput on the threaded
  stencil against the matched serial workload (``serial_stencil`` runs
  the identical row routine without spawning, so the gap is the
  scheduler).  The comparison is on the reference engine, where the
  scheduler runs after every step — its worst case;
* **serial==parallel** — ``stencil3`` (two workers over disjoint grid
  halves) must produce the same ``out`` array as ``serial_stencil``
  (one call over the full range): the data-parallel decomposition is
  semantics-preserving;
* **under-sfi** — a seeded control-flow fault campaign on the
  instrumented producer/consumer workload at ``threads=2``: serial and
  ``jobs=2`` runs must be bit-identical on both engines.

``--check`` enforces the acceptance bars: every leg bit-identical,
serial/parallel stencil outputs equal, and scheduler overhead bounded
(threaded steps/sec >= ``MIN_THREADED_RATIO`` x the serial-workload
steps/sec on the same engine).

Usage::

    PYTHONPATH=src python benchmarks/bench_threads.py \
        [--repeat 3] [--trials 30] [--json BENCH_threads.json] [--check]
"""

from __future__ import annotations

import argparse
import json
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
from repro.workloads import threaded_workloads  # noqa: E402

ENGINES = ("fast", "reference")

#: Scheduler overhead bound: reference-engine steps/sec on the
#: threaded stencil must stay within this fraction of reference-engine
#: steps/sec on the serial stencil (same row routine, no scheduler).
#: The scheduler only runs ``after_step`` bookkeeping once the first
#: spawn engages it, so the gap is that bookkeeping plus switches.
MIN_THREADED_RATIO = 0.40


def observe(engine, built, repeat):
    """Best-of-``repeat`` timed run; returns (observables, best seconds)."""
    best = float("inf")
    obs = None
    for _ in range(repeat):
        interp = make_interpreter(built.module, engine=engine,
                                  externals=built.externals)
        start = time.perf_counter()
        result = interp.run(built.entry, built.args,
                            output_objects=built.output_objects)
        best = min(best, time.perf_counter() - start)
        sched = interp.scheduler
        obs = {
            "value": result.value,
            "output": result.output,
            "events": result.events,
            "switch_log": None if sched is None else tuple(sched.switch_log),
        }
    return obs, best


def run_threaded_leg(spec, repeat):
    built = spec.build()
    DECODE_CACHE.program_for(built.module)
    obs, times = {}, {}
    for engine in ENGINES:
        obs[engine], times[engine] = observe(engine, built, repeat)
    identical = obs["fast"] == obs["reference"]
    events = obs["reference"]["events"]
    switches = obs["reference"]["switch_log"]
    return {
        "workload": spec.name,
        "events": events,
        "switches": 0 if switches is None else len(switches),
        "fast_steps_per_sec": round(events / times["fast"]),
        "reference_steps_per_sec": round(events / times["reference"]),
        "speedup": round(times["reference"] / times["fast"], 2),
        "identical": identical,
    }, obs["reference"]


def run_sfi_leg(trials):
    """Threaded CFE campaign: serial == jobs=2, fast == reference."""
    spec = next(s for s in threaded_workloads() if s.name == "pc_codec")
    built = spec.build()
    instrumented = compile_for_encore(
        built.module, function=built.entry, args=built.args,
    ).module
    campaigns = {}
    elapsed = {}
    for engine in ENGINES:
        for jobs in (1, 2):
            start = time.perf_counter()
            campaigns[(engine, jobs)] = run_campaign(
                instrumented,
                function=built.entry,
                args=built.args,
                output_objects=built.output_objects,
                detector=DetectionModel(dmax=40),
                trials=trials,
                seed=7,
                engine=engine,
                jobs=jobs,
                threads=2,
                cf_faults_per_trial=1,
            )
            elapsed[(engine, jobs)] = time.perf_counter() - start
    trials_sets = [c.trials for c in campaigns.values()]
    identical = all(t == trials_sets[0] for t in trials_sets[1:])
    outcomes = {}
    for trial in campaigns[("fast", 1)].trials:
        outcomes[trial.outcome] = outcomes.get(trial.outcome, 0) + 1
    return {
        "leg": "under-sfi",
        "trials": trials,
        "threads": 2,
        "cf_faults_per_trial": 1,
        "fast_trials_per_sec": round(trials / elapsed[("fast", 1)], 1),
        "reference_trials_per_sec":
            round(trials / elapsed[("reference", 1)], 1),
        "outcomes": outcomes,
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per leg; best-of reported")
    parser.add_argument("--trials", type=int, default=30,
                        help="SFI campaign trials")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every leg is bit-identical, "
                             "serial==parallel stencil, and scheduler "
                             f"overhead ratio >= {MIN_THREADED_RATIO}")
    args = parser.parse_args(argv)
    repeat = max(1, args.repeat)

    rows = []
    reference_obs = {}
    for spec in threaded_workloads():
        row, obs = run_threaded_leg(spec, repeat)
        rows.append(row)
        reference_obs[spec.name] = obs

    by_name = {row["workload"]: row for row in rows}
    overhead_ratio = round(
        by_name["stencil3"]["reference_steps_per_sec"]
        / by_name["serial_stencil"]["reference_steps_per_sec"], 3,
    )
    serial_eq_parallel = (
        reference_obs["stencil3"]["output"]["out"]
        == reference_obs["serial_stencil"]["output"]["out"]
    )
    sfi = run_sfi_leg(args.trials)

    all_identical = all(row["identical"] for row in rows) and sfi["identical"]
    for row in rows:
        print(f"{row['workload']:<16} fast "
              f"{row['fast_steps_per_sec'] / 1e3:>8.0f}k steps/s   "
              f"ref {row['reference_steps_per_sec'] / 1e3:>8.0f}k steps/s   "
              f"{row['speedup']:>5.2f}x   switches={row['switches']:<4d} "
              f"identical={row['identical']}")
    print(f"{'under-sfi':<16} fast "
          f"{sfi['fast_trials_per_sec']:>8.1f} trials/s   "
          f"ref {sfi['reference_trials_per_sec']:>8.1f} trials/s   "
          f"serial==jobs2=={sfi['identical']}")
    print(f"\nscheduler overhead ratio (threaded/serial steps/s): "
          f"{overhead_ratio:.3f} (bound {MIN_THREADED_RATIO})")
    print(f"serial stencil == parallel stencil: {serial_eq_parallel}")
    print(f"all legs bit-identical:             {all_identical}")

    if args.json:
        payload = {
            "benchmark": "bench_threads",
            "workloads": rows,
            "sfi": sfi,
            "scheduler_overhead_ratio": overhead_ratio,
            "serial_equals_parallel": serial_eq_parallel,
            "all_identical": all_identical,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if not all_identical:
        print("FAIL: engines or serial/parallel campaigns diverged",
              file=sys.stderr)
        return 1
    if args.check:
        if not serial_eq_parallel:
            print("FAIL: parallel stencil output != serial stencil output",
                  file=sys.stderr)
            return 1
        if overhead_ratio < MIN_THREADED_RATIO:
            print(f"FAIL: scheduler overhead ratio {overhead_ratio:.3f} "
                  f"< {MIN_THREADED_RATIO}", file=sys.stderr)
            return 1
        print(f"CHECK PASSED: bit-identical everywhere, serial==parallel, "
              f"overhead ratio {overhead_ratio:.3f} >= {MIN_THREADED_RATIO}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
