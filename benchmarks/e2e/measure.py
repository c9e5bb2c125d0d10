"""One workload, measured in its own process.

Set-up runs several times and reports medians; then campaigns run back
to back for the measuring window; then the oracle checks every journal.
A traced run adds the per-layer passes: every fifth trial re-executed
on the default engine (serial busy time for the efficiencies), and the
serial ``inject --journal`` path over the run's leading campaigns, once
untraced and once with spans.
"""

from __future__ import annotations

import functools
import resource
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.ir.printer import module_to_text
from repro.runtime import DECODE_CACHE, DetectionModel
from repro.runtime.memory import MachineMemory
from repro.runtime.sfi import COVERED_OUTCOMES, golden_run

from oracle import check_journal, histogram, spot_check
from tracing import Tracer, median, percentile
from workloads import (
    DMAX,
    CampaignRun,
    Server,
    Workload,
    campaign_seed,
    metadata,
    replay_trial,
    run_inline,
    run_served,
    serial_pass,
    set_up,
    timed_campaigns,
)

#: Set-up repeats until both bounds are met; the median is reported.
#: Spreading repeats over a second keeps a short burst of load on the
#: machine from landing on all of them.
SETUP_REPEATS = 9
SETUP_SECONDS = 1.0
SERVER_STARTS = 5
#: Every SPOT_EVERY-th trial is re-executed on the reference engine.
SPOT_EVERY = 10
#: Every BUSY_EVERY-th trial is re-timed on the default engine.
BUSY_EVERY = 5
DECODE_REPEATS = 5
#: Deliveries closer together than this reach a watcher as one burst.
BURST_S = 0.001


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def burst_gaps(run: CampaignRun) -> List[float]:
    """Waits between successive deliveries a watcher can tell apart."""
    gaps = []
    last = run.start
    for moment in run.deliveries:
        if moment - last > BURST_S:
            gaps.append(moment - last)
        last = moment
    return gaps


def skew(worker_trials: List[int]) -> float:
    if len(worker_trials) < 2:
        return 0.0
    mean = sum(worker_trials) / len(worker_trials)
    return (max(worker_trials) - min(worker_trials)) / mean


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool, work_root: Path) -> Dict[str, Any]:
    if smoke:
        workload = workload.smoke()
    workdir = work_root / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(enabled=trace)
    detector = DetectionModel(dmax=DMAX)

    setups: List[Dict[str, float]] = []
    started = time.perf_counter()
    while len(setups) < (3 if smoke else SETUP_REPEATS) or (
            not smoke and time.perf_counter() - started < SETUP_SECONDS):
        program, stats = set_up(workload, tracer)
        setups.append(stats)
    layers: Dict[str, float] = {
        key: median([stats[key] for stats in setups]) for key in setups[0]
    }
    setup_s = median([stats["frontend.build_s"] + stats["pipeline.compile_s"]
                      for stats in setups])

    server = None
    starts: List[float] = []
    try:
        if workload.executor == "served":
            for _ in range(1 if smoke else SERVER_STARTS):
                if server is not None:
                    server.stop()
                server = Server(workdir / "service", workdir / "serve.log")
                starts.append(server.start_s)
            execute = functools.partial(
                run_served, workload, program, server,
                module_to_text(program.module) + "\n")
        else:
            execute = functools.partial(run_inline, workload, program,
                                        detector)
        runs = timed_campaigns(workload, seed, seconds, workdir, execute)
        if server is not None:
            drain_s = server.stop()
            server = None
    finally:
        if server is not None:
            server.kill()
    peak = peak_rss_mb()

    image = MachineMemory.pristine(program.module)
    golden = golden_run(program.module, memory_image=image,
                        threads=workload.threads, **program.run_kwargs())

    def replayer(run: CampaignRun, engine):
        return functools.partial(replay_trial, workload, program, golden,
                                 image, detector, run.seed, engine=engine)

    problems: List[str] = []
    failed = 0
    ref_seconds: List[float] = []
    det_records = []
    for run in runs:
        if run.error:
            problems.append(run.error)
            failed += run.trials
            continue
        records, bad, issues = check_journal(
            run.journal, metadata(workload, program, run.seed, detector),
            run.trials, returned=run.results, outcomes=run.outcomes)
        mismatched, spent = spot_check(
            records, range(0, run.trials, SPOT_EVERY),
            replayer(run, "reference"))
        if mismatched:
            issues.append(f"{run.journal.name}: trials {sorted(mismatched)} "
                          "differ from the reference interpreter")
        problems += issues
        failed += len(bad | mismatched)
        ref_seconds += spent
        if run.index < workload.det_campaigns:
            det_records.append(records)

    attempted = sum(run.trials for run in runs)
    wall = sum(run.wall for run in runs)
    metrics: Dict[str, float] = {
        "setup_s": setup_s + (median(starts) if starts else 0.0),
        "trials_per_s": attempted / wall,
        "first_tenth_s": median([run.first_tenth_s for run in runs]),
        "peak_rss_mb": peak,
    }
    gaps = [gap for run in runs for gap in burst_gaps(run)]
    layers.update({
        "engine.golden_events": golden.events,
        "engine.ref_trial_ms_p50": median(ref_seconds) * 1e3,
        "parallel.first_result_s": median(
            [run.deliveries[0] - run.start for run in runs if run.deliveries]),
        "parallel.result_gap_ms_p95": percentile(gaps, 95) * 1e3,
        "parallel.worker_skew": median(
            [skew(run.worker_trials) for run in runs]),
        "parallel.pool_restarts": sum(run.restarts for run in runs),
    })
    if starts:
        layers.update({
            "service.start_s": median(starts),
            "service.submit_ms": median([run.submit_s for run in runs]) * 1e3,
            "service.first_line_s": layers["parallel.first_result_s"],
            "service.wait_s": median([run.wall for run in runs]),
            "service.drain_s": drain_s,
            "service.worker_restarts": sum(run.restarts for run in runs),
            "service.quarantined_batches": sum(
                run.quarantined for run in runs),
        })
    counts: Dict[str, Any] = {
        "outcomes": histogram(
            trial for records in det_records for trial in records.values()),
        "engine.golden_events": golden.events,
        "pipeline.passes_executed": layers["pipeline.passes_executed"],
        "pipeline.regions_selected": layers["pipeline.regions_selected"],
        "pipeline.ckpt_sites": layers["pipeline.ckpt_sites"],
    }

    spans = None
    if trace:
        # Serial trial busy time of the timed campaigns, from every
        # fifth plan re-run on the default engine.
        busy = 0.0
        fast_seconds: List[float] = []
        for run in runs:
            execute = replayer(run, None)
            indices = range(0, run.trials, BUSY_EVERY)
            for index in indices:
                start = time.perf_counter()
                execute(index)
                spent = time.perf_counter() - start
                busy += spent * run.trials / len(indices)
                if index % SPOT_EVERY == 0:
                    fast_seconds.append(spent)
        layers["parallel.efficiency"] = busy / (workload.jobs * wall)
        layers["engine.fast_over_ref"] = (
            median(ref_seconds) / median(fast_seconds))
        if starts:
            layers["service.efficiency"] = layers["parallel.efficiency"]

        seeds = [campaign_seed(seed, k) for k in range(workload.det_campaigns)]
        _, plain_wall, _ = serial_pass(workload, program, detector, seeds,
                                       Tracer(enabled=False), workdir, "plain")
        traced, traced_wall, written = serial_pass(
            workload, program, detector, seeds, tracer, workdir, "traced")
        for index, (results, records) in enumerate(zip(traced, det_records)):
            differ = [i for i, trial in enumerate(results)
                      if records.get(i) != trial]
            if differ:
                problems.append(f"campaign {index}: the serial path differs "
                                f"from the timed run at trials {differ}")
                failed += len(differ)
        trials = [trial for results in traced for trial in results]
        trial_s = tracer.durations("sfi.trial")
        record_s = tracer.durations("journal.record")
        layers.update({
            "sfi.golden_s": median(tracer.durations("sfi.golden")),
            "sfi.plan_s": median(tracer.durations("sfi.plan")),
            "sfi.trial_ms_p50": percentile(trial_s, 50) * 1e3,
            "sfi.trial_ms_p95": percentile(trial_s, 95) * 1e3,
            "sfi.trial_samples": len(trial_s),
            "sfi.trial_busy_s": sum(trial_s),
            "sfi.covered_frac": sum(
                t.outcome in COVERED_OUTCOMES for t in trials) / len(trials),
            "sfi.hang_frac": sum(t.hang for t in trials) / len(trials),
            "sfi.rollbacks": sum(t.recovery_attempts for t in trials),
            "sfi.wasted_work": sum(t.wasted_work for t in trials),
            "sfi.double_faults": sum(t.double_faults for t in trials),
            "sfi.metadata_repairs": sum(t.metadata_repairs for t in trials),
            "sfi.cfe_detections": sum(t.cfe_detections for t in trials),
            "journal.record_us_p50": percentile(record_s, 50) * 1e6,
            "journal.record_us_p95": percentile(record_s, 95) * 1e6,
            "journal.busy_s": sum(record_s) + sum(
                tracer.durations("journal.header")),
            "journal.bytes": written,
            "trace.overhead_frac": 1.0 - plain_wall / traced_wall,
        })
        for key in ("sfi.trial_samples", "sfi.covered_frac", "sfi.hang_frac",
                    "sfi.rollbacks", "sfi.wasted_work", "sfi.double_faults",
                    "sfi.metadata_repairs", "sfi.cfe_detections",
                    "journal.bytes"):
            counts[key] = layers[key]

        for _ in range(DECODE_REPEATS):
            DECODE_CACHE.clear()
            with tracer.span("engine.decode"):
                DECODE_CACHE.program_for(program.module)
        layers["engine.decode_s"] = median(tracer.durations("engine.decode"))

        spans = work_root / "spans" / f"{workload.name}-s{seed}.json"
        tracer.write(spans, layers)

    return {
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
        "campaigns": len(runs),
        "trials_per_campaign": workload.trials,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "metrics": {**metrics, **layers},
        "counts": counts,
        "spans": str(spans.relative_to(work_root.parent)) if spans else None,
    }
