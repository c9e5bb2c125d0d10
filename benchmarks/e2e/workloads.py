"""The four campaign workloads, their set-up, and the executors that run
one campaign of each.

Every workload is a closed loop: one caller runs a campaign, waits for
it, then starts the next, until the measuring window closes.  Campaign
``k`` of a run uses seed ``campaign_seed(seed, k)``, so a run's inputs
are a pure function of ``--seed`` and its first ``det_campaigns``
campaigns are the same on every run with that seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.encore import EncoreConfig, compile_for_encore
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.runtime import (
    CampaignJournal,
    DetectionModel,
    campaign_metadata,
    run_campaign,
)
from repro.runtime.interpreter import ExecResult
from repro.runtime.memory import MachineMemory
from repro.runtime.sfi import (
    TrialResult,
    golden_run,
    plan_campaign,
    plan_trial,
    run_planned_trial,
)
from repro.service import ServiceClient, ServiceError
from repro.workloads import build_workload

from oracle import TRIAL_MARKER
from tracing import Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Detection latency bound of every campaign (dynamic instructions).
DMAX = 50
#: Pool jobs and server workers: one per core of the 2-core machine the
#: baseline was taken on.
JOBS = 2
#: Seconds a served campaign may take before the client gives up.
STREAM_TIMEOUT = 120.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: A ``repro.workloads`` registry name, or an MC source file
    #: relative to the repository root.
    source: str
    #: Trials per campaign.
    trials: int
    #: Leading campaigns every run executes, however short the window:
    #: the deterministic counts are taken over these.
    det_campaigns: int
    #: ``inline`` runs ``run_campaign`` in the benchmark process (with a
    #: fork pool when ``jobs > 1``); ``served`` submits to a
    #: ``repro serve`` subprocess.
    executor: str = "inline"
    jobs: int = 1
    guard: str = "off"
    threads: int = 1
    recovery_faults: int = 0
    metadata_faults: int = 0
    cf_faults: int = 0

    def fault_kwargs(self) -> Dict[str, Any]:
        """The campaign knobs, named as ``run_campaign``,
        ``campaign_metadata`` and the service's spec all name them."""
        return dict(
            faults_per_trial=1,
            recovery_faults_per_trial=self.recovery_faults,
            metadata_faults_per_trial=self.metadata_faults,
            cf_faults_per_trial=self.cf_faults,
            **self.trial_kwargs(),
        )

    def trial_kwargs(self) -> Dict[str, Any]:
        return dict(
            metadata_guard=self.guard, cfe_detector="signature",
            threads=self.threads,
        )

    def plan_counts(self) -> Tuple[int, int, int, int]:
        return (1, self.recovery_faults, self.metadata_faults, self.cf_faults)

    def smoke(self) -> "Workload":
        """The same workload at a fiftieth of the campaign size."""
        return dataclasses.replace(self, trials=max(1, self.trials // 50))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# In short: long reference-tier trials (seu-gzip), dispatch and journal
# cost (pool-crc32), the service layer on the same trials (served-crc32),
# and every hook path of the trial layer (surfaces-stencil3).  seu-gzip
# and surfaces-stencil3 run short campaigns because their trial cost
# spreads widely with the fault plan: many campaigns per window give a
# steady median time to first progress.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("seu-gzip", "164.gzip", trials=10, det_campaigns=3),
        Workload("pool-crc32", "examples/mc/crc32.mc", trials=400,
                 det_campaigns=1, jobs=JOBS),
        Workload("served-crc32", "examples/mc/crc32.mc", trials=400,
                 det_campaigns=1, executor="served", jobs=JOBS),
        Workload("surfaces-stencil3", "stencil3", trials=20,
                 det_campaigns=10, guard="checksum", threads=3,
                 recovery_faults=1, metadata_faults=1, cf_faults=1),
    )
}


def campaign_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


@dataclasses.dataclass
class Program:
    """A protected module and how to run it."""

    module: Module
    function: str = "main"
    args: Tuple = ()
    output_objects: Tuple[str, ...] = ()
    externals: Any = None

    def run_kwargs(self) -> Dict[str, Any]:
        return dict(
            function=self.function, args=self.args,
            output_objects=self.output_objects, externals=self.externals,
        )


def _build(workload: Workload) -> Program:
    if workload.source.endswith(".mc"):
        text = (REPO_ROOT / workload.source).read_text()
        return Program(compile_source(text))
    built = build_workload(workload.source)
    return Program(
        built.module, built.entry, tuple(built.args),
        tuple(built.output_objects), built.externals,
    )


def set_up(workload: Workload,
           tracer: Tracer) -> Tuple[Program, Dict[str, float]]:
    """Source to protected module, timed per layer."""
    start = time.perf_counter()
    with tracer.span("frontend.build"):
        program = _build(workload)
    built = time.perf_counter()
    with tracer.span("pipeline.compile"):
        report = compile_for_encore(
            program.module, EncoreConfig(metadata_guard=workload.guard),
            clone=False, function=program.function, args=program.args,
            externals=program.externals,
        )
    done = time.perf_counter()
    program.module = report.module
    stats = report.stats
    return program, {
        "frontend.build_s": built - start,
        "pipeline.compile_s": done - built,
        "pipeline.profile_s": stats.stat("profile").seconds,
        "pipeline.passes_executed": sum(s.executed for s in stats.passes),
        "pipeline.regions_selected": stats.counter(
            "selection", "regions_selected"),
        "pipeline.ckpt_sites": (
            stats.counter("instrument", "checkpoint_mem_sites")
            + stats.counter("instrument", "checkpoint_reg_sites")
        ),
    }


def metadata(workload: Workload, program: Program, seed: int,
             detector: DetectionModel) -> Dict[str, Any]:
    """The journal header ``inject --journal`` writes for this campaign."""
    return campaign_metadata(
        program.module, seed, detector, function=program.function,
        args=list(program.args), **workload.fault_kwargs(),
    )


def replay_trial(workload: Workload, program: Program, golden: ExecResult,
                 image: MachineMemory, detector: DetectionModel, seed: int,
                 index: int, engine: Optional[str] = None) -> TrialResult:
    """Re-derive one trial's plan and execute it again."""
    plan = plan_trial(seed, index, golden.events, detector,
                      *workload.plan_counts())
    return run_planned_trial(
        program.module, golden, plan, engine=engine, memory_image=image,
        **program.run_kwargs(), **workload.trial_kwargs(),
    )


@dataclasses.dataclass
class CampaignRun:
    """One timed campaign, as seen from the caller."""

    index: int
    seed: int
    journal: Path
    trials: int
    start: float
    end: float = 0.0
    #: When each trial line reached the journal (or the client).
    deliveries: List[float] = dataclasses.field(default_factory=list)
    #: What ``run_campaign`` returned (inline executor).
    results: Optional[List[TrialResult]] = None
    #: The outcome tally the server reported (served executor).
    outcomes: Optional[Dict[str, int]] = None
    worker_trials: List[int] = dataclasses.field(default_factory=list)
    restarts: int = 0
    quarantined: int = 0
    submit_s: float = 0.0
    error: Optional[str] = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def first_tenth_s(self) -> float:
        """Campaign start until a tenth of its trials are journaled."""
        need = -(-self.trials // 10)
        if len(self.deliveries) < need:
            return self.wall
        return self.deliveries[need - 1] - self.start


def run_inline(workload: Workload, program: Program, detector: DetectionModel,
               seed: int, index: int, path: Path) -> CampaignRun:
    """The ``inject --journal`` path: header, ``run_campaign``, close."""
    run = CampaignRun(index, seed, path, workload.trials,
                      start=time.perf_counter())
    with CampaignJournal(str(path)) as journal:
        journal.write_header(metadata(workload, program, seed, detector))

        def record(trial_index: int, trial: TrialResult) -> None:
            journal.record(trial_index, trial)
            run.deliveries.append(time.perf_counter())

        result = run_campaign(
            program.module, detector=detector, trials=workload.trials,
            seed=seed, jobs=workload.jobs, on_result=record,
            **program.run_kwargs(), **workload.fault_kwargs(),
        )
    run.end = time.perf_counter()
    run.results = result.trials
    run.worker_trials = list(result.worker_trials.values())
    run.restarts = result.pool_restarts
    return run


class OneConnectionClient(ServiceClient):
    """A service client that refuses to open a second HTTP connection
    while one is in flight: the workload is one closed-loop caller."""

    in_flight = 0

    @contextlib.contextmanager
    def _one(self):
        if self.in_flight:
            raise RuntimeError("the benchmark client opened a second "
                               "HTTP connection while one was in flight")
        self.in_flight += 1
        try:
            yield
        finally:
            self.in_flight -= 1

    def _request(self, *args, **kwargs):
        with self._one():
            return super()._request(*args, **kwargs)

    def stream_journal(self, *args, **kwargs):
        with self._one():
            yield from super().stream_journal(*args, **kwargs)


class Server:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, journal_dir: Path, log: Path) -> None:
        start = time.perf_counter()
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(JOBS),
             "--journal-dir", str(journal_dir)],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=self._log,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        try:
            line = self.process.stdout.readline().decode()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(
                    f"repro serve did not report its address: {line!r}")
            self.client = OneConnectionClient(
                f"http://{match.group(1)}:{match.group(2)}")
            self.client.wait_until_up(timeout=30.0)
        except BaseException:
            self.kill()
            raise
        #: Process start until ``/health`` answers.
        self.start_s = time.perf_counter() - start

    def stop(self) -> float:
        """Graceful drain; seconds from the request until the exit."""
        start = time.perf_counter()
        try:
            self.client.shutdown()
            self.process.communicate(timeout=30.0)
        except (ServiceError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._log.close()
        return time.perf_counter() - start

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        self._log.close()


def run_served(workload: Workload, program: Program, server: Server,
               module_text: str, seed: int, index: int,
               path: Path) -> CampaignRun:
    """Submit, follow the journal stream to its end, read the status."""
    client = server.client
    spec = {
        "kind": "sfi", "module_text": module_text,
        "function": program.function, "args": list(program.args),
        "output_objects": list(program.output_objects),
        "trials": workload.trials, "seed": seed, "dmax": DMAX,
        **workload.fault_kwargs(),
    }
    run = CampaignRun(index, seed, path, workload.trials,
                      start=time.perf_counter())
    try:
        campaign_id = client.submit(spec)["id"]
        run.submit_s = time.perf_counter() - run.start
        tail = b""
        with open(path, "wb") as out:
            for chunk in client.stream_journal(campaign_id, follow=True,
                                               timeout=STREAM_TIMEOUT):
                now = time.perf_counter()
                out.write(chunk)
                lines = (tail + chunk).split(b"\n")
                tail = lines.pop()
                run.deliveries.extend(
                    now for line in lines if line.startswith(TRIAL_MARKER))
        status = client.status(campaign_id)
    except ServiceError as exc:
        run.end = time.perf_counter()
        run.error = f"campaign {index}: HTTP call failed: {exc}"
        return run
    run.end = time.perf_counter()
    if status.get("state") != "completed":
        run.error = (f"campaign {index} ended {status.get('state')!r}: "
                     f"{status.get('error')}")
    run.outcomes = status.get("aggregates", {}).get("outcomes", {})
    run.worker_trials = [w["trials_done"] for w in status.get("workers", [])]
    run.restarts = status.get("worker_restarts", 0)
    run.quarantined = status.get("quarantined_batches", 0)
    return run


def timed_campaigns(workload: Workload, seed: int, seconds: float,
                    workdir: Path,
                    execute: Callable[[int, int, Path], CampaignRun]
                    ) -> List[CampaignRun]:
    """Run campaigns back to back until the window closes."""
    runs: List[CampaignRun] = []
    start = time.perf_counter()
    while (len(runs) < workload.det_campaigns
           or time.perf_counter() - start < seconds):
        index = len(runs)
        runs.append(execute(campaign_seed(seed, index), index,
                            workdir / f"campaign-{index:04d}.jsonl"))
        if runs[-1].error:
            break
    return runs


def serial_pass(workload: Workload, program: Program,
                detector: DetectionModel, seeds: List[int], tracer: Tracer,
                workdir: Path, tag: str
                ) -> Tuple[List[List[TrialResult]], float, int]:
    """The serial ``inject --journal`` path, one public call at a time,
    in ``run_campaign``'s order.  Returns each campaign's results, the
    wall time and the journal bytes written."""
    start = time.perf_counter()
    campaigns: List[List[TrialResult]] = []
    written = 0
    for index, seed in enumerate(seeds):
        path = workdir / f"{tag}-{index:04d}.jsonl"
        results: List[TrialResult] = []
        with tracer.span("campaign", campaign=index):
            journal = CampaignJournal(str(path))
            with tracer.span("journal.header", campaign=index):
                journal.write_header(
                    metadata(workload, program, seed, detector))
            with tracer.span("sfi.golden", campaign=index):
                image = MachineMemory.pristine(program.module)
                golden = golden_run(
                    program.module, memory_image=image,
                    threads=workload.threads, **program.run_kwargs(),
                )
            with tracer.span("sfi.plan", campaign=index):
                plans = plan_campaign(seed, workload.trials, golden.events,
                                      detector, *workload.plan_counts())
            for plan in plans:
                with tracer.span("sfi.trial", campaign=index):
                    trial = run_planned_trial(
                        program.module, golden, plan, memory_image=image,
                        **program.run_kwargs(), **workload.trial_kwargs(),
                    )
                with tracer.span("journal.record", campaign=index):
                    journal.record(plan.trial_index, trial)
                results.append(trial)
            journal.close()
        written += path.stat().st_size
        campaigns.append(results)
    return campaigns, time.perf_counter() - start, written
