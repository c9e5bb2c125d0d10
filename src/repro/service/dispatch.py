"""Supervised campaign execution for ``repro serve``.

One :class:`CampaignTask` drives one submitted campaign end to end:

* the module is parsed and its golden run replayed off the event loop
  (``asyncio.to_thread``), the trial range planned with the same
  seed-keyed substreams as every other campaign, and sharded into
  batches (:func:`repro.runtime.health.shard_batches`);
* the batches run on the one supervised executor
  (:class:`repro.runtime.parallel.Executor`, the same engine as
  ``inject --jobs``), called through ``asyncio.to_thread``: work
  stealing, per-trial heartbeats, the hang watchdog, retry with backoff
  and quarantine all live there;
* every finished trial feeds the live aggregates and an in-order
  hold-back journal (:class:`repro.runtime.journal.InOrderJournal`)
  whose bytes are identical to the journal of a one-shot serial
  ``inject`` run — the invariant ``tests/test_service.py`` and the CI
  smoke job enforce.

Determinism: trials are pure functions of ``(seed, trial_index)``, so
retries, stealing, and restarts can reorder work but never change it —
a served campaign that converges is bit-identical to the serial CLI
run by construction, and a SIGKILLed worker costs wall-clock only.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.ir import parse_module, verify_module
from repro.runtime.config import CampaignConfig, ConfigError
from repro.runtime.health import (
    BatchState,
    ExponentialBackoff,
    HealthMonitor,
    default_batch_size,
    shard_batches,
)
from repro.runtime.journal import (
    CampaignJournal,
    InOrderJournal,
    campaign_metadata,
)
from repro.runtime.memory import MachineMemory
from repro.runtime.parallel import Executor, sfi_executor
from repro.runtime.sfi import (
    COVERED_OUTCOMES,
    OUTCOMES,
    CampaignResult,
    TrialResult,
    golden_run,
)

#: Campaign lifecycle states (terminal: completed/failed/cancelled/
#: interrupted).
QUEUED = "queued"
STARTING = "starting"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

TERMINAL_STATES = (COMPLETED, FAILED, CANCELLED, INTERRUPTED)


#: An invalid spec is an invalid campaign configuration: every knob is
#: validated once, by :class:`CampaignConfig`.
SpecError = ConfigError


@dataclasses.dataclass(frozen=True, kw_only=True)
class CampaignSpec(CampaignConfig):
    """A fault-injection campaign as submitted over the API.

    A :class:`CampaignConfig` plus what only the transport needs: the
    service promises that a spec and the equivalent CLI invocation
    produce byte-identical journals, and both are the same config.  The
    module travels as textual IR (the printer/parser fixpoint keeps its
    fingerprint stable across the wire).
    """

    module_text: str
    #: Trials per batch (``None``: auto — eight batches per worker).
    batch_size: Optional[int] = None
    #: Journal path on the server (``None``: under the server's
    #: journal directory, named by campaign id).
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.module_text.strip():
            raise SpecError("module_text is empty")
        if self.batch_size is not None and self.batch_size <= 0:
            raise SpecError("batch_size must be positive")
        super().__post_init__()


class CampaignTask:
    """One submitted campaign: state machine around the executor.

    ``run()`` is the whole lifecycle; everything else is observation
    (``status()``) or control (``cancel()``, ``drain()``).  Observation
    runs on the event loop while the executor's thread records trials,
    so it reads only counters and dict snapshots.
    """

    kind = "sfi"

    def __init__(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        journal_path: str,
        workers: int = 2,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        poll_interval: float = 0.05,
        static_sharding: bool = False,
        max_worker_restarts: Optional[int] = None,
        chaos_kill_after: Optional[int] = None,
        batches: Optional[List[BatchState]] = None,
    ) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.journal_path = journal_path
        self.workers = max(1, workers)
        self.static_sharding = static_sharding
        self._preset_batches = batches
        self._options = dict(
            max_retries=max_retries, backoff=backoff,
            poll_interval=poll_interval,
            max_worker_restarts=max_worker_restarts,
            chaos_kill_after=chaos_kill_after,
        )

        self.state = QUEUED
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.elapsed: float = 0.0
        self.monitor = HealthMonitor(heartbeat_timeout=heartbeat_timeout)
        self.results: Dict[int, TrialResult] = {}
        self.trials_done = 0
        self.outcome_counts: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self.batches: List[BatchState] = []
        self.done_event = asyncio.Event()
        self.result: Optional[CampaignResult] = None

        self._executor: Optional[Executor] = None
        self._journal: Optional[InOrderJournal] = None
        self._stop_requested: Optional[str] = None
        # What a completed campaign keeps of its executor (_release).
        self._worker_restarts = 0
        self._quarantined_batches = 0
        self._batch_states: Optional[Dict[str, int]] = None

    # -- observation --------------------------------------------------

    @property
    def trials_total(self) -> int:
        return self.spec.trials

    @property
    def worker_restarts(self) -> int:
        if self._executor is None:
            return self._worker_restarts
        return self._executor.worker_restarts

    @property
    def quarantined_batches(self) -> int:
        if self._executor is None:
            return self._quarantined_batches
        return self._executor.quarantined_batches

    def aggregates(self) -> Dict[str, Any]:
        """Live campaign statistics (the dashboard payload)."""
        done = self.trials_done
        counts = dict(self.outcome_counts)  # one atomic copy
        covered = sum(counts.get(o, 0) for o in COVERED_OUTCOMES)
        elapsed = self._elapsed_now()
        return {
            "trials_done": done,
            "trials_total": self.trials_total,
            "outcomes": {o: n for o, n in counts.items() if n},
            "covered_fraction": (covered / done) if done else 0.0,
            "infra_errors": counts.get("infra_error", 0),
            "throughput_trials_per_s": (
                round(done / elapsed, 2) if elapsed > 0 else 0.0
            ),
            "elapsed_s": round(elapsed, 3),
        }

    def _elapsed_now(self) -> float:
        if self.started_monotonic is None:
            return 0.0
        if self.state in TERMINAL_STATES:
            return self.elapsed
        return time.monotonic() - self.started_monotonic

    def _count_batch_states(self) -> Dict[str, int]:
        if self._batch_states is not None:
            return dict(self._batch_states)
        batch_states: Dict[str, int] = {}
        for batch in self.batches:
            batch_states[batch.status] = batch_states.get(batch.status, 0) + 1
        return batch_states

    def status(self) -> Dict[str, Any]:
        batch_states = self._count_batch_states()
        return {
            "id": self.campaign_id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "journal": self.journal_path,
            "aggregates": self.aggregates(),
            "batches": batch_states,
            "quarantined_batches": self.quarantined_batches,
            "worker_restarts": self.worker_restarts,
            "workers": self.monitor.snapshot(),
        }

    # -- control ------------------------------------------------------

    def cancel(self) -> None:
        self._request_stop(CANCELLED)

    def drain(self) -> None:
        """Graceful-shutdown path: stop now, keep everything finished."""
        self._request_stop(INTERRUPTED)

    def _request_stop(self, state: str) -> None:
        if self.state in TERMINAL_STATES:
            return
        self._stop_requested = state
        if self._executor is not None:
            self._executor.stop()

    # -- the lifecycle ------------------------------------------------

    async def run(self) -> None:
        try:
            await self._run()
        except Exception as exc:  # noqa: BLE001 — campaign, not server
            self.state = FAILED
            self.error = f"{type(exc).__name__}: {exc}"
            self._finalize_journal(flush_out_of_order=True)
        finally:
            if self.state not in TERMINAL_STATES:
                self.state = FAILED
                self.error = self.error or "dispatcher exited unexpectedly"
            self.elapsed = self._elapsed_now() if self.started_monotonic else 0.0
            self.done_event.set()

    async def _run(self) -> None:
        spec = self.spec
        self.state = STARTING
        self.started_monotonic = time.monotonic()

        # Parse + golden + planning are CPU work: off the event loop.
        module, golden_events = await asyncio.to_thread(self._prepare)
        plans = spec.plans(golden_events)
        # Every submission is a fresh campaign: truncate any stale
        # journal at this path (CampaignJournal appends by design, and
        # appending onto an older campaign's records would break the
        # byte-identity contract).  Resuming a drained journal is the
        # CLI's job (`inject --resume`).
        if os.path.exists(self.journal_path):
            os.remove(self.journal_path)
        journal = CampaignJournal(self.journal_path)
        journal.write_header(campaign_metadata(module, config=spec))
        self._journal = InOrderJournal(journal)

        if self._preset_batches is not None:
            self.batches = self._preset_batches
        else:
            self.batches = shard_batches(
                list(range(spec.trials)),
                spec.batch_size or default_batch_size(spec.trials,
                                                      self.workers),
                workers=self.workers, static=self.static_sharding,
            )
        # Built and stopped on the event loop, so a cancel() racing the
        # start cannot be lost.
        self._executor = sfi_executor(
            module, plans, spec, workers=self.workers, batches=self.batches,
            monitor=self.monitor, on_result=self._record, **self._options,
        )
        if self._stop_requested is not None:
            self._executor.stop()
        self.state = RUNNING
        await asyncio.to_thread(self._executor.run)

        if self._stop_requested is not None:
            self.state = self._stop_requested
            self._finalize_journal(flush_out_of_order=True)
            return
        self._finalize_journal(flush_out_of_order=False)
        self.elapsed = time.monotonic() - self.started_monotonic
        self.result = CampaignResult(
            [self.results[i] for i in range(spec.trials)],
            elapsed=self.elapsed,
            jobs=self.workers,
            worker_trials=self._executor.worker_trials,
            pool_restarts=self.worker_restarts,
        )
        self._release()
        self.state = COMPLETED

    def _release(self) -> None:
        """Keep the counts of a completed campaign, not its executor.

        The executor holds every plan, per-index result and batch; the
        journal already holds every record, and ``result`` every trial.
        """
        self._worker_restarts = self._executor.worker_restarts
        self._quarantined_batches = self._executor.quarantined_batches
        self._batch_states = self._count_batch_states()
        self._executor = None
        self.batches = []
        self.results = {}

    def _prepare(self) -> Tuple[Any, int]:
        module = parse_module(self.spec.module_text)
        verify_module(module)
        golden = golden_run(module, self.spec,
                            memory_image=MachineMemory.pristine(module))
        return module, golden.events

    def _record(self, index: int, trial: TrialResult) -> None:
        """Executor callback (its thread): one trial, first delivery."""
        self.results[index] = trial
        self.trials_done += 1
        self.outcome_counts[trial.outcome] = (
            self.outcome_counts.get(trial.outcome, 0) + 1
        )
        self._journal.record(index, trial)

    def _finalize_journal(self, flush_out_of_order: bool) -> None:
        if self._journal is None:
            return
        if flush_out_of_order:
            self._journal.flush_out_of_order()
        self._journal.close()
        self._journal = None


class FuzzSpecError(SpecError):
    pass


@dataclasses.dataclass(frozen=True)
class FuzzSpec:
    """A differential-fuzzing campaign as submitted over the API."""

    seed: int = 0
    budget: int = 100
    start: int = 0
    profile: str = "default"
    oracles: Optional[Tuple[str, ...]] = None
    campaign_every: int = 25
    jobs: int = 1
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise FuzzSpecError("budget must be non-negative")
        if self.jobs < 1:
            raise FuzzSpecError("jobs must be >= 1")

    def to_json(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.oracles is not None:
            data["oracles"] = list(self.oracles)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FuzzSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known - {"kind"})
        if unknown:
            raise FuzzSpecError(
                f"unknown fuzz spec field(s): {', '.join(unknown)}"
            )
        coerced = {k: v for k, v in data.items() if k in known}
        if coerced.get("oracles") is not None:
            coerced["oracles"] = tuple(coerced["oracles"])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise FuzzSpecError(str(exc)) from None


class FuzzTask:
    """A served fuzz campaign.

    The service runs :func:`repro.fuzz.run_fuzz_campaign` — journaled,
    resumable, and with ``jobs > 1`` on the same supervised executor as
    SFI campaigns — off the event loop, and surfaces the same status
    shape as SFI campaigns (state, progress, journal path).
    """

    kind = "fuzz"

    def __init__(self, campaign_id: str, spec: FuzzSpec,
                 journal_path: str) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.journal_path = journal_path
        self.state = QUEUED
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.elapsed = 0.0
        self.done_event = asyncio.Event()
        self.programs_done = 0
        self.failures = 0
        self.unique_failures = 0
        self.fingerprint: Optional[str] = None

    def cancel(self) -> None:
        # A fuzz campaign has no mid-flight cancellation hook; a cancel
        # request before start is honoured, afterwards the campaign runs
        # to completion (it is budget-bounded).
        if self.state == QUEUED:
            self.state = CANCELLED
            self.done_event.set()

    def drain(self) -> None:
        self.cancel()

    @property
    def trials_done(self) -> int:
        return self.programs_done

    @property
    def trials_total(self) -> int:
        return self.spec.budget

    def status(self) -> Dict[str, Any]:
        elapsed = self.elapsed
        if self.started_monotonic is not None and self.state == RUNNING:
            elapsed = time.monotonic() - self.started_monotonic
        return {
            "id": self.campaign_id,
            "kind": self.kind,
            "state": self.state,
            "error": self.error,
            "journal": self.journal_path,
            "aggregates": {
                "programs_done": self.programs_done,
                "programs_total": self.spec.budget,
                "failures": self.failures,
                "unique_failures": self.unique_failures,
                "fingerprint": self.fingerprint,
                "elapsed_s": round(elapsed, 3),
            },
        }

    async def run(self) -> None:
        if self.state == CANCELLED:
            return
        from repro import fuzz

        self.state = RUNNING
        self.started_monotonic = time.monotonic()
        try:
            settings = fuzz.FuzzSettings(
                seed=self.spec.seed,
                profile=self.spec.profile,
                oracles=self.spec.oracles or fuzz.DEFAULT_ORACLES,
                campaign_every=self.spec.campaign_every,
            )

            def progress(done: int, _total: int) -> None:
                self.programs_done = done

            def execute():
                journal = fuzz.FuzzJournal(self.journal_path, settings)
                try:
                    return fuzz.run_fuzz_campaign(
                        settings,
                        budget=self.spec.budget,
                        start=self.spec.start,
                        jobs=self.spec.jobs,
                        journal=journal,
                        reduce=False,
                        progress=progress,
                    )
                finally:
                    journal.close()

            result = await asyncio.to_thread(execute)
            self.programs_done = len(result.records)
            self.failures = len(result.failures)
            self.unique_failures = len(result.unique_failures)
            self.fingerprint = result.fingerprint()
            self.state = COMPLETED
        except Exception as exc:  # noqa: BLE001 — campaign, not server
            self.state = FAILED
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.elapsed = time.monotonic() - self.started_monotonic
            self.done_event.set()
