"""The one process executor: supervised, work-stealing, crash-contained.

SFI trials and fuzz programs are embarrassingly parallel: each unit of
work is a pure function of its index (:func:`repro.runtime.sfi.plan_trial`
keys a trial's randomness off ``(seed, trial_index)``, a fuzz program off
``(seed, program_index)``), so units can be spread over worker processes
in any batching whatsoever and still reproduce the serial run bit for
bit.  Only the order in which results arrive changes, and
:class:`repro.runtime.journal.InOrderJournal` puts it back on disk.

:class:`Executor` is the engine behind ``run_campaign(jobs > 1)`` (and
so ``inject``, incremental campaigns and the experiment harness),
``run_fuzz_campaign(jobs > 1)`` and the campaign server's
:class:`repro.service.CampaignTask`:

* each worker process runs ``init(payload)`` once — for SFI that
  unpickles the module and replays the golden run locally — and then
  pulls batches as it drains them (**work stealing**: a straggler delays
  only its own batch, never an idle peer);
* every result streams back over the worker's pipe the moment it is
  done, and doubles as the worker's **heartbeat**; a unit delivered
  twice (a retried batch) counts once, first delivery wins;
* a **watchdog** kills workers whose heartbeat lapses; a worker that
  dies (SIGKILL, OOM, segfault, the watchdog) has its batch re-queued
  with bounded exponential backoff and its slot restarted.  A batch
  that fails ``max_retries`` times — or every open batch, once the
  restart budget is spent and no worker is left — **quarantines**:
  ``lost(index)`` stands in for each of its unfinished units, so the
  campaign completes degraded but honest instead of hanging.

The loop is synchronous: it waits on the worker pipes with one
selector kept for the executor's life, so the CLI, a fuzz worker
(whose ``campaign`` oracle nests a second executor) and the server
(through ``asyncio.to_thread``) all run the same code.  Per-trial
wall-clock timeouts stay inside the worker
(:func:`repro.runtime.sfi.call_with_timeout`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import selectors
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ir.module import Module
from repro.runtime.config import CampaignConfig
from repro.runtime.health import (
    BATCH_DONE,
    BATCH_PENDING,
    BATCH_QUARANTINED,
    BATCH_RUNNING,
    WORKER_BUSY,
    WORKER_DEAD,
    WORKER_IDLE,
    WORKER_STARTING,
    BatchState,
    ExponentialBackoff,
    HealthMonitor,
    default_batch_size,
    shard_batches,
)
from repro.runtime.sfi import FaultPlan, TrialResult, infra_error_trial

#: Worker restarts an executor allows per worker slot before it stops
#: replacing dead workers (and quarantines what is left).
RESTARTS_PER_WORKER = 4


class ParallelUnavailable(RuntimeError):
    """The campaign cannot cross a process boundary (e.g. closure
    externals that don't pickle); callers fall back to the serial path."""


def _init_worker(payload: bytes) -> Dict[str, Any]:
    """SFI worker state: the campaign, a pristine memory image every
    trial clones, and the worker's own golden run."""
    from repro.runtime.memory import MachineMemory
    from repro.runtime.sfi import golden_run

    state = pickle.loads(payload)
    state["memory_image"] = MachineMemory.pristine(state["module"])
    state["golden"] = golden_run(
        state["module"], state["config"], externals=state["externals"],
        memory_image=state["memory_image"],
    )
    return state


def run_worker_plan(state: Dict[str, Any], plan: FaultPlan) -> TrialResult:
    """Execute one pre-derived plan against :func:`_init_worker`'s
    state — the unit of SFI work for pooled and served campaigns alike,
    which is why a served campaign is bit-identical to a pooled one."""
    from repro.runtime.sfi import run_planned_trial

    return run_planned_trial(
        state["module"], state["golden"], plan, state["config"],
        externals=state["externals"], memory_image=state["memory_image"],
    )


def worker_payload(module: Module, config: CampaignConfig,
                   externals=None) -> bytes:
    """Pickle the per-worker campaign state for :func:`_init_worker`.

    Raises :class:`ParallelUnavailable` when the campaign cannot cross
    a process boundary.
    """
    try:
        return pickle.dumps(
            {"module": module, "config": config, "externals": externals}
        )
    except Exception as exc:
        raise ParallelUnavailable(str(exc)) from exc


def _context():
    # fork shares the parent's imports and is dramatically cheaper to
    # start; fall back to the platform default (spawn) elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# Pipe creation, fork and closing the child's end happen under one lock,
# so no worker (of any executor in this process) inherits another's
# child end: a worker's death is then always an EOF on its pipe, and
# orphaned workers see EOF once the parent is gone.  A forked child
# starts with a fresh lock.
_START_LOCK = threading.Lock()


def _reset_start_lock() -> None:
    global _START_LOCK
    _START_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_start_lock)


# -- worker protocol --------------------------------------------------
#
# Parent -> child: ``(batch_id, [(index, unit), ...])`` or ``None``
#                  (stop).
# Child -> parent: ``("ready",)`` once initialised,
#                  ``("result", index, result)`` per unit (the
#                  heartbeat), ``("batch_done", batch_id)`` per batch,
#                  ``("init_error", detail)`` on setup failure.


def _worker_main(init, payload, run, conn, inherited) -> None:
    """Child-process entry: initialise once, then serve batches until
    told to stop or the parent's end of the pipe closes."""
    # The parent owns SIGINT policy: a Ctrl-C must reach the executor,
    # not tear workers out from under it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()  # parent ends of this and earlier workers' pipes
    try:
        state = init(payload) if init is not None else payload
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("init_error", repr(exc)))
        except OSError:
            pass
        return
    try:
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message is None:
                return
            batch_id, units = message
            for index, unit in units:
                conn.send(("result", index, run(state, unit)))
            conn.send(("batch_done", batch_id))
    except (EOFError, OSError):
        return  # parent went away; nothing to clean up


@dataclasses.dataclass
class _Handle:
    process: multiprocessing.process.BaseProcess
    conn: Any  # multiprocessing.connection.Connection


class Executor:
    """Run ``run(init(payload), unit)`` for every ``units[index]`` on a
    supervised pool of ``workers`` processes.

    ``on_result(index, result)`` is called in the calling thread, once
    per index, in completion order.  ``batches`` (default: ``units``
    sharded ``batch_size`` at a time, eight batches per worker) and
    ``monitor`` may be shared with an observer, which is how the
    campaign server reports batch states and worker health.
    ``chaos_kill_after`` SIGKILLs the worker that delivered that many
    results, once — the crash path must converge to the same results.
    :meth:`stop` (from any thread) ends :meth:`run` early.
    """

    def __init__(
        self,
        run: Callable[[Any, Any], Any],
        units: Dict[int, Any],
        *,
        lost: Callable[[int], Any],
        init: Optional[Callable[[Any], Any]] = None,
        payload: Any = None,
        workers: int = 2,
        batches: Optional[List[BatchState]] = None,
        batch_size: Optional[int] = None,
        monitor: Optional[HealthMonitor] = None,
        max_retries: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        poll_interval: float = 0.05,
        max_worker_restarts: Optional[int] = None,
        chaos_kill_after: Optional[int] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        self.units = units
        if batches is None:
            batches = shard_batches(
                list(units),
                batch_size or default_batch_size(len(units), workers),
            )
        self.batches = batches
        self.workers = max(1, min(workers, len(batches)))
        self.monitor = monitor or HealthMonitor()
        self.max_retries = max_retries
        self.backoff = backoff or ExponentialBackoff()
        self.poll_interval = poll_interval
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None
            else self.workers * RESTARTS_PER_WORKER
        )
        self.results: Dict[int, Any] = {}
        self.worker_restarts = 0
        self.quarantined_batches = 0
        self._run, self._init, self._payload = run, init, payload
        self._lost = lost
        self._on_result = on_result
        self._chaos_kill_after = chaos_kill_after
        self._handles: Dict[int, _Handle] = {}
        # One selector for the executor's life: a worker's pipe is
        # registered when it starts and unregistered when it dies.
        self._selector: Optional[selectors.BaseSelector] = None
        self._next_liveness_scan = 0.0
        self._stopped = False

    @property
    def worker_trials(self) -> Dict[str, int]:
        """Units each worker slot delivered, keyed ``worker-<slot>``."""
        return {
            f"worker-{slot}": health.trials_done
            for slot, health in sorted(self.monitor.workers.items())
        }

    def stop(self) -> None:
        self._stopped = True

    def run(self) -> Dict[int, Any]:
        """Execute every unit (or until :meth:`stop`); returns the
        results by index.  Workers are torn down however it ends."""
        self._selector = selectors.DefaultSelector()
        try:
            for slot in range(self.workers):
                self._start(slot)
            while not self._stopped and len(self.results) < len(self.units):
                self._assign_batches()
                for key, _ in self._selector.select(self.poll_interval):
                    self._receive(key.data)
                self._check_watchdog()
        finally:
            self._teardown()
            self._selector.close()
        return self.results

    # -- workers ------------------------------------------------------

    def _start(self, slot: int) -> None:
        context = _context()
        with _START_LOCK:
            parent_conn, child_conn = context.Pipe(duplex=True)
            inherited = [parent_conn]
            inherited += [h.conn for h in self._handles.values()]
            process = context.Process(
                target=_worker_main,
                args=(self._init, self._payload, self._run, child_conn,
                      inherited),
                name=f"repro-worker-{slot}",
            )
            process.start()
            child_conn.close()
        self._handles[slot] = _Handle(process, parent_conn)
        self._selector.register(parent_conn, selectors.EVENT_READ, slot)
        self.monitor.track(slot, process.pid)

    def _receive(self, slot: int) -> None:
        """Handle one message from a worker whose pipe is readable; EOF
        means it died."""
        try:
            message = self._handles[slot].conn.recv()
        except (EOFError, OSError):
            self._handle_worker_death(slot)
        else:
            self._handle_message(slot, message)

    def _handle_message(self, slot: int, message: tuple) -> None:
        tag = message[0]
        health = self.monitor.workers[slot]
        self.monitor.beat(slot)
        if tag == "ready":
            health.state = WORKER_IDLE
        elif tag == "result":
            health.trials_done += 1
            self._deliver(message[1], message[2])
            if (self._chaos_kill_after is not None
                    and len(self.results) >= self._chaos_kill_after):
                self._chaos_kill_after = None
                self._handles[slot].process.kill()
        elif tag == "batch_done":
            batch = self.batches[message[1]]
            if batch.status == BATCH_RUNNING and batch.worker == slot:
                batch.status = BATCH_DONE
                batch.worker = None
            health.state = WORKER_IDLE
            health.batches_done += 1
            health.current_batch = None
        elif tag == "init_error":
            self._handle_worker_death(slot)

    def _deliver(self, index: int, result: Any) -> None:
        if index in self.results:
            return  # re-delivered by a retried batch: first wins
        self.results[index] = result
        if self._on_result is not None:
            self._on_result(index, result)

    def _handle_worker_death(self, slot: int) -> None:
        handle = self._handles.pop(slot)
        self._selector.unregister(handle.conn)
        handle.conn.close()
        handle.process.kill()
        handle.process.join(1.0)
        health = self.monitor.workers[slot]
        health.state = WORKER_DEAD
        if health.current_batch is not None:
            self._requeue_batch(self.batches[health.current_batch])
            health.current_batch = None
        if self._stopped or not any(
                b.status in (BATCH_PENDING, BATCH_RUNNING)
                for b in self.batches):
            return
        if self.worker_restarts < self.max_worker_restarts:
            self.worker_restarts += 1
            health.restarts += 1
            self._start(slot)
        elif not self._handles:
            # Last resort: no workers and no restart budget left —
            # quarantine everything still open, so the campaign
            # completes with an honest tail instead of hanging.
            for batch in self.batches:
                if batch.status in (BATCH_PENDING, BATCH_RUNNING):
                    self._quarantine(batch)

    def _requeue_batch(self, batch: BatchState) -> None:
        if batch.status != BATCH_RUNNING:
            return
        batch.worker = None
        batch.attempts += 1
        if batch.attempts > self.max_retries:
            self._quarantine(batch)
            return
        batch.status = BATCH_PENDING
        batch.not_before = (
            time.monotonic() + self.backoff.delay(batch.attempts)
        )

    def _quarantine(self, batch: BatchState) -> None:
        batch.status = BATCH_QUARANTINED
        batch.worker = None
        self.quarantined_batches += 1
        for index in batch.indices:
            if index not in self.results:
                self._deliver(index, self._lost(index))

    def _assign_batches(self) -> None:
        now = time.monotonic()
        idle = [
            slot for slot, health in sorted(self.monitor.workers.items())
            if health.state == WORKER_IDLE and slot in self._handles
        ]
        for batch in self.batches:
            if not idle:
                return
            if batch.status != BATCH_PENDING or batch.not_before > now:
                continue
            slot = batch.assigned_slot
            if slot is None:
                slot = idle.pop(0)
            elif slot in idle:
                # Static sharding: only the pinned slot may take it...
                idle.remove(slot)
            elif (slot in self._handles
                  or self.worker_restarts < self.max_worker_restarts):
                continue
            else:
                # ...unless that slot is gone for good.
                slot = idle.pop(0)
            self._send_batch(slot, batch)

    def _send_batch(self, slot: int, batch: BatchState) -> None:
        # A retried batch re-sends only what its dead worker left.
        units = [(i, self.units[i]) for i in batch.indices
                 if i not in self.results]
        if not units:
            batch.status = BATCH_DONE
            return
        try:
            self._handles[slot].conn.send((batch.batch_id, units))
        except OSError:
            self._handle_worker_death(slot)
            return
        batch.status = BATCH_RUNNING
        batch.worker = slot
        health = self.monitor.workers[slot]
        health.state = WORKER_BUSY
        health.current_batch = batch.batch_id
        self.monitor.beat(slot)

    def _check_watchdog(self) -> None:
        # At most once per poll interval, by the clock: a worker that
        # dies without an EOF is still found within one interval while
        # its peers keep the selector busy.
        now = time.monotonic()
        if now < self._next_liveness_scan:
            return
        self._next_liveness_scan = now + self.poll_interval
        for slot in self.monitor.overdue():
            if slot in self._handles:
                # Hung (or wedged at startup): put it down; the EOF on
                # its pipe takes the normal death path.
                self._handles[slot].process.kill()
        for slot, handle in list(self._handles.items()):
            if handle.process.is_alive():
                continue
            # Dead, but its pipe has not reported EOF yet (or never will,
            # while a grandchild holds it): take what it sent, bury it.
            while self._handles.get(slot) is handle and handle.conn.poll():
                self._receive(slot)
            if self._handles.get(slot) is handle:
                self._handle_worker_death(slot)

    def _teardown(self) -> None:
        unfinished = len(self.results) < len(self.units)
        for slot, handle in self._handles.items():
            try:
                handle.conn.send(None)
            except OSError:
                pass
            state = self.monitor.workers[slot].state
            if state == WORKER_STARTING or (
                    unfinished and state == WORKER_BUSY):
                handle.process.kill()  # its work is unneeded or re-derivable
        for handle in self._handles.values():
            handle.process.join(2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            self._selector.unregister(handle.conn)
            handle.conn.close()
        self._handles.clear()
        for health in self.monitor.workers.values():
            health.state = WORKER_DEAD


def sfi_executor(module: Module, plans: Sequence[FaultPlan],
                 config: CampaignConfig, *, externals=None,
                 **options) -> Executor:
    """The executor for SFI ``plans``: workers replay the golden run
    once, then execute plans; a plan whose batch quarantines records
    ``infra_error``.  ``options`` are :class:`Executor`'s.  Raises
    :class:`ParallelUnavailable` when the campaign does not pickle."""
    return Executor(
        run_worker_plan,
        {plan.trial_index: plan for plan in plans},
        init=_init_worker,
        payload=worker_payload(module, config, externals),
        lost=lambda _index: infra_error_trial(),
        **options,
    )
