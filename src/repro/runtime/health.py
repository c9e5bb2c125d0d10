"""Health accounting for the supervised executor: worker heartbeats,
batch lifecycle, and the retry/backoff policy.

The executor (:class:`repro.runtime.parallel.Executor`) acts; this
module is the bookkeeping it consults.  Everything here is plain state
— no I/O, no processes — so the watchdog semantics (when is a worker
*hung*? when does a batch *quarantine*?) are unit-testable with a fake
clock, independent of the process machinery that acts on them.

Lifecycle invariants:

* a **worker** is ``starting`` until its golden-run replay completes,
  then alternates ``idle``/``busy``; death (crash, SIGKILL, or a
  watchdog kill after a heartbeat lapse) makes it ``dead`` until the
  executor restarts the slot, which increments ``restarts``;
* every trial result a worker streams back is a **heartbeat**; a busy
  worker silent for longer than ``heartbeat_timeout`` is presumed hung
  and killed — its batch is re-queued, not lost;
* a **batch** retries with exponential backoff up to ``max_retries``
  times, then quarantines: its unfinished trials are recorded as
  ``infra_error`` so the campaign completes with an honest coverage
  denominator instead of hanging forever on poisoned work.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional, Tuple

# -- worker states ----------------------------------------------------

WORKER_STARTING = "starting"
WORKER_IDLE = "idle"
WORKER_BUSY = "busy"
WORKER_DEAD = "dead"

# -- batch states -----------------------------------------------------

BATCH_PENDING = "pending"
BATCH_RUNNING = "running"
BATCH_DONE = "done"
BATCH_QUARANTINED = "quarantined"


@dataclasses.dataclass(frozen=True)
class ExponentialBackoff:
    """Deterministic bounded exponential backoff for batch retries.

    ``delay(attempt)`` for attempts 1, 2, 3, ... is ``base``,
    ``base*factor``, ``base*factor**2``, ... capped at ``cap`` seconds.
    Deterministic (no jitter) on purpose: a single supervisor re-queues
    batches, so there is no thundering herd to spread, and tests can
    assert exact schedules.
    """

    base: float = 0.25
    factor: float = 2.0
    cap: float = 10.0

    def delay(self, attempt: int) -> float:
        if attempt <= 0:
            return 0.0
        return min(self.cap, self.base * self.factor ** (attempt - 1))


@dataclasses.dataclass
class BatchState:
    """One shard of a campaign's trial range, through its lifecycle."""

    batch_id: int
    indices: Tuple[int, ...]
    status: str = BATCH_PENDING
    attempts: int = 0
    #: Worker slot currently running this batch (``status == running``).
    worker: Optional[int] = None
    #: Monotonic time before which a backed-off batch must not rerun.
    not_before: float = 0.0
    #: Slot the batch is pinned to under static sharding (``None`` =
    #: work-stealing: any idle worker may claim it).
    assigned_slot: Optional[int] = None


@dataclasses.dataclass
class WorkerHealth:
    """Observable state of one worker slot."""

    slot: int
    pid: Optional[int] = None
    state: str = WORKER_STARTING
    last_heartbeat: float = 0.0
    trials_done: int = 0
    batches_done: int = 0
    #: Processes that have died in this slot (each one restarted,
    #: until the executor's restart budget runs out).
    restarts: int = 0
    current_batch: Optional[int] = None

    def snapshot(self, now: Optional[float] = None) -> Dict:
        now = time.monotonic() if now is None else now
        return {
            "slot": self.slot,
            "pid": self.pid,
            "state": self.state,
            "trials_done": self.trials_done,
            "batches_done": self.batches_done,
            "restarts": self.restarts,
            "current_batch": self.current_batch,
            "heartbeat_age_s": (
                round(now - self.last_heartbeat, 3)
                if self.last_heartbeat else None
            ),
        }


class HealthMonitor:
    """Heartbeat ledger + hang watchdog for a campaign's worker slots.

    ``beat`` timestamps any sign of life (readiness, a streamed trial,
    a batch completion); ``overdue`` names the busy slots whose last
    heartbeat is older than ``heartbeat_timeout`` — the executor
    kills those, re-queues their batches, and restarts the slot.
    Starting workers get a separate (longer) allowance because the
    golden-run replay is legitimate silent work.
    """

    def __init__(
        self,
        heartbeat_timeout: float = 30.0,
        startup_timeout: Optional[float] = None,
    ) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_timeout = (
            startup_timeout if startup_timeout is not None
            else max(heartbeat_timeout * 4, 60.0)
        )
        self.workers: Dict[int, WorkerHealth] = {}

    def track(self, slot: int, pid: Optional[int],
              now: Optional[float] = None) -> WorkerHealth:
        # A restarted slot keeps its counters.
        health = dataclasses.replace(
            self.workers.get(slot) or WorkerHealth(slot),
            pid=pid, state=WORKER_STARTING, current_batch=None,
            last_heartbeat=time.monotonic() if now is None else now,
        )
        self.workers[slot] = health
        return health

    def beat(self, slot: int, now: Optional[float] = None) -> None:
        if slot in self.workers:
            self.workers[slot].last_heartbeat = (
                time.monotonic() if now is None else now
            )

    def overdue(self, now: Optional[float] = None) -> List[int]:
        """Slots presumed hung: silent beyond their allowance."""
        now = time.monotonic() if now is None else now
        hung = []
        for slot, health in self.workers.items():
            if health.state == WORKER_BUSY:
                allowance = self.heartbeat_timeout
            elif health.state == WORKER_STARTING:
                allowance = self.startup_timeout
            else:
                continue
            if now - health.last_heartbeat > allowance:
                hung.append(slot)
        return hung

    def snapshot(self, now: Optional[float] = None) -> List[Dict]:
        return [
            self.workers[slot].snapshot(now) for slot in sorted(self.workers)
        ]


def shard_batches(
    indices: List[int],
    batch_size: int,
    workers: int = 1,
    static: bool = False,
) -> List[BatchState]:
    """Shard a trial-index list into dispatchable batches.

    With ``static=True`` batches are pinned round-robin to worker slots
    (the scheduling baseline the benchmark compares against); the
    default leaves them unpinned so idle workers steal whatever is next
    — a straggler slows only its own batch, never the pool.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batches = [
        BatchState(
            batch_id=number,
            indices=tuple(indices[i:i + batch_size]),
            assigned_slot=(number % max(workers, 1)) if static else None,
        )
        for number, i in enumerate(range(0, len(indices), batch_size))
    ]
    return batches


def default_batch_size(trials: int, workers: int) -> int:
    """Eight batches per worker: fine enough that work-stealing has
    slack to rebalance around stragglers, while each batch still
    amortises its dispatch round-trip."""
    return max(1, math.ceil(trials / (max(workers, 1) * 8)))
