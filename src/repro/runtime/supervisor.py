"""Recovery supervision: bounded, reason-coded rollback escalation.

The paper's recovery mechanism is a single redirect to the region's
recovery block.  A real deployment needs more: a fault can strike
*during* recovery (the double-fault window RepTFD highlights), and a
recovery block whose inputs were corrupted outside the checkpoint set
re-triggers its own fault forever — localized rollback only pays off
when cascading restarts are bounded.  The :class:`RecoverySupervisor`
wraps every rollback decision of one SFI trial with exactly those
bounds:

* **per-region attempt accounting** — every rollback is charged to its
  ``(frame, region)`` key;
* **livelock detection** — ``K`` consecutive rollbacks into the same
  region header with no committed progress in between (no region exit,
  no frame pop, no transfer to another region) escalate to the
  ``livelock`` outcome instead of spinning until the step budget
  explodes;
* **a per-attempt watchdog** — an optional step budget per recovery
  attempt; a recovery that executes more dynamic instructions than the
  budget without committing is re-rolled (charging another attempt), so
  a silently-stuck recovery is bounded in *deterministic* dynamic
  instruction units, never wall-clock;
* **double-fault injection** — faults planned to strike *inside* the
  recovery window (``FaultPlan.recovery_*`` fields) are armed relative
  to the rollback event and classified separately when they defeat
  recovery.

Escalation is communicated by raising :class:`EscalateTrial` with one
of the reason codes in :data:`ESCALATIONS`; ``run_planned_trial``
translates the reason into the trial outcome.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

#: Reason codes an escalation can carry.  The supervisor itself raises
#: the first two; ``metadata_corrupt_detected`` is raised through the
#: same ladder by the metadata guard (``guarded_state.py``) when a
#: rollback's own state fails verification.
ESCALATIONS = (
    "livelock",
    "escape_unrecoverable",
    "metadata_corrupt_detected",
)


class EscalateTrial(Exception):
    """The supervisor gave up on recovery; the trial ends now.

    ``reason`` is one of :data:`ESCALATIONS` and becomes (part of) the
    trial outcome classification.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Bounds on the recovery escalation ladder.

    ``max_attempts`` is K: the number of consecutive rollbacks into the
    same region (without committed progress in between) tolerated
    before the trial is declared a livelock.  ``attempt_step_budget``
    is the per-attempt watchdog in dynamic instructions: a recovery
    attempt that runs longer than the budget without committing is
    re-rolled, charging another attempt (None disables the watchdog).
    Both are measured in deterministic units, so supervised campaigns
    remain bit-reproducible.
    """

    max_attempts: int = 3
    attempt_step_budget: Optional[int] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.attempt_step_budget is not None and self.attempt_step_budget < 1:
            raise ValueError("attempt_step_budget must be >= 1 or None")


#: A fault planned to strike during recovery: (offset after rollback,
#: bit to flip, detection latency or None).
RecoveryFault = Tuple[int, int, Optional[int]]


class RecoverySupervisor:
    """Tracks and bounds all rollback activity of one trial.

    Wired into the trial two ways: the fault injector forwards detector
    deadlines to :meth:`on_detection`, and calls :meth:`on_step` after
    each step the trial observes, so the supervisor can observe
    committed progress, run the watchdog, and inject the planned
    recovery-window faults.  :meth:`stops` and :attr:`rollback_active`
    tell the trial's stop schedule which steps those are.  The trap
    path of ``run_planned_trial`` calls :meth:`on_trap` instead of
    redirecting control itself.
    """

    def __init__(
        self,
        policy: Optional[SupervisorPolicy] = None,
        recovery_faults: Tuple[RecoveryFault, ...] = (),
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        # Recovery-window faults not yet armed; one is armed per rollback.
        self.pending_recovery_faults: List[RecoveryFault] = list(recovery_faults)
        # Armed recovery faults: (absolute event index, bit).
        self._armed: List[Tuple[int, int, Optional[int]]] = []
        # Detector deadlines owned by the supervisor (recovery faults).
        self._deadlines: List[int] = []
        self.attempts = 0                 # total rollbacks attempted
        self.streak = 0                   # consecutive no-progress rollbacks
        self.max_streak = 0               # worst streak seen (retry marker)
        self.double_faults = 0            # faults injected inside recovery
        self.recovery_failed = False      # a rollback found no live pointer
        # The (frame id, region id) of the active uncommitted rollback,
        # plus the event index it happened at (for the watchdog).
        self._active: Optional[Tuple[int, int]] = None
        self._active_since = 0

    # ------------------------------------------------------------------
    # progress observation, watchdog, recovery-window injection
    # ------------------------------------------------------------------

    def stops(self) -> List[int]:
        """The event indices at which :meth:`on_step` acts next: armed
        recovery-window faults, deadlines, and the watchdog.

        Progress can only change where the owner frame's recovery
        pointer moves or the frame pops; the trial's stop schedule
        covers those instructions while :attr:`rollback_active`.
        """
        stops = [fault[0] for fault in self._armed]
        stops.extend(self._deadlines)
        budget = self.policy.attempt_step_budget
        if self._active is not None and budget is not None:
            stops.append(self._active_since + budget + 1)
        return stops

    @property
    def rollback_active(self) -> bool:
        """A rollback has not committed yet."""
        return self._active is not None

    def on_step(self, interp, event) -> None:
        """Per-step hook: progress tracking, watchdog, double faults."""
        self._inject_recovery_faults(interp, event)
        self._fire_deadlines(interp, event)
        if self._active is None:
            return
        frame_id, region_id = self._active
        # Judge progress on the frame that owns the rollback (a callee
        # frame on top of it is not progress — the region has not
        # committed until its own pointer moves or clears).  The lookup
        # spans every thread's stack: a suspended owner frame parked in
        # another execution context has not committed anything.
        finder = getattr(interp, "find_frame", None)
        if finder is not None:
            owner = finder(frame_id)
        else:
            owner = next(
                (c for c in interp.frames if c.id == frame_id), None
            )
        if (
            owner is None
            or owner.recovery_ptr is None
            or owner.recovery_ptr[0] != region_id
        ):
            # The rolled-back region exited (pointer cleared), the frame
            # popped, or control reached another region: committed
            # progress — the escalation streak resets.
            self._active = None
            self.streak = 0
            return
        budget = self.policy.attempt_step_budget
        if budget is not None and event.index - self._active_since > budget:
            # Watchdog: the attempt overran its step budget without
            # committing.  Re-roll (charging another attempt).
            self.request_rollback(interp, event.index)

    def _inject_recovery_faults(self, interp, event) -> None:
        if not self._armed or not interp.frames:
            return
        due = [f for f in self._armed if event.index >= f[0]]
        if not due:
            return
        from repro.runtime.interpreter import bitflip

        for fault in due:
            if not event.inst.defs():
                return  # wait for the next value-producing instruction
            self._armed.remove(fault)
            _site, bit, latency = fault
            dest = event.inst.defs()[0]
            frame = interp.current_frame
            frame.regs[dest] = bitflip(frame.regs.get(dest, 0), bit)
            self.double_faults += 1
            if latency is not None:
                self._deadlines.append(event.index + latency)

    def _fire_deadlines(self, interp, event) -> None:
        while self._deadlines and event.index >= min(self._deadlines):
            self._deadlines.remove(min(self._deadlines))
            self.on_detection(interp, event.index)

    # ------------------------------------------------------------------
    # rollback entry points
    # ------------------------------------------------------------------

    def on_detection(self, interp, event_index: int) -> None:
        """A detector deadline fired: roll back under supervision.

        Raises :class:`EscalateTrial` with ``escape_unrecoverable`` when
        no recovery pointer is live (the fault escaped its region) or
        ``livelock`` when the attempt bound is exhausted.
        """
        self.request_rollback(interp, event_index, immediate=False)

    def on_trap(self, interp, event_index: int) -> bool:
        """A trap symptom fired (outside a step): roll back immediately.

        Returns True when a recovery block was entered; False when no
        recovery pointer is live.  Raises :class:`EscalateTrial` on
        livelock like the deadline path.
        """
        return self.request_rollback(interp, event_index, immediate=True,
                                     escalate_on_escape=False)

    def request_rollback(
        self,
        interp,
        event_index: int,
        immediate: bool = False,
        escalate_on_escape: bool = True,
    ) -> bool:
        self.attempts += 1
        frame = interp.frames[-1] if interp.frames else None
        ptr = frame.recovery_ptr if frame is not None else None
        if frame is None or ptr is None:
            self.recovery_failed = True
            if escalate_on_escape:
                raise EscalateTrial("escape_unrecoverable")
            return False
        key = (frame.id, ptr[0])
        self.streak = self.streak + 1 if self._active == key else 1
        self.max_streak = max(self.max_streak, self.streak)
        if self.streak > self.policy.max_attempts:
            raise EscalateTrial("livelock")
        if not interp.trigger_recovery(immediate=immediate):
            self.recovery_failed = True
            if escalate_on_escape:
                raise EscalateTrial("escape_unrecoverable")
            return False
        self._active = key
        self._active_since = event_index
        if self.pending_recovery_faults:
            offset, bit, latency = self.pending_recovery_faults.pop(0)
            self._armed.append((event_index + offset, bit, latency))
        return True
