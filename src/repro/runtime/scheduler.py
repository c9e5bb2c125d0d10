"""Deterministic cooperative round-robin scheduler.

Threads in this machine are *cooperative*: a thread runs until the
scheduler switches it out, and switches happen only at well-defined
points in the instruction stream, so a multithreaded execution is a
pure function of (module, inputs, quantum).  That property is what
keeps fault-injection campaigns over multithreaded workloads
bit-replayable — the same trial seed always sees the same interleaving
and therefore the same dynamic instruction stream.

Switch rules
------------

* A thread is switched out **immediately** when it blocks (``join`` on
  a live thread) or finishes (its root frame returns).
* Otherwise a thread runs for at least ``quantum`` dynamic
  instructions and is switched out at the *first block boundary* after
  the quantum expires: only ``br``/``jmp``/``call``/``ret``/``spawn``/
  ``join`` steps are eligible switch points.  Mid-block switches never
  happen, so Encore region undo-logs and replay chunks never observe a
  half-executed block from another thread.
* Candidates are scanned round-robin in thread-id order starting after
  the current thread; a blocked thread whose join target has finished
  is promoted back to runnable during the scan.
* The run ends when the **main** thread finishes (like process exit);
  still-live spawned threads are simply abandoned.  If every live
  thread is blocked the machine traps with a deterministic deadlock.

The scheduler is created lazily by the first ``spawn`` an execution
performs.  Single-threaded runs never construct one, which is how the
post-refactor interpreter stays bit-identical (and equally fast) on
the whole pre-existing corpus.

Every switch is recorded in ``switch_log`` as ``(event_index,
from_tid, to_tid)`` — the engine-equivalence tests assert the fast and
reference engines produce identical logs.

The scheduler acts only in :meth:`CooperativeScheduler.after_step`,
which the reference ``_step`` calls.  The fast engine runs decoded code
between the steps where that call can matter: ``next_stop`` names the
next step an expired quantum may switch at, and ``spawn``, ``join`` and
a thread's final ``ret`` always run as reference steps.  A quantum is
therefore counted in events since it began, never step by step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.runtime.context import BLOCKED, DONE, RUNNABLE, ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.interpreter import ReferenceInterpreter

#: Default scheduling quantum, in dynamic instruction steps.
DEFAULT_QUANTUM = 50

#: Opcodes at which an expired quantum may actually switch.  These are
#: exactly the block/frame boundaries: after any of them the bound
#: context sits at the start of an instruction run, never mid-block.
SWITCH_OPCODES = frozenset({"br", "jmp", "call", "ret", "spawn", "join"})


class CooperativeScheduler:
    """Round-robin scheduler over :class:`ExecutionContext` objects."""

    def __init__(self, quantum: Optional[int] = None) -> None:
        if quantum is not None and quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.quantum = DEFAULT_QUANTUM if quantum is None else quantum
        self.contexts: Dict[int, ExecutionContext] = {}
        #: Thread ids in creation order; the round-robin ring.
        self.ring: List[int] = []
        self.current: Optional[int] = None
        #: ``(event_index, from_tid, to_tid)`` per switch, in order.
        self.switch_log: List[Tuple[int, int, int]] = []
        #: ``interp.events`` when the current quantum began.
        self._slice_base = 0
        self._slice_start_events = 0
        self._next_tid = 1

    # -- context lifecycle -------------------------------------------------

    def adopt(self, ctx: ExecutionContext, events: int) -> None:
        """Register the already-running main context (first spawn)."""
        self.contexts[ctx.tid] = ctx
        self.ring.append(ctx.tid)
        self.current = ctx.tid
        self._slice_start_events = events
        self._slice_base = events

    def create_context(self) -> ExecutionContext:
        """Allocate a context for a newly spawned thread."""
        ctx = ExecutionContext(self._next_tid)
        self._next_tid += 1
        self.contexts[ctx.tid] = ctx
        self.ring.append(ctx.tid)
        return ctx

    def live_count(self) -> int:
        return sum(1 for c in self.contexts.values() if c.state != DONE)

    # -- the per-step hook -------------------------------------------------

    def next_stop(self, interp: "ReferenceInterpreter") -> int:
        """The index of the next step at which a thread switch may happen.

        Before the quantum expires that is its last step.  After it, the
        switch waits for the next switch opcode, and inside the current
        block its position is static, so the engine may run up to it.
        Blocking joins and finishing threads switch too; the engine runs
        ``join`` and a thread's final ``ret`` in the reference tier.
        """
        expiry = self._slice_base + self.quantum - 1
        events = interp.events
        if events < expiry:
            return expiry
        if not interp.frames:
            return events
        frame = interp.frames[-1]
        block = frame.func.blocks.get(frame.block)
        if block is None:
            return events
        insts = block.instructions
        for index in range(frame.ip, len(insts)):
            if insts[index].opcode in SWITCH_OPCODES:
                return events + index - frame.ip
        return events + max(0, len(insts) - frame.ip)

    def step_aborted(self) -> None:
        """The step just counted never reached :meth:`after_step` (an
        observer raised after it, e.g. a wild-branch trap): like every
        step the scheduler never saw, it is not part of the quantum."""
        self._slice_base += 1

    def after_step(self, interp: "ReferenceInterpreter", opcode: str) -> None:
        """Called by the engine at the end of every step while active."""
        cur = interp.context
        if interp._finished:
            cur.state = DONE
            self._settle(interp, cur)
            if cur.tid == 0:
                # Main returned: the run is over; live spawned threads
                # are abandoned by design.
                return
            self._switch(interp, must=True)
            return
        if cur.state == BLOCKED:
            self._switch(interp, must=True)
            return
        if (interp.events - self._slice_base >= self.quantum
                and opcode in SWITCH_OPCODES):
            self._switch(interp, must=False)

    # -- internals ---------------------------------------------------------

    def _settle(self, interp: "ReferenceInterpreter", ctx: ExecutionContext) -> None:
        ctx.steps += interp.events - self._slice_start_events
        self._slice_start_events = interp.events

    def _pick_next(self) -> Optional[ExecutionContext]:
        """Next runnable context after ``current``, ring order.

        Blocked contexts whose join target has finished are promoted to
        runnable as they are scanned, which keeps wake-up order a pure
        function of the ring.
        """
        if not self.ring:
            return None
        start = self.ring.index(self.current)
        n = len(self.ring)
        for offset in range(1, n + 1):
            tid = self.ring[(start + offset) % n]
            if tid == self.current:
                continue
            ctx = self.contexts[tid]
            if ctx.state == BLOCKED:
                target = self.contexts.get(ctx.waiting_on)
                if target is not None and target.state == DONE:
                    ctx.state = RUNNABLE
                    ctx.waiting_on = None
            if ctx.state == RUNNABLE:
                return ctx
        return None

    def _switch(self, interp: "ReferenceInterpreter", must: bool) -> None:
        from repro.runtime.interpreter import Trap

        nxt = self._pick_next()
        if nxt is None:
            if must:
                cur = interp.context
                if cur.state == DONE:
                    # A non-main thread finished and nothing else can
                    # run: main must be blocked on a thread that will
                    # never finish (or on this one, which _pick_next
                    # would have woken).  Deterministic deadlock.
                    raise Trap("deadlock: all live threads blocked", interp.events)
                raise Trap(
                    f"deadlock: thread {cur.tid} blocked joining thread "
                    f"{cur.waiting_on} with no runnable thread",
                    interp.events,
                )
            # Quantum expired but nobody else can run: keep going.
            self._slice_base = interp.events
            return
        cur = interp.context
        self._settle(interp, cur)
        interp._suspend()
        self.switch_log.append((interp.events, cur.tid, nxt.tid))
        self.current = nxt.tid
        interp._bind(nxt)
        self._slice_base = interp.events
