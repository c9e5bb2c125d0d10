"""Replay-based fault detection: chunked record + deterministic replay.

All other detectors in this reproduction are *models*: the analytical
:class:`~repro.runtime.detection.DetectionModel` samples a latency from
an assumed distribution, and the trained invariant detector of
:mod:`repro.runtime.symptoms` watches learned value ranges.  This
module builds the third family — RepTFD-style replay detection — in
which detection latency is a **measured** quantity:

* a :class:`ChunkRecorder` hook splits execution into chunks (``N``
  dynamic instructions or a region boundary, whichever comes first) and
  folds every retired write and branch outcome into a running digest —
  never full state, so the record cost is bounded and charged into
  ``instrumentation_cost`` like any other Encore instrumentation;
* a :class:`ReplayDetector` re-executes each chunk deterministically
  from its entry snapshot on a fresh reference interpreter and compares
  digests.  A mismatch means a transient corrupted the original run of
  the chunk: *divergence is detection*, and the observed latency is the
  distance (in dynamic instructions) from the fault event to the end of
  the divergent chunk — by construction at most one chunk.

Design notes, in decreasing order of importance:

* **Replay is snapshot-based, not golden-based.**  Each chunk replays
  from its own entry snapshot, so the scheme composes with rollback:
  after a recovery redirect the next chunk simply snapshots the
  post-rollback state and stays self-consistent.  No golden chunk log
  or resynchronisation protocol is needed.
* **Replay always runs on the reference engine.**  The main run
  executes its per-step hooks on the reference ``_step`` path anyway
  (a generic hook keeps the fast engine in its reference tier), so
  digests are engine-independent and replay campaigns are
  bit-identical across ``fast``/``reference``.
* **Digests are process-stable.**  FNV-1a mixing over explicit
  encodings (two's-complement ints, IEEE-754 float bits, CRC-32 of
  object/block names) — never Python ``hash()`` — so chunk logs agree
  across worker processes and ``PYTHONHASHSEED`` values.
* **Cost accounting models hardware-assisted signatures.**  RepTFD
  accumulates chunk signatures in dedicated registers; we charge one
  instrumentation instruction per :data:`RECORD_STRIDE` recorded steps
  plus :data:`SNAPSHOT_COST` per chunk entry.  The replay check itself
  (re-executed instructions) is reported separately as
  ``ReplayDetector.replayed_events`` — it runs off the critical path
  (idle cores in RepTFD), so it is overhead of the *detector*, not of
  the protected program.
* **Watchdog interaction.**  A supervisor watchdog rollback lands
  mid-chunk and is not replayed, so its chunk flags divergence —
  conservative (an extra detection, never a miss) and deterministic.

``record_chunk_log`` is the standalone entry point used by the fuzz
replay-determinism oracle and ``benchmarks/bench_replay.py``: record a
fault-free run (optionally replay-checking every chunk); any divergence
without an injected fault is a bug in the recorder or the interpreter.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.runtime.engine import make_interpreter
from repro.runtime.interpreter import (
    ExecResult,
    ExecutionLimit,
    ReferenceInterpreter,
    StepEvent,
    Trap,
    _Frame,
)
from repro.runtime.memory import MachineMemory, MemoryError_, Pointer, Word

#: Default chunk length in dynamic instructions.
REPLAY_CHUNK_DEFAULT = 64

#: Opcodes that close the current chunk (region boundaries): aligning
#: chunk ends to recovery-pointer transitions means a divergence is
#: checked while the faulting region's pointer state is still the one
#: the supervisor should judge it under.
REGION_BOUNDARY_OPCODES = frozenset({"set_recovery_ptr", "clear_recovery_ptr"})

#: Opcodes that also close the current chunk (frame transitions).
#: Encore regions are intra-procedural and the recovery pointer lives
#: on the frame, so a chunk that spanned a ``ret`` would have its
#: divergence judged in a frame that never owned the faulting region's
#: pointer — every region-tail detection would escalate as an escape.
#: Sealing before ``call``/``ret`` keeps each chunk inside one frame
#: activation, the same scope as the region it protects.
FRAME_BOUNDARY_OPCODES = frozenset({"call", "ret"})

#: One instrumentation instruction is charged per this many recorded
#: steps (hardware signature accumulation, as in RepTFD).
RECORD_STRIDE = 8

#: Instrumentation instructions charged per chunk-entry snapshot.
SNAPSHOT_COST = 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: CRC-32 memo for object/block names (bounded by the program text).
_NAME_CRC: Dict[str, int] = {}


def _name_crc(name: str) -> int:
    crc = _NAME_CRC.get(name)
    if crc is None:
        crc = _NAME_CRC[name] = zlib.crc32(name.encode())
    return crc


def _mix(h: int, value: int) -> int:
    return ((h ^ (value & _MASK64)) * _FNV_PRIME) & _MASK64


def _mix_word(h: int, value: Word) -> int:
    # Tag each type so 1, 1.0 and &obj+1 never collide.
    if isinstance(value, Pointer):
        h = _mix(h, 3)
        h = _mix(h, _name_crc(value.obj))
        return _mix(h, value.offset)
    if isinstance(value, float):
        h = _mix(h, 2)
        return _mix(h, int.from_bytes(struct.pack("<d", value), "little"))
    return _mix(_mix(h, 1), int(value))


def digest_step(h: int, interp, event: StepEvent) -> int:
    """Fold one retired instruction into the running chunk digest.

    Covers exactly the architectural effects a transient can corrupt:
    the destination register's new value (``call``/``ret`` excluded —
    their effects surface through the callee/caller steps), every store
    (object, index, written value), and the post-step control state
    (frame, block, ip), which encodes branch outcomes.
    """
    inst = event.inst
    op = inst.opcode
    if op != "call" and op != "ret":
        defs = inst.defs()
        if defs and interp.frames:
            h = _mix_word(h, interp.frames[-1].regs.get(defs[0], 0))
    for name, index in event.stores:
        h = _mix(h, _name_crc(name))
        h = _mix(h, index)
        h = _mix_word(h, interp.memory.read(name, index))
    if interp.frames:
        frame = interp.frames[-1]
        h = _mix(h, frame.id)
        h = _mix(h, _name_crc(frame.block))
        h = _mix(h, frame.ip)
    else:
        h = _mix(h, 0xF1)
    return h


@dataclasses.dataclass(frozen=True)
class _FrameImage:
    """Restorable copy of one activation frame at a chunk entry."""

    id: int
    func: str
    regs: Dict
    block: str
    ip: int
    stack_instances: Dict[str, str]
    ret_dest: Optional[object]
    region_ckpts: Dict[int, Tuple[tuple, ...]]
    recovery_ptr: Optional[Tuple[int, str]]


@dataclasses.dataclass(frozen=True)
class ChunkSnapshot:
    """Everything needed to deterministically re-execute from a chunk
    entry: the frame stack, a memory clone, and the two name counters
    (frame/heap) that make fresh instance names reproducible."""

    events: int
    frame_counter: int
    frames: Tuple[_FrameImage, ...]
    memory: MachineMemory


def take_snapshot(interp) -> ChunkSnapshot:
    """Capture the interpreter state at the entry of the next step."""
    frames = tuple(
        _FrameImage(
            id=frame.id,
            func=frame.func.name,
            regs=dict(frame.regs),
            block=frame.block,
            ip=frame.ip,
            stack_instances=dict(frame.stack_instances),
            ret_dest=frame.ret_dest,
            region_ckpts={
                rid: tuple(records)
                for rid, records in frame.region_ckpts.items()
            },
            recovery_ptr=frame.recovery_ptr,
        )
        for frame in interp.frames
    )
    return ChunkSnapshot(
        events=interp.events,
        frame_counter=interp._frame_counter,
        frames=frames,
        # clone() carries the heap counter, so allocation names replay.
        memory=interp.memory.clone(),
    )


def _restore_frames(interp, snapshot: ChunkSnapshot) -> None:
    interp._started = True
    interp.events = snapshot.events
    interp._frame_counter = snapshot.frame_counter
    interp.frames = []
    for image in snapshot.frames:
        frame = _Frame(image.id, interp.module.function(image.func))
        frame.regs = dict(image.regs)
        frame.block = image.block
        frame.ip = image.ip
        frame.stack_instances = dict(image.stack_instances)
        frame.ret_dest = image.ret_dest
        frame.region_ckpts = {
            rid: list(records) for rid, records in image.region_ckpts.items()
        }
        frame.recovery_ptr = image.recovery_ptr
        interp.frames.append(frame)


@dataclasses.dataclass(frozen=True)
class ChunkRecord:
    """One closed chunk of the record log."""

    index: int
    start_event: int
    length: int
    digest: int


class ReplayDetector:
    """Re-executes chunks from their entry snapshots; divergence = detection.

    The replay interpreter is always a :class:`ReferenceInterpreter`
    with the metadata guard off and no hooks beyond the digest fold, so
    a check is a pure function of ``(module, snapshot, chunk_len)`` —
    identical in every worker process and under either main-run engine.
    """

    def __init__(self, module: Module, externals=None) -> None:
        self.module = module
        self.externals = dict(externals or {})
        self.checks = 0
        self.divergences = 0
        #: Dynamic instructions re-executed by all checks so far — the
        #: replay-side overhead reported by the head-to-head benchmark.
        self.replayed_events = 0

    def check(
        self, snapshot: ChunkSnapshot, chunk_len: int, expected_digest: int
    ) -> bool:
        """Replay one chunk; True when it diverged from the record."""
        self.checks += 1
        interp = ReferenceInterpreter(
            self.module,
            max_steps=snapshot.events + chunk_len + 1,
            externals=self.externals,
            memory_image=snapshot.memory,
        )
        digest = _FNV_OFFSET
        state = {"h": digest}

        def _fold(rinterp, event, _state=state):
            _state["h"] = digest_step(_state["h"], rinterp, event)

        interp.post_step = _fold
        _restore_frames(interp, snapshot)
        executed = 0
        diverged = False
        try:
            while executed < chunk_len:
                if interp._finished:
                    # The replay finished early: the recorded run
                    # executed steps a faithful re-execution does not.
                    diverged = True
                    break
                interp._step()
                executed += 1
        except (Trap, ExecutionLimit, MemoryError_):
            diverged = True
        self.replayed_events += executed
        if not diverged:
            diverged = state["h"] != expected_digest
        if diverged:
            self.divergences += 1
        return diverged


class ChunkRecorder:
    """Interpreter hook pair: digest execution in chunks, replay-check
    each chunk as it closes.

    Install :meth:`on_pre_step` and :meth:`on_post_step` on the main
    interpreter.  Without a ``detector`` the recorder is record-only
    (it just builds ``chunk_log``); with one, every closed chunk is
    replayed and a divergence is reported to ``supervisor.on_detection``
    — the same entry point the analytical detector's deadlines use, so
    the whole rollback/escalation ladder is shared.  ``injector``
    (when given) supplies the fault event the observed latency is
    measured from.
    """

    def __init__(
        self,
        chunk_size: int = REPLAY_CHUNK_DEFAULT,
        detector: Optional[ReplayDetector] = None,
        supervisor=None,
        injector=None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("replay chunk size must be >= 1")
        self.chunk_size = chunk_size
        self.detector = detector
        self.supervisor = supervisor
        self.injector = injector
        self.chunk_log: List[ChunkRecord] = []
        #: Divergent chunks as (end event index, observed latency).
        self.divergences: List[Tuple[int, Optional[int]]] = []
        #: The final partial chunk diverged (checked by ``finalize``,
        #: after the run ended — detected but beyond recovery).
        self.end_divergence = False
        #: Instrumentation cost charged for recording so far.
        self.record_cost = 0
        self._snapshot: Optional[ChunkSnapshot] = None
        self._digest = _FNV_OFFSET
        self._steps = 0
        self._stride = 0

    @property
    def first_latency(self) -> Optional[int]:
        """Observed detection latency of the first divergence."""
        return self.divergences[0][1] if self.divergences else None

    def _charge(self, interp, cost: int) -> None:
        interp.cost += cost
        interp.instrumentation_cost += cost
        self.record_cost += cost

    def on_pre_step(self, interp, event: StepEvent) -> None:
        if self._snapshot is None:
            # Taken at step entry, i.e. after any pending recovery
            # redirect from the previous step was applied — the replay
            # start state is exactly what this step will execute from.
            self._snapshot = take_snapshot(interp)
            self._charge(interp, SNAPSHOT_COST)

    def on_post_step(self, interp, event: StepEvent) -> None:
        self._digest = digest_step(self._digest, interp, event)
        self._steps += 1
        self._stride += 1
        if self._stride >= RECORD_STRIDE:
            self._stride = 0
            self._charge(interp, 1)
        if self._steps >= self.chunk_size or self._at_boundary(interp):
            self._close(interp, event.index, final=False)

    @staticmethod
    def _at_boundary(interp) -> bool:
        """True when the chunk must seal at the *current* step.

        Two cases.  A rollback redirect is pending: control jumps after
        this step, so the chunk ends here (it replays exactly; the next
        chunk snapshots the post-redirect state).  Or the *next*
        instruction is a region or frame boundary: sealing before it
        means a divergence in a region's last chunk is judged while
        that region's recovery pointer and undo log are still live —
        sealing after a ``clear_recovery_ptr`` (or after a ``ret``
        popped the owning frame) would turn every region-tail detection
        into an escape.
        """
        if interp._pending_redirect is not None:
            return True
        if not interp.frames:
            return False
        frame = interp.frames[-1]
        block = frame.func.blocks[frame.block]
        if frame.ip >= len(block.instructions):
            return False
        opcode = block.instructions[frame.ip].opcode
        return (
            opcode in REGION_BOUNDARY_OPCODES
            or opcode in FRAME_BOUNDARY_OPCODES
        )

    def resync(self) -> None:
        """Drop the chunk in progress (trap path: the supervisor redirected
        control outside a step, so the open chunk can never be replayed)."""
        self._snapshot = None
        self._digest = _FNV_OFFSET
        self._steps = 0

    def finalize(self, interp) -> None:
        """Close and check the final partial chunk after the run ended."""
        if interp.events:
            self._close(interp, interp.events - 1, final=True)

    def _close(self, interp, end_index: int, final: bool) -> None:
        snapshot, digest, steps = self._snapshot, self._digest, self._steps
        self._snapshot = None
        self._digest = _FNV_OFFSET
        self._steps = 0
        if snapshot is None or steps == 0:
            return
        self.chunk_log.append(
            ChunkRecord(len(self.chunk_log), snapshot.events, steps, digest)
        )
        if self.detector is None:
            return
        if not self.detector.check(snapshot, steps, digest):
            return
        fault_event = (
            self.injector.fault_event if self.injector is not None else None
        )
        latency = None
        if fault_event is not None and fault_event <= end_index:
            latency = end_index - fault_event
        self.divergences.append((end_index, latency))
        if final:
            self.end_divergence = True
        elif self.supervisor is not None:
            # Same rollback ladder as a model-detector deadline; may
            # raise EscalateTrial (escape/livelock) through the hook.
            self.supervisor.on_detection(interp, end_index)


def record_chunk_log(
    module: Module,
    function: str = "main",
    args: Sequence = (),
    output_objects: Sequence[str] = (),
    chunk_size: int = REPLAY_CHUNK_DEFAULT,
    externals=None,
    engine: Optional[str] = None,
    max_steps: int = 5_000_000,
    check: bool = False,
) -> Tuple[ExecResult, ChunkRecorder]:
    """Record (and with ``check=True`` replay-verify) one fault-free run.

    Returns ``(result, recorder)``.  This is the fuzz oracle's and the
    benchmark's entry point: ``recorder.chunk_log`` must be identical
    across repeated calls, and with ``check=True`` any entry in
    ``recorder.divergences`` is a replay-determinism bug, because no
    fault was injected.
    """
    detector = ReplayDetector(module, externals=externals) if check else None
    recorder = ChunkRecorder(chunk_size, detector=detector)
    interp = make_interpreter(
        module,
        engine=engine,
        max_steps=max_steps,
        pre_step=recorder.on_pre_step,
        post_step=recorder.on_post_step,
        externals=externals,
    )
    result = interp.run(function, args, output_objects=output_objects)
    recorder.finalize(interp)
    return result, recorder
