"""Statistical fault injection (SFI) campaigns (paper Section 4).

Each trial injects one transient fault — a bit flip in the destination
register of a uniformly-chosen dynamic instruction — into an execution
of the (Encore-instrumented) program, samples a detection latency from
the configured detector model, performs the Encore rollback when the
detector fires, and classifies the final outcome against a golden run.

Rollback is mediated by a :class:`~repro.runtime.supervisor.
RecoverySupervisor`: every attempt is charged per region, livelocked
recoveries (K rollbacks into the same region with no committed
progress) are bounded, an optional per-attempt step watchdog re-rolls
silently-stuck recoveries, and faults can be planned to strike *inside*
the recovery window (the double-fault model).  Outcomes form a
reason-coded escalation ladder:

* ``masked``       — the fault never affected the output (architectural
  masking) and no recovery was needed;
* ``recovered``    — the detector fired, rollback re-executed the
  region, and the output matches the golden run;
* ``recovered_after_retry`` — as ``recovered``, but one region needed
  more than one consecutive rollback attempt;
* ``detected_unrecoverable`` — execution trapped or hung without a
  usable recovery block;
* ``escape_unrecoverable`` — the detector fired after control had left
  the faulting region (no recovery pointer was live);
* ``livelock``     — recovery kept re-triggering its own fault; the
  supervisor stopped it after K attempts;
* ``double_fault_unrecoverable`` — a second fault striking during
  recovery defeated it;
* ``metadata_corrupt_detected`` — a fault struck Encore's *recovery
  metadata* (checkpoint log, register checkpoints, or the recovery
  pointer — see :mod:`repro.runtime.guarded_state`) and the metadata
  guard caught it at rollback time: graceful restart-required
  degradation instead of restoring garbage;
* ``metadata_corrupt_silent`` — corrupted recovery metadata was
  consumed by a rollback *undetected* and the run finished with a
  wrong result — the failure mode the guard exists to eliminate;
* ``cfe_detected_recovered`` — a control-flow fault (corrupted branch
  target or wrong-way branch) was detected — by the branch-signature
  monitor or by the wild-target trap — and rollback restored the
  correct result;
* ``cfe_wild_trap`` — a corrupted branch target left the legal label
  space and trapped, but no recovery pointer was live: restart
  required;
* ``cfe_silent``   — a control-flow fault (typically a wrong-way
  branch, whose edge is *legal* and therefore invisible to the
  signature monitor) completed with a wrong result undetected;
* ``sdc``          — silent data corruption: the run completed with a
  wrong result;
* ``infra_error``  — the trial never produced a verdict (worker crash
  or wall-clock timeout in the campaign engine).

These empirical outcomes validate the analytical coverage model of
Section 4.2 (see ``benchmarks/test_sfi_validation.py``).
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.runtime.config import CampaignConfig, campaign_config
from repro.runtime.detection import DetectionModel
from repro.runtime.engine import make_interpreter
from repro.runtime.guarded_state import METADATA_TARGETS
from repro.runtime.interpreter import (
    NO_STOP,
    ExecResult,
    ExecutionLimit,
    Interpreter,
    StepEvent,
    Stops,
    Trap,
    bitflip,
)
from repro.runtime.memory import MachineMemory
from repro.runtime.replay import ChunkRecorder, ReplayDetector
from repro.runtime.supervisor import EscalateTrial, RecoverySupervisor

OUTCOMES = (
    "masked",
    "recovered",
    "recovered_after_retry",
    "detected_unrecoverable",
    "escape_unrecoverable",
    "livelock",
    "double_fault_unrecoverable",
    "metadata_corrupt_detected",
    "metadata_corrupt_silent",
    "cfe_detected_recovered",
    "cfe_wild_trap",
    "cfe_silent",
    "sdc",
    "infra_error",
)

#: Outcomes in which the program ended with the correct result.
COVERED_OUTCOMES = (
    "masked", "recovered", "recovered_after_retry", "cfe_detected_recovered",
)

#: Control-flow fault kinds: ``target`` re-aims a branch at an
#: arbitrary block of the executing function (one extra selector slot
#: models a target outside the legal label space entirely — an
#: immediate wild-branch trap); ``wrong`` inverts a conditional
#: branch's decision, which follows a *legal* CFG edge and is therefore
#: invisible to signature-based detection by construction.
CF_KINDS = ("target", "wrong")

ProgressHook = Callable[[int, int], None]


class TrialTimeout(Exception):
    """A trial exceeded its wall-clock budget (campaign-engine guard)."""


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Key an independent RNG substream for one trial.

    Hashing ``(seed, trial_index)`` through SHA-256 decorrelates the
    substreams and — unlike ``hash()`` — is stable across processes,
    interpreter versions, and ``PYTHONHASHSEED``, so a trial's fault
    plan is a pure function of the campaign seed and its index.  This
    is what makes parallel campaigns bit-identical to serial ones: any
    worker, handed any chunk, derives exactly the faults the serial
    loop would have.
    """
    digest = hashlib.sha256(f"sfi:{seed}:{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """The complete randomness of one trial, fixed before execution.

    ``sites``/``bits``/``latencies`` are equal-length tuples; length 1
    is the paper's single-event-upset model, longer is the multi-fault
    extension.  ``recovery_sites``/``recovery_bits``/
    ``recovery_latencies`` describe the double-fault model: each entry
    is a fault armed *relative to a rollback* — it strikes that many
    dynamic instructions after the n-th recovery attempt begins.  Plans
    are immutable and picklable so they can be chunked across worker
    processes.
    """

    trial_index: int
    sites: Tuple[int, ...]
    bits: Tuple[int, ...]
    latencies: Tuple[Optional[int], ...]
    recovery_sites: Tuple[int, ...] = ()
    recovery_bits: Tuple[int, ...] = ()
    recovery_latencies: Tuple[Optional[int], ...] = ()
    # Metadata fault surface (recovery-state corruption model): each
    # fault strikes the structure named by its target (see
    # guarded_state.METADATA_TARGETS) at a dynamic-instruction site,
    # picking a live entry with ``selector`` and flipping ``bit``.
    meta_sites: Tuple[int, ...] = ()
    meta_targets: Tuple[str, ...] = ()
    meta_selectors: Tuple[int, ...] = ()
    meta_bits: Tuple[int, ...] = ()
    # Control-flow fault surface: each fault arms at dynamic site
    # ``cf_sites[i]`` and strikes the next branch executed at or after
    # it, corrupting it per ``cf_kinds[i]`` (see CF_KINDS);
    # ``cf_selectors[i]`` picks the bogus target for ``target`` kinds.
    cf_sites: Tuple[int, ...] = ()
    cf_kinds: Tuple[str, ...] = ()
    cf_selectors: Tuple[int, ...] = ()

    @property
    def single(self) -> bool:
        return len(self.sites) == 1

    @property
    def recovery_faults(self) -> Tuple[Tuple[int, int, Optional[int]], ...]:
        """The planned recovery-window faults as (offset, bit, latency)."""
        return tuple(
            zip(self.recovery_sites, self.recovery_bits, self.recovery_latencies)
        )

    @property
    def metadata_faults(self) -> Tuple[Tuple[int, str, int, int], ...]:
        """The planned metadata faults as (site, target, selector, bit)."""
        return tuple(
            zip(self.meta_sites, self.meta_targets,
                self.meta_selectors, self.meta_bits)
        )

    @property
    def control_faults(self) -> Tuple[Tuple[int, str, int], ...]:
        """The planned control-flow faults as (site, kind, selector)."""
        return tuple(zip(self.cf_sites, self.cf_kinds, self.cf_selectors))


def plan_trial(
    seed: int,
    trial_index: int,
    golden_events: int,
    detector: DetectionModel,
    faults_per_trial: int = 1,
    recovery_faults_per_trial: int = 0,
    metadata_faults_per_trial: int = 0,
    cf_faults_per_trial: int = 0,
    site_dist=None,
    rng_seed: Optional[int] = None,
) -> FaultPlan:
    """Derive one trial's fault plan from its own RNG substream.

    The recovery-window draws happen *after* the primary draws, the
    metadata draws after those, and the control-flow draws last, so a
    campaign with every extension count at 0 produces bit-identical
    plans to one planned before any extension existed.

    ``site_dist`` replaces the uniform site/bit draws with a pruned
    importance-sampling distribution (any object with a
    ``draw(rng) -> (site, bit)`` method — see
    :class:`repro.incremental.bitmask.SectionSampler`); it requires the
    single-event-upset configuration, and ``rng_seed`` then keys the
    substream directly (per-section discipline) instead of the global
    ``(seed, trial_index)`` hash.
    """
    rng = random.Random(
        derive_trial_seed(seed, trial_index) if rng_seed is None else rng_seed
    )
    if site_dist is not None:
        if (faults_per_trial != 1 or recovery_faults_per_trial
                or metadata_faults_per_trial or cf_faults_per_trial):
            raise ValueError(
                "site_dist requires the single-event-upset configuration "
                "(one primary fault, no extension surfaces)"
            )
        site, bit = site_dist.draw(rng)
        latency = detector.sample_latency(rng)
        return FaultPlan(trial_index, (site,), (bit,), (latency,))
    sites = sorted(
        rng.randrange(max(golden_events, 1)) for _ in range(faults_per_trial)
    )
    bits = [rng.randrange(0, 32) for _ in range(faults_per_trial)]
    latencies = [detector.sample_latency(rng) for _ in range(faults_per_trial)]
    rec_sites = [rng.randrange(1, 33) for _ in range(recovery_faults_per_trial)]
    rec_bits = [rng.randrange(0, 32) for _ in range(recovery_faults_per_trial)]
    rec_latencies = [
        detector.sample_latency(rng) for _ in range(recovery_faults_per_trial)
    ]
    meta_sites = sorted(
        rng.randrange(max(golden_events, 1))
        for _ in range(metadata_faults_per_trial)
    )
    meta_targets = [
        METADATA_TARGETS[rng.randrange(len(METADATA_TARGETS))]
        for _ in range(metadata_faults_per_trial)
    ]
    meta_selectors = [
        rng.randrange(64) for _ in range(metadata_faults_per_trial)
    ]
    meta_bits = [rng.randrange(0, 64) for _ in range(metadata_faults_per_trial)]
    cf_sites = sorted(
        rng.randrange(max(golden_events, 1)) for _ in range(cf_faults_per_trial)
    )
    cf_kinds = [
        CF_KINDS[rng.randrange(len(CF_KINDS))] for _ in range(cf_faults_per_trial)
    ]
    cf_selectors = [rng.randrange(64) for _ in range(cf_faults_per_trial)]
    return FaultPlan(
        trial_index,
        tuple(sites),
        tuple(bits),
        tuple(latencies),
        tuple(rec_sites),
        tuple(rec_bits),
        tuple(rec_latencies),
        tuple(meta_sites),
        tuple(meta_targets),
        tuple(meta_selectors),
        tuple(meta_bits),
        tuple(cf_sites),
        tuple(cf_kinds),
        tuple(cf_selectors),
    )


def plan_campaign(
    seed: int,
    trials: int,
    golden_events: int,
    detector: DetectionModel,
    faults_per_trial: int = 1,
    recovery_faults_per_trial: int = 0,
    metadata_faults_per_trial: int = 0,
    cf_faults_per_trial: int = 0,
) -> List[FaultPlan]:
    """All fault plans of a campaign, in trial order."""
    return [
        plan_trial(
            seed, index, golden_events, detector,
            faults_per_trial, recovery_faults_per_trial,
            metadata_faults_per_trial, cf_faults_per_trial,
        )
        for index in range(trials)
    ]


@dataclasses.dataclass(slots=True)
class TrialResult:
    """One SFI trial.

    Campaigns keep every result, so a result is slotted, and it pickles
    as the bare tuple of its field values (what a worker sends the
    executor per trial) with ``outcome`` mapped back to the
    :data:`OUTCOMES` constant on load.
    """

    outcome: str
    fault_event: int
    detect_latency: Optional[int]
    recovery_attempts: int
    trapped: bool = False
    hang: bool = False
    #: Extra dynamic instructions executed relative to the golden run —
    #: the re-execution "wasted work" of rollback recovery (paper §2.1).
    wasted_work: int = 0
    #: Consecutive rollbacks the worst region needed beyond the first
    #: (0 = every recovery committed on its first attempt).
    retries: int = 0
    #: Faults injected inside the recovery window (double-fault model).
    double_faults: int = 0
    #: Faults that landed in live recovery metadata (checkpoint log,
    #: register checkpoints, or the recovery pointer).
    metadata_faults: int = 0
    #: Corrupted metadata entries repaired from a shadow copy
    #: (``--guard dup`` only).
    metadata_repairs: int = 0
    #: Divergent chunks the replay detector flagged (replay backend
    #: only; ``detect_latency`` is then the *measured* latency of the
    #: first divergence, not a sampled one).
    replay_divergences: int = 0
    #: Dynamic instructions re-executed by replay checks (replay
    #: backend only) — the detector-side overhead of this trial.
    replay_overhead: int = 0
    #: Control-flow faults that actually struck a branch (a planned
    #: strike past the end of the dynamic path is dead time).
    control_faults: int = 0
    #: Illegal branch edges flagged by the signature monitor.
    cfe_detections: int = 0
    #: The (function, region) section the primary fault struck —
    #: attributed by the incremental subsystem (None outside it, and
    #: then omitted from journals for byte-stability).
    section: Optional[str] = None

    def __reduce__(self):
        return _trial_from_values, tuple(
            getattr(self, name) for name in _TRIAL_FIELDS)


_TRIAL_FIELDS = tuple(field.name for field in dataclasses.fields(TrialResult))
_OUTCOME_CONSTANTS = {outcome: outcome for outcome in OUTCOMES}


def _trial_from_values(outcome: str, *values) -> TrialResult:
    return TrialResult(_OUTCOME_CONSTANTS.get(outcome, outcome), *values)


def infra_error_trial() -> TrialResult:
    """The placeholder verdict for a trial the engine could not finish
    (its batch quarantined after repeated worker crashes, or a wall-clock
    timeout)."""
    return TrialResult(
        outcome="infra_error", fault_event=-1, detect_latency=None,
        recovery_attempts=0,
    )


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-campaign; the completed prefix survives.

    Raised instead of a bare :class:`KeyboardInterrupt` so the CLI can
    flush the journal, report partial results, and print a resume hint
    rather than dying with a traceback.  ``results`` holds every trial
    that finished before the signal (keyed by trial index — already
    streamed to ``on_result``, so a journal has them on disk), and
    ``total`` is the trial count the campaign was aiming for.
    """

    def __init__(self, results: Dict[int, TrialResult], total: int) -> None:
        super().__init__()
        self.results = dict(results)
        self.total = total

    @property
    def done(self) -> int:
        return len(self.results)


@dataclasses.dataclass
class CampaignResult:
    """Aggregated SFI campaign statistics.

    ``elapsed``/``jobs``/``worker_trials`` describe how the campaign
    was executed (wall-clock seconds, worker count, trials per worker);
    they are reporting metadata only — the trial list itself is a pure
    function of the module and its :class:`CampaignConfig` regardless
    of parallelism.
    ``pool_restarts`` counts workers restarted after a crash; any
    non-zero value (or any ``infra_error`` trial) marks a campaign that
    needed the resilience machinery.
    """

    trials: List[TrialResult]
    elapsed: float = 0.0
    jobs: int = 1
    worker_trials: Dict[str, int] = dataclasses.field(default_factory=dict)
    pool_restarts: int = 0
    resumed_trials: int = 0
    #: Share of the fault-site mass composed from a persisted section
    #: store instead of executed (incremental campaigns; 0.0 otherwise).
    composed_fraction: float = 0.0

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    def counts(self) -> Dict[str, int]:
        """Outcome tallies (all classes, zero-filled)."""
        return {outcome: self.count(outcome) for outcome in OUTCOMES}

    def fraction(self, outcome: str) -> float:
        if not self.trials:
            return 0.0
        return self.count(outcome) / len(self.trials)

    @property
    def covered_fraction(self) -> float:
        """Masked plus recovered (with or without retries): the faults
        the system tolerates."""
        return sum(self.fraction(outcome) for outcome in COVERED_OUTCOMES)

    @property
    def infra_errors(self) -> int:
        """Trials that never produced a verdict (crash/timeout)."""
        return self.count("infra_error")

    @property
    def throughput(self) -> float:
        """Completed trials per wall-clock second (0.0 if untimed)."""
        if self.elapsed <= 0.0:
            return 0.0
        return len(self.trials) / self.elapsed

    @property
    def mean_wasted_work(self) -> float:
        """Mean re-executed instructions across recovered trials."""
        recovered = [
            t for t in self.trials
            if t.outcome in ("recovered", "recovered_after_retry")
            and t.recovery_attempts > 0
        ]
        if not recovered:
            return 0.0
        return sum(t.wasted_work for t in recovered) / len(recovered)

    def coverage_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Covered-fraction estimate and normal-approximation CI
        half-width.  Incremental campaigns override this with the
        stratified Horvitz–Thompson estimator."""
        p = self.covered_fraction
        n = len(self.trials)
        if n <= 0:
            return 0.0, 0.0
        return p, z * (p * (1.0 - p) / n) ** 0.5

    def summary(self, extended: bool = False) -> Dict[str, float]:
        """Outcome fractions; ``extended`` adds execution statistics.

        The default (outcome fractions only, summing to 1.0 on a
        non-empty campaign) is deterministic for a given seed; the
        extended block adds wall-clock figures that are not.
        """
        base: Dict[str, float] = {
            outcome: self.fraction(outcome) for outcome in OUTCOMES
        }
        if self.composed_fraction:
            base["composed_fraction"] = self.composed_fraction
        if extended:
            base["trials"] = float(len(self.trials))
            base["jobs"] = float(self.jobs)
            base["elapsed_s"] = self.elapsed
            base["trials_per_sec"] = self.throughput
            base["pool_restarts"] = float(self.pool_restarts)
            base["resumed_trials"] = float(self.resumed_trials)
            for worker, count in sorted(self.worker_trials.items()):
                base[f"trials[{worker}]"] = float(count)
        return base


class _FaultInjector(Stops):
    """The stop schedule of one trial: inject fault(s), then detect.

    ``faults`` is a list of ``(site, bit, latency)`` triples; the paper's
    single-event-upset model uses one, and the multi-fault extension
    study injects several.  Each fault arms its own detection deadline;
    when a deadline passes, the rollback decision is delegated to the
    trial's :class:`RecoverySupervisor`, which also gets a per-step
    callback for progress tracking, its watchdog, and the recovery-window
    (double-fault) injections.  ``control`` (optional) is the
    control-flow surface, observed after the register and metadata ones.

    Every planned action has an event index, so the engine runs decoded
    code between them (see :class:`~repro.runtime.interpreter.Stops`):
    a register strike waits at its site for the next instruction that
    defines a register, a metadata strike fires at its site, and a
    deadline fires at its index.  :meth:`on_step` is what a per-step
    hook would do; the replay backend installs it as one.
    """

    def __init__(
        self,
        faults,
        supervisor: RecoverySupervisor,
        metadata_faults: Sequence[Tuple[int, str, int, int]] = (),
        control: Optional["_ControlFlowInjector"] = None,
    ) -> None:
        self.pending = sorted(faults, key=lambda f: f[0])
        self.supervisor = supervisor
        self.control = control
        self.fault_events: List[int] = []
        #: Faults that actually struck: (site, bit, latency, event index).
        self.injected: List[Tuple[int, int, Optional[int], int]] = []
        self.deadlines: List[int] = []
        #: Planned metadata strikes as (site, target, selector, bit).
        self.meta_pending = sorted(metadata_faults, key=lambda f: f[0])
        #: Metadata faults that found no live structure (dead metadata
        #: time — architecturally masked, like a dead-register strike).
        self.meta_masked = 0

    @property
    def fault_event(self) -> Optional[int]:
        return self.fault_events[0] if self.fault_events else None

    @property
    def detect_latency(self) -> Optional[int]:
        """The latency of the first fault that actually struck.

        ``None`` when no planned fault was reached (the injection hit
        dead time) or the detector missed the first one that was.
        """
        return self.injected[0][2] if self.injected else None

    def next_stop(self, interp: Interpreter) -> int:
        stops = self.supervisor.stops()
        for planned in (self.pending, self.meta_pending):
            if planned:
                stops.append(planned[0][0])
        if self.deadlines:
            stops.append(self.deadlines[0])
        if self.control is not None and self.control.pending:
            stops.append(self.control.pending[0][0])
        return min(stops, default=NO_STOP)

    @property
    def watch_regions(self) -> bool:
        return self.supervisor.rollback_active

    def on_step(self, interp: Interpreter, event: StepEvent) -> None:
        # Register/metadata surface first, then the control surface — a
        # branch's destination register is corrupted before its
        # realized edge is corrupted or checked.
        self(interp, event)
        if self.control is not None:
            self.control(interp, event)

    def __call__(self, interp: Interpreter, event: StepEvent) -> None:
        """The register and metadata surfaces of one step."""
        while self.meta_pending and event.index >= self.meta_pending[0][0]:
            # Metadata faults strike storage, not a destination
            # register: they fire at their planned site regardless of
            # what instruction executed there.
            _site, target, selector, bit = self.meta_pending.pop(0)
            if not interp.guard.inject_fault(interp, target, selector, bit):
                self.meta_masked += 1
        if self.pending and event.index >= self.pending[0][0]:
            if event.inst.defs():
                site, bit, latency = self.pending.pop(0)
                dest = event.inst.defs()[0]
                frame = interp.current_frame
                frame.regs[dest] = bitflip(frame.regs.get(dest, 0), bit)
                self.fault_events.append(event.index)
                self.injected.append((site, bit, latency, event.index))
                if latency is not None:
                    bisect.insort(self.deadlines, event.index + latency)
                # Detection never fires on the injection step itself —
                # even a zero-latency detector sees the corruption one
                # dynamic instruction later.
                self.supervisor.on_step(interp, event)
                return
        while self.deadlines and event.index >= self.deadlines[0]:
            self.deadlines.pop(0)
            self.supervisor.on_detection(interp, event.index)
        self.supervisor.on_step(interp, event)


class _ControlFlowInjector:
    """The control-flow fault surface of one trial's stop schedule.

    Each planned fault arms at its dynamic site and strikes the next
    branch executed at or after it — ``wrong`` kinds wait for a
    conditional ``br`` (an unconditional ``jmp`` has no wrong way),
    ``target`` kinds strike any branch.  Corruption happens *after* the
    branch committed its legal transfer, mirroring a transient in the
    branch-target path: the frame's current block is overwritten with
    the bogus label (or, for the wild selector slot, execution traps
    immediately — the fetch from a garbage address).

    When ``detector="signature"`` the hook doubles as the classic
    basic-block signature monitor: after every branch it checks the
    realized edge against the instruction's static successors and
    reports an illegal edge to the supervisor at once (latency 0).
    A wrong-way branch follows a legal edge and sails through — the
    honesty gap the ``cfe_silent`` outcome measures.

    A decoded branch takes only its static edges, so an illegal edge can
    appear only on a struck step: the monitor needs no stop of its own,
    and a strike needs reference steps from its site to its branch.
    """

    def __init__(
        self,
        faults: Sequence[Tuple[int, str, int]],
        detector: str,
        supervisor: RecoverySupervisor,
    ) -> None:
        for _site, kind, _sel in faults:
            if kind not in CF_KINDS:
                raise ValueError(
                    f"unknown control-fault kind {kind!r}; "
                    f"expected one of {CF_KINDS}"
                )
        self.pending = sorted(faults, key=lambda f: f[0])
        self.detector = detector
        self.supervisor = supervisor
        #: Faults that struck: (event index, kind).
        self.injected: List[Tuple[int, str]] = []
        self.detections = 0
        self.wild = False

    def __call__(self, interp: Interpreter, event: StepEvent) -> None:
        inst = event.inst
        if inst.opcode not in ("br", "jmp"):
            return
        frames = interp.frames
        if not frames or frames[-1].id != event.frame_id:
            return
        frame = frames[-1]
        if self.pending and event.index >= self.pending[0][0]:
            kind = self.pending[0][1]
            if kind == "target" or inst.opcode == "br":
                _site, kind, selector = self.pending.pop(0)
                self._strike(interp, frame, event, kind, selector)
        if self.detector == "signature" and frame.block not in inst.successors():
            self.detections += 1
            self.supervisor.on_detection(interp, event.index)

    def _strike(self, interp, frame, event, kind: str, selector: int) -> None:
        self.injected.append((event.index, kind))
        if kind == "wrong":
            inst = event.inst
            frame.block = (
                inst.if_false if frame.block == inst.if_true else inst.if_true
            )
            return
        labels = sorted(frame.func.blocks)
        choice = selector % (len(labels) + 1)
        if choice == len(labels):
            # The extra selector slot: a target outside the function's
            # label space entirely — an immediately-trapping wild branch.
            self.wild = True
            raise Trap("cfe: wild branch target", interp.events)
        frame.block = labels[choice]


def golden_run(
    module: Module,
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    memory_image: Optional[MachineMemory] = None,
    max_steps: int = 5_000_000,
    **knobs,
) -> ExecResult:
    """The fault-free reference execution trials are classified against.

    Runs ``config``'s entry function under its engine and scheduler
    settings (``knobs`` override single fields, see
    :func:`~repro.runtime.config.campaign_config`).  Both engines
    produce bit-identical results, so trial verdicts never depend on
    the choice.  ``memory_image`` shares a pristine memory snapshot the
    run clones instead of re-materializing every global.
    """
    config = campaign_config(config, **knobs)
    interp = make_interpreter(
        module, engine=config.engine, max_steps=max_steps,
        externals=externals, memory_image=memory_image,
        max_threads=config.threads, quantum=config.quantum,
    )
    return interp.run(config.function, config.args,
                      output_objects=config.output_objects)


def _alarm_available() -> bool:
    import signal

    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def call_with_timeout(fn: Callable[[], TrialResult],
                      seconds: Optional[float]):
    """Run ``fn`` under a wall-clock alarm; raise :class:`TrialTimeout`
    when it overruns.

    The guard uses ``SIGALRM`` so it can interrupt a trial stuck inside
    the interpreter loop; where alarms are unavailable (non-main thread,
    platforms without ``SIGALRM``) the call runs unguarded — the
    deterministic step budget still bounds runaway trials.
    """
    if not seconds or seconds <= 0 or not _alarm_available():
        return fn()
    import signal

    def _on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_planned_trial(
    module: Module,
    golden: ExecResult,
    plan: FaultPlan,
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    memory_image: Optional[MachineMemory] = None,
    **knobs,
) -> TrialResult:
    """Execute one fault-injection trial and classify its outcome.

    ``plan`` places every fault: the primary ``sites``/``bits``/
    ``latencies`` (one entry is the paper's model, several the
    multi-fault extension), the double-fault model's recovery-window
    strikes, the strikes on Encore's own recovery state and the
    control-flow strikes (see :data:`CF_KINDS`).

    ``config`` (``knobs`` override single fields) decides how the trial
    runs and recovers: the supervisor policy, the metadata guard level,
    the control-flow detector, the engine and the scheduler settings,
    which must match the golden run's or verdicts are meaningless.  Its
    ``trial_timeout`` (seconds) is the campaign engine's wall-clock
    guard: an overrunning trial yields ``infra_error`` instead of
    stalling the whole campaign.  ``memory_image`` shares a pristine
    memory snapshot across trials of one campaign.

    With ``detector_backend="replay"`` the planned latencies are ignored
    (the fault sites and bits stay identical, so the two backends are
    head-to-head comparable at the same seed) and detection fires when
    a chunk's replay digest diverges, with the *measured* latency
    landing in ``detect_latency``.
    """
    config = campaign_config(config, **knobs)
    try:
        return call_with_timeout(
            lambda: _trial(module, golden, plan, config, externals,
                           memory_image),
            config.trial_timeout,
        )
    except TrialTimeout:
        return infra_error_trial()


def _trial(module: Module, golden: ExecResult, plan: FaultPlan,
           config: CampaignConfig, externals,
           memory_image: Optional[MachineMemory]) -> TrialResult:
    faults = list(zip(plan.sites, plan.bits, plan.latencies))
    recovery_faults = plan.recovery_faults
    if config.detector_backend == "replay":
        # Replay detects by divergence, never by deadline: drop every
        # sampled latency but keep the sites/bits draws untouched.
        faults = [(s, b, None) for s, b, _ in faults]
        recovery_faults = tuple((o, b, None) for o, b, _ in recovery_faults)
    supervisor = RecoverySupervisor(config.policy(), recovery_faults)
    cf_injector: Optional[_ControlFlowInjector] = None
    if plan.control_faults:
        cf_injector = _ControlFlowInjector(
            plan.control_faults, config.cfe_detector, supervisor
        )
    injector = _FaultInjector(faults, supervisor, plan.metadata_faults,
                              cf_injector)
    recorder: Optional[ChunkRecorder] = None
    hooks = dict(stops=injector)
    if config.detector_backend == "replay":
        # The recorder digests every step, so replay trials keep the
        # per-step hooks (and with them the reference tier).
        recorder = ChunkRecorder(
            config.replay_chunk_size,
            detector=ReplayDetector(module, externals=externals),
            supervisor=supervisor,
            injector=injector,
        )

        def post_step(interp, event, _inj=injector, _rec=recorder):
            # Injection first, so a corrupted destination register is
            # digested on its own step — guaranteeing the divergence
            # lands in the faulting chunk (latency <= chunk size).
            _inj.on_step(interp, event)
            _rec.on_post_step(interp, event)

        hooks = dict(pre_step=recorder.on_pre_step, post_step=post_step)

    # A trial that runs four times the golden run's length is a hang.
    max_steps = max(golden.events * 4, 10_000)
    interp = make_interpreter(
        module, engine=config.engine, max_steps=max_steps,
        externals=externals, metadata_guard=config.metadata_guard,
        memory_image=memory_image, max_threads=config.threads,
        quantum=config.quantum, **hooks,
    )
    trapped = False
    hang = False
    escalation: Optional[str] = None
    result: Optional[ExecResult] = None
    try:
        result = interp.run(config.function, config.args,
                            output_objects=config.output_objects)
    except EscalateTrial as esc:
        escalation = esc.reason
    except Trap:
        # A symptom the detector sees immediately: roll back under
        # supervision, and keep retrying while the supervisor allows —
        # a recovery that re-traps is exactly the livelock shape the
        # attempt bound exists for.
        trapped = True
        try:
            while True:
                if recorder is not None:
                    # The trap redirected control outside any step; the
                    # open chunk can never replay — drop it.
                    recorder.resync()
                if not supervisor.on_trap(interp, interp.events):
                    break  # no live recovery pointer: restart required
                try:
                    result = interp.resume(
                        output_objects=config.output_objects)
                    break
                except Trap:
                    continue
                except ExecutionLimit:
                    hang = True
                    break
        except EscalateTrial as esc:
            escalation = esc.reason
    except ExecutionLimit:
        hang = True

    if recorder is not None and result is not None:
        # Check the final partial chunk: a divergence here is detection
        # after the program already finished.
        recorder.finalize(interp)
    fault_event = injector.fault_event if injector.fault_event is not None else -1
    retries = max(0, supervisor.max_streak - 1)
    if recorder is not None:
        detect_latency = recorder.first_latency
        replay_divergences = len(recorder.divergences)
        replay_overhead = recorder.detector.replayed_events
    else:
        detect_latency = injector.detect_latency
        replay_divergences = 0
        replay_overhead = 0
    cf_struck = len(cf_injector.injected) if cf_injector is not None else 0
    common = dict(
        fault_event=fault_event,
        detect_latency=detect_latency,
        recovery_attempts=supervisor.attempts,
        trapped=trapped,
        hang=hang,
        retries=retries,
        double_faults=supervisor.double_faults,
        metadata_faults=interp.guard.metadata_faults,
        metadata_repairs=interp.guard.repairs,
        replay_divergences=replay_divergences,
        replay_overhead=replay_overhead,
        control_faults=cf_struck,
        cfe_detections=cf_injector.detections if cf_injector is not None else 0,
    )

    def classify_cfe(outcome: str) -> str:
        """Re-attribute an outcome to the control-flow surface when a
        control-flow fault actually struck this trial.  Escalation
        outcomes (livelock, escape, metadata) keep their reason codes —
        they describe the *recovery* failure, not the fault surface."""
        if not cf_struck:
            return outcome
        if outcome in ("recovered", "recovered_after_retry"):
            return "cfe_detected_recovered"
        if outcome == "detected_unrecoverable" and cf_injector.wild:
            return "cfe_wild_trap"
        if outcome == "sdc":
            return "cfe_silent"
        return outcome

    if escalation is not None:
        outcome = escalation
        if (
            supervisor.double_faults
            and escalation not in ("livelock", "metadata_corrupt_detected")
        ):
            outcome = "double_fault_unrecoverable"
        return TrialResult(outcome=outcome, **common)
    if result is None:
        outcome = (
            "double_fault_unrecoverable"
            if supervisor.double_faults
            else "detected_unrecoverable"
        )
        return TrialResult(outcome=classify_cfe(outcome), **common)
    wasted = max(0, result.events - golden.events)
    correct = result.output == golden.output and result.value == golden.value
    if correct:
        if supervisor.attempts == 0:
            outcome = "masked"
        elif retries:
            outcome = "recovered_after_retry"
        else:
            outcome = "recovered"
    elif interp.guard.tainted_consumed:
        # A rollback consumed corrupted recovery metadata without
        # detection and the result is wrong: the restore itself wrote
        # garbage.  Distinguished from generic sdc because this is the
        # class the metadata guard exists to eliminate.
        outcome = "metadata_corrupt_silent"
    elif not injector.fault_events:
        # The fault site was never reached (shorter dynamic path): the
        # "injection" hit dead time — architecturally masked.
        outcome = "masked" if result.output == golden.output else "sdc"
    elif recorder is not None and recorder.end_divergence:
        # The replay check on the final partial chunk caught the
        # corruption, but the run had already completed wrong: detected
        # too late to recover — not silent.
        outcome = "detected_unrecoverable"
    else:
        outcome = "sdc"
    return TrialResult(outcome=classify_cfe(outcome), wasted_work=wasted,
                       **common)


def run_campaign(
    module: Module,
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    completed: Optional[Dict[int, TrialResult]] = None,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    **knobs,
) -> CampaignResult:
    """A full SFI campaign with uniformly-distributed fault sites.

    ``config`` — with ``knobs`` overriding single fields, see
    :func:`~repro.runtime.config.campaign_config` — is the whole
    campaign: the program invocation, the plans (seed, trial count and
    the per-trial fault counts of every surface), the detector, the
    recovery policy and the interpreter settings.  The keyword
    arguments above only decide how it executes.

    Every trial's randomness comes from its own seed-keyed substream
    (:func:`plan_trial`), so ``jobs > 1`` fans trials out across worker
    processes (see :mod:`repro.runtime.parallel`) and returns the exact
    ``TrialResult`` sequence of the serial path — merged back in trial
    order — by construction.  ``chunk_size`` sets how many trials each
    dispatched batch holds; ``progress`` is called as ``progress(done,
    total)`` whenever completed-trial counts advance.  Workloads whose
    ``externals`` cannot cross a process boundary fall back to the
    serial path silently.

    Resilience: crashed workers are restarted and their trials retried
    (trials that keep killing workers classify ``infra_error``),
    ``completed`` seeds the campaign with journaled results to skip
    (resume), and ``on_result`` streams each newly-executed ``(index,
    result)`` pair — the campaign journal's append hook, usually an
    :class:`~repro.runtime.journal.InOrderJournal` — in completion
    order.

    The engine does not enter the journal header: both engines are
    bit-identical (the equivalence contract), so a campaign journaled
    under one engine can resume under the other.
    """
    config = campaign_config(config, **knobs)
    start = time.monotonic()
    # One pristine memory image per campaign: every golden run and
    # trial clones it instead of re-materializing all globals.
    memory_image = MachineMemory.pristine(module)
    golden = golden_run(module, config, externals=externals,
                        memory_image=memory_image)
    completed = {
        index: trial for index, trial in (completed or {}).items()
        if index < config.trials
    }
    todo = [plan for plan in config.plans(golden.events)
            if plan.trial_index not in completed]
    try:
        executed = run_plans(
            module, golden, todo, config, externals=externals,
            memory_image=memory_image, jobs=jobs, chunk_size=chunk_size,
            progress=progress, on_result=on_result, done_offset=len(completed),
            total=config.trials,
        )
    except CampaignInterrupted as exc:
        # Journaled (resumed) trials are part of the partial result the
        # CLI reports, even though this run never re-executed them.
        raise CampaignInterrupted({**completed, **exc.results},
                                  config.trials) from None
    by_index = dict(completed)
    by_index.update(
        (plan.trial_index, trial) for plan, trial in zip(todo, executed.trials)
    )
    return dataclasses.replace(
        executed,
        trials=[by_index[i] for i in range(config.trials)],
        elapsed=time.monotonic() - start,
        resumed_trials=len(completed),
    )


def run_plans(
    module: Module,
    golden: ExecResult,
    plans: Sequence[FaultPlan],
    config: CampaignConfig,
    *,
    externals=None,
    memory_image: Optional[MachineMemory] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    done_offset: int = 0,
    total: Optional[int] = None,
) -> CampaignResult:
    """Execute ``plans`` under ``config``; results come back in plan
    order.

    The one plan executor behind :func:`run_campaign` and incremental
    campaigns.  With ``jobs > 1`` the plans fan out over the supervised
    worker pool (:class:`repro.runtime.parallel.Executor`), falling back
    to this process when the campaign cannot cross a process boundary.
    ``on_result`` streams each ``(trial_index, result)`` as it
    completes, ``progress`` is called as ``progress(done_offset + done,
    total)``, and Ctrl-C raises :class:`CampaignInterrupted` carrying
    every finished trial.
    """
    total = done_offset + len(plans) if total is None else total
    start = time.monotonic()
    finished: Dict[int, TrialResult] = {}

    def deliver(index: int, trial: TrialResult) -> None:
        # A trial counts as finished once the journal hook has it.
        if on_result is not None:
            on_result(index, trial)
        finished[index] = trial
        if progress is not None:
            progress(done_offset + len(finished), total)

    pool = None
    if jobs > 1 and len(plans) > 1:
        from repro.runtime.parallel import ParallelUnavailable, sfi_executor

        try:
            pool = sfi_executor(
                module, plans, config, externals=externals, workers=jobs,
                batch_size=chunk_size, on_result=deliver,
            )
        except ParallelUnavailable:
            pass
    try:
        if pool is not None:
            pool.run()
        else:
            for plan in plans:
                deliver(plan.trial_index, run_planned_trial(
                    module, golden, plan, config,
                    externals=externals, memory_image=memory_image,
                ))
    except KeyboardInterrupt:
        # Graceful SIGINT: everything already finished was streamed to
        # ``on_result`` (so a journal has it on disk); hand the partial
        # results up instead of an unhandled traceback.
        raise CampaignInterrupted(finished, total) from None
    trials = [finished[plan.trial_index] for plan in plans]
    if pool is None:
        return CampaignResult(trials, elapsed=time.monotonic() - start,
                              worker_trials={"worker-0": len(trials)})
    return CampaignResult(
        trials, elapsed=time.monotonic() - start, jobs=jobs,
        worker_trials=pool.worker_trials, pool_restarts=pool.worker_restarts,
    )
