"""The fast tier under fault injection, profiling and threads.

Model-detector SFI trials, profiling runs and threaded runs execute
decoded code between event-indexed stops, and hand the step at each
stop to the reference ``_step``.  The reference engine calls the same
observers on every step, so every case here runs one trial on both
engines and requires equal ``TrialResult``s *and* equal end counters:
a stop placed one step late (or a decoded step that should have been
observed) shows up as a difference.  The cases put stops where decoded
code is most likely to get them wrong — at the edges of the run, on
the second half of fused pairs, on frame transitions, at the step
budget, and on scheduler switch points.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List, Tuple
from unittest import mock

import pytest

import repro.runtime.sfi as sfi
from repro.encore import compile_for_encore
from repro.frontend import compile_source
from repro.ir import IRBuilder, Module
from repro.profiling import profile_and_result, profile_module
from repro.profiling.profile_data import ProfileData
from repro.runtime import (
    FaultPlan,
    ReferenceInterpreter,
    golden_run,
    make_interpreter,
    run_campaign,
    run_planned_trial,
)
from repro.runtime.interpreter import NO_STOP, Stops, Trap
from repro.runtime.scheduler import CooperativeScheduler
from repro.runtime.sfi import TrialResult
from repro.workloads import all_workloads, build_workload


ENGINES = ("fast", "reference")


# ---------------------------------------------------------------------------
# fixtures: protected modules and their golden step streams
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Subject:
    module: object
    golden: object
    #: (index, opcode, function, block, inst_index, defines) per step.
    steps: List[Tuple]
    knobs: Dict

    def find(self, predicate, start: int = 0) -> int:
        """The first golden step index at or after ``start`` matching."""
        for step in self.steps[start:]:
            if predicate(step):
                return step[0]
        raise AssertionError("no golden step matches")

    def defining_before(self, index: int) -> int:
        """The last register-defining golden step before ``index``."""
        for step in reversed(self.steps[:index]):
            if step[5]:
                return step[0]
        raise AssertionError("no defining step before %d" % index)


def _subject(module, **knobs) -> Subject:
    steps: List[Tuple] = []

    def record(interp, event):
        steps.append((event.index, event.inst.opcode, event.func,
                      event.block, event.inst_index, bool(event.inst.defs())))

    interp = make_interpreter(
        module, engine="reference", post_step=record,
        max_threads=knobs.get("threads"), quantum=knobs.get("quantum"),
    )
    interp.run("main")
    return Subject(module, golden_run(module, **knobs), steps, knobs)


@pytest.fixture(scope="module")
def quicksort() -> Subject:
    with open("examples/mc/quicksort.mc") as handle:
        source = handle.read()
    module = compile_for_encore(compile_source(source)).module
    return _subject(module)


@pytest.fixture(scope="module")
def threaded() -> Subject:
    built = build_workload("stencil3")
    module = compile_for_encore(
        built.module, function=built.entry, args=built.args,
        externals=built.externals,
    ).module
    return _subject(module, threads=3, quantum=7,
                    output_objects=tuple(built.output_objects))


def _plan(sites=(), bits=(), latencies=(), recovery=((), (), ()),
          metadata=((), (), (), ()), control=((), (), ())) -> FaultPlan:
    return FaultPlan(0, tuple(sites), tuple(bits), tuple(latencies),
                     *map(tuple, recovery), *map(tuple, metadata),
                     *map(tuple, control))


@contextlib.contextmanager
def _capture_interpreters():
    created = []
    real = sfi.make_interpreter

    def capture(*args, **kwargs):
        interp = real(*args, **kwargs)
        created.append(interp)
        return interp

    with mock.patch.object(sfi, "make_interpreter", capture):
        yield created


def both(subject: Subject, plan: FaultPlan, **knobs) -> TrialResult:
    """Run ``plan`` on both engines; require identical results and end
    state, and return the (shared) result."""
    seen = {}
    for engine in ENGINES:
        with _capture_interpreters() as created:
            result = run_planned_trial(
                subject.module, subject.golden, plan, engine=engine,
                **subject.knobs, **knobs,
            )
        (interp,) = created
        sched = interp.scheduler
        seen[engine] = (
            result, interp.events, interp.cost, interp.instrumentation_cost,
            dict(interp.peak_ckpt_words),
            tuple(sched.switch_log) if sched is not None else None,
        )
    assert seen["fast"] == seen["reference"]
    return seen["fast"][0]


def _is(opcode):
    return lambda step: step[1] == opcode


# ---------------------------------------------------------------------------
# stop boundaries
# ---------------------------------------------------------------------------


class TestStrikeSites:
    def test_strike_at_event_zero(self, quicksort):
        both(quicksort, _plan([0], [3], [4]))

    def test_strike_at_last_golden_event(self, quicksort):
        last = quicksort.golden.events - 1
        both(quicksort, _plan([last], [3], [0]))

    def test_strike_past_the_end_is_dead_time(self, quicksort):
        result = both(quicksort,
                      _plan([quicksort.golden.events + 5], [3], [2]))
        assert result.fault_event == -1
        assert result.outcome == "masked"


class TestFusedPairs:
    """A stop on the second half of a fused pair: decoded code runs the
    first half and parks ``frame.ip`` on the second."""

    def _second_halves(self, subject, first, second):
        steps = subject.steps
        return [
            b[0] for a, b in zip(steps, steps[1:])
            if a[1] == first and b[1] == second
            and a[2:4] == b[2:4] and b[4] == a[4] + 1
        ]

    @pytest.mark.parametrize("pair", [("cmp", "br"), ("ckpt_mem", "store")])
    def test_deadline_on_second_half(self, quicksort, pair):
        halves = [h for h in self._second_halves(quicksort, *pair) if h > 20]
        assert halves, f"no fused {pair} executed"
        for index in (halves[0], halves[len(halves) // 2], halves[-1]):
            site = quicksort.defining_before(index - 3)
            both(quicksort, _plan([site], [5], [index - site]))

    @pytest.mark.parametrize("pair", [("cmp", "br"), ("ckpt_mem", "store")])
    def test_metadata_strike_on_second_half(self, quicksort, pair):
        index = self._second_halves(quicksort, *pair)[-1]
        for target in ("ckpt_mem", "ckpt_reg", "recovery_ptr"):
            both(quicksort, _plan(metadata=([index], [target], [1], [50])))


class TestDeadlines:
    @pytest.mark.parametrize("opcode", ["call", "ret", "set_recovery_ptr"])
    def test_deadline_on_frame_and_region_steps(self, quicksort, opcode):
        index = quicksort.find(_is(opcode), start=quicksort.golden.events // 3)
        site = quicksort.defining_before(index - 2)
        both(quicksort, _plan([site], [7], [index - site]))

    def test_deadline_at_max_steps(self):
        """A struck loop bound hangs the trial; its deadline sits
        exactly on the step budget, which must win."""
        module = Module("spin")
        b = IRBuilder(module.add_function("main"))
        i, n = b.fresh("i"), b.fresh("n")
        b.block("entry")
        b.mov(0, i)
        b.mov(6, n)
        b.jmp("header")
        b.block("header")
        b.br(b.cmp("slt", i, n), "body", "exit")
        b.block("body")
        b.add(i, 1, i)
        b.jmp("header")
        b.block("exit")
        b.ret(i)
        subject = _subject(module)
        site = 1  # ``mov 6 -> n``: bit 40 makes the loop run 2**40 times
        max_steps = max(subject.golden.events * 4, 10_000)
        for latency in (max_steps - site, max_steps - site - 1):
            result = both(subject, _plan([site], [40], [latency]))
            assert result.hang or result.outcome == "escape_unrecoverable"


class TestSupervisor:
    def test_watchdog_rerolls(self, quicksort):
        retried = 0
        for site in range(100, quicksort.golden.events, 397):
            result = both(quicksort, _plan([site], [2], [3]), step_budget=2)
            retried += result.recovery_attempts > 1
        assert retried, "the watchdog never re-rolled a recovery"

    def test_recovery_window_fault(self, quicksort):
        struck = 0
        for site in range(50, quicksort.golden.events, 311):
            result = both(quicksort, _plan(
                [site], [4], [2], recovery=([1 + site % 5], [6], [3])))
            struck += result.double_faults
        assert struck, "no recovery-window fault struck"

    def test_metadata_strike_on_dead_metadata(self, quicksort):
        result = both(quicksort, _plan(metadata=([0], ["ckpt_mem"], [0], [3])))
        assert result.metadata_faults == 0
        assert result.outcome == "masked"


class TestControlFlow:
    def test_wrong_strike_waits_past_a_jmp(self, quicksort):
        jmp = quicksort.find(
            lambda s: s[1] == "jmp", start=quicksort.golden.events // 2)
        result = both(quicksort, _plan(control=([jmp], ["wrong"], [0])))
        assert result.control_faults == 1

    def test_wild_target(self, quicksort):
        site = quicksort.find(_is("br"), start=quicksort.golden.events // 2)
        func = quicksort.module.functions[quicksort.steps[site][2]]
        wild = len(func.blocks)  # the selector slot past every label
        result = both(quicksort, _plan(control=([site], ["target"], [wild])),
                      cfe_detector="signature")
        assert result.control_faults == 1
        assert result.trapped

    def test_signature_monitor_on_struck_edges(self, quicksort):
        for site in range(10, quicksort.golden.events, 601):
            both(quicksort, _plan(control=([site], ["target"], [site % 7])),
                 cfe_detector="signature")


class TestThreads:
    def test_stops_on_switch_steps(self, threaded):
        interp = make_interpreter(threaded.module, max_threads=3, quantum=7)
        interp.run("main")
        switches = [event - 1 for event, _, _ in interp.scheduler.switch_log]
        for index in switches[1:40:6]:
            site = threaded.defining_before(index - 1)
            both(threaded, _plan([site], [3], [index - site]))
            both(threaded, _plan(metadata=([index], ["ckpt_reg"], [0], [9])))

    def test_aborted_steps_do_not_count_toward_the_quantum(self, threaded):
        """A step after which an observer raises (a wild-branch trap)
        never reaches the scheduler, so its quantum must not count it:
        on the reference engine, which schedules after every step, the
        events since the quantum began equal the steps the scheduler
        saw.  The fast engine must switch at the same points."""
        seen = {"steps": 0}
        real = CooperativeScheduler.after_step

        def after_step(sched, interp, opcode):
            if interp.__class__ is ReferenceInterpreter:
                seen["steps"] += 1
                assert interp.events - sched._slice_base == seen["steps"]
            real(sched, interp, opcode)
            if interp.events == sched._slice_base:
                seen["steps"] = 0

        logs = {}
        for engine in ENGINES:
            interp = make_interpreter(
                threaded.module, engine=engine, max_threads=3, quantum=7,
                stops=_RaiseAfter(range(20, threaded.golden.events, 13)),
            )
            with mock.patch.object(CooperativeScheduler, "after_step",
                                   after_step):
                try:
                    interp.run("main")
                except Trap:
                    while True:
                        try:
                            interp.resume()
                            break
                        except Trap:
                            continue
            logs[engine] = (interp.events, tuple(interp.scheduler.switch_log))
        assert logs["fast"] == logs["reference"]

    def test_every_surface_across_switches(self, threaded):
        for site in range(6, threaded.golden.events, 173):
            both(threaded, _plan(
                [site], [site % 32], [site % 9],
                recovery=([2], [5], [1]),
                metadata=([site + 3], ["recovery_ptr"], [0], [40]),
                control=([site + 1], ["wrong"], [0])),
                metadata_guard="checksum", cfe_detector="signature")


class _RaiseAfter(Stops):
    """Raises a Trap after each of the given steps, as a wild-branch
    strike does."""

    def __init__(self, indices) -> None:
        self.pending = list(indices)

    def next_stop(self, interp) -> int:
        return self.pending[0] if self.pending else NO_STOP

    def on_step(self, interp, event) -> None:
        if self.pending and event.index >= self.pending[0]:
            self.pending.pop(0)
            raise Trap("observer", interp.events)


# ---------------------------------------------------------------------------
# tier share: model-detector trials stay decoded
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _counting_reference_steps():
    counter = {"steps": 0}
    real = ReferenceInterpreter._step

    def step(self):
        counter["steps"] += 1
        return real(self)

    with mock.patch.object(ReferenceInterpreter, "_step", step):
        yield counter


def _reference_share(module, **knobs) -> float:
    """Reference steps over all events of a 20-trial fast campaign."""
    with _capture_interpreters() as created, \
            _counting_reference_steps() as counter:
        run_campaign(module, engine="fast", dmax=50, seed=11, trials=20,
                     **knobs)
    return counter["steps"] / sum(interp.events for interp in created)


class TestTierShare:
    def test_gzip_trials_run_decoded(self):
        built = build_workload("164.gzip")
        module = compile_for_encore(
            built.module, function=built.entry, args=built.args,
            externals=built.externals,
        ).module
        share = _reference_share(
            module, function=built.entry, args=built.args,
            output_objects=tuple(built.output_objects),
        )
        assert share < 0.01

    def test_crc32_trials_run_decoded(self):
        with open("examples/mc/crc32.mc") as handle:
            module = compile_for_encore(compile_source(handle.read())).module
        assert _reference_share(module) < 0.05


# ---------------------------------------------------------------------------
# decoded profiling
# ---------------------------------------------------------------------------


class ProfilingHook:
    """The per-step profiler decoded profiling replaced, kept as the
    reference: counts block entries and intra-frame edges."""

    def __init__(self, profile: ProfileData) -> None:
        self.profile = profile
        self._last_block: Dict[int, str] = {}

    def __call__(self, interp, event) -> None:
        if event.inst_index == 0:
            self.profile.record_block(event.func, event.block)
            prev = self._last_block.get(event.frame_id)
            if prev is not None and prev != event.block:
                self.profile.record_edge(event.func, prev, event.block)
            elif prev == event.block:
                self.profile.record_edge(event.func, prev, event.block)
            if prev is None:
                self.profile.record_call(event.func)
        self._last_block[event.frame_id] = event.block
        self.profile.total_instructions += 1


def _hook_profile(built) -> ProfileData:
    profile = ProfileData()
    ReferenceInterpreter(
        built.module, post_step=ProfilingHook(profile),
        externals=built.externals,
    ).run(built.entry, built.args)
    return profile


def _assert_same_profile(decoded: ProfileData, hooked: ProfileData) -> None:
    assert decoded == hooked
    # Insertion order too: consumers iterate these dicts.
    assert list(decoded.block_counts) == list(hooked.block_counts)
    assert list(decoded.edge_counts) == list(hooked.edge_counts)
    assert list(decoded.call_counts) == list(hooked.call_counts)


@pytest.mark.parametrize("name", sorted(s.name for s in all_workloads()))
def test_decoded_profile_equals_hook_profile(name):
    built = build_workload(name)
    decoded = profile_module(built.module, built.entry, built.args,
                             externals=built.externals)
    _assert_same_profile(decoded, _hook_profile(built))


@pytest.mark.parametrize("name", ["stencil3", "pc_codec"])
def test_decoded_profile_of_threaded_workload(name):
    """Joins that block at a block head re-execute it: each attempt is
    a block entry and a self-loop edge, in both tiers."""
    built = build_workload(name)
    decoded, result = profile_and_result(
        built.module, built.entry, built.args,
        output_objects=built.output_objects, externals=built.externals,
    )
    _assert_same_profile(decoded, _hook_profile(built))
    assert result.events == decoded.total_instructions
