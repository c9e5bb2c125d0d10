"""Differential and property tests for the parallel SFI campaign engine.

The serial-equivalence guarantee is the contract: ``run_campaign(...,
jobs=N)`` must return the exact ``TrialResult`` sequence of the serial
path for every N, every chunking, every detector, and every
``faults_per_trial``.  The guarantee rests on per-trial RNG substreams
(:func:`derive_trial_seed` / :func:`plan_trial`), which the property
tests pin down directly: a trial's fault plan is a pure function of
``(seed, trial_index, golden_events, detector, faults_per_trial)`` —
independent of campaign length, evaluation order, or chunking.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encore import compile_for_encore
from repro.runtime import (
    DetectionModel,
    FaultPlan,
    derive_trial_seed,
    plan_campaign,
    plan_trial,
    run_campaign,
)
from helpers import build_counted_loop, build_figure4_region


def _instrumented_loop(n=25):
    module, _ = build_counted_loop(n)
    return compile_for_encore(module, clone=True).module


def _campaign(module, jobs, chunk_size=None, **kwargs):
    defaults = dict(output_objects=["arr"], trials=24, seed=5,
                    detector=DetectionModel(dmax=8))
    defaults.update(kwargs)
    return run_campaign(module, jobs=jobs, chunk_size=chunk_size, **defaults)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_identical_trial_sequences(self, jobs):
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1)
        parallel = _campaign(module, jobs=jobs)
        assert serial.trials == parallel.trials
        assert parallel.jobs == jobs

    @pytest.mark.parametrize("detector", [
        DetectionModel(dmax=5, kind="uniform"),
        DetectionModel(dmax=30, kind="fixed"),
        DetectionModel(dmax=20, kind="geometric"),
        DetectionModel(dmax=10, coverage=0.5),
    ], ids=["uniform", "fixed", "geometric", "half-coverage"])
    def test_equivalence_across_detectors(self, detector):
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1, detector=detector)
        parallel = _campaign(module, jobs=2, detector=detector)
        assert serial.trials == parallel.trials

    def test_equivalence_on_uninstrumented_module(self):
        module, _ = build_counted_loop(25)
        serial = _campaign(module, jobs=1)
        parallel = _campaign(module, jobs=2)
        assert serial.trials == parallel.trials

    def test_equivalence_with_function_args(self):
        module, _ = build_figure4_region()
        report = compile_for_encore(module, args=[5], clone=True)
        kwargs = dict(args=[5], output_objects=["mem"], trials=18, seed=3,
                      detector=DetectionModel(dmax=4))
        serial = run_campaign(report.module, jobs=1, **kwargs)
        parallel = run_campaign(report.module, jobs=4, **kwargs)
        assert serial.trials == parallel.trials

    @pytest.mark.parametrize("faults", [2, 3])
    def test_multifault_equivalence(self, faults):
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1, faults_per_trial=faults, trials=15)
        parallel = _campaign(module, jobs=2, faults_per_trial=faults, trials=15)
        assert serial.trials == parallel.trials

    def test_double_fault_model_equivalence(self):
        # Recovery-window faults ride the same seed-keyed substreams, so
        # the supervised double-fault campaign parallelises identically.
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1, recovery_faults_per_trial=1)
        parallel = _campaign(module, jobs=3, recovery_faults_per_trial=1)
        assert serial.trials == parallel.trials

    def test_supervisor_policy_equivalence(self):
        from repro.runtime import SupervisorPolicy

        module = _instrumented_loop()
        policy = SupervisorPolicy(max_attempts=2, attempt_step_budget=200)
        serial = _campaign(module, jobs=1, policy=policy)
        parallel = _campaign(module, jobs=2, policy=policy)
        assert serial.trials == parallel.trials

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 100])
    def test_chunk_size_never_changes_results(self, chunk_size):
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1)
        parallel = _campaign(module, jobs=2, chunk_size=chunk_size)
        assert serial.trials == parallel.trials

    def test_every_field_matches_not_just_outcome(self):
        module = _instrumented_loop()
        serial = _campaign(module, jobs=1)
        parallel = _campaign(module, jobs=3)
        for left, right in zip(serial.trials, parallel.trials):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    def test_worker_tallies_cover_all_trials(self):
        module = _instrumented_loop()
        parallel = _campaign(module, jobs=2)
        assert sum(parallel.worker_trials.values()) == len(parallel.trials)
        assert parallel.elapsed > 0.0
        assert parallel.throughput > 0.0

    def test_unpicklable_externals_fall_back_to_serial(self):
        # Closure externals can't cross the process boundary; the
        # campaign must still complete (serially) with identical
        # results rather than crash.
        module, _ = build_counted_loop(20)
        externals = {"ext": lambda args: 0}
        serial = run_campaign(
            module, output_objects=["arr"], trials=8, seed=2,
            detector=DetectionModel(dmax=5), externals=externals, jobs=1,
        )
        fallback = run_campaign(
            module, output_objects=["arr"], trials=8, seed=2,
            detector=DetectionModel(dmax=5), externals=externals, jobs=2,
        )
        assert serial.trials == fallback.trials
        assert fallback.jobs == 1  # the fallback is visible in metadata

    def test_progress_reports_reach_total(self):
        module = _instrumented_loop()
        seen = []
        _campaign(module, jobs=2, progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (24, 24)
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)


class TestEngineEquivalence:
    """Campaigns are engine-independent: the fast engine's trials —
    serial or fanned out over workers (which cache one golden memory
    image per process) — are bit-identical to the reference engine's."""

    def test_serial_campaign_identical_across_engines(self):
        module = _instrumented_loop()
        fast = _campaign(module, jobs=1, engine="fast")
        reference = _campaign(module, jobs=1, engine="reference")
        for left, right in zip(fast.trials, reference.trials):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_parallel_campaign_matches_other_engine_serial(self, engine):
        # Crosses both axes at once: jobs=2 on one engine against the
        # serial path of the *other* engine, exercising the per-worker
        # cached golden memory image on the parallel leg.
        module = _instrumented_loop()
        other = "reference" if engine == "fast" else "fast"
        parallel = _campaign(module, jobs=2, engine=engine)
        serial = _campaign(module, jobs=1, engine=other)
        assert parallel.trials == serial.trials

    def test_default_engine_matches_explicit(self):
        module = _instrumented_loop()
        assert _campaign(module, jobs=1).trials == \
            _campaign(module, jobs=1, engine="fast").trials

    def test_double_fault_and_metadata_models_across_engines(self):
        module = _instrumented_loop()
        kwargs = dict(recovery_faults_per_trial=1,
                      metadata_faults_per_trial=1,
                      metadata_guard="checksum", trials=12)
        fast = _campaign(module, jobs=1, engine="fast", **kwargs)
        reference = _campaign(module, jobs=1, engine="reference", **kwargs)
        assert fast.trials == reference.trials


class TestSeedKeyedPlans:
    @given(seed=st.integers(0, 2**32), index=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_trial_seed_is_a_pure_function(self, seed, index):
        assert derive_trial_seed(seed, index) == derive_trial_seed(seed, index)

    def test_trial_seeds_do_not_collide_in_practice(self):
        seeds = {derive_trial_seed(s, i) for s in range(20) for i in range(200)}
        assert len(seeds) == 20 * 200

    @given(
        seed=st.integers(0, 2**16),
        events=st.integers(1, 5_000),
        faults=st.integers(1, 4),
        short=st.integers(1, 50),
        long=st.integers(51, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_plans_are_prefix_stable(self, seed, events, faults, short, long):
        # Growing a campaign never changes the trials already planned:
        # trial i's plan is independent of how many trials follow it.
        detector = DetectionModel(dmax=25)
        small = plan_campaign(seed, short, events, detector, faults)
        big = plan_campaign(seed, long, events, detector, faults)
        assert big[:short] == small

    @given(
        seed=st.integers(0, 2**16),
        trials=st.integers(1, 120),
        events=st.integers(1, 5_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_plans_stable_under_chunking_permutations(
        self, seed, trials, events, data
    ):
        # Evaluating trials in any shuffled chunk order reproduces the
        # in-order plan list — the exact property the process pool
        # relies on when chunks complete out of order.
        detector = DetectionModel(dmax=10)
        in_order = plan_campaign(seed, trials, events, detector)
        indices = list(range(trials))
        data.draw(st.randoms(use_true_random=False)).shuffle(indices)
        chunk = data.draw(st.integers(1, max(1, trials)))
        shuffled = []
        for start in range(0, trials, chunk):
            for index in indices[start:start + chunk]:
                shuffled.append(plan_trial(seed, index, events, detector))
        assert sorted(shuffled, key=lambda p: p.trial_index) == in_order

    @given(seed=st.integers(0, 2**16), index=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_plan_shape_invariants(self, seed, index):
        detector = DetectionModel(dmax=12, coverage=0.7)
        plan = plan_trial(seed, index, 300, detector, faults_per_trial=3)
        assert isinstance(plan, FaultPlan)
        assert plan.trial_index == index
        assert len(plan.sites) == len(plan.bits) == len(plan.latencies) == 3
        assert list(plan.sites) == sorted(plan.sites)
        assert all(0 <= site < 300 for site in plan.sites)
        assert all(0 <= bit < 32 for bit in plan.bits)
        assert all(
            latency is None or 0 <= latency <= 12 for latency in plan.latencies
        )

    @given(seed=st.integers(0, 2**16), index=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_recovery_draws_do_not_disturb_primary_plan(self, seed, index):
        # The double-fault fields draw after the primary fields, so
        # enabling them never changes a campaign's primary fault plans —
        # old journals and old results stay comparable.
        detector = DetectionModel(dmax=12)
        plain = plan_trial(seed, index, 300, detector, faults_per_trial=2)
        extended = plan_trial(
            seed, index, 300, detector, faults_per_trial=2,
            recovery_faults_per_trial=2,
        )
        assert extended.sites == plain.sites
        assert extended.bits == plain.bits
        assert extended.latencies == plain.latencies
        assert plain.recovery_faults == ()
        assert len(extended.recovery_faults) == 2
        for offset, bit, latency in extended.recovery_faults:
            assert 1 <= offset <= 32
            assert 0 <= bit < 32
            assert latency is None or 0 <= latency <= 12

    @given(seed=st.integers(0, 2**16), index=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_cf_draws_come_strictly_last(self, seed, index):
        # Control-flow draws append after every older surface's draws,
        # so arming the fourth surface never disturbs the primary,
        # recovery-window, or metadata plans of an existing campaign.
        detector = DetectionModel(dmax=12)
        plain = plan_trial(
            seed, index, 300, detector, faults_per_trial=2,
            recovery_faults_per_trial=1, metadata_faults_per_trial=1,
        )
        extended = plan_trial(
            seed, index, 300, detector, faults_per_trial=2,
            recovery_faults_per_trial=1, metadata_faults_per_trial=1,
            cf_faults_per_trial=2,
        )
        assert plain.control_faults == ()
        assert dataclasses.replace(
            extended, cf_sites=(), cf_kinds=(), cf_selectors=(),
        ) == plain
        assert len(extended.control_faults) == 2
        for site, kind, selector in extended.control_faults:
            assert 0 <= site < 300
            assert kind in ("target", "wrong")
            assert 0 <= selector < 64

    def test_neighbouring_streams_are_decorrelated(self):
        # Consecutive trial indices must not produce shifted copies of
        # the same stream (the classic seed+i failure mode).
        first = random.Random(derive_trial_seed(7, 0))
        second = random.Random(derive_trial_seed(7, 1))
        a = [first.randrange(1 << 30) for _ in range(16)]
        b = [second.randrange(1 << 30) for _ in range(16)]
        assert a != b
        assert not set(a) & set(b)
