"""Resilient-campaign tests: the on-disk journal, crash-and-resume
bit-equivalence, worker-crash containment, and the wall-clock trial
guard.

The invariant under test everywhere: a campaign that is interrupted —
worker SIGKILL, process crash between journal appends, resume into a
longer run — produces exactly the ``TrialResult`` sequence of an
uninterrupted serial campaign.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from helpers import (
    CRASH_SENTINEL_ENV,
    CRASH_SPARE_PID_ENV,
    build_counted_loop,
    build_external_call_loop,
    crash_worker_once,
)
from repro.runtime import (
    CampaignJournal,
    DetectionModel,
    FaultPlan,
    JournalError,
    TrialResult,
    campaign_metadata,
    default_journal_path,
    golden_run,
    infra_error_trial,
    load_journal,
    run_campaign,
    validate_resume,
)
from repro.runtime.parallel import RESTARTS_PER_WORKER
import repro.runtime.sfi as sfi

pytestmark = []

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _module():
    module, _ = build_counted_loop(25)
    return module


def _detector():
    return DetectionModel(dmax=40)


class TestJournalFormat:
    def test_header_and_records_round_trip(self, tmp_path):
        module = _module()
        meta = campaign_metadata(module, 5, _detector())
        path = str(tmp_path / "c.jsonl")
        campaign = None
        with CampaignJournal(path) as journal:
            journal.write_header(meta)
            campaign = run_campaign(
                module, trials=8, seed=5, detector=_detector(),
                output_objects=["arr"], on_result=journal.record,
            )
        loaded_meta, completed = load_journal(path)
        assert loaded_meta == json.loads(json.dumps(meta))
        assert sorted(completed) == list(range(8))
        for index, trial in completed.items():
            assert trial == campaign.trials[index]

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        module = _module()
        with CampaignJournal(path) as journal:
            journal.write_header(campaign_metadata(module, 1, _detector()))
            journal.record(0, infra_error_trial())
        with open(path, "a") as handle:
            handle.write('{"kind": "trial", "index": 1, "outc')
        _meta, completed = load_journal(path)
        assert sorted(completed) == [0]

    def test_duplicate_records_last_wins(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        module = _module()
        first = infra_error_trial()
        second = TrialResult("masked", -1, None, 0)
        with CampaignJournal(path) as journal:
            journal.write_header(campaign_metadata(module, 1, _detector()))
            journal.record(0, first)
            journal.record(0, second)
        _meta, completed = load_journal(path)
        assert completed[0] == second

    def test_unknown_fields_are_dropped_on_load(self, tmp_path):
        # Forward compatibility: a journal written by a newer build with
        # extra TrialResult fields still loads.
        path = str(tmp_path / "fwd.jsonl")
        module = _module()
        with CampaignJournal(path) as journal:
            journal.write_header(campaign_metadata(module, 1, _detector()))
            record = {"kind": "trial", "index": 0, "future_field": 9,
                      **dataclasses.asdict(infra_error_trial())}
            journal._write(record)
        _meta, completed = load_journal(path)
        assert completed[0].outcome == "infra_error"

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text('{"kind": "trial", "index": 0}\n')
        with pytest.raises(JournalError):
            load_journal(str(path))

    def test_fsync_mode_writes_identically(self, tmp_path):
        path = str(tmp_path / "sync.jsonl")
        module = _module()
        with CampaignJournal(path, fsync=True) as journal:
            journal.write_header(campaign_metadata(module, 2, _detector()))
            journal.record(0, infra_error_trial())
        _meta, completed = load_journal(path)
        assert sorted(completed) == [0]

    def test_default_journal_path_sanitizes_module_name(self):
        path = default_journal_path("lib/mat mul", 7)
        assert path == os.path.join("results", "sfi_lib_mat_mul_s7.jsonl")


class TestResumeValidation:
    def test_matching_metadata_passes(self):
        module = _module()
        meta = campaign_metadata(module, 5, _detector())
        validate_resume(json.loads(json.dumps(meta)), meta)

    def test_seed_mismatch_raises(self):
        module = _module()
        meta = campaign_metadata(module, 5, _detector())
        other = campaign_metadata(module, 6, _detector())
        with pytest.raises(JournalError, match="seed"):
            validate_resume(meta, other)

    def test_module_mismatch_raises(self):
        meta = campaign_metadata(_module(), 5, _detector())
        other_module, _ = build_counted_loop(26)
        other = campaign_metadata(other_module, 5, _detector())
        with pytest.raises(JournalError, match="module"):
            validate_resume(meta, other)

    def test_detector_mismatch_raises(self):
        module = _module()
        meta = campaign_metadata(module, 5, _detector())
        other = campaign_metadata(module, 5, DetectionModel(dmax=99))
        with pytest.raises(JournalError, match="detector"):
            validate_resume(meta, other)

    def test_torn_tail_plus_fingerprint_mismatch_fails_loudly(self, tmp_path):
        # The torn last line is tolerated by the *loader*, but it must
        # never mask a header mismatch: resuming a journal written for a
        # different module still raises, with the fingerprint named —
        # not a silent restart that would merge two campaigns' trials.
        path = str(tmp_path / "torn_mismatch.jsonl")
        with CampaignJournal(path) as journal:
            journal.write_header(campaign_metadata(_module(), 5, _detector()))
            journal.record(0, infra_error_trial())
        with open(path, "a") as handle:
            handle.write('{"kind": "trial", "index": 1, "outc')
        loaded_meta, completed = load_journal(path)
        assert sorted(completed) == [0]  # torn tail dropped, not fatal
        other_module, _ = build_counted_loop(26)
        current = campaign_metadata(other_module, 5, _detector())
        with pytest.raises(JournalError, match="module"):
            validate_resume(loaded_meta, current)

    def test_metadata_fault_journal_cannot_resume_as_plain(self):
        # Symmetric validation: the journal carries a key the current
        # campaign lacks entirely (metadata faults were on when it was
        # written).  An asymmetric current-keys-only comparison would
        # silently accept this and replay trials from a different fault
        # model.
        module = _module()
        meta_campaign = campaign_metadata(
            module, 5, _detector(), metadata_faults_per_trial=1,
            metadata_guard="checksum",
        )
        plain = campaign_metadata(module, 5, _detector())
        with pytest.raises(JournalError, match="metadata_faults_per_trial"):
            validate_resume(meta_campaign, plain)
        with pytest.raises(JournalError, match="metadata_faults_per_trial"):
            validate_resume(plain, meta_campaign)

    def test_cf_fault_journal_cannot_resume_as_plain(self):
        # Same symmetric discipline for the control-flow fault surface:
        # a journal with CFE faults armed refuses to resume a plain
        # campaign and vice versa.
        module = _module()
        cf_campaign = campaign_metadata(
            module, 5, _detector(), cf_faults_per_trial=1,
        )
        plain = campaign_metadata(module, 5, _detector())
        with pytest.raises(JournalError, match="cf_faults_per_trial"):
            validate_resume(cf_campaign, plain)
        with pytest.raises(JournalError, match="cf_faults_per_trial"):
            validate_resume(plain, cf_campaign)

    def test_cfe_detector_mismatch_raises(self):
        module = _module()
        signature = campaign_metadata(
            module, 5, _detector(), cf_faults_per_trial=1,
            cfe_detector="signature",
        )
        off = campaign_metadata(
            module, 5, _detector(), cf_faults_per_trial=1,
            cfe_detector="off",
        )
        with pytest.raises(JournalError, match="cfe_detector"):
            validate_resume(signature, off)

    def test_threads_mismatch_raises(self):
        module = _module()
        threaded = campaign_metadata(module, 5, _detector(), threads=3)
        plain = campaign_metadata(module, 5, _detector())
        with pytest.raises(JournalError, match="threads"):
            validate_resume(threaded, plain)
        with pytest.raises(JournalError, match="threads"):
            validate_resume(plain, threaded)
        other = campaign_metadata(module, 5, _detector(), threads=2)
        with pytest.raises(JournalError, match="threads"):
            validate_resume(threaded, other)

    def test_quantum_mismatch_raises(self):
        module = _module()
        q10 = campaign_metadata(module, 5, _detector(), threads=2, quantum=10)
        default_q = campaign_metadata(module, 5, _detector(), threads=2)
        with pytest.raises(JournalError, match="quantum"):
            validate_resume(q10, default_q)
        with pytest.raises(JournalError, match="quantum"):
            validate_resume(default_q, q10)

    def test_plain_metadata_header_is_byte_stable(self):
        # Default metadata-fault knobs must not change the header at
        # all, so pre-existing journals keep resuming bit-identically.
        module = _module()
        assert campaign_metadata(module, 5, _detector()) == \
            campaign_metadata(
                module, 5, _detector(),
                metadata_faults_per_trial=0, metadata_guard="off",
            )
        # Same guarantee for the threading and control-flow knobs.
        assert campaign_metadata(module, 5, _detector()) == \
            campaign_metadata(
                module, 5, _detector(),
                cf_faults_per_trial=0, cfe_detector="signature",
                threads=1, quantum=None,
            )


class TestResumeEquivalence:
    def test_resumed_campaign_is_bit_identical_to_serial(self, tmp_path):
        # Crash-and-resume round trip: journal the first 10 trials of a
        # 30-trial campaign (as if the process died there), then resume.
        module = _module()
        detector = _detector()
        serial = run_campaign(
            module, trials=30, seed=11, detector=detector,
            output_objects=["arr"],
        )
        path = str(tmp_path / "resume.jsonl")
        with CampaignJournal(path) as journal:
            journal.write_header(campaign_metadata(module, 11, detector))
            run_campaign(
                module, trials=10, seed=11, detector=detector,
                output_objects=["arr"], on_result=journal.record,
            )
        _meta, completed = load_journal(path)
        assert len(completed) == 10
        resumed = run_campaign(
            module, trials=30, seed=11, detector=detector,
            output_objects=["arr"], completed=completed,
        )
        assert resumed.trials == serial.trials
        assert resumed.resumed_trials == 10

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_parallel_resume_matches_serial(self, tmp_path):
        module = _module()
        detector = _detector()
        serial = run_campaign(
            module, trials=24, seed=3, detector=detector,
            output_objects=["arr"],
        )
        completed = {i: serial.trials[i] for i in (0, 5, 6, 7, 20, 23)}
        resumed = run_campaign(
            module, trials=24, seed=3, detector=detector,
            output_objects=["arr"], completed=completed, jobs=2,
        )
        assert resumed.trials == serial.trials
        assert resumed.resumed_trials == 6

    def test_completed_indices_beyond_campaign_are_dropped(self):
        module = _module()
        detector = _detector()
        serial = run_campaign(
            module, trials=6, seed=2, detector=detector,
            output_objects=["arr"],
        )
        completed = {i: serial.trials[i] for i in range(6)}
        completed[50] = infra_error_trial()  # stale record past the end
        shorter = run_campaign(
            module, trials=6, seed=2, detector=detector,
            output_objects=["arr"], completed=completed,
        )
        assert shorter.trials == serial.trials
        assert shorter.resumed_trials == 6

    def test_resume_into_longer_campaign_extends_prefix(self):
        # Prefix-stable planning: a journal from a 10-trial campaign
        # seeds the first 10 trials of a 20-trial campaign.
        module = _module()
        detector = _detector()
        long = run_campaign(
            module, trials=20, seed=9, detector=detector,
            output_objects=["arr"],
        )
        short = run_campaign(
            module, trials=10, seed=9, detector=detector,
            output_objects=["arr"],
        )
        completed = dict(enumerate(short.trials))
        extended = run_campaign(
            module, trials=20, seed=9, detector=detector,
            output_objects=["arr"], completed=completed,
        )
        assert extended.trials == long.trials


class TestCrossEngineResume:
    """Journals deliberately do not record the engine: because both
    engines are bit-identical, a campaign journaled under one must
    resume under the other without a single diverging trial."""

    def test_journal_written_by_reference_resumes_under_fast(self, tmp_path):
        module = _module()
        detector = _detector()
        serial = run_campaign(
            module, trials=30, seed=11, detector=detector,
            output_objects=["arr"], engine="reference",
        )
        path = str(tmp_path / "cross.jsonl")
        meta = campaign_metadata(module, 11, detector)
        with CampaignJournal(path) as journal:
            journal.write_header(meta)
            run_campaign(
                module, trials=10, seed=11, detector=detector,
                output_objects=["arr"], on_result=journal.record,
                engine="reference",
            )
        loaded_meta, completed = load_journal(path)
        validate_resume(loaded_meta, meta)  # engine-free headers match
        resumed = run_campaign(
            module, trials=30, seed=11, detector=detector,
            output_objects=["arr"], completed=completed, engine="fast",
        )
        assert resumed.trials == serial.trials
        assert resumed.resumed_trials == 10

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_fast_parallel_resume_of_reference_journal(self, tmp_path):
        # The resumed tail runs on the fast engine across workers, each
        # cloning its per-worker cached golden memory image — still
        # bit-identical to the serial reference campaign.
        module = _module()
        detector = _detector()
        serial = run_campaign(
            module, trials=24, seed=3, detector=detector,
            output_objects=["arr"], engine="reference",
        )
        completed = {i: serial.trials[i] for i in (0, 5, 6, 7, 20, 23)}
        resumed = run_campaign(
            module, trials=24, seed=3, detector=detector,
            output_objects=["arr"], completed=completed, jobs=2,
            engine="fast",
        )
        assert resumed.trials == serial.trials
        assert resumed.resumed_trials == 6


@pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
class TestWorkerCrashContainment:
    def _env(self, monkeypatch, sentinel):
        monkeypatch.setenv(CRASH_SENTINEL_ENV, sentinel)
        monkeypatch.setenv(CRASH_SPARE_PID_ENV, str(os.getpid()))

    def test_killed_worker_is_contained_and_matches_serial(
        self, tmp_path, monkeypatch
    ):
        module, _ = build_external_call_loop(8)
        externals = {"maybe_crash": crash_worker_once}
        detector = _detector()
        serial = run_campaign(
            module, trials=12, seed=4, detector=detector,
            output_objects=["out"], externals=externals,
        )
        self._env(monkeypatch, str(tmp_path / "crash-sentinel"))
        crashed = run_campaign(
            module, trials=12, seed=4, detector=detector,
            output_objects=["out"], externals=externals,
            jobs=2, chunk_size=3,
        )
        assert crashed.pool_restarts >= 1
        assert crashed.trials == serial.trials

    def test_pool_retries_exhausted_marks_infra_error(self, monkeypatch):
        # Every worker dies on its first external call: once the
        # executor's restart budget is spent the campaign must still
        # return, with every unfinished trial explicitly marked.
        module, _ = build_external_call_loop(8)
        externals = {"maybe_crash": crash_worker_once}
        self._env(monkeypatch, "always")
        campaign = run_campaign(
            module, trials=6, seed=4, detector=_detector(),
            output_objects=["out"], externals=externals,
            jobs=2, chunk_size=2,
        )
        assert len(campaign.trials) == 6
        assert campaign.infra_errors == 6
        # Both slots restarted until the budget ran out.
        assert campaign.pool_restarts == 2 * RESTARTS_PER_WORKER
        assert campaign.covered_fraction == 0.0


class TestTrialTimeout:
    def test_call_with_timeout_interrupts_busy_loop(self):
        def busy():
            while True:
                pass

        with pytest.raises(sfi.TrialTimeout):
            sfi.call_with_timeout(busy, 0.05)

    def test_call_without_timeout_runs_unguarded(self):
        assert sfi.call_with_timeout(lambda: 42, None) == 42
        assert sfi.call_with_timeout(lambda: 42, 0) == 42

    def test_overrunning_trial_classifies_infra_error(self, monkeypatch):
        module = _module()
        golden = golden_run(module, output_objects=["arr"])

        def stuck_trial(*args, **kwargs):
            while True:
                pass

        monkeypatch.setattr(sfi, "_trial", stuck_trial)
        plan = FaultPlan(0, (1,), (2,), (None,))
        result = sfi.run_planned_trial(
            module, golden, plan, output_objects=["arr"], trial_timeout=0.05
        )
        assert result.outcome == "infra_error"

    def test_timer_is_disarmed_after_the_trial(self):
        import signal

        sfi.call_with_timeout(lambda: None, 5.0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
