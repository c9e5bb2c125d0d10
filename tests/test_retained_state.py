"""What a campaign keeps, and what a command imports.

Campaigns retain every ``TrialResult`` (and pool workers fork from the
process that holds them), so a result is slotted and pickles as a bare
tuple; a finished served campaign keeps its counts, not its executor;
and client-side commands import neither the server nor the compiler.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import subprocess
import sys
from unittest import mock

import pytest

from helpers import build_counted_loop
from repro.ir.printer import module_to_text
from repro.runtime.sfi import OUTCOMES, TrialResult, infra_error_trial
from repro.service import CampaignSpec, CampaignTask, COMPLETED
import repro.service


class TestTrialResult:
    def test_slotted(self):
        assert not hasattr(infra_error_trial(), "__dict__")

    def test_pickle_round_trip_interns_outcome(self):
        outcome = "".join(["recovered", "_after_retry"])
        assert outcome is not OUTCOMES[2]
        trial = TrialResult(outcome, 1234, 7, 2, retries=1, wasted_work=56,
                            section="f@r0")
        again = pickle.loads(pickle.dumps(trial))
        assert again == trial
        assert again.outcome is OUTCOMES[2]


def _imported_after(statement: str, modules) -> list:
    probe = (
        f"import sys; {statement}; "
        f"print([m for m in {list(modules)!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    return eval(out)


class TestImports:
    def test_client_imports_no_server(self):
        assert _imported_after(
            "from repro.service import ServiceClient",
            ["asyncio", "repro.service.server", "repro.service.dispatch"],
        ) == []

    def test_cli_imports_no_compiler(self):
        assert _imported_after(
            "import repro.cli", ["repro.encore", "repro.frontend", "repro.opt"]
        ) == []

    def test_every_service_export_resolves(self):
        for name in repro.service.__all__:
            assert getattr(repro.service, name) is not None


def _stable(status: dict) -> dict:
    """A status without the fields a finished clock changes."""
    aggregates = {
        k: v for k, v in status["aggregates"].items()
        if k not in ("elapsed_s", "throughput_trials_per_s")
    }
    workers = [
        {k: v for k, v in worker.items() if k != "heartbeat_age_s"}
        for worker in status["workers"]
    ]
    return {**status, "state": None, "aggregates": aggregates,
            "workers": workers}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="service workers require the fork start method")
def test_completed_campaign_keeps_counts_not_executor(tmp_path):
    module, _ = build_counted_loop(25)
    spec = CampaignSpec(module_text=module_to_text(module) + "\n",
                        output_objects=("arr",), trials=16, seed=9, dmax=40,
                        batch_size=4)
    task = CampaignTask("c0001", spec, str(tmp_path / "served.jsonl"),
                        workers=2, chaos_kill_after=5)
    before = {}
    release = CampaignTask._release

    def observed_release(self):
        before["status"] = self.status()
        release(self)

    with mock.patch.object(CampaignTask, "_release", observed_release):
        asyncio.run(task.run())
    assert task.state == COMPLETED
    assert task._executor is None and task.results == {}
    assert task.worker_restarts >= 1
    assert task.trials_done == spec.trials == len(task.result.trials)
    assert _stable(task.status()) == _stable(before["status"])
