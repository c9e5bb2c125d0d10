"""The one supervised executor and the one in-order journal writer.

Pooled (``inject --jobs``), served and fuzz campaigns all run on
:class:`repro.runtime.parallel.Executor`, and all write their journals
through :class:`repro.runtime.journal.InOrderJournal`.  The contract
tested here: however a campaign's workers are scheduled, crash or
nest, its journal bytes equal the serial one-shot journal's.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from helpers import build_counted_loop
from repro.cli import main
from repro.fuzz import FuzzSettings, run_fuzz_campaign
from repro.runtime import (
    CampaignConfig,
    CampaignJournal,
    InOrderJournal,
    campaign_metadata,
    golden_run,
    infra_error_trial,
    load_journal,
    run_campaign,
    sfi_executor,
)
from repro.ir.printer import module_to_text
from repro.service import COMPLETED, CampaignSpec, CampaignTask, ServiceClient

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers require the fork start method",
)


@needs_fork
def test_pooled_inject_journal_byte_identical_to_serial(tmp_path):
    paths = {}
    for jobs in (1, 2):
        paths[jobs] = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["inject", "examples/mc/crc32.mc", "--trials", "40",
                     "--seed", "7", "--jobs", str(jobs),
                     "--journal", str(paths[jobs])]) == 0
    assert paths[2].read_bytes() == paths[1].read_bytes()


@needs_fork
def test_sigkill_after_every_trial_converges_to_serial_journal(tmp_path):
    module, _ = build_counted_loop(25)
    config = CampaignConfig(trials=8, seed=9, dmax=40,
                            output_objects=("arr",))
    metadata = campaign_metadata(module, config=config)
    reference = tmp_path / "serial.jsonl"
    with CampaignJournal(str(reference)) as journal:
        journal.write_header(metadata)
        run_campaign(module, config, on_result=journal.record)
    plans = config.plans(golden_run(module, config).events)
    for k in range(1, config.trials + 1):
        path = tmp_path / f"kill-after-{k}.jsonl"
        with CampaignJournal(str(path)) as journal:
            journal.write_header(metadata)
            ordered = InOrderJournal(journal)
            results = sfi_executor(
                module, plans, config, workers=2, batch_size=2,
                chaos_kill_after=k, on_result=ordered.record,
            ).run()
        assert path.read_bytes() == reference.read_bytes(), k
        assert all(t.outcome != "infra_error" for t in results.values()), k


@needs_fork
def test_parallel_fuzz_nests_campaign_executors():
    # The campaign oracle runs run_campaign(jobs=2) inside a fuzz
    # worker: workers must be able to start workers of their own.
    settings = FuzzSettings(seed=7, profile="small",
                            oracles=("opt", "campaign"), campaign_every=2)
    serial = run_fuzz_campaign(settings, budget=4, reduce=False)
    parallel = run_fuzz_campaign(settings, budget=4, jobs=2, reduce=False)
    assert parallel.records == serial.records
    assert parallel.fingerprint() == serial.fingerprint()
    assert not parallel.failures


@needs_fork
def test_status_reads_race_the_executor_thread(tmp_path):
    # The event loop reads a served campaign's status while the
    # executor's thread records trials into it: more workers than
    # cores, one-trial batches and a tiny switch interval make the
    # threads interleave as often as they can.
    module, _ = build_counted_loop(25)
    spec = CampaignSpec(module_text=module_to_text(module) + "\n",
                        output_objects=("arr",), trials=48, seed=9,
                        dmax=40, batch_size=1)
    task = CampaignTask("c0001", spec, str(tmp_path / "served.jsonl"),
                        workers=4)
    seen = []

    async def watch():
        runner = asyncio.create_task(task.run())
        while not runner.done():
            seen.append(task.status()["aggregates"]["trials_done"])
            await asyncio.sleep(0)
        await runner

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        asyncio.run(asyncio.wait_for(watch(), 120))
    finally:
        sys.setswitchinterval(interval)
    assert task.state == COMPLETED
    assert seen == sorted(seen)
    outcomes = task.status()["aggregates"]["outcomes"]
    assert sum(outcomes.values()) == spec.trials
    assert len(load_journal(str(tmp_path / "served.jsonl"))[1]) == spec.trials


_LONG_POOLED_CAMPAIGN = """
import multiprocessing
from repro.cli import _load
from repro.runtime import run_campaign

def announce(index, trial):
    if not announced:
        announced.append(index)
        print(*(p.pid for p in multiprocessing.active_children()),
              flush=True)

announced = []
run_campaign(_load("examples/mc/crc32.mc"), trials=5000, seed=1, jobs=2,
             chunk_size=1, on_result=announce)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as handle:
            return "\nState:\tZ" not in handle.read()
    except FileNotFoundError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_the_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-c", _LONG_POOLED_CAMPAIGN],
        cwd=os.path.join(os.path.dirname(__file__), ".."),
        env=env, stdout=subprocess.PIPE, text=True,
    ) as parent:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        parent.kill()
    try:
        assert len(workers) == 2
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.1)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_in_order_journal_skips_journaled_indices(tmp_path):
    path = tmp_path / "gaps.jsonl"
    with CampaignJournal(str(path)) as journal:
        journal.write_header({"seed": 1})
        ordered = InOrderJournal(journal, done={0, 2, 5})
        for index in (4, 6, 1, 3):
            ordered.record(index, infra_error_trial())
        assert ordered.held == 0
    indices = [json.loads(line)["index"]
               for line in path.read_text().splitlines()[1:]]
    assert indices == [1, 3, 4, 6]
    assert sorted(load_journal(str(path))[1]) == [1, 3, 4, 6]


def test_stream_journal_yields_a_line_before_the_stream_ends():
    line = b'{"kind":"campaign","version":1}\n'
    release = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
                + f"{len(line):x}\r\n".encode() + line + b"\r\n"
            )
            release.wait(30)
            conn.sendall(b"0\r\n\r\n")

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    client = ServiceClient(f"http://127.0.0.1:{listener.getsockname()[1]}")
    stream = client.stream_journal("c0001", timeout=5)
    try:
        assert next(stream) == line
        assert not release.is_set()
        release.set()
        assert list(stream) == []
    finally:
        release.set()
        stream.close()
        server.join(5)
        listener.close()
