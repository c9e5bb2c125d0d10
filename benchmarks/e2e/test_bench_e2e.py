"""Self-test of the end-to-end benchmark at smoke size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; about half
a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

from compare import verdict  # noqa: E402
from oracle import check_journal, spot_check  # noqa: E402
from repro.runtime import DetectionModel  # noqa: E402
from repro.runtime.memory import MachineMemory  # noqa: E402
from repro.runtime.sfi import golden_run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DMAX,
    WORKLOADS,
    metadata,
    replay_trial,
    run_inline,
    set_up,
)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def smoke(tmp_path: Path, tag: str, trace: int):
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke",
         "--seconds", "1", "--trace", str(trace), "--json", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_e2e")
    return {
        "plain": smoke(tmp, "plain", 0),
        "traced": smoke(tmp, "traced", 1),
        "traced_again": smoke(tmp, "traced_again", 1),
    }


@pytest.mark.parametrize("tag, section",
                         [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, tag, section):
    stdout, record = runs[tag]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    lines = [line.split() for line in stdout.splitlines()
             if not line.startswith(("#", "{"))]
    printed = {(words[0], words[1]): words[-1] for words in lines}
    for workload in record["order"]:
        for metric in SPEC[section]:
            assert printed[(workload, metric["name"])] == metric["unit"]
            key = f"{workload}.{metric['name']}"
            assert last["metrics"][key]["unit"] == metric["unit"]
    if tag == "traced":
        for result in record["results"].values():
            spans = json.loads((REPO_ROOT / result["spans"]).read_text())
            assert spans["spans"] and spans["self_s"]


def test_smoke_runs_repeat_their_deterministic_counts(runs):
    first = runs["traced"][1]["results"]
    again = runs["traced_again"][1]["results"]
    assert first.keys() == again.keys()
    for workload in first:
        assert first[workload]["counts"] == again[workload]["counts"]
        assert "sfi.rollbacks" in first[workload]["counts"]


@pytest.mark.parametrize("index", [0, 3])
def test_a_tampered_trial_line_fails_the_oracle(tmp_path, index):
    workload = WORKLOADS["pool-crc32"].smoke()
    program, _ = set_up(workload, Tracer(enabled=False))
    detector = DetectionModel(dmax=DMAX)
    run = run_inline(workload, program, detector, 7, 0,
                     tmp_path / "campaign.jsonl")
    expected = metadata(workload, program, run.seed, detector)
    image = MachineMemory.pristine(program.module)
    golden = golden_run(program.module, memory_image=image,
                        **program.run_kwargs())

    def reference(i):
        return replay_trial(workload, program, golden, image, detector,
                            run.seed, i, engine="reference")

    records, failed, problems = check_journal(
        run.journal, expected, run.trials, returned=run.results)
    mismatched, _ = spot_check(records, range(0, run.trials, 10), reference)
    assert not failed and not problems and not mismatched

    lines = run.journal.read_text().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines)
                  if f'"index":{index},' in line)
    original = json.loads(lines[target])
    tampered = dict(original, outcome=(
        "sdc" if original["outcome"] != "sdc" else "masked"))
    lines[target] = json.dumps(tampered, separators=(",", ":")) + "\n"
    run.journal.write_text("".join(lines))

    records, failed, problems = check_journal(
        run.journal, expected, run.trials, returned=run.results)
    mismatched, _ = spot_check(records, range(0, run.trials, 10), reference)
    assert index in failed and problems
    assert (index in mismatched) == (index % 10 == 0)


@pytest.mark.parametrize("parent, change, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [120, 121, 119, 122, 118, 120, 121, 119, 120, 120], "gain"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "regression"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [99, 100, 101, 100, 98, 102, 100, 99, 101, 100], "same"),
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    def by_seed(values):
        return {seed: [value] for seed, value in enumerate(values)}

    name, _ = verdict(by_seed(parent), by_seed(change), "higher", 0.10)
    assert name == expected
