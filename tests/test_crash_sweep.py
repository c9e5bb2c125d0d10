"""Persistence under a crash at *every* point, not at sampled points.

Each persisted file — a campaign journal, a fuzz journal and the
incremental section store — is cut at every byte offset.  A cut must
either refuse with a named error or load exactly the complete records
before it, and resuming a cut journal must reproduce the one-shot
bytes.  The writer's cut-and-append runs at every offset; the real
resume runs once per distinct set of surviving records, from the
longest cut that leaves that set (a record torn just before its
newline).
"""

from __future__ import annotations

import pytest

from helpers import build_counted_loop, build_two_function_workload
from repro.cli import main
from repro.encore import compile_for_encore
from repro.fuzz import (
    FuzzJournal,
    FuzzSettings,
    load_fuzz_journal,
    run_fuzz_campaign,
    validate_fuzz_resume,
)
from repro.incremental import IncrementalError, SectionStore
from repro.ir import module_to_text
from repro.runtime import (
    CampaignJournal,
    InOrderJournal,
    JournalError,
    load_journal,
)

FUZZ = FuzzSettings(seed=7, profile="small",
                    oracles=("opt", "conservative"), campaign_every=0)


def _line_ends(data: bytes):
    """Offsets just past each newline: where complete lines end."""
    return [offset + 1 for offset, byte in enumerate(data) if byte == 0x0A]


def _sweep(data, cut, load, append_missing):
    """Cut ``data`` at every offset into ``cut``.  Cuts inside the
    header must refuse; every other cut must load exactly the complete
    records before it, and ``append_missing`` must restore the one-shot
    bytes.  Returns ``{survivors: longest offset}``."""
    ends = _line_ends(data)
    longest = {}
    for offset in range(len(data) + 1):
        cut.write_bytes(data[:offset])
        if offset < ends[0]:
            with pytest.raises(JournalError):
                load(cut)
            continue
        survivors = sum(1 for end in ends[1:] if end <= offset)
        completed = load(cut)
        assert sorted(completed) == list(range(survivors)), offset
        append_missing(completed)
        assert cut.read_bytes() == data, offset
        longest[survivors] = offset
    return longest


@pytest.fixture
def loop_ir(tmp_path):
    module, _ = build_counted_loop(15)
    path = tmp_path / "loop.ir"
    path.write_text(module_to_text(module) + "\n")
    return path


def _inject(module_path, trials, *flags):
    assert main(["inject", str(module_path), "--trials", str(trials),
                 "--outputs", "arr", "--dmax", "10", "--seed", "9",
                 *flags]) == 0


class TestCampaignJournal:
    def test_every_cut_refuses_or_resumes_to_one_shot(self, loop_ir,
                                                       tmp_path):
        one_shot = tmp_path / "one-shot.jsonl"
        _inject(loop_ir, 6, "--journal", str(one_shot))
        data = one_shot.read_bytes()
        assert len(_line_ends(data)) == 7
        _, trials = load_journal(str(one_shot))
        cut = tmp_path / "cut.jsonl"

        def append_missing(completed):
            for index, trial in completed.items():
                assert trial == trials[index]
            with CampaignJournal(str(cut)) as journal:
                ordered = InOrderJournal(journal, done=completed)
                for index in reversed(range(6)):
                    ordered.record(index, trials[index])

        longest = _sweep(data, cut, lambda p: load_journal(str(p))[1],
                         append_missing)
        assert sorted(longest) == list(range(7))
        for survivors, offset in sorted(longest.items()):
            cut.write_bytes(data[:offset])
            _inject(loop_ir, 6, "--resume", str(cut))
            assert cut.read_bytes() == data, survivors

    def test_torn_last_line_resumes_without_losing_a_record(self, tmp_path):
        # A 5-trial crc32 journal whose last line a crash cut to 40
        # bytes, resumed into 12 trials: appending onto the fragment
        # used to glue trial 4 to it, and the loader dropped both.
        crc32 = "examples/mc/crc32.mc"
        flags = ["--seed", "7"]
        one_shot = tmp_path / "one-shot.jsonl"
        assert main(["inject", crc32, "--trials", "12", *flags,
                     "--journal", str(one_shot)]) == 0
        journal = tmp_path / "torn.jsonl"
        assert main(["inject", crc32, "--trials", "5", *flags,
                     "--journal", str(journal)]) == 0
        data = journal.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        journal.write_bytes(data[:last + 40])
        assert main(["inject", crc32, "--trials", "12", *flags,
                     "--resume", str(journal)]) == 0
        assert sorted(load_journal(str(journal))[1]) == list(range(12))
        assert journal.read_bytes() == one_shot.read_bytes()

    def test_corrupt_line_before_the_last_refuses_by_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_bytes(b'{"kind":"campaign","version":1}\n'
                         b'{"kind":"trial","ind\n'
                         b'{"kind":"trial","index":1}\n')
        with pytest.raises(JournalError, match=r"corrupt.jsonl:2"):
            load_journal(str(path))


class TestFuzzJournal:
    def test_every_cut_refuses_or_resumes_to_one_shot(self, tmp_path):
        one_shot = tmp_path / "one-shot.jsonl"
        with FuzzJournal(one_shot, FUZZ) as journal:
            full = run_fuzz_campaign(FUZZ, budget=4, journal=journal,
                                     reduce=False)
        data = one_shot.read_bytes()
        assert len(_line_ends(data)) == 5
        cut = tmp_path / "cut.jsonl"

        def append_missing(completed):
            for index, record in completed.items():
                assert record == full.records[index]
            with FuzzJournal(cut, FUZZ) as journal:
                ordered = InOrderJournal(journal, done=completed)
                for record in reversed(full.records):
                    ordered.record(record.index, record)

        longest = _sweep(data, cut, lambda p: load_fuzz_journal(p)[1],
                         append_missing)
        assert sorted(longest) == list(range(5))
        for survivors, offset in sorted(longest.items()):
            cut.write_bytes(data[:offset])
            header, completed = load_fuzz_journal(cut)
            validate_fuzz_resume(header, FUZZ)
            with FuzzJournal(cut, FUZZ) as journal:
                resumed = run_fuzz_campaign(
                    FUZZ, budget=4, journal=journal, completed=completed,
                    reduce=False,
                )
            assert resumed.resumed == survivors
            assert cut.read_bytes() == data, survivors

    def test_torn_last_line_resumes_to_one_shot_bytes(self, tmp_path):
        one_shot = tmp_path / "one-shot.jsonl"
        with FuzzJournal(one_shot, FUZZ) as journal:
            run_fuzz_campaign(FUZZ, budget=4, journal=journal, reduce=False)
        path = tmp_path / "torn.jsonl"
        with FuzzJournal(path, FUZZ) as journal:
            run_fuzz_campaign(FUZZ, budget=2, journal=journal, reduce=False)
        data = path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[:last + 40])
        assert main(["fuzz", "--seed", "7", "--profile", "small",
                     "--oracles", "opt,conservative", "--campaign-every",
                     "0", "--budget", "4", "--no-reduce",
                     "--resume", str(path)]) == 0
        assert sorted(load_fuzz_journal(path)[1]) == [0, 1, 2, 3]
        assert path.read_bytes() == one_shot.read_bytes()


class TestSectionStore:
    @pytest.fixture
    def store_bytes(self, tmp_path):
        module, _ = build_two_function_workload()
        module = compile_for_encore(module, clone=True).module
        ir = tmp_path / "twofn.ir"
        ir.write_text(module_to_text(module) + "\n")
        store = tmp_path / "store.json"
        assert main(["inject", str(ir), "--incremental", str(store),
                     "--trials", "20", "--outputs", "arr"]) == 0
        return ir, store

    def test_every_cut_refuses(self, store_bytes, tmp_path):
        _, store = store_bytes
        data = store.read_bytes()
        cache = SectionStore.open(str(store)).cache
        cut = tmp_path / "cut.json"
        for offset in range(len(data)):
            cut.write_bytes(data[:offset])
            with pytest.raises(IncrementalError, match="cut.json"):
                SectionStore.open(str(cut), cache=cache)
        cut.write_bytes(data)
        assert SectionStore.open(str(cut), cache=cache).loaded

    def test_damaged_store_exits_2_naming_it(self, store_bytes, capsys):
        ir, store = store_bytes
        data = store.read_bytes()
        store.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        assert main(["inject", str(ir), "--incremental", str(store),
                     "--trials", "20", "--outputs", "arr"]) == 2
        assert str(store) in capsys.readouterr().err
