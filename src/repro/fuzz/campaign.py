"""Budgeted, journaled, parallel differential-fuzzing campaigns.

A fuzz campaign enumerates program indices ``start .. start+budget-1``;
index ``i`` deterministically names the program generated from
``derive_program_seed(seed, i)``, so — exactly like SFI trials — the
work partitions across processes in any chunking whatsoever and still
produces the serial result bit for bit.  ``jobs > 1`` runs programs on
the same supervised executor as SFI campaigns
(:class:`repro.runtime.parallel.Executor`): workers receive the
settings once, pull index batches, and stream each record back.

**Journal.** Every completed program appends one JSON line to an
optional journal file (same discipline as
:mod:`repro.runtime.journal`): a header pins the campaign identity —
seed, generator profile, oracle list, campaign-oracle sampling stride,
and the full generator configuration — and records follow *in index
order* (:class:`repro.runtime.journal.InOrderJournal` holds back
out-of-order parallel completions).  Nothing nondeterministic (wall
clock, job count, host) is ever written, so the SHA-256 of the journal
bytes doubles as the campaign fingerprint: two runs agree iff their
journals are bit-identical.  Resume works like SFI campaigns: records
already in the journal are trusted and skipped, a line torn by a crash
is cut off, and new records are appended.

**Dedup and corpus.** Findings are deduplicated by ``(oracle,
fingerprint)`` — the coarse failure class, not the concrete program —
and only the *first* failing index of each class (in index order, so
independent of ``jobs``) is delta-debugged into a minimal repro, which
is written to the corpus directory as ``<oracle>-<fingerprint>.ir``
with its replay command in the header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.fuzz.generator import (
    PROFILES,
    derive_program_seed,
    generate_program,
)
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    ORACLE_REGISTRY,
    make_oracles,
    run_oracles,
)
from repro.fuzz.reduce import ReductionResult, count_instructions, reduce_program
from repro.runtime.journal import (
    InOrderJournal,
    JournalError,
    cut_torn_tail,
    journal_lines,
)
from repro.runtime.parallel import Executor

JOURNAL_VERSION = 1

#: Run the (expensive, pool-spawning) campaign-equivalence oracle on
#: every Nth program rather than all of them.
DEFAULT_CAMPAIGN_EVERY = 25


@dataclasses.dataclass(frozen=True)
class FuzzSettings:
    """Everything that identifies a campaign's work (journal header)."""

    seed: int = 0
    profile: str = "default"
    oracles: Tuple[str, ...] = DEFAULT_ORACLES
    campaign_every: int = DEFAULT_CAMPAIGN_EVERY

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; "
                f"expected {sorted(PROFILES)}"
            )
        unknown = [n for n in self.oracles if n not in ORACLE_REGISTRY]
        if unknown:
            raise ValueError(f"unknown oracle(s) {unknown}")

    def header(self) -> Dict:
        return {
            "kind": "fuzz-journal",
            "version": JOURNAL_VERSION,
            "seed": self.seed,
            "profile": self.profile,
            "generator": PROFILES[self.profile].key(),
            "oracles": list(self.oracles),
            "campaign_every": self.campaign_every,
        }


@dataclasses.dataclass(frozen=True)
class FuzzRecord:
    """One fuzzed program's outcome (one journal line)."""

    index: int
    program_seed: int
    name: str
    instructions: int
    failures: Tuple[Dict, ...] = ()

    def to_json(self) -> Dict:
        record = {
            "index": self.index,
            "program_seed": self.program_seed,
            "name": self.name,
            "instructions": self.instructions,
        }
        if self.failures:
            record["failures"] = list(self.failures)
        return record

    @classmethod
    def from_json(cls, data: Dict) -> "FuzzRecord":
        return cls(
            index=data["index"],
            program_seed=data["program_seed"],
            name=data["name"],
            instructions=data["instructions"],
            failures=tuple(data.get("failures", ())),
        )


@dataclasses.dataclass
class FuzzResult:
    """A finished (or finished-so-far) campaign."""

    settings: FuzzSettings
    records: List[FuzzRecord]
    reductions: List[ReductionResult]
    executed: int
    resumed: int
    elapsed: float
    jobs: int

    @property
    def failures(self) -> List[Tuple[int, Dict]]:
        return [
            (record.index, failure)
            for record in self.records
            for failure in record.failures
        ]

    @property
    def unique_failures(self) -> Dict[Tuple[str, str], Tuple[int, Dict]]:
        """First failing index per (oracle, fingerprint), index order."""
        unique: Dict[Tuple[str, str], Tuple[int, Dict]] = {}
        for index, failure in self.failures:
            key = (failure["oracle"], failure["fingerprint"])
            unique.setdefault(key, (index, failure))
        return unique

    def fingerprint(self) -> str:
        """Campaign digest: the journal bytes this run (re)produces."""
        payload = json.dumps(self.settings.header(), sort_keys=True)
        lines = [payload] + [
            json.dumps(record.to_json(), sort_keys=True)
            for record in self.records
        ]
        return hashlib.sha256(
            ("\n".join(lines) + "\n").encode()
        ).hexdigest()

    def summary(self) -> str:
        per_oracle: Dict[str, int] = {}
        for _, failure in self.failures:
            per_oracle[failure["oracle"]] = (
                per_oracle.get(failure["oracle"], 0) + 1
            )
        lines = [
            f"programs          {len(self.records)}",
            f"failures          {len(self.failures)}",
            f"unique failures   {len(self.unique_failures)}",
        ]
        for name in self.settings.oracles:
            if name in per_oracle:
                lines.append(f"  {name:<16}{per_oracle[name]}")
        for key, (index, _) in sorted(self.unique_failures.items()):
            lines.append(f"  {key[0]}:{key[1]}  first at program {index}")
        for reduction in self.reductions:
            lines.append(
                f"reduced {reduction.oracle}:{reduction.fingerprint}  "
                f"{reduction.initial_instructions} -> "
                f"{reduction.final_instructions} instructions"
            )
        lines.append(f"fingerprint       {self.fingerprint()}")
        return "\n".join(lines)


# -- journal ----------------------------------------------------------


class FuzzJournal:
    """Append-only JSONL journal, torn-tail tolerant; wrapped in an
    :class:`~repro.runtime.journal.InOrderJournal` it is written in
    index order."""

    def __init__(self, path, settings: FuzzSettings) -> None:
        self.path = Path(path)
        self.settings = settings
        cut_torn_tail(str(self.path))
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if not exists:
            self._write(settings.header())

    def _write(self, payload: Dict) -> None:
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, index: int, record: FuzzRecord) -> None:
        self._write(record.to_json())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "FuzzJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_fuzz_journal(path) -> Tuple[Dict, Dict[int, FuzzRecord]]:
    """Read a journal back; tolerates a torn final line.

    Raises :class:`~repro.runtime.journal.JournalError` (a
    ``ValueError``) naming the problem when the file is empty, its
    header is torn or foreign, or a complete line is corrupt.
    """
    lines, torn = journal_lines(str(path))
    if not lines:
        raise JournalError(
            f"fuzz journal {path} has a torn header" if torn
            else f"fuzz journal {path} is empty"
        )
    (_, header), *rows = lines
    if header.get("kind") != "fuzz-journal":
        raise JournalError(f"{path} is not a fuzz journal")
    records: Dict[int, FuzzRecord] = {}
    for lineno, data in rows:
        try:
            record = FuzzRecord.from_json(data)
        except KeyError:
            raise JournalError(
                f"{path}:{lineno}: corrupt journal record"
            ) from None
        records[record.index] = record
    return header, records


def validate_fuzz_resume(header: Dict, settings: FuzzSettings) -> None:
    expected = settings.header()
    mismatched = [
        key for key in expected
        if header.get(key) != expected[key]
    ]
    if mismatched:
        raise ValueError(
            "fuzz journal does not match this campaign "
            f"(mismatched: {', '.join(sorted(mismatched))}); "
            "refusing to resume"
        )


# -- one program ------------------------------------------------------


def run_program(settings: FuzzSettings, index: int) -> FuzzRecord:
    """Generate and check program ``index`` — the unit of fuzz work."""
    program_seed = derive_program_seed(settings.seed, index)
    program = generate_program(program_seed, PROFILES[settings.profile])
    names = [
        name for name in settings.oracles
        if name != "campaign" or (
            settings.campaign_every > 0
            and index % settings.campaign_every == 0
        )
    ]
    failures = run_oracles(program, make_oracles(names))
    return FuzzRecord(
        index=index,
        program_seed=program_seed,
        name=program.name,
        instructions=count_instructions(program.module),
        failures=tuple(
            {
                "oracle": f.oracle,
                "kind": f.kind,
                "fingerprint": f.fingerprint,
                "detail": f.detail,
            }
            for f in failures
        ),
    )


# -- the campaign -----------------------------------------------------


def _lost_program(index: int) -> FuzzRecord:
    raise RuntimeError(f"fuzz program {index} killed its worker on every "
                       "retry")


def run_fuzz_campaign(
    settings: FuzzSettings,
    budget: int,
    start: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    journal: Optional[FuzzJournal] = None,
    completed: Optional[Dict[int, FuzzRecord]] = None,
    corpus_dir=None,
    reduce: bool = True,
    max_reduce_checks: int = 2000,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzResult:
    """Fuzz ``budget`` programs; dedup, reduce, and journal findings.

    ``completed`` (from :func:`load_fuzz_journal`) seeds the campaign
    with already-finished indices; only the remainder executes, and
    only newly-executed records are appended to ``journal``.  The
    returned record list always covers the full index range in order,
    so resumed campaigns summarize identically to uninterrupted ones.
    """
    started = time.monotonic()
    indices = list(range(start, start + budget))
    completed = completed or {}
    results: Dict[int, FuzzRecord] = {
        i: completed[i] for i in indices if i in completed
    }
    pending = [i for i in indices if i not in results]
    total = len(indices)
    # Records leave for the journal strictly in index order, so parallel
    # journals are byte-identical to serial ones.  A Ctrl-C leaves the
    # held-back records unwritten: they re-run on resume, which keeps
    # the resumed journal byte-identical too.
    ordered = (
        InOrderJournal(journal, start_index=start, done=results)
        if journal is not None else None
    )

    def deliver(index: int, record: FuzzRecord) -> None:
        results[index] = record
        if ordered is not None:
            ordered.record(index, record)
        if progress:
            progress(len(results), total)

    if jobs <= 1 or len(pending) <= 1:
        for index in pending:
            deliver(index, run_program(settings, index))
    else:
        Executor(
            run_program, {index: index for index in pending},
            payload=settings, workers=jobs, batch_size=chunk_size,
            lost=_lost_program, on_result=deliver,
        ).run()

    records = [results[i] for i in indices]
    result = FuzzResult(
        settings=settings,
        records=records,
        reductions=[],
        executed=len(pending),
        resumed=total - len(pending),
        elapsed=0.0,
        jobs=jobs,
    )

    if reduce:
        result.reductions = reduce_findings(
            result, corpus_dir=corpus_dir,
            max_checks=max_reduce_checks,
        )

    result.elapsed = time.monotonic() - started
    return result


def reduce_findings(
    result: FuzzResult,
    corpus_dir=None,
    max_checks: int = 2000,
) -> List[ReductionResult]:
    """Shrink the first witness of each unique failure; fill the corpus.

    Runs in the driver process, in sorted ``(oracle, fingerprint)``
    order — byte-identical output for any ``jobs``.  A finding whose
    failure refuses to reproduce (it never should) is skipped rather
    than aborting the campaign.
    """
    settings = result.settings
    reductions: List[ReductionResult] = []
    if corpus_dir is not None:
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
    for (oracle_name, fingerprint), (index, _failure) in sorted(
        result.unique_failures.items()
    ):
        program_seed = derive_program_seed(settings.seed, index)
        program = generate_program(
            program_seed, PROFILES[settings.profile]
        )
        oracle = make_oracles([oracle_name])[0]
        try:
            reduction = reduce_program(
                program, oracle, fingerprint, max_checks=max_checks
            )
        except ValueError:
            continue
        reduction.profile = settings.profile
        reductions.append(reduction)
        if corpus_dir is not None:
            path = corpus_dir / f"{oracle_name}-{fingerprint}.ir"
            path.write_text(reduction.render() + "\n", encoding="utf-8")
    return reductions
