"""Crash-tolerant campaign journals: append-only JSONL under ``results/``.

A campaign journal records one line per completed trial — ``(seed,
trial_index, outcome, ...)`` — plus a header line fingerprinting the
campaign configuration.  Because every trial is a pure function of
``(seed, trial_index)`` (see :func:`repro.runtime.sfi.derive_trial_seed`),
a campaign that crashed — worker death, power loss, ctrl-C — can be
resumed from its journal and produce results bit-identical to an
uninterrupted serial run: journaled trials are replayed verbatim, the
rest re-derive exactly the plans the lost run would have executed.

The format is deliberately dumb:

* line 1: ``{"kind": "campaign", "version": 1, ...metadata}``
* then:   ``{"kind": "trial", "index": i, "outcome": ..., ...}``

Appends are flushed per record.  A line is complete only once its
newline is on disk: a final line torn by a crash mid-write is ignored
on load (it will simply be re-run), and the next writer cuts it off
before its first append (:func:`cut_torn_tail`).  Any other line that
does not decode refuses the whole journal.  Records are written in
trial order (:class:`InOrderJournal`), except after an interrupted
parallel run, whose finished results are flushed out of order; a
record may also be duplicated.  The last record for an index wins,
which is safe because records for the same index are identical by
determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

from repro.runtime.config import NONDEFAULT, CampaignConfig, campaign_config
from repro.runtime.detection import DetectionModel
from repro.runtime.sfi import TrialResult

JOURNAL_VERSION = 1

#: Default directory for campaign journals.
DEFAULT_JOURNAL_DIR = "results"


class JournalError(ValueError):
    """The journal is unreadable or does not match the campaign."""


def module_fingerprint(module) -> str:
    """A stable digest of the module under test, for resume validation."""
    from repro.ir.printer import module_to_text

    return hashlib.sha256(module_to_text(module).encode()).hexdigest()[:16]


def header_fingerprint(metadata: Dict[str, Any]) -> str:
    """A stable digest of a whole campaign header (canonical JSON), so a
    resume refusal can name both sides in one line instead of forcing a
    manual diff of two journal files."""
    canonical = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def campaign_metadata(
    module,
    seed: Optional[int] = None,
    detector: Optional[DetectionModel] = None,
    *,
    config: Optional[CampaignConfig] = None,
    incremental: Optional[Dict[str, Any]] = None,
    **knobs,
) -> Dict[str, Any]:
    """The identity of a campaign: everything that determines its plans.

    ``config`` is the campaign (``seed``, ``detector`` and ``knobs``
    override its fields, see
    :func:`~repro.runtime.config.campaign_config`).  The keys of the
    paper's plain campaign are always written.  Every later knob is
    written according to its field's ``header`` rule: only when it
    differs from its default (or, for a companion such as
    ``cfe_detector``, only alongside the knob it qualifies).  A
    campaign that leaves the later knobs alone therefore writes a
    header byte-identical to the format that predates them, so old
    journals resume unchanged.  Because :func:`validate_resume`
    compares the *union* of header keys, any cross-config resume — a
    different backend, thread count, quantum, fault surface, output set
    or recovery policy — is refused loudly.
    """
    if seed is not None:
        knobs["seed"] = seed
    config = campaign_config(config, detector=detector, **knobs)
    meta: Dict[str, Any] = {
        "seed": config.seed,
        "function": config.function,
        "args": list(config.args),
        "faults_per_trial": config.faults_per_trial,
        "recovery_faults_per_trial": config.recovery_faults_per_trial,
        "detector": {
            "dmax": config.dmax,
            "kind": config.detector_kind,
            "coverage": config.detector_coverage,
        },
        "module": module_fingerprint(module),
    }
    for field in dataclasses.fields(CampaignConfig):
        rule = field.metadata["header"]
        value = getattr(config, field.name)
        if (rule == NONDEFAULT and value != field.default) or rule in meta:
            meta[field.name] = (
                list(value) if isinstance(value, tuple) else value
            )
    if incremental is not None:
        # Same conditional-emission rule: the key exists only for
        # incremental campaigns, and validate_resume's union comparison
        # then refuses to resume one as (or from) a plain campaign.
        meta["incremental"] = incremental
    return meta


class CampaignJournal:
    """Append-side handle: write the header once, then stream records.

    ``fsync=True`` makes every append durable against power loss at a
    measurable throughput cost (see ``benchmarks/bench_supervisor.py``);
    the default flushes to the OS, which already survives process
    crashes — the campaign's own failure mode.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._handle: Optional[TextIO] = None

    def _open(self) -> TextIO:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            cut_torn_tail(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _write(self, record: Dict[str, Any]) -> None:
        handle = self._open()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def write_header(self, metadata: Dict[str, Any]) -> None:
        self._write(
            {"kind": "campaign", "version": JOURNAL_VERSION, **metadata}
        )

    def record(self, index: int, trial: TrialResult) -> None:
        fields = dataclasses.asdict(trial)
        if fields.get("section") is None:
            # Non-incremental campaigns carry no attribution; dropping
            # the key keeps their records byte-identical to the
            # pre-incremental format.
            fields.pop("section", None)
        self._write({"kind": "trial", "index": index, **fields})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InOrderJournal:
    """A hold-back writer: appends records strictly in index order.

    It wraps any journal with a ``record(index, item)`` method — a
    :class:`CampaignJournal` or a fuzz journal.  Parallel and served
    campaigns complete out of order; this wrapper buffers results and
    appends them in index order, first delivery wins — so the journal a
    sharded campaign writes is *byte-identical* to the one a serial run
    writes.  Indices in ``done`` (already journaled by a resumed
    campaign) are skipped, so a journal with gaps still drains.

    ``flush_out_of_order()`` abandons the in-order guarantee and dumps
    whatever is buffered beyond the contiguous prefix: the interrupt
    and drain paths use it so completed work survives — the journal
    format tolerates out-of-order records, only byte-identity is lost.
    """

    def __init__(self, journal, start_index: int = 0,
                 done: Iterable[int] = ()) -> None:
        self.journal = journal
        self._held: Dict[int, Any] = {}
        self._cursor = start_index
        self._written = set(done)
        self._advance()

    @property
    def held(self) -> int:
        """Out-of-order results currently buffered."""
        return len(self._held)

    def record(self, index: int, item: Any) -> None:
        if index in self._written or index in self._held or index < self._cursor:
            return  # duplicate delivery (retried batch): first wins
        self._held[index] = item
        self._advance()

    def _advance(self) -> None:
        while True:
            if self._cursor in self._held:
                self.journal.record(self._cursor, self._held.pop(self._cursor))
                self._written.add(self._cursor)
            elif self._cursor not in self._written:
                return
            self._cursor += 1

    def flush_out_of_order(self) -> None:
        """Append every held record regardless of order (drain path)."""
        for index in sorted(self._held):
            self.journal.record(index, self._held.pop(index))
            self._written.add(index)

    def close(self) -> None:
        self.journal.close()


def cut_torn_tail(path: str) -> None:
    """Cut a final line torn by a crash back to the last newline.

    Appending straight onto a torn fragment would glue the next record
    to it and lose that record on load; every journal writer calls this
    before its first append.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        handle.truncate(handle.read().rfind(b"\n") + 1)


def journal_lines(path: str) -> Tuple[List[Tuple[int, Dict[str, Any]]], bool]:
    """Decode a JSONL journal: ``([(lineno, record), ...], torn)``.

    A line is complete once its newline is on disk.  Bytes after the
    last newline are a line torn by a crash mid-append: they are left
    out and ``torn`` is true.  Blank lines are skipped; any complete
    line that is not a JSON object raises :class:`JournalError` naming
    it, because no crash of the writer can produce one.
    """
    with open(path, "rb") as handle:
        *lines, tail = handle.read().split(b"\n")
    decoded: List[Tuple[int, Dict[str, Any]]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:  # JSON or UTF-8 decoding
            record = None
        if not isinstance(record, dict):
            raise JournalError(f"{path}:{lineno}: corrupt journal line")
        decoded.append((lineno, record))
    return decoded, bool(tail)


def load_journal(path: str) -> Tuple[Dict[str, Any], Dict[int, TrialResult]]:
    """Read a journal back: ``(metadata, {index: TrialResult})``.

    Tolerates a torn final line (crash mid-append) and duplicate
    records.  Raises :class:`JournalError` when the file has no valid
    header or a corrupt complete line (see :func:`journal_lines`).
    """
    metadata: Optional[Dict[str, Any]] = None
    completed: Dict[int, TrialResult] = {}
    fields = {f.name for f in dataclasses.fields(TrialResult)}
    lines, torn = journal_lines(path)
    for _lineno, record in lines:
        kind = record.get("kind")
        if kind == "campaign":
            if record.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"journal version {record.get('version')} != "
                    f"{JOURNAL_VERSION}"
                )
            metadata = {
                k: v for k, v in record.items()
                if k not in ("kind", "version")
            }
        elif kind == "trial" and metadata is not None:
            index = record.get("index")
            payload = {k: v for k, v in record.items() if k in fields}
            if isinstance(index, int) and "outcome" in payload:
                completed[index] = TrialResult(**payload)
    if metadata is None:
        if torn:
            raise JournalError(
                f"{path} has no valid campaign header: its header line "
                "is torn or corrupt (crash mid-write?); the journal "
                "cannot be trusted — delete it and restart the campaign"
            )
        raise JournalError(f"{path} has no campaign header")
    return metadata, completed


def validate_resume(
    journal_meta: Dict[str, Any], current_meta: Dict[str, Any]
) -> None:
    """Refuse to resume a journal written by a different campaign.

    Everything in the header must match — the journaled results are
    only valid verbatim if the plans they came from are the plans this
    campaign would derive.  (Trial *count* is deliberately absent from
    the metadata: per-trial seeding is prefix-stable, so a journal may
    be resumed into a longer or shorter campaign.)  The comparison is
    symmetric over the union of keys: a journal carrying a key the
    current campaign lacks (e.g. a metadata-fault campaign resumed as a
    plain one) mismatches just as loudly as the reverse.
    """
    mismatched = [
        key for key in sorted(set(journal_meta) | set(current_meta))
        if journal_meta.get(key) != current_meta.get(key)
    ]
    if mismatched:
        detail = ", ".join(
            f"{key}: journal={journal_meta.get(key)!r} != "
            f"campaign={current_meta.get(key)!r}"
            for key in mismatched
        )
        raise JournalError(
            "journal does not match this campaign: header fingerprints "
            f"journal={header_fingerprint(journal_meta)} != "
            f"campaign={header_fingerprint(current_meta)}; "
            f"differing keys ({detail})"
        )


def default_journal_path(module_name: str, seed: int) -> str:
    """The conventional journal location: ``results/sfi_<module>_s<seed>.jsonl``."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in module_name)
    return os.path.join(DEFAULT_JOURNAL_DIR, f"sfi_{safe}_s{seed}.jsonl")
