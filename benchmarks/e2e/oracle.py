"""The correctness oracle applied after every timed campaign.

A campaign passes when its journal has the header the campaign's
configuration implies, holds exactly one line per trial, agrees with
what the executor reported, and every tenth trial re-executed on the
reference interpreter (the specification) gives the journaled result.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.runtime import JournalError, load_journal
from repro.runtime.sfi import TrialResult

TRIAL_MARKER = b'{"kind":"trial"'


def histogram(trials: Iterable[TrialResult]) -> Dict[str, int]:
    return dict(sorted(Counter(t.outcome for t in trials).items()))


def check_journal(
    path: Path,
    expected_meta: Dict[str, Any],
    trials: int,
    returned: Optional[List[TrialResult]] = None,
    outcomes: Optional[Dict[str, int]] = None,
) -> Tuple[Dict[int, TrialResult], Set[int], List[str]]:
    """Check one campaign journal.

    ``returned`` is the trial list the in-process executor returned and
    ``outcomes`` the tally a server reported; the journal must agree
    with whichever is given.  Returns the journaled records, the trial
    indices that count as failed, and one line per problem.  A problem
    with the campaign as a whole fails all of its trials.
    """
    everything = set(range(trials))
    try:
        meta, records = load_journal(str(path))
        lines = sum(1 for line in path.read_bytes().splitlines()
                    if line.startswith(TRIAL_MARKER))
    except (OSError, JournalError) as exc:
        return {}, everything, [f"{path.name}: {exc}"]
    problems: List[str] = []
    failed: Set[int] = set()
    if meta != expected_meta:
        problems.append(f"{path.name}: header differs from the campaign")
        failed |= everything
    if lines != trials or records.keys() != everything:
        problems.append(f"{path.name}: {lines} trial lines for "
                        f"{len(records)} indices, expected {trials}")
        failed |= everything
    infra = {i for i, t in records.items() if t.outcome == "infra_error"}
    if infra:
        problems.append(f"{path.name}: {len(infra)} infra_error trials")
        failed |= infra
    if returned is not None:
        differ = {i for i, t in enumerate(returned) if records.get(i) != t}
        if differ:
            problems.append(f"{path.name}: {len(differ)} trials differ from "
                            "what run_campaign returned")
            failed |= differ
    if outcomes is not None and histogram(records.values()) != dict(
            sorted((k, v) for k, v in outcomes.items() if v)):
        problems.append(f"{path.name}: outcome tally differs from the "
                        "server's")
        failed |= everything
    return records, failed, problems


def spot_check(
    records: Dict[int, TrialResult],
    indices: Iterable[int],
    execute: Callable[[int], TrialResult],
) -> Tuple[Set[int], List[float]]:
    """Re-execute ``indices`` and compare with the journal.

    Returns the mismatching indices and the seconds each re-execution
    took.
    """
    failed: Set[int] = set()
    seconds: List[float] = []
    for index in indices:
        start = time.perf_counter()
        result = execute(index)
        seconds.append(time.perf_counter() - start)
        if records.get(index) != result:
            failed.add(index)
    return failed, seconds
