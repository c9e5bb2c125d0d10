"""Spans around the benchmark's own calls into each layer, and the order
statistics the benchmark reports.

Spans live in memory and are written once, when the run ends, so a
span costs one dict and one list append while the campaign runs.  The
program itself records nothing: every span here is opened and closed by
benchmark code around a public ``repro`` call.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence


class Tracer:
    """Records ``(name, start, end, parent, campaign)`` spans.

    A disabled tracer hands out a shared no-op context, so the same
    code path runs traced and untraced and the difference between the
    two is the tracing overhead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._open: List[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, campaign: Optional[int] = None):
        if not self.enabled:
            return self._null
        return self._record(name, campaign)

    @contextlib.contextmanager
    def _record(self, name: str, campaign: Optional[int]):
        entry = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "campaign": campaign,
        }
        self._open.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield
        finally:
            entry["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its child spans cover.

        Children of one span run one after another, so the covered part
        is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            own = span["end"] - span["start"] - child
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path, layers: Dict[str, float]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "self_s": self.self_times(),
            "layers": layers,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
