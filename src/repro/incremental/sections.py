"""Sectioning and outcome attribution for incremental SFI campaigns.

A *section* is one (function, region) slice of a workload's fault-site
space: every dynamic instruction of the golden run belongs to the
section named by the function it executed in and the recovery region
that was live at that instant (``f@r0``, ``f@r1``, ... in first-
appearance order, ``f@-`` outside any protected region).  Fault sites
past the last register-writing event belong to the synthetic
``@dead`` section — an injection planned there never strikes.

Sections are keyed by **content-hash fingerprints** of their owning
function (the PR 3 discipline), so after an edit the store can tell
exactly which sections' persisted outcome distributions are stale.
Region ids are assigned by a module-global counter at instrumentation
time and therefore shift across functions when any one function is
recompiled; :func:`normalized_function_text` renumbers them to
function-local ordinals before hashing so a function's fingerprint
depends only on its own text.

:func:`capture_attribution` runs the golden execution once under the
reference interpreter and records, per dynamic event, everything the
incremental planner and the bit-level analytic classifier need:

* the section the event belongs to (= the section a fault injected
  there is attributed to),
* whether the instruction writes a register (only those events are
  injection sites),
* whether a recovery pointer was live at the event's post-step (the
  exact predicate ``request_rollback`` evaluates when a detection
  deadline fires there), and
* the static coordinate of the instruction, for dead-bit-mask lookup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.ir.printer import function_to_text
from repro.runtime.engine import make_interpreter
from repro.runtime.interpreter import ExecResult

#: Synthetic section for fault sites past the last register-writing
#: event: the planned injection never strikes (dead time), so the
#: outcome is exactly ``masked`` with no trial needed.
DEAD_SECTION = "@dead"

#: Region ids leak into instrumented text in exactly these shapes: the
#: ``r<id>`` operand of the five instrumentation opcodes, and the
#: ``__encore_rec_<id>`` / ``__encore_entry_<id>`` labels.  Registers
#: print as ``%name``, so a bare ``r<digits>`` after these opcodes is
#: unambiguous.
_REGION_TOKEN = re.compile(
    r"(__encore_(?:rec|entry)_"
    r"|(?:set_recovery_ptr|clear_recovery_ptr|ckpt_reg|ckpt_mem|restore) r)"
    r"(\d+)"
)


class IncrementalError(ValueError):
    """The incremental store or campaign configuration is unusable."""


def normalized_function_text(func) -> str:
    """The function's textual IR with region ids renumbered to
    function-local ordinals (by first textual appearance).

    Region ids come from a module-global counter, so recompiling one
    function shifts the ids embedded in every *other* function's
    instrumentation.  Hashing the normalized text makes a function's
    fingerprint a pure function of its own code.
    """
    mapping: Dict[str, str] = {}

    def rename(match: "re.Match[str]") -> str:
        ordinal = mapping.setdefault(match.group(2), str(len(mapping)))
        return match.group(1) + ordinal

    return _REGION_TOKEN.sub(rename, function_to_text(func))


def section_fingerprint(func) -> str:
    """Content hash of one function, stable under region-id shifts."""
    return hashlib.sha256(
        normalized_function_text(func).encode("utf-8")
    ).hexdigest()[:16]


def module_fingerprints(module: Module) -> Dict[str, str]:
    """``{function name: section fingerprint}`` for a whole module."""
    return {func.name: section_fingerprint(func) for func in module}


def region_ordinals(func) -> Dict[int, int]:
    """Map global region ids to function-local ordinals.

    Ordinals follow first textual appearance — the same order
    :func:`normalized_function_text` assigns — so section names like
    ``f@r0`` are stable across recompilations that shift global ids.
    """
    mapping: Dict[int, int] = {}
    for match in _REGION_TOKEN.finditer(function_to_text(func)):
        rid = int(match.group(2))
        mapping.setdefault(rid, len(mapping))
    return mapping


@dataclasses.dataclass
class SectionProfile:
    """Golden-run attribution of one workload's fault-site space.

    Parallel arrays over the ``events`` dynamic instructions of the
    golden run; ``section_names`` / ``keys`` are intern tables indexed
    by ``event_section`` / ``event_key``.  ``live[i]`` is the liveness
    of the top frame's recovery pointer at event *i*'s post-step —
    exactly what ``RecoverySupervisor.request_rollback`` consults when
    a detection deadline fires there.  ``mask_valid[i]`` is False for
    boundary events (call/ret) where the injector's destination frame
    differs from the event's frame: static dead-bit masks do not
    describe those injections, so they are never pruned.
    """

    events: int
    section_names: List[str]
    event_section: List[int]
    has_defs: List[bool]
    live: List[bool]
    keys: List[Tuple[str, str, int]]
    event_key: List[int]
    mask_valid: List[bool]
    fingerprints: Dict[str, str]
    golden: ExecResult

    def __post_init__(self) -> None:
        # Sites roll forward to the next register-writing event: the
        # injector strikes the first post-step >= site whose
        # instruction has a destination register.
        self.defs_events: List[int] = [
            i for i in range(self.events) if self.has_defs[i]
        ]
        # live_prefix[i] = number of live post-steps among events < i.
        prefix = [0]
        for flag in self.live:
            prefix.append(prefix[-1] + (1 if flag else 0))
        self.live_prefix: List[int] = prefix

    # -- site attribution ------------------------------------------------

    def injection_event(self, site: int) -> Optional[int]:
        """The event a fault planned at ``site`` actually strikes."""
        import bisect

        pos = bisect.bisect_left(self.defs_events, site)
        if pos >= len(self.defs_events):
            return None  # dead time: the plan never fires
        return self.defs_events[pos]

    def section_of_site(self, site: int) -> str:
        event = self.injection_event(site)
        if event is None:
            return DEAD_SECTION
        return self.section_names[self.event_section[event]]

    def site_weight(self, event: int) -> int:
        """How many of the ``events`` uniform sites roll to ``event``."""
        import bisect

        pos = bisect.bisect_left(self.defs_events, event)
        if pos >= len(self.defs_events) or self.defs_events[pos] != event:
            return 0
        prev = self.defs_events[pos - 1] if pos > 0 else -1
        return event - prev

    def section_weights(self) -> Dict[str, int]:
        """Site mass per section (counts of uniform sites), including
        the dead-time pseudo-section.  Sums to ``events``."""
        weights: Dict[str, int] = {}
        for event in self.defs_events:
            name = self.section_names[self.event_section[event]]
            weights[name] = weights.get(name, 0) + self.site_weight(event)
        dead = self.events - sum(weights.values())
        if dead:
            weights[DEAD_SECTION] = dead
        return weights

    def section_events(self) -> Dict[str, List[int]]:
        """Register-writing events per section, in event order."""
        table: Dict[str, List[int]] = {}
        for event in self.defs_events:
            name = self.section_names[self.event_section[event]]
            table.setdefault(name, []).append(event)
        return table

    def live_count(self, lo: int, hi: int) -> int:
        """Live post-steps among events in ``[lo, hi]`` (clamped)."""
        lo = max(lo, 0)
        hi = min(hi, self.events - 1)
        if hi < lo:
            return 0
        return self.live_prefix[hi + 1] - self.live_prefix[lo]


def capture_attribution(
    module: Module,
    function: str = "main",
    args: Sequence = (),
    output_objects: Sequence[str] = (),
    externals=None,
    max_steps: int = 5_000_000,
    threads: int = 1,
    quantum: Optional[int] = None,
) -> SectionProfile:
    """Run the golden execution once, recording per-event attribution.

    The hook pins execution to the reference tier; the engines are
    bit-identical, so the ``golden`` result embedded in the profile is
    valid for classifying trials run under either engine.
    """
    ordinals = {func.name: region_ordinals(func) for func in module}
    names: List[str] = []
    name_index: Dict[str, int] = {}
    keys: List[Tuple[str, str, int]] = []
    key_index: Dict[Tuple[str, str, int], int] = {}
    event_section: List[int] = []
    event_key: List[int] = []
    has_defs: List[bool] = []
    live: List[bool] = []
    mask_valid: List[bool] = []

    def intern_name(name: str) -> int:
        idx = name_index.get(name)
        if idx is None:
            idx = name_index[name] = len(names)
            names.append(name)
        return idx

    def post_step(interp, event) -> None:
        frames = interp.frames
        is_live = bool(frames) and frames[-1].recovery_ptr is not None
        if is_live:
            owner = frames[-1].func.name
            rid = frames[-1].recovery_ptr[0]
            ordinal = ordinals.get(owner, {}).get(rid)
            tag = f"r{ordinal}" if ordinal is not None else f"r?{rid}"
            section = f"{event.func}@{tag}"
        else:
            section = f"{event.func}@-"
        event_section.append(intern_name(section))
        key = (event.func, event.block, event.inst_index)
        idx = key_index.get(key)
        if idx is None:
            idx = key_index[key] = len(keys)
            keys.append(key)
        event_key.append(idx)
        has_defs.append(bool(event.inst.defs()))
        live.append(is_live)
        # The injector flips the destination in *current_frame*; at a
        # call boundary that is the callee's fresh frame, not the frame
        # that owns the destination register — static dead-bit masks do
        # not describe such a strike, so it must never be pruned.
        mask_valid.append(bool(frames) and frames[-1].id == event.frame_id)

    interp = make_interpreter(
        module, max_steps=max_steps, post_step=post_step,
        externals=externals, max_threads=threads, quantum=quantum,
    )
    golden = interp.run(function, args, output_objects=output_objects)
    if golden.events != len(live):
        raise IncrementalError(
            f"attribution capture saw {len(live)} post-steps but the "
            f"golden run reports {golden.events} events"
        )
    return SectionProfile(
        events=golden.events,
        section_names=names,
        event_section=event_section,
        has_defs=has_defs,
        live=live,
        keys=keys,
        event_key=event_key,
        mask_valid=mask_valid,
        fingerprints=module_fingerprints(module),
        golden=golden,
    )


def section_function(section: str) -> Optional[str]:
    """The function a section belongs to (None for ``@dead``)."""
    if section == DEAD_SECTION:
        return None
    return section.rsplit("@", 1)[0]


# ---------------------------------------------------------------------------
# The persistent per-section outcome store
# ---------------------------------------------------------------------------

STORE_VERSION = 1

#: How a section's distribution was obtained.  ``empirical`` — every
#: trial executed (full-campaign attribution); ``pruned`` — live mass
#: executed under importance sampling, statically-dead mass classified
#: analytically; ``analytic`` — no execution at all (dead time).
ESTIMATORS = ("empirical", "pruned", "analytic")


@dataclasses.dataclass
class SectionRecord:
    """One section's persisted outcome distribution.

    ``counts`` holds (possibly fractional) outcome mass summing to
    ``n``; ``executed`` is how many trials actually ran to produce it
    (< ``n`` under pruning, 0 for analytic sections).
    ``live_counts``/``live_n`` keep the executed sub-distribution
    separate so composition can compute sampling variance without
    mixing in the zero-variance analytic mass.
    """

    fingerprint: str
    weight: int
    n: float
    executed: int
    counts: Dict[str, float]
    estimator: str = "empirical"
    pruned_fraction: float = 0.0
    live_counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    live_n: int = 0

    def probability(self, outcome: str) -> float:
        if self.n <= 0:
            return 0.0
        return self.counts.get(outcome, 0.0) / self.n

    def covered_probability(self) -> float:
        from repro.runtime.sfi import COVERED_OUTCOMES

        return sum(self.probability(o) for o in COVERED_OUTCOMES)

    def variance(self, outcomes: Sequence[str]) -> float:
        """Sampling variance of this section's probability estimate for
        the union of ``outcomes``.

        The analytic (statically classified) mass is exact and
        contributes zero variance; only the executed sub-sample is
        random, down-weighted by its share of the section's fault mass
        — the Horvitz–Thompson correction for the pruned design.
        """
        if self.estimator == "analytic" or self.n <= 0:
            return 0.0
        if self.estimator == "pruned":
            if self.live_n <= 0:
                return 0.0
            live_p = sum(
                self.live_counts.get(o, 0.0) for o in outcomes
            ) / self.live_n
            live_p = min(max(live_p, 0.0), 1.0)
            live_share = 1.0 - self.pruned_fraction
            return (live_share ** 2) * live_p * (1.0 - live_p) / self.live_n
        samples = max(self.executed, 1)
        p = sum(self.probability(o) for o in outcomes)
        p = min(max(p, 0.0), 1.0)
        return p * (1.0 - p) / samples

    def to_json(self) -> Dict[str, Any]:
        data = {
            "fingerprint": self.fingerprint,
            "weight": self.weight,
            "n": self.n,
            "executed": self.executed,
            "counts": self.counts,
            "estimator": self.estimator,
        }
        if self.estimator == "pruned":
            data["pruned_fraction"] = self.pruned_fraction
            data["live_counts"] = self.live_counts
            data["live_n"] = self.live_n
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SectionRecord":
        return cls(
            fingerprint=data["fingerprint"],
            weight=int(data["weight"]),
            n=data["n"],
            executed=int(data["executed"]),
            counts=dict(data["counts"]),
            estimator=data.get("estimator", "empirical"),
            pruned_fraction=float(data.get("pruned_fraction", 0.0)),
            live_counts=dict(data.get("live_counts", {})),
            live_n=int(data.get("live_n", 0)),
        )


class SectionStore:
    """Fingerprint-keyed persistence of per-section outcome
    distributions, layered on the :class:`~repro.pipeline.AnalysisCache`.

    The JSON file on disk holds the durable distributions; the attached
    ``AnalysisCache`` memoizes the expensive module-keyed analysis
    products (attribution profiles, bit-liveness masks) for the life of
    the process, keyed by the same content-hash discipline — re-running
    ``inject --incremental`` in one process never re-derives masks for
    a module text it has already analyzed.
    """

    def __init__(self, path: str, cache=None) -> None:
        from repro.pipeline import AnalysisCache

        self.path = path
        self.cache = cache if cache is not None else AnalysisCache()
        self.campaign: Dict[str, Any] = {}
        self.basis_trials: int = 0
        self.sections: Dict[str, SectionRecord] = {}
        self.loaded = False

    @classmethod
    def open(cls, path: str, cache=None) -> "SectionStore":
        store = cls(path, cache=cache)
        if os.path.exists(path):
            store.load()
        return store

    def load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                text = handle.read()
            # save() always ends the file with a newline: without it
            # the file was cut short, even where the JSON still parses.
            if not text.endswith("\n"):
                raise ValueError("no final newline")
            data = json.loads(text)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise IncrementalError(
                f"section store {self.path} is truncated or corrupt "
                f"({exc}); delete it to rebuild the store"
            ) from None
        if (not isinstance(data, dict)
                or data.get("kind") != "incremental-store"):
            raise IncrementalError(f"{self.path} is not an incremental store")
        if data.get("version") != STORE_VERSION:
            raise IncrementalError(
                f"store version {data.get('version')} != {STORE_VERSION}"
            )
        self.campaign = data.get("campaign", {})
        self.basis_trials = int(data.get("basis_trials", 0))
        self.sections = {
            name: SectionRecord.from_json(record)
            for name, record in data.get("sections", {}).items()
        }
        self.loaded = True

    def save(self) -> None:
        payload = {
            "kind": "incremental-store",
            "version": STORE_VERSION,
            "campaign": self.campaign,
            "basis_trials": self.basis_trials,
            "sections": {
                name: self.sections[name].to_json()
                for name in sorted(self.sections)
            },
        }
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)
        # The in-memory store now mirrors disk: a later campaign against
        # this same handle composes instead of rebuilding.
        self.loaded = True

    def validate_campaign(self, identity: Dict[str, Any]) -> None:
        """Refuse to compose distributions from a different campaign.

        Mirrors the journal's symmetric union rule: any key present on
        either side must agree.
        """
        if not self.loaded:
            return
        mismatched = [
            key for key in sorted(set(self.campaign) | set(identity))
            if self.campaign.get(key) != identity.get(key)
        ]
        if mismatched:
            detail = ", ".join(
                f"{key}: store={self.campaign.get(key)!r} != "
                f"campaign={identity.get(key)!r}"
                for key in mismatched
            )
            raise IncrementalError(
                f"incremental store {self.path} belongs to a different "
                f"campaign ({detail}); delete it or match the flags"
            )


def campaign_identity(config) -> Dict[str, Any]:
    """Everything (besides the module text) in a
    :class:`~repro.runtime.config.CampaignConfig` that determines
    per-section plans and outcome classification — the store's
    compatibility key."""
    return {
        "function": config.function,
        "args": [int(a) for a in config.args],
        "output_objects": list(config.output_objects),
        "seed": config.seed,
        "detector": {
            "dmax": config.dmax,
            "kind": config.detector_kind,
            "coverage": config.detector_coverage,
        },
        "max_attempts": config.max_attempts,
    }
