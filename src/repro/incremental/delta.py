"""Incremental re-injection: diff, re-inject changed sections, compose.

The FastFlip-style workflow (PAPERS.md): a first ``inject
--incremental`` run executes a **full** campaign and persists its
outcome distribution *per section* in a :class:`SectionStore`.  After
an edit, the next run diffs per-function content-hash fingerprints
against the store, re-injects **only the changed sections** — through
the existing serial/pool paths, from per-section sha256 substreams —
and composes unchanged sections' persisted distributions into the
final result.  When nothing changed, composition reproduces the full
campaign's aggregate distribution exactly (the stored counts are the
full campaign's integer tallies, pooled back over the same total).

Re-injected sections use the bit-level pruning of
:mod:`repro.incremental.bitmask`: trials are importance-sampled from
the section's *live* (site, bit) mass only, and the provably-dead mass
is folded in analytically, giving a Horvitz–Thompson-corrected
estimate whose variance shrinks by the live share — fewer executed
trials for the same confidence width.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ir.module import Module
from repro.runtime.config import CampaignConfig, campaign_config
from repro.runtime.memory import MachineMemory
from repro.runtime.sfi import (
    COVERED_OUTCOMES,
    CampaignResult,
    FaultPlan,
    TrialResult,
    plan_trial,
    run_campaign,
    run_plans,
)

from repro.incremental.bitmask import build_sampler, cached_dead_masks
from repro.incremental.sections import (
    DEAD_SECTION,
    IncrementalError,
    SectionProfile,
    SectionRecord,
    SectionStore,
    campaign_identity,
    capture_attribution,
    section_function,
)


def derive_section_trial_seed(seed: int, section: str, k: int) -> int:
    """Key the *k*-th trial of one section's private RNG substream.

    Parallel to :func:`repro.runtime.sfi.derive_trial_seed` but keyed
    by section name instead of global trial index, so a section's
    plans do not depend on which *other* sections happen to need
    re-injection — the property that makes incremental runs
    bit-deterministic across edits and across ``--jobs``.
    """
    digest = hashlib.sha256(f"sfi-sec:{seed}:{section}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass
class ComposedCampaign(CampaignResult):
    """A campaign result assembled from executed and composed sections.

    ``trials`` holds only the trials this run actually executed;
    aggregate ``fraction``/``covered_fraction``/``summary`` figures are
    the **pooled composition** over every section record (executed,
    analytic, and store-composed alike), so a compose-from-store run
    over an unchanged module reports exactly the stored full
    campaign's distribution.  ``coverage_interval`` switches to the
    weight-stratified Horvitz–Thompson estimator (see
    ``docs/incremental.md``).
    """

    section_records: Dict[str, SectionRecord] = dataclasses.field(
        default_factory=dict
    )
    #: Per-section provenance: ``built`` (full-campaign attribution),
    #: ``composed`` (reused from the store), ``reinjected`` (executed
    #: this run under pruning), ``analytic`` (no execution needed).
    section_status: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Site mass per section in the *current* golden run.
    site_mass: Dict[str, int] = dataclasses.field(default_factory=dict)
    total_sites: int = 0
    executed_trials: int = 0

    # -- pooled composition ----------------------------------------------

    def pooled_counts(self) -> Tuple[Dict[str, float], float]:
        counts: Dict[str, float] = {}
        total = 0.0
        for record in self.section_records.values():
            total += record.n
            for outcome, mass in record.counts.items():
                counts[outcome] = counts.get(outcome, 0.0) + mass
        return counts, total

    def fraction(self, outcome: str) -> float:
        counts, total = self.pooled_counts()
        if total <= 0:
            return 0.0
        return counts.get(outcome, 0.0) / total

    def coverage_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Stratified covered-fraction estimate and CI half-width.

        Sections are strata weighted by their share of the current
        golden run's fault-site mass; analytic mass contributes zero
        variance and pruned sections only their live sub-sample's —
        the Horvitz–Thompson correction for the pruned design.
        """
        if self.total_sites <= 0:
            return 0.0, 0.0
        estimate = 0.0
        variance = 0.0
        sampled = 0.0
        for name, record in self.section_records.items():
            share = self.site_mass.get(name, 0) / self.total_sites
            if share <= 0.0:
                continue
            if name == DEAD_SECTION:
                # Dead-time sites never strike: masked with probability
                # exactly 1, regardless of the (possibly empty) record.
                estimate += share
                sampled += share
                continue
            if record.n <= 0:
                # A zero-trial stratum carries no estimate; its mass is
                # imputed the sampled strata's mean below (collapsed-
                # strata renormalization).
                continue
            sampled += share
            estimate += share * record.covered_probability()
            variance += (share ** 2) * record.variance(COVERED_OUTCOMES)
        if sampled <= 0.0:
            return 0.0, 0.0
        return estimate / sampled, z * (variance ** 0.5) / sampled

    def section_table(self) -> List[Dict[str, Any]]:
        """Per-section rows for ``--by-section`` reporting."""
        rows = []
        for name in sorted(self.section_records):
            record = self.section_records[name]
            rows.append({
                "section": name,
                "status": self.section_status.get(name, "?"),
                "estimator": record.estimator,
                "weight": self.site_mass.get(name, 0),
                "n": record.n,
                "executed": record.executed,
                "pruned": record.pruned_fraction,
                "covered": record.covered_probability(),
            })
        return rows


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IncrementalError(message)


def validate_incremental_config(config: CampaignConfig) -> None:
    """Refuse configurations the analytic classifier cannot describe.

    Pruning and composition rest on the single-event-upset model with
    modeled detection: exactly one register fault per trial, no
    recovery-window / metadata / control-flow surfaces, no metadata
    guard, single-threaded scheduling, and no per-attempt step budget
    (the soundness argument assumes a rollback always completes).
    """
    _require(
        config.faults_per_trial == 1,
        "--incremental requires faults_per_trial == 1 "
        "(single-event-upset model)",
    )
    _require(
        config.recovery_faults_per_trial == 0
        and config.metadata_faults_per_trial == 0
        and config.cf_faults_per_trial == 0,
        "--incremental supports only the primary register-fault surface "
        "(no recovery/metadata/control-flow faults)",
    )
    _require(
        config.metadata_guard == "off",
        "--incremental requires --guard off",
    )
    _require(
        config.detector_backend == "model",
        "--incremental requires the modeled detector backend "
        "(replay latencies are measured, not analytic)",
    )
    _require(config.threads == 1, "--incremental requires threads == 1")
    _require(
        config.step_budget is None,
        "--incremental requires an unbounded attempt step budget",
    )


def _cached_attribution(
    module: Module, store: SectionStore, config: CampaignConfig, externals,
) -> SectionProfile:
    factory = lambda: capture_attribution(  # noqa: E731
        module, function=config.function, args=config.args,
        output_objects=config.output_objects, externals=externals,
        threads=config.threads, quantum=config.quantum,
    )
    if externals:
        # External handlers are opaque state; don't memoize across them.
        return factory()
    from repro.pipeline import module_fingerprint

    key = (
        module_fingerprint(module), "sfi-attribution", config.function,
        tuple(int(a) for a in config.args), config.output_objects,
    )
    return store.cache.get_or_create(key, factory)


def _section_fingerprint(
    section: str, profile: SectionProfile, module_fp: str
) -> str:
    """The identity a section's stored record is keyed by.

    Real sections key on their owning function's normalized content
    hash.  The ``@dead`` pseudo-section's mass is a property of the
    whole golden stream, so it keys on the full module fingerprint —
    any edit anywhere invalidates it (recomputing it is free).
    """
    owner = section_function(section)
    if owner is None:
        return module_fp
    return profile.fingerprints.get(owner, "?")


def _section_budget(
    trials: int, weight: int, total: int, min_section_trials: int
) -> int:
    """A changed section's total estimate mass: its proportional share
    of the full-campaign budget, floored so tiny sections still get a
    usable sample."""
    share = int(round(trials * weight / max(total, 1)))
    return max(min_section_trials, share, 1)


def run_incremental_campaign(
    module: Module,
    store: SectionStore,
    config: Optional[CampaignConfig] = None,
    *,
    externals=None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    progress=None,
    on_result: Optional[Callable[[int, TrialResult], None]] = None,
    on_start: Optional[Callable[[Dict[str, Any]], None]] = None,
    min_section_trials: int = 8,
    update_store: bool = True,
    **knobs,
) -> ComposedCampaign:
    """One incremental campaign against ``store``.

    First run (empty store): executes a full campaign, attributes every
    trial to its section, persists the per-section tallies, and returns
    the full result (``composed_fraction == 0``).  Later runs: diffs
    section fingerprints, re-injects only changed sections under
    bit-level pruning, composes the rest from the store.

    ``config`` and ``knobs`` describe the campaign as for
    :func:`~repro.runtime.run_campaign`; it must pass
    :func:`validate_incremental_config`.  ``on_start`` fires once,
    after diffing but before any trial executes, with the run's
    incremental metadata — the CLI uses it to write the journal header.
    ``on_result`` streams executed trials (section-attributed) exactly
    like ``run_campaign``.
    """
    config = campaign_config(config, **knobs)
    validate_incremental_config(config)
    identity = campaign_identity(config)
    store.validate_campaign(identity)

    from repro.pipeline import module_fingerprint

    module_fp = module_fingerprint(module)[:16]
    start = time.monotonic()
    profile = _cached_attribution(module, store, config, externals)
    masks = cached_dead_masks(module, store.cache, config.output_objects)
    weights = profile.section_weights()
    events_by_section = profile.section_events()
    total_sites = profile.events
    trials, seed, detector = config.trials, config.seed, config.detector()

    if not store.loaded or not store.sections:
        return _build_store(
            module, store, profile, identity, module_fp, weights,
            total_sites, config, externals=externals, jobs=jobs,
            chunk_size=chunk_size, progress=progress, on_result=on_result,
            on_start=on_start, update_store=update_store, start=start,
        )

    # ---- diff ------------------------------------------------------------
    records: Dict[str, SectionRecord] = {}
    status: Dict[str, str] = {}
    changed: List[str] = []
    for section, weight in weights.items():
        fingerprint = _section_fingerprint(section, profile, module_fp)
        old = store.sections.get(section)
        # A stored record with n == 0 is still faithful — the store's
        # basis campaign allocated that section zero trials — so it
        # composes as zero trial mass; only a fingerprint mismatch (or
        # a section the store has never seen) forces re-injection.
        usable = old is not None and old.fingerprint == fingerprint
        if usable:
            records[section] = dataclasses.replace(old, weight=weight)
            status[section] = "composed"
        else:
            changed.append(section)

    # ---- plan changed sections ------------------------------------------
    samplers = {}
    plan_rows: List[Tuple[str, FaultPlan]] = []
    next_index = 0
    for section in sorted(changed):
        weight = weights[section]
        budget = _section_budget(trials, weight, total_sites,
                                 min_section_trials)
        fingerprint = _section_fingerprint(section, profile, module_fp)
        if section == DEAD_SECTION:
            # Sites past the last register write never strike: exactly
            # masked, no trial needed.
            records[section] = SectionRecord(
                fingerprint=fingerprint, weight=weight, n=float(budget),
                executed=0, counts={"masked": float(budget)},
                estimator="analytic",
            )
            status[section] = "analytic"
            continue
        sampler = build_sampler(
            section, events_by_section[section], profile, masks, detector
        )
        samplers[section] = (sampler, budget, fingerprint)
        if sampler.live_mass == 0:
            # Every (site, bit) of the section is provably dead.
            records[section] = SectionRecord(
                fingerprint=fingerprint, weight=weight, n=float(budget),
                executed=0,
                counts={
                    o: budget * p for o, p in sampler.analytic.items()
                },
                estimator="analytic",
                pruned_fraction=1.0,
            )
            status[section] = "analytic"
            continue
        executed = max(1, int(round(budget * (1.0 - sampler.pruned_fraction))))
        for k in range(executed):
            plan = plan_trial(
                seed, next_index, profile.events, detector,
                site_dist=sampler,
                rng_seed=derive_section_trial_seed(seed, section, k),
            )
            plan_rows.append((section, plan))
            next_index += 1

    composed_mass = sum(
        weights[s] for s, st in status.items() if st == "composed"
    )
    composed_fraction = (
        composed_mass / total_sites if total_sites else 0.0
    )
    reinjected = sorted(section for section, _ in plan_rows)
    if on_start is not None:
        on_start({
            "mode": "compose",
            "composed_sections": sum(
                1 for st in status.values() if st == "composed"
            ),
            "reinjected_sections": sorted(set(reinjected)),
            "composed_fraction": round(composed_fraction, 9),
        })

    # ---- execute ---------------------------------------------------------
    section_of_index = {
        plan.trial_index: section for section, plan in plan_rows
    }

    def emit(index: int, trial: TrialResult) -> None:
        trial.section = section_of_index.get(index)
        if on_result is not None:
            on_result(index, trial)

    plans = [plan for _, plan in plan_rows]
    executed = run_plans(
        module, profile.golden, plans, config, externals=externals,
        memory_image=MachineMemory.pristine(module), jobs=jobs,
        chunk_size=chunk_size, progress=progress, on_result=emit,
    )
    results = executed.trials
    for plan, trial in zip(plans, results):
        trial.section = section_of_index[plan.trial_index]

    # ---- fold executed trials into pruned records ------------------------
    live_tallies: Dict[str, Dict[str, int]] = {}
    for trial in results:
        tally = live_tallies.setdefault(trial.section, {})
        tally[trial.outcome] = tally.get(trial.outcome, 0) + 1
    for section, (sampler, budget, fingerprint) in samplers.items():
        if section not in live_tallies:
            continue  # fully-analytic sections were recorded above
        tally = live_tallies[section]
        live_n = sum(tally.values())
        live_share = 1.0 - sampler.pruned_fraction
        counts = {
            outcome: budget * live_share * count / live_n
            for outcome, count in sorted(tally.items())
        }
        for outcome, p in sampler.analytic.items():
            counts[outcome] = (
                counts.get(outcome, 0.0)
                + budget * sampler.pruned_fraction * p
            )
        records[section] = SectionRecord(
            fingerprint=fingerprint, weight=weights[section],
            n=float(budget), executed=live_n, counts=counts,
            estimator="pruned",
            pruned_fraction=sampler.pruned_fraction,
            live_counts={o: float(c) for o, c in sorted(tally.items())},
            live_n=live_n,
        )
        status[section] = "reinjected"

    if update_store:
        store.campaign = identity
        store.sections = dict(records)
        store.save()

    return ComposedCampaign(
        trials=results,
        elapsed=time.monotonic() - start,
        jobs=executed.jobs,
        worker_trials=executed.worker_trials,
        pool_restarts=executed.pool_restarts,
        composed_fraction=composed_fraction,
        section_records=records,
        section_status=status,
        site_mass=weights,
        total_sites=total_sites,
        executed_trials=len(results),
    )


def _build_store(
    module: Module,
    store: SectionStore,
    profile: SectionProfile,
    identity: Dict[str, Any],
    module_fp: str,
    weights: Dict[str, int],
    total_sites: int,
    config: CampaignConfig,
    *,
    externals,
    jobs: int,
    chunk_size: Optional[int],
    progress,
    on_result: Optional[Callable[[int, TrialResult], None]],
    on_start: Optional[Callable[[Dict[str, Any]], None]],
    update_store: bool,
    start: float,
) -> ComposedCampaign:
    """First run against an empty store: full campaign + attribution.

    The stored counts are the full campaign's integer tallies, so a
    later compose over an unchanged module pools them back into exactly
    the distribution this run reports.
    """
    section_of_index = {
        plan.trial_index: profile.section_of_site(plan.sites[0])
        for plan in config.plans(profile.events)
    }
    if on_start is not None:
        on_start({"mode": "build"})

    def emit(index: int, trial: TrialResult) -> None:
        trial.section = section_of_index[index]
        if on_result is not None:
            on_result(index, trial)

    result = run_campaign(
        module, config, externals=externals, jobs=jobs,
        chunk_size=chunk_size, progress=progress, on_result=emit,
    )
    records: Dict[str, SectionRecord] = {}
    status: Dict[str, str] = {}
    tallies: Dict[str, Dict[str, int]] = {}
    for index, trial in enumerate(result.trials):
        section = section_of_index[index]
        trial.section = section
        tally = tallies.setdefault(section, {})
        tally[trial.outcome] = tally.get(trial.outcome, 0) + 1
    for section, tally in tallies.items():
        n = sum(tally.values())
        records[section] = SectionRecord(
            fingerprint=_section_fingerprint(section, profile, module_fp),
            weight=weights.get(section, 0),
            n=float(n),
            executed=n,
            counts={o: float(c) for o, c in sorted(tally.items())},
            estimator="empirical",
        )
        status[section] = "built"
    for section, weight in weights.items():
        if section in records:
            continue
        # Persist every zero-hit section (tiny weight, no site draw
        # landed there).  The empty record is faithful — the full
        # campaign allocated it zero trials — so a no-change compose
        # need not re-budget it (which would perturb the pooled totals).
        records[section] = SectionRecord(
            fingerprint=_section_fingerprint(section, profile, module_fp),
            weight=weight, n=0.0, executed=0, counts={},
            estimator="empirical",
        )
        status[section] = "built"

    if update_store:
        store.campaign = identity
        store.basis_trials = config.trials
        store.sections = dict(records)
        store.save()

    return ComposedCampaign(
        trials=result.trials,
        elapsed=time.monotonic() - start,
        jobs=result.jobs,
        worker_trials=result.worker_trials,
        pool_restarts=result.pool_restarts,
        resumed_trials=result.resumed_trials,
        composed_fraction=0.0,
        section_records=records,
        section_status=status,
        site_mass=weights,
        total_sites=total_sites,
        executed_trials=len(result.trials),
    )
