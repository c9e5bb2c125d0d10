"""The ``encore`` command-line tool.

Operates on textual IR files (the format of :mod:`repro.ir.printer`),
so a downstream user can protect a program without writing Python:

* ``analyze``  — print the candidate-region table for a module;
* ``protect``  — run the full Encore pipeline and write the
  instrumented module (plus a report) out;
* ``run``      — execute a module and print its result;
* ``inject``   — run an SFI campaign against a module;
* ``fuzz``     — run a differential-fuzzing campaign (or replay one
  generated program by seed) against the whole toolchain.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.ir import module_to_text, parse_module, verify_module
from repro.runtime import (
    CampaignConfig,
    CampaignInterrupted,
    CampaignJournal,
    CampaignResult,
    ConfigError,
    ENGINES,
    InOrderJournal,
    JournalError,
    campaign_metadata,
    default_journal_path,
    load_journal,
    make_interpreter,
    run_campaign,
    validate_resume,
)


def _load(path: str):
    """Load a module from textual IR (.ir) or MC source (anything else)."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".mc") or text.lstrip().startswith(("global", "extern", "int", "float", "void")):
        # The compiler is imported by the commands that use it, so
        # ``serve`` and ``status`` start without it.
        from repro.frontend import compile_source

        return compile_source(text)
    module = parse_module(text)
    verify_module(module)
    return module


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pmin", type=float, default=0.0,
                        help="pruning threshold (use --no-pruning to disable)")
    parser.add_argument("--no-pruning", action="store_true",
                        help="disable Pmin pruning entirely")
    parser.add_argument("--budget", type=float, default=0.20,
                        help="overhead budget fraction (default 0.20)")
    parser.add_argument("--alias", choices=["static", "optimistic", "profiled"],
                        default="static")
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--eta", type=float, default=0.25)
    parser.add_argument("--guard", choices=["off", "checksum", "dup"],
                        default="off",
                        help="self-protection level for the recovery "
                             "metadata (default off)")


def _add_stats_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time-passes", action="store_true",
                        help="print per-pass wall-time report to stderr")
    parser.add_argument("--stats", action="store_true",
                        help="print per-pass counters to stderr")


def _print_stats(stats, args) -> None:
    """Emit the requested observability reports (LLVM style: stderr)."""
    if stats is None:
        return
    if getattr(args, "time_passes", False):
        print(stats.render_timing(), file=sys.stderr)
    if getattr(args, "stats", False):
        print(stats.render_counters(), file=sys.stderr)


def _config_from(args):
    from repro.encore import EncoreConfig

    return EncoreConfig(
        pmin=None if args.no_pruning else args.pmin,
        overhead_budget=args.budget,
        alias_mode=args.alias,
        gamma=args.gamma,
        eta=args.eta,
        metadata_guard=getattr(args, "guard", "off"),
    )


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`CampaignConfig` knob, shared verbatim between
    the one-shot ``inject`` run and a ``submit`` to the campaign server
    — the byte-identical-journal contract requires the two surfaces to
    accept exactly the same campaign identity."""
    for field in dataclasses.fields(CampaignConfig):
        flag = field.metadata["flag"]
        if flag is None:
            continue
        options = dict(field.metadata["cli"])
        if "type" not in options and isinstance(field.default, (int, str)):
            options["type"] = type(field.default)
        parser.add_argument(
            flag or "--" + field.name.replace("_", "-"),
            dest=field.name, default=field.default, **options,
        )


def _campaign_config(args) -> CampaignConfig:
    """The campaign the ``inject``/``submit`` flags describe."""
    return CampaignConfig(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(CampaignConfig)
        if field.metadata["flag"] is not None
    })


def _int_args(tokens: List[str]) -> List[int]:
    return [int(token) for token in tokens]


def cmd_analyze(args) -> int:
    from repro.encore import compile_for_encore

    module = _load(args.module)
    report = compile_for_encore(
        module, _config_from(args), args=_int_args(args.args), instrument=False
    )
    print(f"{'region':<24} {'status':<16} {'sel':<4} {'dyn':>9} "
          f"{'act.len':>9} {'ckpts':>6} {'regs':>5}")
    for region in sorted(
        report.candidate_regions, key=lambda r: -r.dyn_instructions
    ):
        print(f"{region.func + '/' + region.header:<24} "
              f"{region.status.value:<16} "
              f"{'yes' if region.selected else 'no':<4} "
              f"{region.dyn_instructions:>9} "
              f"{region.activation_length:>9.1f} "
              f"{sum(len(s.refs) for s in region.checkpoint_sites):>6} "
              f"{len(region.live_in_checkpoints):>5}")
    print(f"\nestimated overhead: {report.estimated_overhead():.2%}")
    print(f"recoverable at Dmax=100: {report.coverage(100).recoverable:.2%}")
    _print_stats(report.stats, args)
    return 0


def cmd_protect(args) -> int:
    from repro.encore import compile_for_encore

    module = _load(args.module)
    report = compile_for_encore(
        module, _config_from(args), args=_int_args(args.args), clone=False
    )
    output = args.output or args.module.replace(".ir", "") + ".encore.ir"
    with open(output, "w") as handle:
        handle.write(module_to_text(report.module))
        handle.write("\n")
    inst = report.instrumentation
    print(f"wrote {output}")
    print(f"protected {inst.instrumented_regions} regions "
          f"({inst.checkpoint_mem_sites} memory checkpoint sites, "
          f"{inst.checkpoint_reg_sites} register checkpoints)")
    print(f"estimated overhead: {report.estimated_overhead():.2%}")
    _print_stats(report.stats, args)
    return 0


def cmd_run(args) -> int:
    module = _load(args.module)
    result = make_interpreter(
        module, engine=args.engine, max_threads=args.threads,
        quantum=args.quantum,
    ).run(
        args.function, _int_args(args.args), output_objects=args.outputs or ()
    )
    print(f"result: {result.value}")
    print(f"dynamic instructions: {result.events} "
          f"(instrumentation: {result.instrumentation_cost}, "
          f"overhead {result.overhead:.2%})")
    for name, cells in result.output.items():
        preview = ", ".join(str(c) for c in cells[:8])
        suffix = ", ..." if len(cells) > 8 else ""
        print(f"  @{name} = [{preview}{suffix}]")
    return 0


def _print_section_table(rows) -> None:
    """The ``--by-section`` breakdown, deterministic for a given seed."""
    print(f"{'section':<28} {'status':<12} {'est':<10} {'n':>9} "
          f"{'exec':>6} {'pruned':>7} {'covered':>8}")
    for row in rows:
        print(f"{row['section']:<28} {row['status']:<12} "
              f"{row['estimator']:<10} {row['n']:>9.1f} "
              f"{row['executed']:>6} {row['pruned']:>7.1%} "
              f"{row['covered']:>8.1%}")


def _plain_section_rows(module, campaign, config: CampaignConfig):
    """Per-section outcome rows for a plain (non-incremental) campaign:
    re-derive the plans, attribute each trial by its primary site."""
    from repro.incremental import capture_attribution
    from repro.runtime.sfi import COVERED_OUTCOMES

    profile = capture_attribution(
        module, function=config.function, args=config.args,
        output_objects=config.output_objects, threads=config.threads,
        quantum=config.quantum,
    )
    plans = config.plans(profile.events)
    tallies = {}
    for plan, trial in zip(plans, campaign.trials):
        section = profile.section_of_site(plan.sites[0])
        row = tallies.setdefault(section, {"n": 0, "covered": 0})
        row["n"] += 1
        if trial.outcome in COVERED_OUTCOMES:
            row["covered"] += 1
    return [
        {"section": section, "status": "executed", "estimator": "empirical",
         "n": float(row["n"]), "executed": row["n"], "pruned": 0.0,
         "covered": row["covered"] / row["n"]}
        for section, row in sorted(tallies.items())
    ]


def _cmd_inject_incremental(args, module, config, metadata,
                            progress) -> int:
    import os

    from repro.incremental import (
        IncrementalError,
        SectionStore,
        run_incremental_campaign,
        validate_incremental_config,
    )

    if args.resume is not None:
        print("--incremental campaigns do not resume from journals; the "
              "section store itself is the persistent state",
              file=sys.stderr)
        return 2
    try:
        validate_incremental_config(config)
    except IncrementalError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    journal_path = None
    if args.journal is not None:
        journal_path = (
            default_journal_path(module.name, config.seed)
            if args.journal == "auto" else args.journal
        )
        if os.path.exists(journal_path):
            print(f"refusing to append an incremental campaign to the "
                  f"existing journal {journal_path}; incremental runs "
                  f"restart from the store, not a journal — pick a fresh "
                  f"path", file=sys.stderr)
            return 2
    journal = CampaignJournal(journal_path) if journal_path else None
    ordered = InOrderJournal(journal) if journal is not None else None

    def on_start(info) -> None:
        # The incremental header key follows the journal's conditional
        # emission rule: present exactly for incremental campaigns, so
        # validate_resume's union comparison refuses any cross-mode mix.
        if journal is not None:
            journal.write_header({**metadata, "incremental": info})

    try:
        store = SectionStore.open(args.incremental)
        campaign = run_incremental_campaign(
            module, store, config,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            progress=progress,
            on_result=ordered.record if ordered else None,
            on_start=on_start,
            min_section_trials=args.min_section_trials,
            update_store=not args.no_update_store,
        )
    except IncrementalError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        if ordered is not None:
            ordered.flush_out_of_order()
        if args.progress:
            print(file=sys.stderr)
        done = getattr(exc, "done", 0)
        total = getattr(exc, "total", "?")
        print(f"# interrupted: {done}/{total} re-injection trials "
              f"completed; re-run the same command — incremental "
              f"campaigns restart from the store", file=sys.stderr)
        return 130
    finally:
        if journal is not None:
            journal.close()
    if args.progress:
        print(file=sys.stderr)
    for outcome, fraction in campaign.summary().items():
        print(f"{outcome:<24} {fraction:.1%}")
    print(f"{'TOTAL covered':<24} {campaign.covered_fraction:.1%}")
    estimate, half = campaign.coverage_interval()
    print(f"{'coverage estimate':<24} {estimate:.1%} +/- {half:.1%} "
          f"(95% CI)")
    composed = sum(
        1 for status in campaign.section_status.values()
        if status == "composed"
    )
    print(f"{'sections':<24} {len(campaign.section_records)} "
          f"({composed} composed, {campaign.executed_trials} trials "
          f"executed)")
    if args.by_section:
        _print_section_table(campaign.section_table())
    print(f"# throughput: {campaign.throughput:.1f} trials/sec "
          f"({campaign.executed_trials} executed, {campaign.elapsed:.2f}s, "
          f"jobs={campaign.jobs})")
    print(f"# store: {args.incremental}"
          + (" (not updated)" if args.no_update_store else ""))
    if journal_path:
        print(f"# journal: {journal_path}")
    return 0


def cmd_inject(args) -> int:
    module = _load(args.module)
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)
    try:
        config = _campaign_config(args)
    except ConfigError as exc:
        # e.g. replay backend requested for a multithreaded campaign
        print(str(exc), file=sys.stderr)
        return 2
    metadata = campaign_metadata(module, config=config)
    if args.incremental is not None:
        return _cmd_inject_incremental(
            args, module, config, metadata, progress
        )

    completed = None
    journal_path = None
    resuming = False
    if args.resume is not None:
        try:
            journal_meta, completed = load_journal(args.resume)
            validate_resume(journal_meta, metadata)
        except (OSError, JournalError) as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 1
        journal_path = args.resume
        resuming = True
        print(f"# resuming {len(completed)} journaled trials from "
              f"{args.resume}", file=sys.stderr)
    elif args.journal is not None:
        journal_path = (
            default_journal_path(module.name, config.seed)
            if args.journal == "auto" else args.journal
        )

    journal = CampaignJournal(journal_path) if journal_path else None
    ordered = None
    if journal is not None:
        if not resuming:
            journal.write_header(metadata)
        # Records reach the journal in trial order whatever the worker
        # count, skipping the indices a resumed journal already holds.
        ordered = InOrderJournal(journal, done=completed or ())
    try:
        campaign = run_campaign(
            module, config,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            progress=progress,
            completed=completed,
            on_result=ordered.record if ordered else None,
        )
    except CampaignInterrupted as exc:
        # Ctrl-C mid-campaign: flush the finished trials held back for
        # order, so the journal keeps every one of them; then report the
        # partial outcome mix and how to pick the campaign back up.
        if ordered is not None:
            ordered.flush_out_of_order()
        if args.progress:
            print(file=sys.stderr)
        print(f"# interrupted: {exc.done}/{exc.total} trials completed",
              file=sys.stderr)
        if exc.results:
            partial = CampaignResult(
                [exc.results[i] for i in sorted(exc.results)]
            )
            for outcome, fraction in partial.summary().items():
                if fraction:
                    print(f"{outcome:<24} {fraction:.1%} (partial)")
        if journal_path:
            print(f"# resume with: inject ... --resume {journal_path}",
                  file=sys.stderr)
        else:
            print("# no journal was armed; re-run with --journal to make "
                  "interruptions resumable", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        # Ctrl-C before the campaign proper (golden run, planning).
        print("\n# interrupted before any trial completed", file=sys.stderr)
        if journal_path:
            print(f"# resume with: inject ... --resume {journal_path}",
                  file=sys.stderr)
        return 130
    finally:
        if journal is not None:
            journal.close()
    if args.progress:
        print(file=sys.stderr)
    for outcome, fraction in campaign.summary().items():
        print(f"{outcome:<24} {fraction:.1%}")
    print(f"{'TOTAL covered':<24} {campaign.covered_fraction:.1%}")
    if args.by_section:
        try:
            _print_section_table(
                _plain_section_rows(module, campaign, config)
            )
        except Exception as exc:  # attribution needs a replayable golden
            print(f"# --by-section unavailable: {exc}", file=sys.stderr)
    if campaign.mean_wasted_work:
        print(f"mean wasted work per recovery: "
              f"{campaign.mean_wasted_work:.0f} instructions")
    if config.detector_backend == "replay":
        # Measured (not sampled) latencies: journaled per trial, so
        # these lines are deterministic and resume-stable.
        latencies = sorted(
            t.detect_latency for t in campaign.trials
            if t.detect_latency is not None
        )
        if latencies:
            mean = sum(latencies) / len(latencies)
            print(f"replay detection latency: mean {mean:.1f}, "
                  f"max {latencies[-1]}, n={len(latencies)} "
                  f"(chunk {config.replay_chunk_size})")
        replayed = sum(t.replay_overhead for t in campaign.trials)
        print(f"replay re-executed instructions: {replayed}")
    # Wall-clock statistics go after the deterministic outcome table
    # (and are easy to filter out when diffing campaign summaries).
    print(f"# throughput: {campaign.throughput:.1f} trials/sec "
          f"({len(campaign.trials)} trials, {campaign.elapsed:.2f}s, "
          f"jobs={campaign.jobs})")
    for worker, count in sorted(campaign.worker_trials.items()):
        print(f"# {worker}: {count} trials")
    if campaign.pool_restarts:
        print(f"# worker restarts after crashes: {campaign.pool_restarts}")
    if campaign.resumed_trials:
        print(f"# trials replayed from journal: {campaign.resumed_trials}")
    if journal_path:
        print(f"# journal: {journal_path}")
    return 0


def cmd_fuzz(args) -> int:
    # Deferred import: the fuzz subsystem pulls in the whole pipeline
    # and every other subcommand should not pay for it.
    from repro import fuzz

    try:
        oracle_names = tuple(args.oracles.split(","))
        settings = fuzz.FuzzSettings(
            seed=args.seed,
            profile=args.profile,
            oracles=oracle_names,
            campaign_every=args.campaign_every,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.replay is not None:
        program = fuzz.generate_program(
            args.replay, fuzz.PROFILES[args.profile]
        )
        failures = fuzz.run_oracles(
            program, fuzz.make_oracles(oracle_names)
        )
        print(f"program {program.name} "
              f"({fuzz.count_instructions(program.module)} instructions)")
        for failure in failures:
            print(f"{failure.oracle}:{failure.kind}  "
                  f"fingerprint {failure.fingerprint}")
            if failure.detail:
                print(f"  {failure.detail}")
        if not failures:
            print("all oracles passed")
        return 1 if failures else 0

    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} programs", end="",
                  file=sys.stderr, flush=True)

    completed = None
    journal_path = args.journal
    if args.resume is not None:
        try:
            header, completed = fuzz.load_fuzz_journal(args.resume)
            fuzz.validate_fuzz_resume(header, settings)
        except (OSError, ValueError) as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 1
        journal_path = args.resume
        print(f"# resuming {len(completed)} journaled programs from "
              f"{args.resume}", file=sys.stderr)

    journal = (
        fuzz.FuzzJournal(journal_path, settings) if journal_path else None
    )
    try:
        result = fuzz.run_fuzz_campaign(
            settings,
            budget=args.budget,
            start=args.start,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            journal=journal,
            completed=completed,
            corpus_dir=args.corpus,
            reduce=not args.no_reduce,
            max_reduce_checks=args.max_reduce_checks,
            progress=progress,
        )
    finally:
        if journal is not None:
            journal.close()
    if args.progress:
        print(file=sys.stderr)
    print(result.summary())
    print(f"# throughput: "
          f"{len(result.records) / max(result.elapsed, 1e-9):.1f} "
          f"programs/sec ({result.elapsed:.2f}s, jobs={result.jobs})")
    if result.resumed:
        print(f"# programs replayed from journal: {result.resumed}")
    if journal_path:
        print(f"# journal: {journal_path}")
    return 1 if result.failures else 0


def cmd_serve(args) -> int:
    # Deferred import: only the service verbs pay for asyncio plumbing.
    import asyncio

    from repro.service import CampaignServer, ExponentialBackoff, run_server

    server = CampaignServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        journal_dir=args.journal_dir,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.max_retries,
        backoff=ExponentialBackoff(
            base=args.backoff_base, cap=args.backoff_cap
        ),
        max_active=args.max_active,
        chaos_kill_after=args.chaos_kill_after,
    )

    async def main() -> None:
        await server.start()
        server.install_signal_handlers()
        print(f"# repro serve listening on http://{server.host}:"
              f"{server.port} (workers={server.workers}, "
              f"journals under {server.journal_dir})", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # signal handler already drained; double Ctrl-C lands here
    print("# repro serve: drained and stopped", file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        config = _campaign_config(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    client = ServiceClient(args.server)
    try:
        accepted = client.submit({
            "kind": "sfi",
            "module_text": module_to_text(_load(args.module)) + "\n",
            **config.to_json(),
            "batch_size": args.batch_size,
        })
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    campaign_id = accepted["id"]
    print(f"# campaign {campaign_id} accepted "
          f"(server journal: {accepted.get('journal')})")
    if not args.wait:
        print(f"# follow with: python -m repro status {campaign_id} "
              f"--server {client.url}")
        return 0

    last = [0]

    def poll(status: dict) -> None:
        aggregates = status.get("aggregates", {})
        done = aggregates.get("trials_done", 0)
        if args.progress and done != last[0]:
            last[0] = done
            print(f"\r{done}/{aggregates.get('trials_total', '?')} trials",
                  end="", file=sys.stderr, flush=True)

    try:
        status = client.wait(campaign_id, timeout=args.timeout, poll=poll)
    except ServiceError as exc:
        print(f"\nwait failed: {exc}", file=sys.stderr)
        return 1
    if args.progress:
        print(file=sys.stderr)
    if args.journal_out:
        try:
            data = client.fetch_journal(campaign_id, follow=False)
        except ServiceError as exc:
            print(f"journal fetch failed: {exc}", file=sys.stderr)
            return 1
        with open(args.journal_out, "wb") as handle:
            handle.write(data)
        print(f"# journal saved to {args.journal_out} "
              f"({len(data)} bytes)")
    state = status.get("state")
    aggregates = status.get("aggregates", {})
    done = aggregates.get("trials_done", 0)
    outcomes = aggregates.get("outcomes", {})
    # Zero-filled, in canonical order: line-for-line comparable with
    # the summary the one-shot ``inject`` run prints.
    from repro.runtime.sfi import OUTCOMES

    for outcome in OUTCOMES:
        print(f"{outcome:<24} {outcomes.get(outcome, 0) / max(done, 1):.1%}")
    print(f"{'TOTAL covered':<24} "
          f"{aggregates.get('covered_fraction', 0.0):.1%}")
    print(f"# state: {state}; "
          f"{done}/{aggregates.get('trials_total', '?')} trials, "
          f"{aggregates.get('throughput_trials_per_s', 0.0)} trials/sec")
    if status.get("worker_restarts"):
        print(f"# worker restarts: {status['worker_restarts']}")
    if status.get("quarantined_batches"):
        print(f"# quarantined batches: {status['quarantined_batches']} "
              f"({aggregates.get('infra_errors', 0)} trials infra_error)")
    return 0 if state == "completed" else 1


def _cmd_status_store(args) -> int:
    from repro.incremental import IncrementalError, SectionStore
    from repro.runtime.sfi import COVERED_OUTCOMES

    try:
        store = SectionStore.open(args.store)
    except (OSError, ValueError, IncrementalError) as exc:
        print(f"cannot read store: {exc}", file=sys.stderr)
        return 1
    if not store.loaded:
        print(f"no incremental store at {args.store}", file=sys.stderr)
        return 1
    campaign = store.campaign
    detector = campaign.get("detector", {})
    print(f"incremental store: {args.store}")
    print(f"campaign: function={campaign.get('function')} "
          f"seed={campaign.get('seed')} "
          f"dmax={detector.get('dmax')} kind={detector.get('kind')}")
    print(f"basis trials: {store.basis_trials}; "
          f"sections: {len(store.sections)}")
    total_n = sum(record.n for record in store.sections.values())
    covered = sum(
        sum(record.counts.get(outcome, 0.0) for outcome in COVERED_OUTCOMES)
        for record in store.sections.values()
    )
    if total_n:
        print(f"{'TOTAL covered':<24} {covered / total_n:.1%}")
    if args.by_section:
        _print_section_table([
            {"section": name, "status": "stored",
             "estimator": record.estimator, "n": record.n,
             "executed": record.executed,
             "pruned": record.pruned_fraction,
             "covered": record.covered_probability()}
            for name, record in sorted(store.sections.items())
        ])
    return 0


def cmd_status(args) -> int:
    import json as json_module

    from repro.service import ServiceClient, ServiceError

    if args.store is not None:
        return _cmd_status_store(args)
    client = ServiceClient(args.server)
    try:
        if args.id:
            payload = client.status(args.id)
        else:
            payload = {
                "health": client.health(),
                "campaigns": client.campaigns().get("campaigns", []),
            }
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    print(json_module.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_compile(args) -> int:
    from repro.frontend import compile_source
    from repro.opt import optimize_module
    from repro.pipeline import PipelineStats

    module = compile_source(open(args.source).read())
    stats = PipelineStats()
    if args.optimize:
        optimize_module(module, stats=stats)
    verify_module(module)
    _print_stats(stats, args)
    output = args.output or args.source.rsplit(".", 1)[0] + ".ir"
    with open(output, "w") as handle:
        handle.write(module_to_text(module))
        handle.write("\n")
    print(f"wrote {output} ({module.instruction_count()} instructions, "
          f"{len(module.functions)} functions)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Encore: low-cost transient fault recovery (MICRO 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="compile MC source to IR")
    compile_p.add_argument("source", help="MC (.mc) source file")
    compile_p.add_argument("-o", "--output", default=None)
    compile_p.add_argument("--optimize", action="store_true",
                           help="run the optimizer pass mix")
    _add_stats_flags(compile_p)
    compile_p.set_defaults(handler=cmd_compile)

    analyze = sub.add_parser("analyze", help="print the region table")
    analyze.add_argument("module", help="textual IR file")
    analyze.add_argument("--args", nargs="*", default=[], help="main() args")
    _add_config_flags(analyze)
    _add_stats_flags(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    protect = sub.add_parser("protect", help="instrument a module")
    protect.add_argument("module")
    protect.add_argument("-o", "--output", default=None)
    protect.add_argument("--args", nargs="*", default=[])
    _add_config_flags(protect)
    _add_stats_flags(protect)
    protect.set_defaults(handler=cmd_protect)

    run = sub.add_parser("run", help="execute a module")
    run.add_argument("module")
    run.add_argument("--function", default="main")
    run.add_argument("--args", nargs="*", default=[])
    run.add_argument("--outputs", nargs="*", default=[])
    run.add_argument("--engine", choices=sorted(ENGINES), default=None,
                     help="interpreter engine (default: $ENCORE_ENGINE "
                          "or 'fast'; both are bit-identical)")
    run.add_argument("--threads", type=int, default=None,
                     help="max concurrently-live threads including main "
                          "(default: unlimited; 1 makes spawn trap)")
    run.add_argument("--quantum", type=int, default=None,
                     help="cooperative scheduler time slice in dynamic "
                          "instructions (default 50)")
    run.set_defaults(handler=cmd_run)

    inject = sub.add_parser("inject", help="fault-injection campaign")
    inject.add_argument("module")
    _add_campaign_flags(inject)
    inject.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes; results are identical to "
                             "--jobs 1 for any value (default 1)")
    inject.add_argument("--chunk-size", type=int, default=None,
                        help="trials per dispatched batch (default: "
                             "auto, eight batches per worker)")
    inject.add_argument("--progress", action="store_true",
                        help="report completed-trial counts on stderr")
    inject.add_argument("--journal", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="append per-trial results to a crash-tolerant "
                             "JSONL journal (default path under results/)")
    inject.add_argument("--resume", default=None, metavar="PATH",
                        help="resume a crashed campaign from its journal; "
                             "journaled trials are replayed verbatim")
    inject.add_argument("--incremental", default=None, metavar="STORE",
                        help="incremental campaign against a per-section "
                             "outcome store: the first run executes the "
                             "full campaign and builds STORE; later runs "
                             "re-inject only sections whose code changed "
                             "(with bit-level pruning) and compose the "
                             "rest (see docs/incremental.md)")
    inject.add_argument("--min-section-trials", type=int, default=8,
                        help="re-injection trial floor per changed "
                             "section (default 8)")
    inject.add_argument("--no-update-store", action="store_true",
                        help="compose/re-inject without writing the "
                             "updated distributions back to the store")
    inject.add_argument("--by-section", action="store_true",
                        help="print the per-section outcome breakdown "
                             "after the summary table")
    inject.set_defaults(handler=cmd_inject)

    serve = sub.add_parser(
        "serve",
        help="run the campaign server: accept campaign specs over HTTP, "
             "shard them across a supervised worker pool",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8344,
                       help="listen port (0 picks a free one; default 8344)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes per campaign (default 2)")
    serve.add_argument("--journal-dir", default="results/service",
                       help="where campaign journals are written "
                            "(default results/service)")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       help="seconds of worker silence before the "
                            "watchdog presumes it hung and kills it "
                            "(default 30)")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="re-dispatch attempts per batch before it "
                            "quarantines (default 3)")
    serve.add_argument("--backoff-base", type=float, default=0.25,
                       help="first retry delay in seconds; doubles per "
                            "attempt (default 0.25)")
    serve.add_argument("--backoff-cap", type=float, default=10.0,
                       help="retry delay ceiling in seconds (default 10)")
    serve.add_argument("--max-active", type=int, default=2,
                       help="campaigns running concurrently; the rest "
                            "queue FIFO (default 2)")
    serve.add_argument("--chaos-kill-after", type=int, default=None,
                       metavar="N",
                       help="chaos testing: SIGKILL a worker after N "
                            "streamed trials, once per campaign — the "
                            "retry path must converge to the identical "
                            "journal (CI uses this)")
    serve.set_defaults(handler=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a fault-injection campaign to a running server",
    )
    submit.add_argument("module")
    _add_campaign_flags(submit)
    submit.add_argument("--server", default="http://127.0.0.1:8344",
                        help="campaign server URL "
                             "(default http://127.0.0.1:8344)")
    submit.add_argument("--batch-size", type=int, default=None,
                        help="trials per dispatched batch "
                             "(default: auto, eight per worker)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the campaign finishes and print "
                             "its outcome summary")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait limit in seconds (default 600)")
    submit.add_argument("--progress", action="store_true",
                        help="report completed-trial counts on stderr "
                             "while waiting")
    submit.add_argument("--journal-out", default=None, metavar="PATH",
                        help="after completion, download the campaign "
                             "journal to this local path (bytes identical "
                             "to a one-shot inject --journal run)")
    submit.set_defaults(handler=cmd_submit)

    status = sub.add_parser(
        "status", help="query a running campaign server",
    )
    status.add_argument("id", nargs="?", default=None,
                        help="campaign id (omit for server overview)")
    status.add_argument("--server", default="http://127.0.0.1:8344")
    status.add_argument("--store", default=None, metavar="PATH",
                        help="inspect an incremental section store "
                             "offline instead of querying a server")
    status.add_argument("--by-section", action="store_true",
                        help="with --store: print the per-section "
                             "distribution table")
    status.set_defaults(handler=cmd_status)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential-fuzzing campaign over the toolchain"
    )
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--budget", type=int, default=200,
                        help="number of generated programs (default 200)")
    fuzz_p.add_argument("--start", type=int, default=0,
                        help="first program index (default 0)")
    fuzz_p.add_argument("--profile", default="default",
                        choices=["default", "small", "threads"],
                        help="generator size profile (default 'default')")
    fuzz_p.add_argument("--oracles",
                        default=",".join(
                            ("semantic", "conservative", "opt",
                             "rollback", "replay", "campaign", "prune")),
                        help="comma-separated oracle list (default: all)")
    fuzz_p.add_argument("--campaign-every", type=int, default=25,
                        help="run the pool-spawning campaign-equivalence "
                             "oracle on every Nth program (default 25; "
                             "0 disables it)")
    fuzz_p.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes; journals and corpora are "
                             "identical to --jobs 1 for any value")
    fuzz_p.add_argument("--chunk-size", type=int, default=None,
                        help="programs per dispatched batch (default: "
                             "auto, eight batches per worker)")
    fuzz_p.add_argument("--journal", default=None, metavar="PATH",
                        help="append per-program results to a JSONL "
                             "journal (its SHA-256 is the campaign "
                             "fingerprint)")
    fuzz_p.add_argument("--resume", default=None, metavar="PATH",
                        help="resume a fuzz campaign from its journal")
    fuzz_p.add_argument("--corpus", default=None, metavar="DIR",
                        help="write reduced repros of unique failures "
                             "into this directory")
    fuzz_p.add_argument("--no-reduce", action="store_true",
                        help="report findings without delta-debugging "
                             "them")
    fuzz_p.add_argument("--max-reduce-checks", type=int, default=2000,
                        help="predicate-evaluation budget per reduction "
                             "(default 2000)")
    fuzz_p.add_argument("--progress", action="store_true",
                        help="report completed-program counts on stderr")
    fuzz_p.add_argument("--replay", type=int, default=None,
                        metavar="PROGRAM_SEED",
                        help="regenerate one program from its per-program "
                             "seed and run the oracles on it (exit 1 on "
                             "failure); ignores budget/journal options")
    fuzz_p.set_defaults(handler=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream reader (``| head``) closed the pipe; exit quietly
        # with the conventional 128+SIGPIPE code instead of a traceback.
        # Point stdout at devnull so the interpreter's shutdown flush of
        # the half-written buffer doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
