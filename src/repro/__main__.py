"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``flow``    — run the post-OPC timing flow on a built-in design
* ``sweep``   — run all OPC modes through one shared flow context
* ``serve``   — flow-as-a-service front-end (bounded job queue over a
  shared cache; JSON-lines protocol on a UNIX or TCP socket)
* ``sta``     — drawn-CD static timing report
* ``liberty`` — emit the characterized library as Liberty text
* ``gds``     — write a placed design (and optionally its OPC mask) to GDSII
* ``litho``   — print the calibrated process signature (CD through pitch)
* ``lint``    — static determinism/contract checks (AST rules + waivers)
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cells import build_library
from repro.circuits import (
    array_multiplier,
    c17,
    carry_select_adder,
    kogge_stone_adder,
    random_logic,
    ripple_carry_adder,
    structured_asic,
    testchip,
)
from repro.pdk import make_tech_90nm

DESIGNS = {
    "c17": lambda lib: c17(lib),
    "rca4": lambda lib: ripple_carry_adder(4),
    "rca8": lambda lib: ripple_carry_adder(8),
    "csa6": lambda lib: carry_select_adder(6, block=2),
    "ksa8": lambda lib: kogge_stone_adder(8),
    "mult4": lambda lib: array_multiplier(4),
    "rand80": lambda lib: random_logic(80, n_inputs=10, seed=3),
    "testchip": lambda lib: testchip(bits=3, random_gates=24),
    "fabric1k": lambda lib: structured_asic(1000),
    "fabric3k": lambda lib: structured_asic(3000),
}


def _make_design(name: str, library, design_size=None):
    if design_size is not None:
        # --design-size overrides --design: an exactly-sized structured-ASIC
        # vehicle (seeded, so the same size is the same netlist every run).
        return structured_asic(design_size)
    if name not in DESIGNS:
        raise SystemExit(f"unknown design {name!r}; choose from {sorted(DESIGNS)}")
    return DESIGNS[name](library)


def _make_flow_engine(args):
    """Shared flow/sweep/serve setup: context (persistent if asked) +
    executor.

    A ``--run-dir`` without an explicit ``--cache-dir`` keeps the
    artifact cache inside the run directory, so the journal and the
    artifacts it references travel (and resume) together.
    """
    from repro.flow import FlowContext, ParallelExecutor, RunJournal

    max_bytes = None
    if args.cache_size_mb:
        max_bytes = int(args.cache_size_mb * 1e6)
    cache_dir = args.cache_dir
    if cache_dir is None and getattr(args, "run_dir", None):
        cache_dir = os.path.join(args.run_dir, RunJournal.CACHE_SUBDIR)
    context = FlowContext(cache_dir=cache_dir, max_disk_bytes=max_bytes)
    executor = ParallelExecutor.from_jobs(
        args.jobs, retries=args.retries, chunk_timeout=args.chunk_timeout
    )
    return context, executor


def cmd_run(args) -> int:
    """``flow`` and ``sweep``: one run of ``args.op``, journaled when
    ``--run-dir`` is given."""
    import json

    from repro.flow import (
        FlowConfig,
        FlowInterrupted,
        FlowReport,
        InputValidationError,
        InterruptGuard,
        PostOpcTimingFlow,
        RunJournal,
    )
    from repro.flow.driver import (
        failure,
        finish_failed,
        run_manifest,
        run_op,
        summarize,
    )

    if args.resume and not args.run_dir:
        raise InputValidationError("resume", "--resume requires --run-dir")
    tech = make_tech_90nm()
    library = build_library(tech)
    netlist = _make_design(args.design, library, args.design_size)
    context, executor = _make_flow_engine(args)
    flow = PostOpcTimingFlow(netlist, tech, cells=library,
                             executor=executor, context=context)
    # clock_period_ps=None derives the period from the flow's own drawn-STA
    # stage (one STA, served from the artifact cache — not a warm-up run).
    # A sweep overrides opc_mode per mode; its parser defaults --opc to none.
    config = FlowConfig(opc_mode=args.opc, clock_period_ps=args.period,
                        n_critical_paths=args.paths,
                        max_quarantine_fraction=args.max_quarantine_fraction,
                        litho_shards=args.litho_shards)
    journal = None
    if args.run_dir:
        opener = RunJournal.resume if args.resume else RunJournal.create
        journal = opener(args.run_dir,
                         run_manifest(args.design, args.op, flow, config))
    try:
        with InterruptGuard() as guard:
            result = run_op(flow, args.op, config, journal=journal,
                            interrupt=guard)
    except FlowInterrupted:
        if journal is not None:
            journal.close()  # the flow journaled the interruption
        raise
    except Exception as exc:
        if journal is not None:
            finish_failed(journal, *failure(exc))
        raise
    if isinstance(result, FlowReport):
        print(result.summary())
    else:
        print(result.table())
        print(f"context: {result.cache_summary()}")
    if journal is not None:
        summary = summarize(result)
        journal.finish("complete", **summary)
        print(f"journal: {journal.path} "
              f"({summary['cache_hits']} stages replayed from cache)")
    if isinstance(result, FlowReport):
        if args.cache_dir:
            print(f"cache: {context.summary()}")
        if args.trace:
            result.trace.write_json(args.trace)
            print(f"wrote trace {args.trace}")
        if args.gds:
            from repro.flow import export_flow_gds

            export_flow_gds(flow, result, args.gds)
            print(f"wrote {args.gds}")
    elif args.trace:
        payload = {mode: report.trace.as_dict()
                   for mode, report in result.reports.items()}
        payload["context"] = flow.context.stats()
        payload["failures"] = dict(result.failures)
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote trace {args.trace}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.flow import FlowService, InputValidationError, PostOpcTimingFlow

    if not args.socket and not args.tcp:
        raise InputValidationError(
            "socket", "serve needs --socket PATH and/or --tcp HOST:PORT"
        )
    tech = make_tech_90nm()
    library = build_library(tech)
    # One shared context: every job of every design dedups against it.
    context, executor = _make_flow_engine(args)
    flows = {
        name: PostOpcTimingFlow(_make_design(name, library), tech,
                                cells=library, executor=executor,
                                context=context)
        for name in (args.designs or ["c17"])
    }

    async def _serve() -> int:
        import signal

        service = FlowService(
            flows, max_queue=args.queue, workers=args.workers,
            run_root=args.run_root,
            deadline_s=args.deadline,
            stage_timeout_s=args.stage_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            drain_timeout_s=args.drain_timeout,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-UNIX loop: ctrl-C lands as KeyboardInterrupt
        await service.start()
        try:
            if args.socket:
                await service.serve_unix(args.socket)
                print(f"serving on unix://{args.socket}")
            if args.tcp:
                host, _, port = args.tcp.rpartition(":")
                host = host or "127.0.0.1"
                await service.serve_tcp(host, int(port))
                print(f"serving on tcp://{host}:{port}")
            print(f"designs: {', '.join(sorted(flows))}; "
                  f"queue {args.queue}, workers {args.workers} "
                  "(SIGINT/SIGTERM stops after running jobs settle)")
            await stop.wait()
            print("stopping: draining running jobs...")
        finally:
            await service.stop(drain_timeout=args.drain_timeout)
        return 0

    return asyncio.run(_serve())


def cmd_sta(args) -> int:
    from repro.device import AlphaPowerModel
    from repro.place import place_rows
    from repro.timing import (
        StaEngine, TimingConstraints, characterize_library, report_summary,
        report_timing,
    )

    tech = make_tech_90nm()
    library = build_library(tech)
    netlist = _make_design(args.design, library)
    liberty = characterize_library(library, AlphaPowerModel(tech.device))
    engine = StaEngine(netlist, library, liberty, place_rows(netlist, library))
    result = engine.run(TimingConstraints(clock_period_ps=args.period or 1000.0))
    print(report_summary(result))
    print()
    print(report_timing(result, k=args.paths, netlist=netlist))
    return 0


def cmd_liberty(args) -> int:
    from repro.device import AlphaPowerModel
    from repro.timing import characterize_library, write_liberty

    tech = make_tech_90nm()
    library = build_library(tech)
    liberty = characterize_library(library, AlphaPowerModel(tech.device))
    text = write_liberty(liberty)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(liberty)} cells)")
    else:
        print(text)
    return 0


def cmd_gds(args) -> int:
    from repro.gds import write_gds
    from repro.place import assemble_layout, place_rows

    tech = make_tech_90nm()
    library = build_library(tech)
    netlist = _make_design(args.design, library)
    placement = place_rows(netlist, library)
    layout = assemble_layout(netlist, library, placement)
    write_gds(layout, args.out)
    print(f"wrote {args.out}: {netlist.gate_count} gates, "
          f"die {placement.die.width / 1000:.1f} x {placement.die.height / 1000:.1f} um")
    return 0


def cmd_litho(args) -> int:
    from repro.litho import LithographySimulator
    from repro.litho.simulator import cd_through_pitch

    tech = make_tech_90nm()
    sim = LithographySimulator.for_tech(tech)
    threshold = sim.calibrate_to_anchor(tech.rules.gate_length, tech.rules.poly_pitch)
    print(f"threshold {threshold:.3f} (anchor {tech.rules.gate_length:.0f} nm "
          f"@ {tech.rules.poly_pitch:.0f} nm pitch)")
    for pitch, cd in cd_through_pitch(sim, tech.rules.gate_length,
                                      [320, 400, 480, 640, 960, 1600]):
        print(f"  pitch {pitch:5.0f} nm -> printed CD {cd:6.1f} nm "
              f"({cd - tech.rules.gate_length:+.1f})")
    return 0


def cmd_lint(args) -> int:
    from repro.lintcheck.cli import list_rules, run_lint, write_fingerprints

    if args.list_rules:
        return list_rules()
    if args.write_stage_fingerprints:
        return write_fingerprints(
            args.paths,
            args.stage_fingerprints or ".repro-stage-fingerprints.json",
            exclude=args.exclude,
        )
    return run_lint(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        no_waivers=args.no_waivers,
        exclude=args.exclude,
        fmt=args.format,
        jobs=args.jobs,
        baseline=args.baseline,
        write_baseline_path=args.write_baseline,
        stage_fingerprints=args.stage_fingerprints,
        changed_only=args.changed,
    )


def _add_run_args(sub, op: str) -> None:
    """Everything ``flow`` and ``sweep`` share: design, timing and scale
    knobs plus the run directory.  Exit codes: 0 ok, 1 stage failure (or
    a sweep with no surviving mode), 2 interrupted (SIGINT/SIGTERM), 3
    input validation, 4 quarantine threshold exceeded."""
    sub.add_argument("--design", default="c17", choices=sorted(DESIGNS))
    sub.add_argument("--period", type=float, default=None,
                     help="clock period (ps); default derives it from the drawn STA")
    sub.add_argument("--paths", type=int, default=5)
    sub.add_argument("--design-size", type=int, default=None, metavar="GATES",
                     help="ignore --design and run a deterministic "
                          "structured-ASIC vehicle with exactly this many "
                          "gates (e.g. 3000)")
    sub.add_argument("--litho-shards", type=int, default=0, metavar="N",
                     help="shard metrology into at least N large overlapping "
                          "litho windows instead of per-gate tiles "
                          "(0 = classic tile path); results are "
                          "bit-identical between serial and parallel "
                          "execution of the same shard plan")
    sub.add_argument("--run-dir", default=None,
                     help="run directory: append-only journal.jsonl plus the "
                          "artifact cache (unless --cache-dir overrides it)")
    sub.add_argument("--resume", action="store_true",
                     help="continue an interrupted run from its --run-dir "
                          "journal + cache instead of recomputing")
    sub.add_argument("--max-quarantine-fraction", type=float, default=0.5,
                     help="abort (exit 4) when more than this fraction of "
                          "gates fell back to drawn CDs (default 0.5)")
    _add_engine_args(sub)
    sub.set_defaults(func=cmd_run, op=op)


def _add_engine_args(sub) -> None:
    """Executor and persistent-cache knobs shared by flow/sweep/serve."""
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for the OPC/metrology tile loops")
    sub.add_argument("--cache-dir", default=None,
                     help="persist flow artifacts here; later runs (or other "
                          "processes) serve them as disk hits")
    sub.add_argument("--cache-size-mb", type=float, default=None,
                     help="cap the cache directory, evicting LRU entries")
    sub.add_argument("--retries", type=int, default=1,
                     help="retry a failed/crashed worker chunk this many times "
                          "before degrading it to serial execution")
    sub.add_argument("--chunk-timeout", type=float, default=None,
                     help="seconds before a worker chunk counts as failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="litho-aware timing analysis (DAC 2005 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="run the post-OPC timing flow")
    _add_run_args(flow, "flow")
    flow.add_argument("--opc", default="rule",
                      choices=["none", "rule", "model", "selective"])
    flow.add_argument("--trace", default=None,
                      help="write the per-stage trace (wall time, cache, counters) as JSON")
    flow.add_argument("--gds", default=None, help="also export layers to this GDS file")

    sweep = sub.add_parser(
        "sweep", help="run all OPC modes through one shared flow context"
    )
    _add_run_args(sweep, "sweep")
    sweep.add_argument("--trace", default=None,
                       help="write per-mode traces + context stats as JSON")
    sweep.set_defaults(opc="none")

    serve = sub.add_parser(
        "serve",
        help="serve flows over a bounded job queue (JSON-lines socket API)",
    )
    serve.add_argument("--designs", nargs="+", default=None,
                       choices=sorted(DESIGNS), metavar="DESIGN",
                       help="designs to pre-build and serve (default: c17)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="listen on a UNIX socket at this path")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="listen on a local TCP socket")
    serve.add_argument("--queue", type=int, default=16,
                       help="bounded job queue size; a full queue rejects "
                            "submits with reason queue-full (default 16)")
    serve.add_argument("--workers", type=int, default=2,
                       help="jobs running concurrently (default 2)")
    serve.add_argument("--run-root", default=None, metavar="DIR",
                       help="give every job a journaled run directory "
                            "DIR/<job-id>/")
    _add_engine_args(serve)
    serve.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="default per-job wall budget; past it the "
                            "watchdog fails the job with exit code 2 "
                            "(per-submit deadline_s overrides)")
    serve.add_argument("--stage-timeout", type=float, default=None,
                       metavar="S",
                       help="hung-stage watchdog: fail a job whose journal "
                            "is silent this long (needs --run-root)")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="S",
                       help="bound on shutdown: running jobs past this are "
                            "cancelled instead of awaited forever")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures that open a design's "
                            "circuit breaker (default 5)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="S",
                       help="seconds an open breaker rejects submits before "
                            "admitting a half-open probe (default 30)")
    serve.set_defaults(func=cmd_serve)

    sta = sub.add_parser("sta", help="drawn-CD timing report")
    sta.add_argument("--design", default="c17", choices=sorted(DESIGNS))
    sta.add_argument("--period", type=float, default=None)
    sta.add_argument("--paths", type=int, default=3)
    sta.set_defaults(func=cmd_sta)

    liberty = sub.add_parser("liberty", help="emit the characterized .lib")
    liberty.add_argument("--out", default=None)
    liberty.set_defaults(func=cmd_liberty)

    gds = sub.add_parser("gds", help="write a placed design to GDSII")
    gds.add_argument("--design", default="c17", choices=sorted(DESIGNS))
    gds.add_argument("--out", required=True)
    gds.set_defaults(func=cmd_gds)

    litho = sub.add_parser("litho", help="print the calibrated process signature")
    litho.set_defaults(func=cmd_litho)

    lint = sub.add_parser(
        "lint", help="static determinism & flow-contract checks"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directory trees to check (default: src)")
    lint.add_argument("--select", action="append", default=None, metavar="RULE",
                      help="run only this rule (repeatable, or "
                           "comma-separated)")
    lint.add_argument("--ignore", action="append", default=None, metavar="RULE",
                      help="skip this rule (repeatable, or comma-separated)")
    lint.add_argument("--changed", action="store_true",
                      help="lint only files changed against git HEAD "
                           "(plus untracked) under the given paths")
    lint.add_argument("--exclude", action="append", default=None, metavar="SUBSTR",
                      help="drop files whose path contains this substring "
                           "(e.g. the checker's own violation corpus)")
    lint.add_argument("--no-waivers", action="store_true",
                      help="report findings even where a "
                           "`# repro-lint: allow[...]` waiver covers them")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="output format (sarif = SARIF 2.1.0 for code "
                           "scanning; default: text)")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan per-module rules out over N worker "
                           "processes (default: 1 = serial)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="suppress findings grandfathered in this "
                           "baseline file")
    lint.add_argument("--write-baseline", nargs="?", metavar="PATH",
                      const=".repro-lint-baseline.json", default=None,
                      help="record the current findings as the baseline "
                           "(default path: .repro-lint-baseline.json) and exit 0")
    lint.add_argument("--stage-fingerprints", default=None, metavar="PATH",
                      help="stage version fingerprint file for the "
                           "stale-version rule (default: "
                           ".repro-stage-fingerprints.json when present)")
    lint.add_argument("--write-stage-fingerprints", action="store_true",
                      help="record current stage (version, shape) "
                           "fingerprints and exit 0")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # repro-lint: allow[broad-except] top-level CLI handler: maps FlowError exit codes
    except Exception as exc:
        # The structured FlowError taxonomy carries its own exit code
        # (2 interrupted, 3 validation, 4 quarantine, 1 other FlowError);
        # anything else keeps the raw traceback.
        exit_code = getattr(exc, "exit_code", None)
        if isinstance(exit_code, int):
            print(f"error: {exc}", file=sys.stderr)
            return exit_code
        raise


if __name__ == "__main__":
    sys.exit(main())
