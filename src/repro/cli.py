"""Command-line interface to the RECORD reproduction.

Usage (also available as ``python -m repro ...``)::

    python -m repro targets                      # list registered processors
    python -m repro kernels                      # list DSPStone kernels
    python -m repro retarget tms320c25           # retargeting report
    python -m repro retarget tms320c25 --templates --bnf
    python -m repro retarget my_asip.hdl         # retarget a user HDL file
    python -m repro compile tms320c25 prog.c     # compile a source file
    python -m repro compile tms320c25 --kernel fir --baseline --binary
    python -m repro compile tms320c25 --kernel fir --preset no-chained
    python -m repro compile tms320c25 --kernel fir --json --timings
    python -m repro compile tms320c25 --kernel fir --no-opt
    python -m repro compile tms320c25 --kernel fir --verify --timings
    python -m repro lint-target tms320c25        # grammar/matcher lints
    python -m repro compile tms320c25 --kernel fir_loop  # loop kernel -> labelled CFG
    python -m repro opt prog.c                   # IR optimizer before/after
    python -m repro opt --kernel fir_loop --stages fold,gvn,dce   # a stage subset
    python -m repro fuzz                         # differential fuzz campaign
    python -m repro fuzz --seed 7 --budget 500 --targets ref --oracle sim,opt
    python -m repro batch jobs.jsonl             # concurrent batch service
    python -m repro batch - --jobs 4 < jobs.jsonl
    python -m repro batch jobs.jsonl --backend process --workers 4
    python -m repro serve                        # HTTP compile server
    python -m repro serve --backend process --workers 4 --port 8357
    python -m repro cache                        # retarget-cache statistics
    python -m repro cache --clear
    python -m repro table3                       # print table 3
    python -m repro figure2                      # print figure 2

The CLI is a thin layer over :mod:`repro.toolchain`: targets are resolved
through the :class:`~repro.toolchain.TargetRegistry` (built-in names and
HDL file paths alike), retargeting goes through the on-disk
:class:`~repro.toolchain.RetargetCache` (disable with ``--no-cache``,
relocate with ``--cache-dir`` or ``$REPRO_CACHE_DIR``), and compilation
runs the configured pass pipeline (``--preset`` selects an ablation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.baselines import hand_reference_size, has_hand_reference_size
from repro.diagnostics import InternalCompilerError, ReproError, error_report
from repro.dspstone import all_kernel_names, get_kernel, loop_kernel_names
from repro.grammar import grammar_to_bnf
from repro.opt import OptPipeline
from repro.record.report import (
    compilation_report,
    format_processor_class_report,
    retargeting_report,
)
from repro.toolchain import (
    PRESETS,
    PipelineConfig,
    RetargetCache,
    Session,
    Toolchain,
    default_registry,
)


def _cache_from_args(args) -> Optional[RetargetCache]:
    """The retarget cache selected by the CLI flags (None = disabled)."""
    if getattr(args, "no_cache", False):
        return RetargetCache(directory=False)
    return RetargetCache(directory=getattr(args, "cache_dir", None) or None)


def _session(args, config: Optional[PipelineConfig] = None) -> Session:
    """Resolve ``args.target`` (name or HDL path) into a session."""
    toolchain = Toolchain(cache=_cache_from_args(args))
    try:
        return toolchain.session(args.target, config=config)
    except ReproError as error:
        raise SystemExit("error: %s" % error_report(error))


def _read_text(path: str) -> str:
    """The text of a file the user named (one that cannot be read is a
    user error, not an internal one)."""
    try:
        with open(path, "r") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise SystemExit("error: cannot read %r: %s" % (path, error))


def _program_text(args) -> Tuple[str, str]:
    """The source ``compile`` and ``opt`` work on, and its name: the
    ``--kernel NAME`` kernel's, or the source file's."""
    if args.kernel:
        kernel = get_kernel(args.kernel)
        return kernel.source, kernel.name
    if not args.source:
        raise SystemExit("error: provide a source file or --kernel NAME")
    return _read_text(args.source), os.path.basename(args.source)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_targets(_args) -> int:
    registry = default_registry()
    for name in registry:
        spec = registry.get(name)
        print("%-12s %-20s %s" % (name, spec.category, spec.description))
    return 0


def _cmd_kernels(_args) -> int:
    for name in all_kernel_names():
        kernel = get_kernel(name)
        parameters = ", ".join("%s=%d" % (k, v) for k, v in kernel.parameters.items())
        print("%-22s %-55s %s" % (name, kernel.description, parameters))
    print()
    print("loop forms (compile to multi-block CFGs; each simulates equal")
    print("to its unrolled counterpart at the documented trip count):")
    for name in loop_kernel_names():
        kernel = get_kernel(name)
        parameters = ", ".join("%s=%d" % (k, v) for k, v in kernel.parameters.items())
        print("%-22s %-55s %s  (unrolled: %s)" % (
            name, kernel.description, parameters, kernel.unrolled))
    return 0


def _cmd_retarget(args) -> int:
    # The report's parser_generation phase times emitting the matcher
    # module, so this command asks for it; sessions never do.
    try:
        spec = default_registry().resolve(args.target)
        result, _hit = _cache_from_args(args).get_or_retarget(
            spec.hdl_source, generate_matcher=True
        )
    except ReproError as error:
        raise SystemExit("error: %s" % error_report(error))
    print(retargeting_report(result))
    if args.features:
        print(format_processor_class_report(result))
    if args.templates:
        print("Extended RT template base (%d templates):" % result.template_count)
        for template in result.template_base:
            print("  " + template.render())
        print()
    if args.bnf:
        print(grammar_to_bnf(result.grammar))
    return 0


def _cmd_lint_target(args) -> int:
    from repro.analysis import lint_target

    result = _session(args).retarget_result
    findings = lint_target(result)
    for finding in findings:
        print("%-7s %s" % (finding.severity + ":", finding.describe()))
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = sum(1 for finding in findings if finding.severity == "warning")
    print(
        "%s: %d finding(s) -- %d error(s), %d warning(s), %d note(s)"
        % (result.processor, len(findings), errors, warnings,
           len(findings) - errors - warnings)
    )
    return 1 if errors else 0


def _cmd_compile(args) -> int:
    if args.baseline and args.preset:
        raise SystemExit("error: --baseline and --preset are mutually exclusive")
    if args.baseline:
        config = PipelineConfig.preset("conventional")
    elif args.preset:
        config = PipelineConfig.preset(args.preset)
    else:
        config = PipelineConfig()
    if args.binary:
        config = config.with_updates(encode=True)
    if args.no_opt:
        # Byte-identical pre-optimizer pipeline: selection runs on the
        # raw lowered trees.
        config = config.with_updates(use_optimizer=False)
    if args.verify:
        config = config.with_updates(verify=True)
    source, name = _program_text(args)
    tracer = None
    if getattr(args, "trace", None):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer(name="repro-compile")
    if tracer is not None:
        # Session construction under the tracer too: a cold cache then
        # shows the retarget:* phases in the same trace as the compile.
        with use_tracer(tracer):
            session = _session(args, config=config)
    else:
        session = _session(args, config=config)
    try:
        compiled = session.compile(source, name=name, tracer=tracer)
    except InternalCompilerError:
        raise  # the top-level boundary turns this into exit code 70
    except ReproError as error:
        raise SystemExit("error: %s" % error_report(error))
    if tracer is not None:
        tracer.write_chrome_trace(
            args.trace, process_name="repro compile %s" % session.processor
        )
        print(
            "trace written to %s (open in Perfetto / chrome://tracing, "
            "or run: repro trace %s)" % (args.trace, args.trace),
            file=sys.stderr,
        )
    if args.json:
        print(compiled.to_json(indent=2))
        return 0
    print(compiled.listing())
    print("code size: %d instruction words (%d RT operations, %d spills)" % (
        compiled.code_size, compiled.operation_count, compiled.spill_count))
    if args.kernel and has_hand_reference_size(args.kernel):
        # Only the unrolled figure-2 kernels have a hand-written size;
        # loop-form kernels print the listing and metrics alone.
        hand = hand_reference_size(args.kernel)
        print("relative to hand-written reference (%d words): %.0f%%" % (
            hand, 100.0 * compiled.code_size / hand))
    if args.timings:
        print()
        print(compilation_report(compiled))
    if args.binary:
        print("\nbinary encoding (dash = don't-care bit):")
        print(compiled.encoding)
    return 0


def _cmd_opt(args) -> int:
    """Run the (target-independent) IR optimizer and print before/after."""
    from repro.frontend.lowering import lower_to_program

    source, name = _program_text(args)
    try:
        program = lower_to_program(source, name=name)
    except ReproError as error:
        raise SystemExit("error: %s" % error_report(error))
    stages = None
    if args.stages:
        stages = [stage.strip() for stage in args.stages.split(",") if stage.strip()]
    try:
        pipeline = OptPipeline(stages=stages)
    except ReproError as error:
        raise SystemExit("error: %s" % error_report(error))
    snapshots = []
    optimized, stats = pipeline.run(
        program,
        observer=lambda stage, prog: snapshots.append((stage, prog)),
    )

    def _print_program(prog) -> None:
        multi_block = not prog.is_straight_line()
        for block in prog.blocks:
            if multi_block:
                print("  %s:" % block.name)
            indent = "    " if multi_block else "  "
            for statement in block.statements:
                print("%s%s" % (indent, statement))
            if block.terminator is not None:
                print("%s%s" % (indent, block.terminator))

    print("== before (%d statements, %d IR nodes) ==" % (
        stats.statements_before, stats.nodes_before))
    _print_program(program)

    if not program.is_straight_line():
        from repro.analysis import (
            ControlFlowGraph,
            loop_nesting_forest,
            render_forest,
        )

        forest = loop_nesting_forest(ControlFlowGraph.from_program(program))
        if forest.loops:
            print("== loop nesting forest ==")
            for line in render_forest(forest):
                print("  %s" % line)

    def _signature(prog):
        return {
            block.name: [str(statement) for statement in block.statements]
            for block in prog.blocks
        }

    print("== stages ==")
    previous = _signature(program)
    for stage, prog in snapshots:
        changes = []
        for block in prog.blocks:
            if block.name not in previous:
                changes.append(
                    "+%s (%d statement(s))" % (block.name, len(block.statements))
                )
            elif _signature(prog)[block.name] != previous[block.name]:
                changes.append(
                    "%s: %d -> %d statement(s)"
                    % (
                        block.name,
                        len(previous[block.name]),
                        len(block.statements),
                    )
                )
        current_names = {block.name for block in prog.blocks}
        for name in previous:
            if name not in current_names:
                changes.append("-%s" % name)
        print("  %-6s %s" % (stage, "; ".join(changes) if changes else "(no change)"))
        previous = _signature(prog)

    print("== after (%d statements, %d IR nodes) ==" % (
        stats.statements_after, stats.nodes_after))
    _print_program(optimized)
    if optimized.hw_loops:
        for latch, hw in sorted(optimized.hw_loops.items()):
            print("  ; hardware loop: %s x%d (%s)" % (latch, hw.trip_count, hw.kind))
    print("stats: %d fold(s), %d algebraic rewrite(s), "
          "%d temp(s) introduced, %d dead temp(s) removed" % (
              stats.folds, stats.algebraic,
              stats.temps_introduced, stats.dead_removed))
    print("global: %d gvn hit(s), %d loop(s) rotated, %d licm hoist(s), "
          "%d strength reduction(s), %d hardware loop(s)" % (
              stats.gvn_hits, stats.loops_rotated, stats.licm_hoisted,
              stats.strength_reductions, stats.hw_loops))
    for rule in sorted(stats.rewrites):
        print("    %-18s %4d" % (rule, stats.rewrites[rule]))
    return 0


def _batch_backend(args, jobs):
    """The compile backend selected by ``--backend``/``--workers``."""
    from repro.service import ProcessCompileBackend, ThreadCompileBackend

    if args.backend == "process":
        # Warm exactly the targets the batch names; the spool directory
        # ships their pre-built tables to every worker.
        targets = sorted(
            {
                str(job.get("target"))
                for job in jobs
                if isinstance(job, dict) and job.get("target")
            }
        )
        return ProcessCompileBackend(
            workers=args.jobs,
            warm_targets=targets,
            cache_dir=getattr(args, "cache_dir", None) or None,
        )
    return ThreadCompileBackend(workers=args.jobs, cache=_cache_from_args(args))


def _cmd_batch(args) -> int:
    """Run a job file (NDJSON, a JSON array or ``{"jobs": [...]}``)
    through a compile backend."""
    from repro.service.api import parse_jobs
    from repro.service.backends import strip_result

    jobs = parse_jobs(
        sys.stdin.read() if args.jobs_file == "-" else _read_text(args.jobs_file)
    )
    backend = _batch_backend(args, jobs)
    try:
        replies = list(backend.stream_responses(jobs))
    finally:
        stats = backend.stats()
        backend.close()
    output = sys.stdout
    close_output = False
    if args.output and args.output != "-":
        try:
            output = open(args.output, "w")
        except OSError as error:
            raise SystemExit("error: cannot write %r: %s" % (args.output, error))
        close_output = True
    try:
        for _summary, body in replies:  # the bytes the server would send
            output.write((strip_result(body) if args.no_results else body).decode() + "\n")
    finally:
        if close_output:
            output.close()
    if args.stats:
        print(json.dumps(stats, indent=2), file=sys.stderr)
    return 0 if all(summary.get("ok") for summary, _body in replies) else 1


def _cmd_serve(args) -> int:
    """Run the HTTP/JSON compile server until interrupted."""
    from repro.server import make_server
    from repro.service import BackendError, create_backend, default_process_workers

    if args.log_format:
        from repro.obs import log

        # Both configure this process and export the choice so spawned
        # compile workers inherit it over the environment.
        os.environ["REPRO_LOG"] = args.log_format
        log.configure(format=args.log_format)
    backend_kwargs: dict = {}
    if args.backend == "process":
        backend_kwargs["cache_dir"] = getattr(args, "cache_dir", None) or None
        if args.prewarm:
            backend_kwargs["warm_targets"] = [
                name.strip() for name in args.prewarm.split(",") if name.strip()
            ]
        if args.timeout is not None:
            backend_kwargs["request_timeout_s"] = args.timeout
    else:
        backend_kwargs["cache"] = _cache_from_args(args)
    try:
        backend = create_backend(args.backend, workers=args.workers, **backend_kwargs)
    except BackendError as error:
        raise SystemExit("error: %s" % error_report(error))
    server = make_server(
        host=args.host,
        port=args.port,
        backend=backend,
        queue_limit=args.queue_limit,
        max_body_bytes=args.max_body,
        verbose=args.verbose,
    )
    workers = args.workers or (
        default_process_workers() if args.backend == "process" else backend.workers
    )
    print(
        "serving on %s (backend=%s, workers=%d, queue limit=%d)"
        % (server.url, args.backend, workers, server.gate.capacity)
    )
    print("endpoints: POST /compile, POST /batch, GET /healthz, GET /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _cmd_trace(args) -> int:
    """Render the flame summary of a compile trace (see ``repro trace``)."""
    import json

    from repro.obs.trace import Tracer, flame_summary, use_tracer

    if args.trace_file and args.target:
        raise SystemExit(
            "error: pass either a trace file or --target, not both"
        )
    if args.trace_file:
        try:
            trace = json.loads(_read_text(args.trace_file))
        except ValueError as error:
            raise SystemExit(
                "error: %s is not valid trace-event JSON: %s"
                % (args.trace_file, error)
            )
        print(flame_summary(trace), end="")
        return 0
    if not args.target:
        raise SystemExit(
            "error: provide a trace file, or --target (with --kernel) "
            "to compile under a tracer on the fly"
        )
    if not args.kernel:
        raise SystemExit("error: --target needs --kernel NAME")
    kernel = get_kernel(args.kernel)
    tracer = Tracer(name="repro-trace")
    with use_tracer(tracer):
        session = _session(args)
        try:
            session.compile(kernel.source, name=kernel.name, tracer=tracer)
        except InternalCompilerError:
            raise
        except ReproError as error:
            raise SystemExit("error: %s" % error_report(error))
    trace = tracer.to_chrome_trace(
        process_name="repro trace %s" % session.processor
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(trace, handle, indent=2)
        print("trace written to %s" % args.out, file=sys.stderr)
    print(flame_summary(trace), end="")
    return 0


def _cmd_fuzz(args) -> int:
    """Run a differential fuzzing campaign (see :mod:`repro.fuzz`)."""
    from repro.fuzz import run_campaign, save_finding
    from repro.fuzz.generator import GENERATOR_PROFILES

    targets = None
    if args.targets:
        targets = [name.strip() for name in args.targets.split(",") if name.strip()]
    oracles = None
    if args.oracle:
        oracles = [name.strip() for name in args.oracle.split(",") if name.strip()]

    def progress(done: int, budget: int) -> None:
        if done % 25 == 0 or done == budget:
            print("fuzz: %d/%d programs" % (done, budget), file=sys.stderr)

    try:
        report = run_campaign(
            seed=args.seed,
            budget=args.budget,
            targets=targets,
            oracles=oracles,
            generator_config=GENERATOR_PROFILES[args.generator],
            minimize=not args.no_minimize,
            toolchain=Toolchain(cache=_cache_from_args(args)),
            verify=True if args.verify else None,
            max_findings=args.max_findings,
            progress=progress if not args.json else None,
        )
    except ValueError as error:
        raise SystemExit("error: %s" % error)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    print(report.summary())
    for finding in report.findings:
        print()
        print("%s [%s oracle, target %s, seed %d, hash %s]" % (
            finding.kind, finding.oracle, finding.target,
            finding.seed, finding.hash))
        print("  detail: %s" % finding.detail)
        print("  reproducer:")
        for line in finding.reproducer.splitlines():
            print("    " + line)
        if args.promote:
            path = save_finding(finding, args.promote)
            print("  promoted to %s" % path)
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    cache = _cache_from_args(args)
    if args.clear:
        removed = cache.clear()
        print("removed %d cached retarget result(s) from %s" % (
            removed, cache.directory or "(memory)"))
        return 0
    # Only the disk tier outlives a CLI invocation; the in-process
    # hit/miss counters of a fresh cache object would always read 0.
    stats = cache.stats()
    for key in ("directory", "disk_entries"):
        print("%-16s %s" % (key, stats[key]))
    return 0


def _cmd_table3(_args) -> int:
    from benchmarks.bench_table3_retargeting import main as table3_main  # pragma: no cover

    table3_main()
    return 0


def _cmd_figure2(_args) -> int:
    from benchmarks.bench_figure2_codesize import main as figure2_main  # pragma: no cover

    figure2_main()
    return 0


def _table3_fallback(args) -> int:
    """Inline table 3 printing that does not require the benchmarks package."""
    cache = _cache_from_args(args)
    registry = default_registry()
    header = "%-12s %14s %22s" % ("target", "RT templates", "retargeting time [s]")
    print(header)
    print("-" * len(header))
    for name in registry:
        result, hit = cache.get_or_retarget(registry.hdl_source(name))
        timing = "(cached)" if hit else "%22.3f" % result.timings.total
        print("%-12s %14d %22s" % (name, result.template_count, timing))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-run the retargeting flow (skip the retarget cache)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="retarget cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro/retarget)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RECORD reproduction: retargetable code selector generation "
        "from HDL processor models (Leupers & Marwedel, DATE 1997).",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("targets", help="list registered target processors")
    subparsers.add_parser("kernels", help="list DSPStone kernels")

    retarget_parser = subparsers.add_parser(
        "retarget", help="retarget RECORD to a processor and print the report"
    )
    retarget_parser.add_argument("target", help="registered target name or HDL file path")
    retarget_parser.add_argument("--templates", action="store_true", help="print the extended RT template base")
    retarget_parser.add_argument("--bnf", action="store_true", help="print the tree grammar in BNF form")
    retarget_parser.add_argument("--features", action="store_true", help="print the table-1 feature checklist")
    _add_cache_flags(retarget_parser)

    compile_parser = subparsers.add_parser("compile", help="compile a program for a target")
    compile_parser.add_argument("target", help="registered target name or HDL file path")
    compile_parser.add_argument("source", nargs="?", help="source file in the C-like input language")
    compile_parser.add_argument("--kernel", help="compile a named DSPStone kernel instead of a file")
    compile_parser.add_argument("--baseline", action="store_true", help="use the conventional-compiler baseline")
    compile_parser.add_argument(
        "--preset", choices=sorted(PRESETS),
        help="pipeline preset (ablations of the paper's experiments)",
    )
    compile_parser.add_argument("--binary", action="store_true", help="also print the binary instruction encoding")
    compile_parser.add_argument(
        "--json", action="store_true",
        help="emit the structured CompilationResult as JSON instead of text",
    )
    compile_parser.add_argument(
        "--timings", action="store_true",
        help="print per-pass wall-clock timings and diagnostics",
    )
    compile_parser.add_argument(
        "--no-opt", action="store_true",
        help="skip the IR optimizer (byte-identical pre-optimizer pipeline)",
    )
    compile_parser.add_argument(
        "--verify", action="store_true",
        help="run the static pipeline verifier after every pass "
        "(invariant violations abort the compile with a diagnostic)",
    )
    compile_parser.add_argument(
        "--trace", metavar="FILE",
        help="record the compile as Chrome trace-event JSON in FILE "
        "(open in Perfetto/chrome://tracing, or render with 'repro trace FILE')",
    )
    _add_cache_flags(compile_parser)

    trace_parser = subparsers.add_parser(
        "trace",
        help="render a per-pass flame summary from a compile trace",
        description="Renders the span tree of a Chrome trace-event JSON "
        "file produced by 'repro compile --trace' (or by a traced service "
        "request) as an indented per-pass flame summary.  Alternatively, "
        "--target/--kernel compiles on the fly under a tracer and "
        "summarizes that trace directly.",
    )
    trace_parser.add_argument(
        "trace_file", nargs="?",
        help="trace-event JSON file written by 'repro compile --trace'",
    )
    trace_parser.add_argument(
        "--target", help="compile on the fly: registered target name or HDL file path"
    )
    trace_parser.add_argument(
        "--kernel", help="DSPStone kernel to compile when using --target"
    )
    trace_parser.add_argument(
        "--out", metavar="FILE",
        help="with --target, also write the raw trace-event JSON to FILE",
    )
    _add_cache_flags(trace_parser)

    lint_parser = subparsers.add_parser(
        "lint-target",
        help="static lints over a retargeted processor's tree grammar",
        description="Reports unreachable and shadowed grammar rules, "
        "zero-cost chain cycles and operators no subject tree can "
        "contain, computed from the same matcher tables the selector "
        "runs on.  Exit status 1 when any error-severity finding exists.",
    )
    lint_parser.add_argument("target", help="registered target name or HDL file path")
    _add_cache_flags(lint_parser)

    opt_parser = subparsers.add_parser(
        "opt",
        help="run the IR optimizer on a program and print before/after",
        description="Target-independent view of the repro.opt pipeline, "
        "stage by stage, with per-rewrite statistics.  Stages: %s; "
        "the default run is all of them, in this order."
        % ", ".join(OptPipeline.STAGES),
    )
    opt_parser.add_argument("source", nargs="?", help="source file in the C-like input language")
    opt_parser.add_argument("--kernel", help="optimize a named DSPStone kernel instead of a file")
    opt_parser.add_argument(
        "--stages", metavar="LIST",
        help="comma-separated stages to run, in the order given, from %s "
        "(default: %s)"
        % (",".join(OptPipeline.STAGES), ",".join(OptPipeline.DEFAULT_STAGES)),
    )

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a batch job file through a compile backend",
        description="The job file holds NDJSON (one JSON object per line; "
        "blank and # lines are skipped), a JSON array of jobs, or "
        '{"jobs": [...]}. A job is '
        '{"target": "tms320c25", "kernel": "fir"} or '
        '{"target": "demo", "source": "int a, b; b = a + 1;", "name": "inc", '
        '"preset": "no-chained", "request_id": "job-1"}. '
        'An "opt": false field skips the IR optimizer for that job '
        "(A/B the optimizer under load). "
        "One JSON response line is emitted per job, in input order; a "
        "failing job yields a structured error response and never kills "
        "the batch.",
    )
    batch_parser.add_argument("jobs_file", help="job file ('-' for stdin)")
    batch_parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="execution backend: 'thread' shares one process (fast startup, "
        "single core); 'process' runs a worker-process pool warmed from a "
        "shared retarget-cache spool (scales with cores)",
    )
    batch_parser.add_argument(
        "--jobs", "-j", "--workers", dest="jobs", type=int, default=None,
        metavar="N",
        help="worker count (default: min(batch size, 8) threads, or one "
        "process per CPU core with --backend process)",
    )
    batch_parser.add_argument(
        "--output", "-o", metavar="FILE",
        help="write response lines to FILE instead of stdout",
    )
    batch_parser.add_argument(
        "--no-results", action="store_true",
        help="omit the embedded CompilationResult from responses (status only)",
    )
    batch_parser.add_argument(
        "--stats", action="store_true",
        help="print backend statistics (completed/failed, per target, "
        "session pool) to stderr after the batch",
    )
    _add_cache_flags(batch_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP/JSON compile server",
        description="Serves POST /compile (one job object in, one "
        "response envelope out), POST /batch (JSON array, {\"jobs\": [...]} "
        "or NDJSON in; streaming NDJSON out), GET /healthz and GET /metrics "
        "(Prometheus text). Saturation yields HTTP 429 with Retry-After; "
        "malformed bodies yield structured JSON errors. The process backend "
        "spreads compiles across CPU cores.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8357, help="TCP port (default: 8357; 0 = ephemeral)")
    serve_parser.add_argument(
        "--backend", choices=("thread", "process"), default="process",
        help="compile backend (default: process -- one worker per core)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count (default: os.cpu_count() processes, or 8 threads)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="max in-flight jobs before requests get 429 (default: 4 x workers)",
    )
    serve_parser.add_argument(
        "--max-body", type=int, default=1 << 20, metavar="BYTES",
        help="request-body size limit (default: 1 MiB; larger bodies get 413)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request timeout for the process backend (a stuck worker is "
        "killed and respawned; default: 60)",
    )
    serve_parser.add_argument(
        "--prewarm", metavar="LIST", default="all",
        help="comma-separated targets to prewarm into workers (default: all "
        "built-ins; process backend only)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr",
    )
    serve_parser.add_argument(
        "--log-format", choices=("json", "text", "off"), default=None,
        help="structured logging format for the server and its workers "
        "(overrides the REPRO_LOG environment variable; default: off)",
    )
    _add_cache_flags(serve_parser)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="run a differential fuzzing campaign over generated programs",
        description="Generates seeded structured programs (nested control "
        "flow, arrays, fold/CSE-shaped expressions) and cross-checks, per "
        "program and target: storage-faithful RT simulation against "
        "reference execution ('sim'), the optimized pipeline against "
        "--no-opt ('opt'), and the table-driven BURS matcher against the "
        "interpretive matcher ('matcher').  Divergences and crashes are "
        "delta-debugged to minimal reproducers; exit status is 1 when any "
        "finding survives.",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="campaign seed; every program derives deterministically from it "
        "(default: 0)",
    )
    fuzz_parser.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="number of generated programs (default: 200)",
    )
    fuzz_parser.add_argument(
        "--targets", metavar="LIST",
        help="comma-separated targets (default: %s)" % ",".join(
            ("demo", "ref", "tms320c25")),
    )
    fuzz_parser.add_argument(
        "--oracle", metavar="LIST",
        help="comma-separated oracle subset: sim, opt, matcher (default: all)",
    )
    fuzz_parser.add_argument(
        "--generator", choices=("default", "loops"), default="default",
        help="generator profile: 'loops' produces loop-dominated programs "
             "aimed at the rotation/LICM/hardware-loop pipeline",
    )
    fuzz_parser.add_argument(
        "--no-minimize", action="store_true",
        help="report raw findings without delta-debugging them",
    )
    fuzz_parser.add_argument(
        "--verify", action="store_true",
        help="run the static pipeline verifier inside every compile leg",
    )
    fuzz_parser.add_argument(
        "--max-findings", type=int, default=25, metavar="N",
        help="stop the campaign after N findings (default: 25)",
    )
    fuzz_parser.add_argument(
        "--promote", metavar="DIR",
        help="save each minimized finding as a corpus entry under DIR "
        "(e.g. tests/corpus)",
    )
    fuzz_parser.add_argument(
        "--json", action="store_true",
        help="emit the full campaign report as JSON instead of text",
    )
    _add_cache_flags(fuzz_parser)

    cache_parser = subparsers.add_parser("cache", help="inspect or clear the retarget cache")
    cache_parser.add_argument("--clear", action="store_true", help="remove every cached retarget result")
    _add_cache_flags(cache_parser)

    table3_parser = subparsers.add_parser("table3", help="print table 3 (retargeting time per target)")
    _add_cache_flags(table3_parser)
    subparsers.add_parser("figure2", help="print figure 2 (relative code size per kernel)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _dispatch(parser, args)
    except (SystemExit, KeyboardInterrupt):
        raise
    except InternalCompilerError as error:
        # Crash-proofing contract: a compiler bug (wrapped at the pass
        # boundary) exits EX_SOFTWARE with a structured diagnostic.
        print("error: %s" % error_report(error), file=sys.stderr)
        return 70
    except ReproError as error:
        # Structured errors that escaped a subcommand's own handling
        # still print as one diagnostic line, never a traceback.
        print("error: %s" % error_report(error), file=sys.stderr)
        return 1
    except Exception as error:
        # Crash-proofing contract: an internal bug exits non-zero with
        # an InternalCompilerError diagnostic -- a raw traceback never
        # reaches stdout/stderr (EX_SOFTWARE for scripting callers).
        wrapped = InternalCompilerError.wrap(
            error, context="repro %s" % args.command
        )
        print("error: %s" % error_report(wrapped), file=sys.stderr)
        return 70


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "targets":
        return _cmd_targets(args)
    if args.command == "kernels":
        return _cmd_kernels(args)
    if args.command == "retarget":
        return _cmd_retarget(args)
    if args.command == "lint-target":
        return _cmd_lint_target(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "opt":
        return _cmd_opt(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "table3":
        try:
            return _cmd_table3(args)
        except ImportError:
            return _table3_fallback(args)
    if args.command == "figure2":
        try:
            return _cmd_figure2(args)
        except ImportError:
            raise SystemExit("error: the benchmarks package is not importable")
    parser.error("unknown command %r" % args.command)
    return 2


if __name__ == "__main__":
    sys.exit(main())
