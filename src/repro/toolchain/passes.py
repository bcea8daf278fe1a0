"""The code-generation pass pipeline.

The RECORD backend is a fixed sequence of phases -- IR optimization, code
selection, list scheduling, spill insertion, compaction, instruction
encoding.  This module makes each phase a named :class:`Pass` over a
:class:`CompilationState`, ordered by a :class:`PassManager`, configured
by a :class:`PipelineConfig`.  The ablation experiments of the paper are
available as named presets (:data:`PRESETS`), extended with ``no-opt``
(selection on raw lowered trees, the pre-optimizer pipeline).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional

from repro.codegen.compaction import InstructionWord, compact, compact_blocks
from repro.codegen.schedule import schedule_instances
from repro.codegen.selection import (
    BlockCode,
    RTInstance,
    StatementCode,
    is_multi_block,
    select_statement,
    select_terminator,
)
from repro.codegen.spill import insert_spills
from repro.diagnostics import (
    Diagnostic,
    InternalCompilerError,
    PipelineError,
    ReproError,
)
from repro.ir.binding import ResourceBinding
from repro.ir.program import Program
from repro.obs.trace import current_tracer
from repro.opt.pipeline import OptPipeline, OptStats
from repro.selector.burs import CodeSelector


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _verify_default() -> bool:
    """Default of ``PipelineConfig.verify``: the ``REPRO_VERIFY``
    environment variable (the CI test suites compile with the static
    verifier enabled throughout; interactive use opts in per run)."""
    return os.environ.get("REPRO_VERIFY", "").strip().lower() in ("1", "true", "on", "yes")


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one backend pipeline.

    ``allow_chained`` and ``use_expanded_templates`` restrict the *grammar*
    the selector uses; ``use_optimizer`` toggles the IR optimizer ahead of
    selection; ``use_scheduling`` / ``use_compaction`` toggle the
    corresponding passes; ``encode`` appends the binary instruction
    encoder.  Frozen (hashable) so configs can key selector caches and
    session pools; the serialized form (``to_dict``) carries the optimizer
    knob, so result hashes/artifacts distinguish optimized compiles
    independently of the (purely target-side) retarget cache.
    """

    allow_chained: bool = True
    use_expanded_templates: bool = True
    use_scheduling: bool = True
    use_compaction: bool = True
    encode: bool = False
    use_optimizer: bool = True
    # Run the static pipeline verifier (repro.analysis.verify) around
    # every pass; not a pass itself (pass_names() is unchanged), its cost
    # is reported separately as CompileMetrics.verify_time_s.
    verify: bool = field(default_factory=_verify_default)

    def pass_names(self) -> List[str]:
        names = []
        if self.use_optimizer:
            names.append("opt")
        names.append("select")
        if self.use_scheduling:
            names.append("schedule")
        names.append("spill")
        names.append("compact")
        if self.encode:
            names.append("encode")
        return names

    def selector_key(self) -> tuple:
        """The part of the config that decides which grammar/selector is
        needed (restricted-selector cache key)."""
        return (self.allow_chained, self.use_expanded_templates)

    def with_updates(self, **changes) -> "PipelineConfig":
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, bool]:
        """The config as a plain dict (the serialized form used by
        :meth:`repro.toolchain.results.CompilationResult.to_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, bool]) -> "PipelineConfig":
        return cls(**data)

    @classmethod
    def preset(cls, name: str) -> "PipelineConfig":
        """One of the named ablation presets (see :data:`PRESETS`)."""
        try:
            return PRESETS[name]
        except KeyError:
            raise PipelineError(
                "unknown pipeline preset %r; available presets: %s"
                % (name, ", ".join(sorted(PRESETS)))
            ) from None


#: The ablation presets of the paper's experiments (section 4): ``full``
#: is the complete RECORD flow, ``conventional`` the baseline compiler of
#: figure 2, and each ``no-*`` preset disables exactly one mechanism
#: (``no-opt`` hands raw lowered trees straight to the selector, the
#: pre-optimizer pipeline).
PRESETS: Dict[str, PipelineConfig] = {
    "full": PipelineConfig(),
    "no-chained": PipelineConfig(allow_chained=False),
    "no-expansion": PipelineConfig(use_expanded_templates=False),
    "no-scheduling": PipelineConfig(use_scheduling=False),
    "no-compaction": PipelineConfig(use_compaction=False),
    "no-opt": PipelineConfig(use_optimizer=False),
    "conventional": PipelineConfig(
        allow_chained=False,
        use_expanded_templates=False,
        use_scheduling=False,
        use_compaction=False,
    ),
}


# ---------------------------------------------------------------------------
# State threaded through the passes
# ---------------------------------------------------------------------------


@dataclass
class PassContext:
    """Target-side inputs of a pipeline run (fixed across statements)."""

    selector: CodeSelector
    binding: ResourceBinding
    spill_storage: str
    netlist: object = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    # True when the target has a dedicated repeat counter: the selection
    # pass lowers annotated counted latches (``Program.hw_loops``) to
    # zero-overhead ``repeat`` instances instead of ``cbranch``.
    hardware_loops: bool = False
    # Operator signatures the optimizer may introduce: introducible_ops()
    # of the selector's grammar, scanned once per session.  Derived from
    # the selector when not given; None without a selector (ungated).
    supported_ops: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.supported_ops is None and self.selector is not None:
            self.supported_ops = frozenset(introducible_ops(self.selector.grammar))


@dataclass
class CompilationState:
    """Mutable program-side state owned by one pipeline run.

    Passes own every object in here -- :class:`SelectionPass` copies the
    selector's output instead of aliasing it, so later passes may rebind
    freely without corrupting cached selection results.

    ``pass_timings`` maps pass name to wall-clock seconds (filled in by
    :meth:`PassManager.run`, in pipeline order); ``diagnostics`` collects
    structured non-fatal messages emitted by passes.  Both flow into the
    :class:`~repro.toolchain.results.CompilationResult`.
    """

    program: Program
    statement_codes: List[StatementCode] = field(default_factory=list)
    # Per-block view of the same StatementCode objects (plus the branch
    # pseudo-code at every block end); the CFG structure the simulator
    # and the compactor work from.
    block_codes: List[BlockCode] = field(default_factory=list)
    words: List[InstructionWord] = field(default_factory=list)
    encoding: Optional[str] = None
    pass_timings: Dict[str, float] = field(default_factory=dict)
    diagnostics: List["Diagnostic"] = field(default_factory=list)
    # Labeller statistics of this run's selection pass (nodes labelled,
    # memo hits/misses, table provenance); flows into CompileMetrics.
    selection_stats: Dict[str, float] = field(default_factory=dict)
    # Statistics of this run's IR optimization pass (None when the
    # optimizer did not run); flows into CompileMetrics as well.
    opt_stats: Optional[OptStats] = None
    # Static-verifier accounting (PipelineConfig.verify): wall-clock
    # seconds spent checking and the number of check batches run.  Kept
    # out of pass_timings -- the verifier is not a pass.
    verify_time_s: float = 0.0
    verify_checks: int = 0

    def add_diagnostic(
        self, severity: str, message: str, phase: str = ""
    ) -> None:
        self.diagnostics.append(
            Diagnostic(severity=severity, message=message, phase=phase)
        )

    def all_instances(self) -> List[RTInstance]:
        instances: List[RTInstance] = []
        for code in self.statement_codes:
            instances.extend(code.instances)
        return instances


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """One named phase of the backend pipeline.

    Subclasses set :attr:`name` and implement :meth:`run`, mutating the
    :class:`CompilationState` in place.
    """

    name: str = "pass"

    def run(self, state: CompilationState, context: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<%s %r>" % (type(self).__name__, self.name)


def introducible_ops(grammar) -> set:
    """Operator signatures the optimizer may *introduce* on this target.

    Operator presence in the terminal vocabulary is not enough: target
    grammars frequently support a shifter only with hard-wired amounts
    (e.g. ``shl(x, Const(1))`` from an ``x + x`` datapath), so a
    ``mul x 8 -> shl x 3`` rewrite would make a coverable tree
    uncoverable.  This scans the RT rule patterns and returns precise
    signatures: ``"shl"`` when the shift amount is an arbitrary constant
    operand, ``"shl:1"`` when only the amount 1 is hard-wired.
    """
    from repro.grammar.grammar import PatTerm

    signatures = set()
    for rule in grammar.rules:
        pattern = rule.pattern
        if not isinstance(pattern, PatTerm) or pattern.name not in ("shl", "shr"):
            continue
        if len(pattern.operands) != 2:
            continue
        amount = pattern.operands[1]
        if isinstance(amount, PatTerm) and amount.name == "Const":
            if amount.value is None:
                signatures.add(pattern.name)
            else:
                signatures.add("%s:%d" % (pattern.name, amount.value))
    return signatures


class OptimizationPass(Pass):
    """IR optimization ahead of selection: constant folding, algebraic
    rewriting, cross-statement CSE and dead-temporary elimination.

    Replaces ``state.program`` with the optimized program: fresh blocks
    and statements, frozen expression trees possibly shared with the
    input.  The rewrite itself is target-independent; the target's
    grammar only *gates* operator-introducing strength reductions
    (``context.supported_ops``, see :func:`introducible_ops`), so a
    ``mul x 2`` never becomes a shift the processor cannot execute.
    """

    name = "opt"

    def __init__(self, pipeline: Optional[OptPipeline] = None):
        self.pipeline = pipeline if pipeline is not None else OptPipeline()

    def run(self, state: CompilationState, context: PassContext) -> None:
        program, stats = self.pipeline.run(
            state.program, supported_ops=context.supported_ops
        )
        state.program = program
        state.opt_stats = stats


class SelectionPass(Pass):
    """Optimal BURS cover of every statement.

    Produces *fresh* :class:`StatementCode` objects: the instance list
    returned by the selector is copied, never aliased, so a shared or
    cached selection result survives downstream rewriting.
    """

    name = "select"

    def run(self, state: CompilationState, context: PassContext) -> None:
        selector = context.selector
        hits_before = selector.memo_hits
        misses_before = selector.memo_misses
        labelled_before = selector.nodes_labelled
        reachable = state.program.reachable_blocks()
        if len(reachable) < len(state.program.blocks):
            dropped = [
                block.name
                for block in state.program.blocks
                if all(block is not kept for kept in reachable)
            ]
            state.add_diagnostic(
                "warning",
                "unreachable block(s) not selected: %s" % ", ".join(dropped),
                phase=self.name,
            )
        tracer = current_tracer()
        for block in reachable:
            with tracer.span(
                "select:block", block=block.name, statements=len(block.statements)
            ):
                block_statement_codes: List[StatementCode] = []
                for statement in block.statements:
                    code = select_statement(statement, selector, context.binding)
                    block_statement_codes.append(
                        StatementCode(
                            statement=code.statement,
                            cost=code.cost,
                            instances=list(code.instances),
                        )
                    )
                hardware_loop = (
                    state.program.hw_loops.get(block.name)
                    if context.hardware_loops
                    else None
                )
                terminator_code = (
                    None
                    if block.terminator is None
                    else select_terminator(
                        block.terminator, block.name, hardware_loop
                    )
                )
                block_code = BlockCode(
                    name=block.name,
                    codes=block_statement_codes,
                    terminator_code=terminator_code,
                )
                state.block_codes.append(block_code)
                # Flat view (same StatementCode objects): what the schedule,
                # spill and metric layers iterate.
                state.statement_codes.extend(block_code.all_codes())
        # Per-run deltas of the (possibly shared) selector's counters;
        # approximate under concurrent compiles against one pooled session,
        # exact otherwise.
        hits = selector.memo_hits - hits_before
        misses = selector.memo_misses - misses_before
        lookups = hits + misses
        state.selection_stats = {
            "matcher": selector.matcher,
            "nodes_labelled": selector.nodes_labelled - labelled_before,
            "memo_hits": hits,
            "memo_misses": misses,
            "memo_hit_rate": (hits / lookups) if lookups else 0.0,
            "tables_build_time_s": selector.tables.build_time_s,
        }


class SchedulingPass(Pass):
    """Clobber-avoiding list scheduling within each statement."""

    name = "schedule"

    def run(self, state: CompilationState, context: PassContext) -> None:
        if state.block_codes:
            # Per-block walk over the same StatementCode objects the
            # flat list aliases (all_codes() includes the terminator
            # pseudo-code), so scheduling is identical to the flat loop
            # but attributable per block in a trace.
            tracer = current_tracer()
            for block_code in state.block_codes:
                with tracer.span("schedule:block", block=block_code.name):
                    for code in block_code.all_codes():
                        code.instances = schedule_instances(code.instances)
            return
        for code in state.statement_codes:
            code.instances = schedule_instances(code.instances)


class SpillPass(Pass):
    """Insert spill stores/reloads where storage pressure demands them."""

    name = "spill"

    def run(self, state: CompilationState, context: PassContext) -> None:
        before = len(state.all_instances())
        for code in state.statement_codes:
            code.instances = insert_spills(code.instances, context.spill_storage)
        inserted = len(state.all_instances()) - before
        if inserted:
            state.add_diagnostic(
                "warning",
                "storage pressure: %d spill transfer(s) inserted (spill storage %s)"
                % (inserted, context.spill_storage),
                phase=self.name,
            )


class CompactionPass(Pass):
    """Pack independent RTs into horizontal instruction words.

    Always produces ``state.words``; with ``enabled=False`` each RT gets
    its own word (the uncompacted baseline).
    """

    name = "compact"

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def run(self, state: CompilationState, context: PassContext) -> None:
        if is_multi_block(state.block_codes):
            # Multi-block program: per-block packing, labelled words.
            # compact_blocks never packs across a block boundary, so
            # feeding it one block at a time is result-identical and
            # gives each block its own trace span.
            tracer = current_tracer()
            words: List[InstructionWord] = []
            for block_code in state.block_codes:
                with tracer.span("compact:block", block=block_code.name) as span:
                    block_words = compact_blocks([block_code], enabled=self.enabled)
                    if tracer.enabled:
                        span.set(words=len(block_words))
                words.extend(block_words)
            state.words = words
        else:
            state.words = compact(state.all_instances(), enabled=self.enabled)


class EncodingPass(Pass):
    """Render the binary instruction encoding of the compacted words."""

    name = "encode"

    def run(self, state: CompilationState, context: PassContext) -> None:
        from repro.codegen.encoding import InstructionEncoder

        if context.netlist is None:
            raise PipelineError("encoding pass needs the target netlist in the context")
        state.encoding = InstructionEncoder(context.netlist).listing(state.words)


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


def _pass_span_attributes(name: str, state: CompilationState) -> Dict[str, object]:
    """Per-pass trace attributes, drawn from the numbers the pipeline
    already tracks for :class:`~repro.toolchain.results.CompileMetrics`."""
    if name == "select":
        stats = state.selection_stats or {}
        return {
            "nodes_labelled": int(stats.get("nodes_labelled", 0)),
            "memo_hit_rate": round(float(stats.get("memo_hit_rate", 0.0)), 4),
            "blocks": len(state.block_codes),
        }
    if name == "opt":
        stats = state.opt_stats
        if stats is None:
            return {}
        return {
            "folds": stats.folds + stats.algebraic,
            "cse_hits": stats.cse_hits,
            "nodes_before": stats.nodes_before,
            "nodes_after": stats.nodes_after,
        }
    if name == "compact":
        return {"words": len(state.words)}
    if name in ("schedule", "spill"):
        return {
            "operations": sum(
                len(code.instances) for code in state.statement_codes
            )
        }
    if name == "encode":
        return {"encoded": state.encoding is not None}
    return {}


class PassManager:
    """An ordered, editable pipeline of :class:`Pass` objects."""

    def __init__(self, passes: List[Pass]):
        self.passes = list(passes)

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "PassManager":
        passes: List[Pass] = []
        if config.use_optimizer:
            passes.append(OptimizationPass())
        passes.append(SelectionPass())
        if config.use_scheduling:
            passes.append(SchedulingPass())
        passes.append(SpillPass())
        passes.append(CompactionPass(enabled=config.use_compaction))
        if config.encode:
            passes.append(EncodingPass())
        return cls(passes)

    def names(self) -> List[str]:
        return [p.name for p in self.passes]

    def _index_of(self, name: str) -> int:
        for index, p in enumerate(self.passes):
            if p.name == name:
                return index
        raise PipelineError(
            "no pass named %r in pipeline [%s]" % (name, ", ".join(self.names()))
        )

    def insert_after(self, name: str, new_pass: Pass) -> None:
        self.passes.insert(self._index_of(name) + 1, new_pass)

    def insert_before(self, name: str, new_pass: Pass) -> None:
        self.passes.insert(self._index_of(name), new_pass)

    def remove(self, name: str) -> Pass:
        return self.passes.pop(self._index_of(name))

    def run(self, program: Program, context: PassContext) -> CompilationState:
        """Run every pass in order, recording per-pass wall-clock time.

        Timings land in ``state.pass_timings`` keyed by pass name, in
        pipeline order (two passes sharing a name accumulate into one
        entry) -- the compile-side analogue of the per-phase retargeting
        times of table 3.

        This is the pipeline's internal-error boundary: a structured
        :class:`ReproError` raised by a pass (invalid input, resource
        ceiling, uncoverable statement) propagates untouched, but any
        *unexpected* exception is wrapped into an
        :class:`InternalCompilerError` naming the failing pass and the
        program being compiled, with a truncated traceback -- a compiler
        bug must surface as a diagnostic, never a raw traceback.
        """
        state = CompilationState(program=program)
        verifier = None
        if context.config.verify:
            from repro.analysis.verify import PipelineVerifier

            verifier = PipelineVerifier()
        inject = os.environ.get("REPRO_INJECT_FAULT", "")
        tracer = current_tracer()
        for p in self.passes:
            if verifier is not None:
                checked = time.perf_counter()
                with tracer.span("verify:%s" % p.name, stage="before"):
                    verifier.before_pass(p.name, state, context)
                state.verify_time_s += time.perf_counter() - checked
            started = time.perf_counter()
            try:
                with tracer.span("pass:%s" % p.name) as span:
                    if inject and inject == p.name:
                        raise RuntimeError(
                            "injected fault in pass %r (REPRO_INJECT_FAULT)" % p.name
                        )
                    p.run(state, context)
                    if tracer.enabled:
                        span.set(
                            program=program.name,
                            **_pass_span_attributes(p.name, state),
                        )
            except (ReproError, KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                raise InternalCompilerError.wrap(
                    error,
                    pass_name=p.name,
                    context="program %r" % program.name,
                ) from error
            elapsed = time.perf_counter() - started
            state.pass_timings[p.name] = state.pass_timings.get(p.name, 0.0) + elapsed
            if verifier is not None:
                checked = time.perf_counter()
                with tracer.span("verify:%s" % p.name, stage="after") as span:
                    verifier.after_pass(p.name, state, context)
                    if tracer.enabled:
                        span.set(checks=verifier.checks_run)
                state.verify_time_s += time.perf_counter() - checked
                state.verify_checks = verifier.checks_run
        return state
