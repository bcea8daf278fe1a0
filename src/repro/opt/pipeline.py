"""The composable optimization pipeline, the run its stages share, and
its statistics.

An :class:`OptPipeline` runs an ordered subset of the optimization
stages -- ``fold`` (constant folding / algebraic simplification),
``loops`` (counted-loop rotation and strength reduction,
:mod:`repro.opt.loops`), ``licm`` (loop-invariant code motion,
:mod:`repro.opt.licm`), ``gvn`` (dominator-ordered global CSE,
:mod:`repro.opt.gvn`) and ``dce`` (dead-temporary elimination) -- over
an IR :class:`~repro.ir.Program` and returns a new optimized program
plus an :class:`OptStats` record.  The default stage list runs them
all.  Each stage is a function of ``(program, run)``, looked up in one
table; the :class:`OptRun` holds what the stages of one run share.

After a run that included the ``loops`` stage, counted single-block
self-loops of the result carry :class:`~repro.ir.program.HardwareLoop`
annotations in ``Program.hw_loops``, the hook the backend's
zero-overhead repeat lowering keys on; without it they are empty.

Programs, blocks, statements and expression trees are frozen values,
so the result shares with the input every block no stage changed, and
is the input itself when nothing changed.  The pipeline is
target-independent; passing the target grammar's operator vocabulary as
``supported_ops`` merely gates operator-introducing rewrites (see
:mod:`repro.opt.fold`).

Each stage runs a read-only check before it builds an analysis or a
block, and hands its input through when the check finds nothing to do;
a stage that changes something builds only the blocks it changes.
``fold`` checks each statement and branch condition
(:func:`~repro.opt.fold.would_fold`) and folds only what a rule fires
on.  The run counts the input's IR nodes once, block by block, and
counts again only the blocks of the result it does not share.

A run builds the CFG, dominator tree and loop nesting forest once for
each block structure it produces (only rotation and preheader
insertion change one), recognizes the counted loops once for each
program a stage asks about, and evaluates each trip count once per
induction recurrence and loop condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Dict, Optional, Sequence, Set, Tuple

from repro.analysis.loops import BlockStructure
from repro.diagnostics import ReproError
from repro.ir.program import BasicBlock, CBranch, Program
from repro.opt import loops
from repro.opt.cse import eliminate_dead_temporaries
from repro.opt.fold import (
    fold_expr,
    fold_statement,
    split_rewrite_counts,
    would_fold,
    would_fold_statement,
)
from repro.opt.gvn import global_value_numbering
from repro.opt.licm import hoist_loop_invariants
from repro.records import Record


class OptimizationError(ReproError):
    """Raised on invalid optimizer configuration (unknown stage names)."""

    phase = "opt"


@dataclass
class OptStats(Record):
    """Statistics of one optimizer run (surfaced through
    :class:`~repro.toolchain.results.CompileMetrics` and ``--timings``).

    ``rewrites`` maps individual rewrite-rule names (``"const-fold"``,
    ``"add-zero"``, ``"mul-pow2-shl"``, ...) to fire counts; ``folds`` and
    ``algebraic`` are its constant/algebraic split.  ``gvn_hits`` counts
    expression occurrences rewritten to read a value-numbering temporary;
    ``cse_hits`` is always 0 (the block-local stage that counted there is
    gone; the field stays until the result schema changes).
    ``temps_introduced`` counts the temporaries created, by every stage
    (``__cse*``, ``__licm*`` and ``__sr*``), and ``dead_removed`` the
    assignments to them eliminated again.  The loop block: ``loops_rotated``
    (while-form loops rewritten into do-while form), ``licm_hoisted``
    (statements moved plus invariants materialized in preheaders),
    ``strength_reductions`` (induction-variable products rewritten) and
    ``hw_loops`` (counted self-loops annotated for hardware looping).
    """

    nodes_before: int = 0
    nodes_after: int = 0
    statements_before: int = 0
    statements_after: int = 0
    folds: int = 0
    algebraic: int = 0
    cse_hits: int = 0
    gvn_hits: int = 0
    licm_hoisted: int = 0
    strength_reductions: int = 0
    loops_rotated: int = 0
    hw_loops: int = 0
    temps_introduced: int = 0
    dead_removed: int = 0
    rewrites: Dict[str, int] = field(default_factory=dict)

    @property
    def nodes_removed(self) -> int:
        return self.nodes_before - self.nodes_after

    @property
    def node_reduction(self) -> float:
        """Fraction of IR nodes removed (0.0 when the program was empty)."""
        if not self.nodes_before:
            return 0.0
        return self.nodes_removed / self.nodes_before


def copy_program(program: Program) -> Program:
    """A structural copy: a fresh program with fresh blocks, sharing the
    statements, expression trees and terminators.

    Programs are frozen, so no compile needs a copy; the name stays for
    instrumentation that wraps it by module path."""
    return Program(
        name=program.name,
        blocks=[
            BasicBlock(block.name, block.statements, block.terminator)
            for block in program.blocks
        ],
        scalars=program.scalars,
        arrays=program.arrays,
        entry=program.entry,
        hw_loops=program.hw_loops,
    )


def _fold_program(program: Program, run: OptRun) -> Program:
    """``program`` with the statements and branch conditions folded that
    :func:`~repro.opt.fold.would_fold` flags under ``run.supported_ops``,
    counting into ``run.stats.rewrites``; ``program`` itself when it
    flags none.  Only the blocks holding a flagged statement or
    condition are rebuilt.

    A branch condition never enters code selection (it runs on the
    branch logic), so the *operator-introducing* ``supported_ops``
    gating does not apply to it: it folds ungated, keeping ``while
    (1)``-style conditions cheap."""
    supported_ops, rewrites = run.supported_ops, run.stats.rewrites
    blocks = None
    for position, block in enumerate(program.blocks):
        statements = None
        for index, statement in enumerate(block.statements):
            if would_fold_statement(statement, supported_ops):
                if statements is None:
                    statements = list(block.statements)
                statements[index] = fold_statement(
                    statement, supported_ops=supported_ops, rewrites=rewrites
                )
        terminator = block.terminator
        if isinstance(terminator, CBranch) and would_fold(terminator.condition):
            terminator = replace(
                terminator, condition=fold_expr(terminator.condition, rewrites=rewrites)
            )
        elif statements is None:
            continue
        if blocks is None:
            blocks = list(program.blocks)
        blocks[position] = BasicBlock(
            block.name,
            block.statements if statements is None else tuple(statements),
            terminator,
        )
    return program if blocks is None else replace(program, blocks=tuple(blocks))


class OptRun:
    """What the stages of one :meth:`OptPipeline.run` share.

    ``supported_ops`` gates operator-introducing rewrites; the stages
    count into ``stats``, the run's :class:`OptStats`; ``temps`` names
    the temporaries this run's stages introduced, the only names
    dead-temporary elimination removes.

    The loop facts are asked for with the program they must describe,
    so an analysis always describes the program a stage holds:
    :meth:`structure` is kept for the last block structure asked about,
    :meth:`counted_loops` for the last program, and ``trip_counts`` for
    the whole run, by induction recurrence and loop condition.  A stage
    called on its own takes a fresh ``OptRun()``."""

    def __init__(self, supported_ops: Optional[Set[str]] = None) -> None:
        self.supported_ops = supported_ops
        self.stats = OptStats()
        self.temps: Set[str] = set()
        self.trip_counts: Dict[tuple, Optional[int]] = {}
        self._structure_key: Optional[tuple] = None
        self._structure: Optional[BlockStructure] = None
        self._counted: Tuple[Optional[Program], Dict[str, loops.CountedLoop]] = (None, {})

    def structure(self, program: Program) -> BlockStructure:
        """The CFG, dominators and loop forest of ``program``'s block
        structure: its entry and the branch targets of its blocks."""
        key = (program.entry, tuple(program.edges().items()))
        if key != self._structure_key:
            self._structure_key, self._structure = key, BlockStructure(program)
        return self._structure

    def counted_loops(self, program: Program) -> Dict[str, loops.CountedLoop]:
        """The counted loops of ``program``
        (:func:`~repro.opt.loops.find_counted_loops`); none without a
        backward branch."""
        if self._counted[0] is not program:
            counted = (
                loops.find_counted_loops(program, self)
                if loops.has_backward_branch(program)
                else {}
            )
            self._counted = (program, counted)
        return self._counted[1]

    def introduce(self, temps: Collection[str]) -> None:
        """Record temporaries a stage put in the program, counting them
        in ``temps_introduced``."""
        self.temps.update(temps)
        self.stats.temps_introduced += len(temps)


#: The stages by name, each a function of ``(program, run)``.
_STAGES: Dict[str, Callable[[Program, OptRun], Program]] = {
    "fold": _fold_program,
    "loops": loops.rotate_and_reduce,
    "licm": hoist_loop_invariants,
    "gvn": global_value_numbering,
    "dce": eliminate_dead_temporaries,
}


class OptPipeline:
    """An ordered, configurable sequence of optimization stages."""

    #: All known stages, in canonical order.
    STAGES: Tuple[str, ...] = tuple(_STAGES)

    #: The default run: every stage.
    DEFAULT_STAGES: Tuple[str, ...] = STAGES

    def __init__(self, stages: Optional[Sequence[str]] = None):
        self.stages: Tuple[str, ...] = (
            tuple(stages) if stages is not None else self.DEFAULT_STAGES
        )
        unknown = [stage for stage in self.stages if stage not in self.STAGES]
        if unknown:
            raise OptimizationError(
                "unknown optimization stage(s) %s; available stages: %s"
                % (", ".join(sorted(unknown)), ", ".join(self.STAGES))
            )

    def run(
        self,
        program: Program,
        supported_ops: Optional[Set[str]] = None,
        observer: Optional[Callable[[str, Program], None]] = None,
    ) -> Tuple[Program, OptStats]:
        """Optimize ``program`` and return ``(optimized program, stats)``.

        The result is ``program`` itself when no stage changed anything
        and its hardware-loop annotations stand; otherwise it shares
        every block no stage changed with ``program``.  ``observer``
        (when given) is called as ``observer(stage, program)`` once after
        each stage with the stage's result -- the CLI's per-stage diff
        rendering hook; a stage that found nothing to do shows its input
        again, possibly the caller's ``program``."""
        block_nodes = [block.expression_node_count() for block in program.blocks]
        run = OptRun(supported_ops)
        current = program
        for stage in self.stages:
            current = _STAGES[stage](current, run)
            if observer is not None:
                observer(stage, current)
        stats = run.stats
        stats.nodes_before = sum(block_nodes)
        stats.statements_before = program.statement_count()
        if current is program:
            stats.nodes_after = stats.nodes_before
        else:
            # A block the result shares with the input is unchanged.
            known = {id(block): nodes for block, nodes in zip(program.blocks, block_nodes)}
            stats.nodes_after = sum(
                known[id(block)] if id(block) in known else block.expression_node_count()
                for block in current.blocks
            )
        hw_loops = loops.annotate_hardware_loops(current, run) if "loops" in self.stages else {}
        if hw_loops != current.hw_loops:
            current = replace(current, hw_loops=hw_loops)
        stats.hw_loops = len(hw_loops)
        stats.folds, stats.algebraic = split_rewrite_counts(stats.rewrites)
        stats.statements_after = current.statement_count()
        return current, stats


def optimize_program(
    program: Program,
    stages: Optional[Sequence[str]] = None,
    supported_ops: Optional[Set[str]] = None,
) -> Tuple[Program, OptStats]:
    """One-call convenience over :class:`OptPipeline`."""
    return OptPipeline(stages=stages).run(program, supported_ops=supported_ops)
