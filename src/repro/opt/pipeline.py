"""The composable optimization pipeline and its statistics.

An :class:`OptPipeline` runs an ordered subset of the optimization
stages -- ``fold`` (constant folding / algebraic simplification),
``loops`` (counted-loop rotation and strength reduction,
:mod:`repro.opt.loops`), ``licm`` (loop-invariant code motion,
:mod:`repro.opt.licm`), ``gvn`` (dominator-ordered global CSE,
:mod:`repro.opt.gvn`), ``cse`` (the historical block-local CSE) and
``dce`` (dead-temporary elimination) -- over an IR
:class:`~repro.ir.Program` and returns a new optimized program plus
an :class:`OptStats` record.  The default stage list runs the global
optimizer (``gvn`` subsumes ``cse``; ``cse`` remains selectable for
block-local comparisons).

After a run that included the ``loops`` stage, counted single-block
self-loops of the result carry :class:`~repro.ir.program.HardwareLoop`
annotations in ``Program.hw_loops``, the hook the backend's
zero-overhead repeat lowering keys on; without it they are empty.

The returned program, its blocks and their statement lists are fresh
objects, so callers may mutate either side freely; statements,
expression trees and terminators are frozen and may be shared with the
input.  The pipeline is target-independent; passing the target
grammar's operator vocabulary as ``supported_ops`` merely gates
operator-introducing rewrites (see :mod:`repro.opt.fold`).

Each stage runs a read-only check before it copies the program or
builds an analysis, and hands its input through when the check finds
nothing to do; a stage that changes something copies once.  The run
copies at the end only when no stage built fresh blocks.

A run builds the CFG, dominator tree and loop nesting forest once for
each block structure it produces (a
:class:`~repro.analysis.loops.BlockStructure`, built on first use and
handed from stage to stage): only rotation and preheader insertion
change the block structure.  It evaluates each trip count once per
induction recurrence and loop condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.analysis.loops import BlockStructure
from repro.diagnostics import ReproError
from repro.ir.program import BasicBlock, CBranch, Program
from repro.opt.cse import eliminate_common_subexpressions, eliminate_dead_temporaries
from repro.opt.fold import fold_expr, fold_statement, split_rewrite_counts


class OptimizationError(ReproError):
    """Raised on invalid optimizer configuration (unknown stage names)."""

    phase = "opt"


@dataclass
class OptStats:
    """Statistics of one optimizer run (surfaced through
    :class:`~repro.toolchain.results.CompileMetrics` and ``--timings``).

    ``rewrites`` maps individual rewrite-rule names (``"const-fold"``,
    ``"add-zero"``, ``"mul-pow2-shl"``, ...) to fire counts; ``folds`` and
    ``algebraic`` are its constant/algebraic split.  ``cse_hits`` counts
    expression occurrences rewritten to read a temporary by the
    block-local eliminator (``gvn_hits`` is the cross-block analogue);
    ``temps_introduced``/``dead_removed`` count temporaries created and
    dead ones eliminated again.  The loop block: ``loops_rotated``
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

    def to_dict(self) -> dict:
        return {
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "statements_before": self.statements_before,
            "statements_after": self.statements_after,
            "folds": self.folds,
            "algebraic": self.algebraic,
            "cse_hits": self.cse_hits,
            "gvn_hits": self.gvn_hits,
            "licm_hoisted": self.licm_hoisted,
            "strength_reductions": self.strength_reductions,
            "loops_rotated": self.loops_rotated,
            "hw_loops": self.hw_loops,
            "temps_introduced": self.temps_introduced,
            "dead_removed": self.dead_removed,
            "rewrites": dict(self.rewrites),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OptStats":
        return cls(
            nodes_before=data.get("nodes_before", 0),
            nodes_after=data.get("nodes_after", 0),
            statements_before=data.get("statements_before", 0),
            statements_after=data.get("statements_after", 0),
            folds=data.get("folds", 0),
            algebraic=data.get("algebraic", 0),
            cse_hits=data.get("cse_hits", 0),
            gvn_hits=data.get("gvn_hits", 0),
            licm_hoisted=data.get("licm_hoisted", 0),
            strength_reductions=data.get("strength_reductions", 0),
            loops_rotated=data.get("loops_rotated", 0),
            hw_loops=data.get("hw_loops", 0),
            temps_introduced=data.get("temps_introduced", 0),
            dead_removed=data.get("dead_removed", 0),
            rewrites=dict(data.get("rewrites", {})),
        )


def copy_program(program: Program) -> Program:
    """A structural copy: fresh program, blocks and statement lists,
    sharing the frozen statements, expression trees and terminators.

    Everything a pass may mutate is fresh; the rest are frozen
    dataclasses, so sharing them is safe.
    """
    return Program(
        name=program.name,
        blocks=[
            BasicBlock(
                name=block.name,
                statements=list(block.statements),
                terminator=block.terminator,
            )
            for block in program.blocks
        ],
        scalars=list(program.scalars),
        arrays=dict(program.arrays),
        entry=program.entry,
        hw_loops=dict(program.hw_loops),
    )


def _fold_terminator(terminator, rewrites=None):
    """The terminator with its branch condition folded (``None`` and
    unconditional jumps pass through).

    The condition never enters code selection (it runs on the branch
    logic), so the *operator-introducing* ``supported_ops`` gating does
    not apply to it -- folding runs ungated, keeping ``while (1)``-style
    conditions cheap.
    """
    if not isinstance(terminator, CBranch):
        return terminator
    return CBranch(
        condition=fold_expr(terminator.condition, rewrites=rewrites),
        true_target=terminator.true_target,
        false_target=terminator.false_target,
    )


#: Stages that materialize compiler temporaries.  When any of them is in
#: a run's stage list, ``dce`` removes exactly the temporaries that run
#: introduced (never a user variable that shares a prefix).
_MATERIALIZING_STAGES = ("loops", "licm", "gvn", "cse")


class OptPipeline:
    """An ordered, configurable sequence of optimization stages."""

    #: All known stages, in canonical order.
    STAGES: Tuple[str, ...] = ("fold", "loops", "licm", "gvn", "cse", "dce")

    #: The default run: the global optimizer.  ``cse`` is omitted --
    #: ``gvn`` performs the identical rewrite block-locally and extends
    #: it across the CFG -- but stays selectable for block-local
    #: comparisons (``--stages fold,cse,dce``).
    DEFAULT_STAGES: Tuple[str, ...] = ("fold", "loops", "licm", "gvn", "dce")

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
        """Optimize ``program`` and return ``(fresh program, stats)``.

        ``observer`` (when given) is called as ``observer(stage,
        program)`` once after each stage with the stage's result -- the
        CLI's per-stage diff rendering hook; a stage that found nothing
        to do shows its input again, possibly the caller's ``program``.
        Observers must not mutate the program they are shown."""
        from repro.opt.gvn import global_value_numbering
        from repro.opt.licm import hoist_loop_invariants, plan_loop_invariants
        from repro.opt.loops import (
            annotate_hardware_loops,
            find_counted_loops,
            has_backward_branch,
            rotate_counted_loops,
            strength_reduce,
            would_rewrite_loops,
        )

        stats = OptStats(
            nodes_before=program.expression_node_count(),
            statements_before=program.statement_count(),
        )
        counters: Dict[str, int] = {
            "cse_hits": 0,
            "temps_introduced": 0,
            "dead_removed": 0,
            "loops_rotated": 0,
            "strength_reductions": 0,
            "licm_hoisted": 0,
            "gvn_hits": 0,
        }
        current = program
        produced_fresh = False  # True once current shares no block with program
        counted = counted_of = None  # counted loops of the loops stage, and of which program
        structure = BlockStructure(program)  # of current's blocks; stages update it
        trip_counts: Dict[tuple, Optional[int]] = {}
        # Temporaries materialized by this run's stages; dead-temp
        # elimination removes only these, never a user variable that
        # happens to share a prefix.
        introduced_temps: Set[str] = set()
        for stage in self.stages:
            if stage == "fold":
                fired = sum(stats.rewrites.values())
                folded = Program(
                    name=current.name,
                    blocks=[
                        BasicBlock(
                            name=block.name,
                            statements=[
                                fold_statement(
                                    statement,
                                    supported_ops=supported_ops,
                                    rewrites=stats.rewrites,
                                )
                                for statement in block.statements
                            ],
                            terminator=_fold_terminator(
                                block.terminator, rewrites=stats.rewrites
                            ),
                        )
                        for block in current.blocks
                    ],
                    scalars=list(current.scalars),
                    arrays=dict(current.arrays),
                    entry=current.entry,
                )
                if sum(stats.rewrites.values()) > fired:  # else equal to current
                    current, produced_fresh = folded, True
            elif stage == "loops":
                counted = (
                    find_counted_loops(current, structure=structure, trip_counts=trip_counts)
                    if has_backward_branch(current)
                    else {}
                )
                if would_rewrite_loops(current, counted):
                    current = copy_program(current)
                    scalars_before = set(current.scalars)
                    rotate_counted_loops(current, counters, counted, structure, trip_counts)
                    if strength_reduce(current, counters, counted):
                        counted = None  # statements moved; recognize again
                    introduced_temps |= set(current.scalars) - scalars_before
                    produced_fresh = True
                counted_of = current
            elif stage == "licm":
                plan = plan_loop_invariants(current, structure)
                if plan:
                    current = copy_program(current)
                    introduced_temps |= hoist_loop_invariants(
                        current, counters, plan=plan, structure=structure
                    )
                    produced_fresh = True
            elif stage == "gvn":
                gvn_counters: Dict[str, int] = {
                    "cse_hits": 0,
                    "temps_introduced": 0,
                }
                scalars_before = set(current.scalars)
                numbered = global_value_numbering(
                    current, counters=gvn_counters, structure=structure
                )
                counters["gvn_hits"] += gvn_counters["cse_hits"]
                counters["temps_introduced"] += gvn_counters["temps_introduced"]
                introduced_temps |= set(numbered.scalars) - scalars_before
                produced_fresh = produced_fresh or numbered is not current
                current = numbered
            elif stage == "cse":
                scalars_before = set(current.scalars)
                current = eliminate_common_subexpressions(current, counters=counters)
                introduced_temps |= set(current.scalars) - scalars_before
                produced_fresh = True
            elif stage == "dce":
                # DCE reuses surviving statements, so freshness is
                # unchanged.  With a materializing stage in this run, only
                # its temps are removable (a user scalar named "__cse0" is
                # safe); without one, fall back to the documented standalone
                # prefix semantics so "--stages dce" is not a no-op.
                standalone = not any(
                    name in self.stages for name in _MATERIALIZING_STAGES
                )
                current = eliminate_dead_temporaries(
                    current,
                    counters=counters,
                    temps=None if standalone else introduced_temps,
                )
            if observer is not None:
                observer(stage, current)
        stats.nodes_after = (
            stats.nodes_before if current is program else current.expression_node_count()
        )
        if current is not counted_of:
            counted = None  # a later stage changed the program
        if not produced_fresh:
            current = copy_program(current)
        current.hw_loops = (
            annotate_hardware_loops(current, counted, structure, trip_counts)
            if "loops" in self.stages
            else {}
        )
        stats.hw_loops = len(current.hw_loops)
        stats.folds, stats.algebraic = split_rewrite_counts(stats.rewrites)
        stats.cse_hits = counters["cse_hits"]
        stats.gvn_hits = counters["gvn_hits"]
        stats.licm_hoisted = counters["licm_hoisted"]
        stats.strength_reductions = counters["strength_reductions"]
        stats.loops_rotated = counters["loops_rotated"]
        stats.temps_introduced = counters["temps_introduced"]
        stats.dead_removed = counters["dead_removed"]
        stats.statements_after = current.statement_count()
        return current, stats


def optimize_program(
    program: Program,
    stages: Optional[Sequence[str]] = None,
    supported_ops: Optional[Set[str]] = None,
) -> Tuple[Program, OptStats]:
    """One-call convenience over :class:`OptPipeline`."""
    return OptPipeline(stages=stages).run(program, supported_ops=supported_ops)
