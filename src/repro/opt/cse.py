"""The common-subexpression machinery of global value numbering, and
dead-temporary elimination.

Value numbering (:mod:`repro.opt.gvn`) works on the versioned
:class:`~repro.opt.dag.ProgramDAG`: two occurrences share a DAG node
only when they provably compute the same value (variable/port leaves
are keyed on their reaching definition), so the transformation is
hazard-free by construction -- a write between two textually identical
trees gives them different value numbers and they are never merged.

A repeated operation node is *materialized* into a compiler-generated
temporary (``__cse0``, ``__cse1``, ...) hoisted immediately before the
first statement that uses it.  At that point every input leaf still holds
exactly the version the value number was built from (the first use's
right-hand side is evaluated there anyway), and all later occurrences
read the stored temporary, which no subsequent write can invalidate.
Candidates must be operation nodes with at least ``MIN_OCCURRENCES`` uses
and ``MIN_OPS`` operator nodes (materializing a lone load-sized node
trades nothing), and must not read input ports (a port read is never
duplicated or elided).

Dead-temporary elimination is the matching cleanup: a backward liveness
pass that removes assignments to compiler temporaries never read
afterwards.  User-visible destinations (program variables, output ports)
are always kept -- they are the observable surface the differential suite
compares.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.expr import VarRef, expr_variables
from repro.ir.program import BasicBlock, Program, Statement
from repro.ir.temps import TEMP_PREFIX
from repro.opt.dag import DAGNode, ExprDAG, _make_expr

#: Default materialization thresholds: a candidate must occur at least
#: twice and contain at least two operator nodes, so the temporary's
#: store/load traffic is paid for by whole re-computations saved.
MIN_OCCURRENCES = 2
MIN_OPS = 2


def is_temp(name: str) -> bool:
    return name.startswith(TEMP_PREFIX)


def _statement_reads(statement: Statement) -> Set[str]:
    reads = expr_variables(statement.expression)
    if statement.destination_index is not None:
        reads.update(expr_variables(statement.destination_index))
    return reads


def _candidate_ids(dag: ExprDAG) -> Set[int]:
    return {
        node.id
        for node in dag.nodes
        if node.is_operation()
        and dag.uses[node.id] >= MIN_OCCURRENCES
        and dag.op_counts[node.id] >= MIN_OPS
        and not dag.has_port[node.id]
    }


def _rebuild_with_temps(
    dag: ExprDAG,
    root: int,
    candidates: Set[int],
    materialized: Dict[int, str],
    hoisted: List[Statement],
    alloc_temp: Callable[[], str],
    earned: Dict[str, int],
):
    """Rebuild one statement expression from the DAG, hoisting not-yet
    materialized candidates into temporary assignments (appended to
    ``hoisted``, innermost first).  ``earned`` counts, per temporary,
    the occurrences rewritten to read it, its materialization included;
    a node that repeats within the statement is built, and counted,
    once.  Returns ``None`` when the expression reads no temporary.
    Explicit-stack post-order; every produced IR node is freshly
    constructed."""
    exprs: Dict[int, object] = {}
    reads_temp = False
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node_id, expanded = stack.pop()
        if node_id in exprs:
            continue
        name = materialized.get(node_id)
        if name is not None:
            earned[name] += 1
            reads_temp = True
            exprs[node_id] = VarRef(name)
            continue
        node: DAGNode = dag.nodes[node_id]
        if not expanded and node.children:
            stack.append((node_id, True))
            for child in node.children:
                if child not in exprs:
                    stack.append((child, False))
            continue
        built = _make_expr(node, [exprs[c] for c in node.children])
        if node_id in candidates:
            name = alloc_temp()
            hoisted.append(Statement(destination=name, expression=built))
            materialized[node_id] = name
            earned[name] = 1
            reads_temp = True
            built = VarRef(name)
        exprs[node_id] = built
    return exprs[root] if reads_temp else None


def eliminate_dead_temporaries(
    program: Program,
    counters: Optional[Dict[str, int]] = None,
    temps: Optional[Set[str]] = None,
) -> Program:
    """A program without assignments to compiler temporaries that are
    never read afterwards -- ``program`` itself when there is none.

    ``temps`` names the temporaries eligible for removal.  The pipeline
    passes exactly the set its stages materialized, so a *user*
    variable that happens to be called ``__cse0`` is never touched; when
    ``temps`` is ``None`` (standalone use) any ``TEMP_PREFIX``-named
    destination counts; an empty ``temps`` returns ``program`` itself.
    Surviving statements, and the blocks that lose none, are shared with
    ``program`` (they are frozen).

    On straight-line programs this is the classic backward liveness
    sweep.  On CFG programs it stays conservative across block
    boundaries: a temporary read *anywhere* (any block's statements,
    store indices or branch conditions) is kept everywhere, so only
    temporaries that are never read at all are removed.
    """
    stats = counters if counters is not None else {}
    stats.setdefault("dead_removed", 0)
    if temps is not None and not temps:
        return program

    def removable(name: str) -> bool:
        if temps is not None:
            return name in temps
        return is_temp(name)

    new_blocks: List[BasicBlock] = []
    live_temps: Set[str] = set()
    if program.is_straight_line():
        block = program.blocks[0]
        kept: List[Statement] = []
        needed: Set[str] = set()
        for statement in reversed(block.statements):
            destination = statement.destination
            if (
                statement.destination_index is None
                and removable(destination)
                and destination not in needed
            ):
                stats["dead_removed"] += 1
                continue
            kept.append(statement)
            if statement.destination_index is None:
                needed.discard(destination)
            kept_reads = _statement_reads(statement)
            needed.update(kept_reads)
        kept.reverse()
        for statement in kept:
            if removable(statement.destination):
                live_temps.add(statement.destination)
        new_blocks.append(
            block
            if len(kept) == len(block.statements)
            else BasicBlock(name=block.name, statements=tuple(kept))
        )
    else:
        # CFG-conservative: collect every name read anywhere, then drop
        # only removable destinations that are never read at all.
        read_anywhere: Set[str] = set()
        for block in program.blocks:
            for statement in block.statements:
                read_anywhere.update(_statement_reads(statement))
            if block.terminator is not None:
                read_anywhere.update(block.terminator.variables())
        for block in program.blocks:
            kept = []
            for statement in block.statements:
                destination = statement.destination
                if (
                    statement.destination_index is None
                    and removable(destination)
                    and destination not in read_anywhere
                ):
                    stats["dead_removed"] += 1
                    continue
                kept.append(statement)
                if removable(destination):
                    live_temps.add(destination)
            new_blocks.append(
                block
                if len(kept) == len(block.statements)
                else BasicBlock(block.name, tuple(kept), block.terminator)
            )
    scalars = tuple(
        name
        for name in program.scalars
        if not removable(name) or name in live_temps
    )
    if len(scalars) == len(program.scalars) and all(
        new is old for new, old in zip(new_blocks, program.blocks)
    ):
        return program
    return Program(
        name=program.name,
        blocks=new_blocks,
        scalars=scalars,
        arrays=program.arrays,
        entry=program.entry,
    )
