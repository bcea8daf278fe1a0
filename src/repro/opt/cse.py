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

Dead-temporary elimination is the matching cleanup: it removes the
assignments to the temporaries the run introduced that nothing reads.
User-visible destinations (program variables, output ports) are always
kept -- they are the observable surface the differential suite
compares.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Set, Tuple

from repro.ir.expr import VarRef, expr_variables
from repro.ir.program import Program, Statement
from repro.opt.dag import DAGNode, ExprDAG, _make_expr

if TYPE_CHECKING:
    from repro.opt.pipeline import OptRun

#: Default materialization thresholds: a candidate must occur at least
#: twice and contain at least two operator nodes, so the temporary's
#: store/load traffic is paid for by whole re-computations saved.
MIN_OCCURRENCES = 2
MIN_OPS = 2


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


def eliminate_dead_temporaries(program: Program, run: OptRun) -> Program:
    """``program`` without the assignments to ``run.temps`` (the
    temporaries this run introduced) whose values nothing observable
    reads; ``program`` itself when there is none.
    ``run.stats.dead_removed`` counts the assignments removed.

    Mark, then sweep: a temporary is live when a statement other than an
    assignment to a temporary reads it, or a store index or branch
    condition does; the reads of a live temporary's assignments are
    live too, until the set stops growing.  So a temporary that only its
    own update reads (``__sr0 = add(__sr0, 3)``) is dead.

    A user variable is never removed, even one named like a temporary.
    Surviving statements, and the blocks that lose none, are shared with
    ``program`` (they are frozen)."""
    temps = run.temps
    if not temps:
        return program
    live: Set[str] = set()
    feeds: Dict[str, Set[str]] = {}  # temporary -> what its assignments read
    for block in program.blocks:
        for statement in block.statements:
            if statement.destination_index is None and statement.destination in temps:
                feeds.setdefault(statement.destination, set()).update(
                    expr_variables(statement.expression)
                )
            else:
                live |= _statement_reads(statement)
        if block.terminator is not None:
            live |= block.terminator.variables()
    pending = list(live)
    while pending:
        for name in feeds.get(pending.pop(), ()):
            if name not in live:
                live.add(name)
                pending.append(name)
    dead = temps - live
    blocks = list(program.blocks)
    removed = 0
    for position, block in enumerate(blocks):
        kept = tuple(
            statement
            for statement in block.statements
            if statement.destination_index is not None or statement.destination not in dead
        )
        if len(kept) < len(block.statements):
            removed += len(block.statements) - len(kept)
            blocks[position] = replace(block, statements=kept)
    scalars = tuple(name for name in program.scalars if name not in dead)
    if not removed and len(scalars) == len(program.scalars):
        return program
    run.stats.dead_removed += removed
    return replace(program, blocks=tuple(blocks), scalars=scalars)
