"""Dominator-ordered global value numbering (cross-block CSE).

Common subexpressions are found across the whole CFG.  A value number
bakes in exactly which definition every variable/port/array leaf reads,
including the array store-epoch aliasing rules, and interning runs over
*one* shared :class:`~repro.opt.dag.ProgramDAG` along a depth-first walk
of the dominator tree:

* entering a block, the version state is **snapshotted**; leaving it (all
  dominated blocks processed), the snapshot is restored -- so a value
  computed in block ``B`` is only ever reused in blocks ``B`` dominates,
  where its materialized temporary is guaranteed to be live;
* before interning a block ``B``, the write effects of every block ``C``
  with a nonempty CFG path ``C -> B`` that does *not* strictly dominate
  ``B`` (including ``B`` itself when it lies on a cycle) are **killed**:
  their destinations get fresh versions, so any value those paths may
  have clobbered stops matching.  A dominator ``C`` of ``B`` is exempt:
  whenever ``C`` re-executes on the way to ``B`` it re-executes its
  materialized temporaries too, so the temporary always holds the value
  the occurrence in ``B`` would recompute.

Candidates need ``MIN_OCCURRENCES`` uses and ``MIN_OPS`` operator nodes
and read no port; they are rebuilt by
:func:`repro.opt.cse._rebuild_with_temps`, with the ``materialized`` map
scoped to the dominator path.  A final cleanup inlines temporaries this
run introduced that ended up defined and read in exactly one statement
of the same block (occurrences living in *sibling* branches each
materialize their own copy; inlining those singles keeps the
transformation never worse than the input).  It counts the statements
that read a temporary, not its reads, so a temporary read twice by one
statement (``t * t``) is inlined back too.  That is why the stage runs
only when :func:`_has_repeated_subtree` finds a subtree repeated in two
different statements: a repeat inside one statement leaves nothing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import dominance_relation
from repro.ir.expr import ArrayRef, Const, IRNode, Op, VarRef
from repro.ir.program import BasicBlock, Program, Statement, Terminator
from repro.ir.temps import TEMP_PREFIX, TempNamer, replace_in_statement
from repro.opt.cse import (
    MIN_OPS,
    _candidate_ids,
    _rebuild_with_temps,
    _statement_reads,
)
from repro.opt.dag import ProgramDAG

if TYPE_CHECKING:
    from repro.opt.pipeline import OptRun


def _reachable_from(cfg: ControlFlowGraph) -> Dict[str, Set[str]]:
    """For each block ``C``, the blocks reachable from ``C`` through at
    least one CFG edge (``C`` itself is included only via a cycle)."""
    reach: Dict[str, Set[str]] = {}
    for name in cfg.names:
        seen: Set[str] = set()
        stack: List[str] = list(cfg.successors[name])
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            stack.extend(cfg.successors[block])
        reach[name] = seen
    return reach


def _has_repeated_subtree(program: Program) -> bool:
    """True when an operator subtree with ``MIN_OPS`` operators (counted
    as ``ExprDAG.op_counts`` does) occurs in two different statements,
    store indices included -- without one no temporary can survive.  A
    temporary materialized for repeats inside one statement is defined
    right before it and read by it alone, so
    :func:`_inline_single_use_temps` always inlines it back.

    One numbering pass per statement: a pre-order walk lists its nodes,
    pushing each node's children left to right, and numbering the list
    in reverse visits every node right after its children, whose ids are
    then on top of a result stack.  Iterative, for the deep chains; keys
    are tuples of integer ids (an operator key starts with the
    operator's name, the others with the node's class), since IR nodes
    are never keys (``__eq__`` recurses)."""
    ids: Dict[tuple, int] = {}
    op_counts: List[int] = []
    seen_in: Dict[int, int] = {}  # subtree id -> the first statement it occurs in
    number = 0
    for block in program.blocks:
        for statement in block.statements:
            number += 1
            order: List[IRNode] = []
            stack = [statement.expression]
            if statement.destination_index is not None:
                stack.append(statement.destination_index)
            while stack:
                node = stack.pop()
                order.append(node)
                kind = type(node)
                if kind is Op:
                    stack.extend(node.operands)
                elif kind is ArrayRef:
                    stack.append(node.index)
            results: List[int] = []
            for node in reversed(order):
                kind = type(node)
                if kind is Op:
                    operands = node.operands
                    if len(operands) == 2:
                        right = results.pop()
                        left = results.pop()
                        key: tuple = (node.op, left, right)
                        ops = 1 + op_counts[left] + op_counts[right]
                    else:
                        split = len(results) - len(operands)
                        children = tuple(results[split:])
                        del results[split:]
                        key = (node.op,) + children
                        ops = 1 + sum([op_counts[child] for child in children])
                elif kind is VarRef:
                    key, ops = (kind, node.name), 0
                elif kind is Const:
                    key, ops = (kind, node.value), 0
                elif kind is ArrayRef:
                    child = results.pop()
                    key, ops = (kind, node.name, child), op_counts[child]
                else:
                    key, ops = (kind, str(node)), 0
                node_id = ids.get(key)
                if node_id is None:
                    node_id = ids[key] = len(op_counts)
                    op_counts.append(ops)
                if ops >= MIN_OPS and kind is Op:
                    if seen_in.setdefault(node_id, number) != number:
                        return True
                results.append(node_id)
    return False


def _inline_single_use_temps(
    bodies: List[Tuple[List[Statement], Optional[Terminator]]],
    introduced: Set[str],
) -> Set[str]:
    """Inline (and drop) temporaries from ``introduced`` that are defined
    once and read by exactly one statement, def and use in the same
    block with only other hoisted temporary definitions in between.
    ``bodies`` holds each block's statement list, edited in place, and
    terminator.  Returns the set of temporaries that remain."""
    changed = True
    remaining = set(introduced)
    while changed:
        changed = False
        read_counts: Dict[str, int] = {name: 0 for name in remaining}
        def_counts: Dict[str, int] = {name: 0 for name in remaining}
        for statements, terminator in bodies:
            for statement in statements:
                for name in _statement_reads(statement):
                    if name in read_counts:
                        # _statement_reads is a set: a temporary read
                        # twice by one statement counts once, and is
                        # inlined back.
                        read_counts[name] += 1
                if statement.destination in def_counts:
                    def_counts[statement.destination] += 1
            if terminator is not None:
                for name in terminator.variables():
                    if name in read_counts:
                        read_counts[name] += 1
        for statements, _terminator in bodies:
            index = 0
            while index < len(statements):
                statement = statements[index]
                name = statement.destination
                if (
                    name not in remaining
                    or statement.destination_index is not None
                    or def_counts.get(name) != 1
                    or read_counts.get(name) != 1
                ):
                    index += 1
                    continue
                # Find the single reader strictly after the definition,
                # crossing only other this-run temporary definitions.
                reader = None
                for probe in range(index + 1, len(statements)):
                    candidate = statements[probe]
                    if name in _statement_reads(candidate):
                        reader = probe
                        break
                    if candidate.destination not in introduced:
                        break
                if reader is None:
                    index += 1
                    continue
                statements[reader] = replace_in_statement(
                    statements[reader], (VarRef(name),), statement.expression
                )
                del statements[index]
                remaining.discard(name)
                changed = True
    return remaining


def global_value_numbering(program: Program, run: OptRun) -> Program:
    """A program with repeated subexpressions materialized into
    temporaries across the whole CFG (dominator-scoped) -- or ``program``
    itself, unchanged, when nothing qualifies for a temporary.  The
    result shares the statements and blocks value numbering left as
    they were, and has ``program``'s block structure.

    ``run.stats.gvn_hits`` counts the occurrences rewritten to read a
    surviving temporary, its materialization included, and ``run``
    records the surviving temporaries."""
    if not _has_repeated_subtree(program):
        return program
    structure = run.structure(program)
    cfg = structure.cfg
    if not cfg.names:
        return program  # no blocks / unreachable entry: nothing executes

    idom = structure.idom
    dom_sets = dominance_relation(idom)
    reach = _reachable_from(cfg)
    statements_of = {
        block.name: block.statements
        for block in reversed(program.blocks)  # first duplicate wins
    }
    kills_at: Dict[str, List[str]] = {
        name: [
            killer
            for killer in cfg.names
            if name in reach[killer]
            and (killer == name or killer not in dom_sets[name])
        ]
        for name in cfg.names
    }
    children: Dict[str, List[str]] = {name: [] for name in cfg.names}
    for name in cfg.names:  # cfg.names is RPO => children stay RPO-sorted
        parent = idom.get(name)
        if parent is not None:
            children[parent].append(name)

    dag = ProgramDAG()
    roots_of: Dict[str, List[int]] = {}

    # Pass 1: intern every statement along the dominator tree, with kills
    # at block entry and snapshot/restore around each subtree.
    stack: List[Tuple[str, str]] = [("enter", cfg.entry)]
    snapshots: List[tuple] = []
    while stack:
        action, name = stack.pop()
        if action == "leave":
            dag.restore(snapshots.pop())
            continue
        snapshots.append(dag.snapshot())
        stack.append(("leave", name))
        for killer in kills_at[name]:
            for statement in statements_of[killer]:
                dag.kill_statement_effects(statement)
        roots_of[name] = [
            dag.add_statement(statement) for statement in statements_of[name]
        ]
        for child in reversed(children[name]):
            stack.append(("enter", child))

    candidates = _candidate_ids(dag.dag)
    if not candidates:
        return program

    namer = TempNamer(program, TEMP_PREFIX)
    earned: Dict[str, int] = {}

    # Pass 2: rebuild along the same walk; the materialized map is scoped
    # to the dominator path (a child inherits its parent's temps).  A
    # statement that reads no temporary is kept.
    rebuilt: Dict[str, List[Statement]] = {}
    walk: List[Tuple[str, Dict[int, str]]] = [(cfg.entry, {})]
    while walk:
        name, inherited = walk.pop()
        materialized = dict(inherited)
        statements: List[Statement] = []
        for statement, root in zip(statements_of[name], roots_of[name]):
            hoisted: List[Statement] = []
            expression = _rebuild_with_temps(
                dag.dag, root, candidates, materialized, hoisted, namer, earned
            )
            if expression is None:
                statements.append(statement)
                continue
            statements.extend(hoisted)
            statements.append(replace(statement, expression=expression))
        rebuilt[name] = statements
        for child in reversed(children[name]):
            walk.append((child, materialized))

    bodies: List[Tuple[List[Statement], Optional[Terminator]]] = []
    emitted: Set[str] = set()
    for block in program.blocks:
        if block.name in rebuilt and block.name not in emitted:
            statements = rebuilt[block.name]
        else:
            # Unreachable (or duplicate-named) blocks never execute; keep
            # their statements, untouched by value numbering.
            statements = list(block.statements)
        emitted.add(block.name)
        bodies.append((statements, block.terminator))

    surviving = _inline_single_use_temps(bodies, set(namer.names))
    run.stats.gvn_hits += sum(earned[name] for name in surviving)
    run.introduce(surviving)
    blocks = tuple(
        block
        if len(statements) == len(block.statements)
        and all(new is old for new, old in zip(statements, block.statements))
        else BasicBlock(block.name, tuple(statements), block.terminator)
        for block, (statements, _terminator) in zip(program.blocks, bodies)
    )
    return replace(
        program, blocks=blocks, scalars=program.scalars + tuple(sorted(surviving))
    )
