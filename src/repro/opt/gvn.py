"""Dominator-ordered global value numbering (cross-block CSE).

This generalizes the block-local CSE of :mod:`repro.opt.cse` to the whole
CFG.  The same versioned-leaf discipline applies (a value number bakes in
exactly which definition every variable/port/array leaf reads, including
the array store-epoch aliasing rules), but interning now runs over *one*
shared :class:`~repro.opt.dag.GlobalProgramDAG` along a depth-first walk
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

Candidates use the block-local thresholds (``MIN_OCCURRENCES`` uses,
``MIN_OPS`` operator nodes, no port reads) and the rebuild machinery of
:func:`repro.opt.cse._rebuild_with_temps`, with the ``materialized`` map
scoped to the dominator path.  A final cleanup inlines temporaries this
run introduced that ended up defined and read exactly once in the same
block (occurrences living in *sibling* branches each materialize their
own copy; inlining those singles keeps the transformation never worse
than the input).  On a single-block program the result is statement-for-
statement identical to block-local CSE.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import dominance_relation
from repro.analysis.loops import BlockStructure
from repro.ir.expr import ArrayRef, IRNode, Op, VarRef, expr_variables
from repro.ir.program import BasicBlock, Program, Statement
from repro.opt.cse import (
    MIN_OCCURRENCES,
    MIN_OPS,
    TEMP_PREFIX,
    _candidate_ids,
    _rebuild_with_temps,
    _statement_reads,
)
from repro.opt.dag import GlobalProgramDAG


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
    as ``ExprDAG.op_counts`` does) occurs at ``MIN_OCCURRENCES`` places
    in the statements and store indices -- without one no value number
    can qualify.  Iterative; IR nodes are never keys (``__eq__`` recurses)."""
    ids: Dict[tuple, int] = {}
    op_counts: List[int] = []
    occurrences: Dict[int, int] = {}
    for block in program.blocks:
        for statement in block.statements:
            roots = (statement.expression, statement.destination_index)
            stack = [(root, False) for root in roots if root is not None]
            results: List[int] = []
            while stack:
                node, expanded = stack.pop()
                kind = type(node)
                if kind is Op or kind is ArrayRef:
                    children = node.children()
                    if not expanded:
                        stack.append((node, True))
                        stack.extend([(child, False) for child in reversed(children)])
                        continue
                    child_ids = tuple(results[-len(children):])
                    del results[-len(children):]
                    key = (kind, node.op if kind is Op else node.name) + child_ids
                    ops = (kind is Op) + sum([op_counts[child] for child in child_ids])
                else:
                    key, ops = (kind, str(node)), 0
                node_id = ids.setdefault(key, len(ids))
                if node_id == len(op_counts):
                    op_counts.append(ops)
                if kind is Op and ops >= MIN_OPS:
                    occurrences[node_id] = occurrences.get(node_id, 0) + 1
                    if occurrences[node_id] >= MIN_OCCURRENCES:
                        return True
                results.append(node_id)
    return False


def _substitute_var(expr: IRNode, name: str, replacement: IRNode) -> IRNode:
    """``expr`` with every ``VarRef(name)`` leaf replaced (explicit-stack
    rebuild; shared structure is freshly reconstructed)."""
    built: Dict[int, IRNode] = {}
    stack: List[Tuple[IRNode, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in built:
            continue
        if isinstance(node, VarRef):
            built[id(node)] = replacement if node.name == name else node
            continue
        children = node.children()
        if not expanded and children:
            stack.append((node, True))
            for child in children:
                stack.append((child, False))
            continue
        if isinstance(node, ArrayRef):
            built[id(node)] = ArrayRef(node.name, built[id(node.index)])
        elif isinstance(node, Op):
            built[id(node)] = Op(
                node.op, tuple(built[id(operand)] for operand in node.operands)
            )
        else:
            built[id(node)] = node
    return built[id(expr)]


def _inline_single_use_temps(
    blocks: List[BasicBlock],
    introduced: Set[str],
    counters: Dict[str, int],
) -> Set[str]:
    """Inline (and drop) temporaries from ``introduced`` that are defined
    once and read exactly once, def and use in the same block with only
    other hoisted temporary definitions in between.  Returns the set of
    temporaries that remain."""
    changed = True
    remaining = set(introduced)
    while changed:
        changed = False
        read_counts: Dict[str, int] = {name: 0 for name in remaining}
        def_counts: Dict[str, int] = {name: 0 for name in remaining}
        for block in blocks:
            for statement in block.statements:
                for name in _statement_reads(statement):
                    if name in read_counts:
                        # expr_variables is a set per statement; a temp
                        # read twice in one expression is counted once,
                        # which only ever keeps more temps -- safe.
                        read_counts[name] += 1
                if statement.destination in def_counts:
                    def_counts[statement.destination] += 1
            if block.terminator is not None:
                for name in block.terminator.variables():
                    if name in read_counts:
                        read_counts[name] += 1
        for block in blocks:
            statements = block.statements
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
                if name not in expr_variables(statements[reader].expression):
                    # The single read sits in a store index; leave it.
                    index += 1
                    continue
                statements[reader] = Statement(
                    destination=statements[reader].destination,
                    expression=_substitute_var(
                        statements[reader].expression, name, statement.expression
                    ),
                    destination_index=statements[reader].destination_index,
                )
                del statements[index]
                remaining.discard(name)
                counters["temps_introduced"] -= 1
                counters["cse_hits"] -= 2
                changed = True
            # fall through to next block
    return remaining


def global_value_numbering(
    program: Program,
    counters: Optional[Dict[str, int]] = None,
    structure: Optional[BlockStructure] = None,
) -> Program:
    """A fresh program with repeated subexpressions materialized into
    temporaries across the whole CFG (dominator-scoped) -- or ``program``
    itself, unchanged, when nothing qualifies for a temporary.

    ``counters`` (when given) accumulates ``cse_hits`` and
    ``temps_introduced`` exactly like the block-local eliminator;
    ``structure``, when given, describes ``program``'s block structure
    (the result has the same)."""
    stats = counters if counters is not None else {}
    stats.setdefault("cse_hits", 0)
    stats.setdefault("temps_introduced", 0)

    if not _has_repeated_subtree(program):
        return program
    if structure is None:
        structure = BlockStructure(program)
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

    dag = GlobalProgramDAG()
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

    reserved = set(program.all_variables()) | set(program.scalars)
    temp_serial = [0]

    def alloc_temp() -> str:
        while True:
            name = "%s%d" % (TEMP_PREFIX, temp_serial[0])
            temp_serial[0] += 1
            if name not in reserved:
                reserved.add(name)
                return name

    # Pass 2: rebuild along the same walk; the materialized map is scoped
    # to the dominator path (a child inherits its parent's temps).
    rebuilt: Dict[str, List[Statement]] = {}
    walk: List[Tuple[str, Dict[int, str]]] = [(cfg.entry, {})]
    while walk:
        name, inherited = walk.pop()
        materialized = dict(inherited)
        statements: List[Statement] = []
        for statement, root in zip(statements_of[name], roots_of[name]):
            hoisted: List[Statement] = []
            expression = _rebuild_with_temps(
                dag.dag, root, candidates, materialized, hoisted, alloc_temp, stats
            )
            statements.extend(hoisted)
            statements.append(
                Statement(
                    destination=statement.destination,
                    expression=expression,
                    destination_index=statement.destination_index,
                )
            )
        rebuilt[name] = statements
        for child in reversed(children[name]):
            walk.append((child, materialized))

    introduced = {
        name for name in reserved if name.startswith(TEMP_PREFIX)
    } - (set(program.all_variables()) | set(program.scalars))

    new_blocks: List[BasicBlock] = []
    emitted: Set[str] = set()
    for block in program.blocks:
        if block.name in rebuilt and block.name not in emitted:
            statements = rebuilt[block.name]
        else:
            # Unreachable (or duplicate-named) blocks never execute; keep
            # their statements, untouched by value numbering.
            statements = list(block.statements)
        emitted.add(block.name)
        new_blocks.append(
            BasicBlock(
                name=block.name,
                statements=statements,
                terminator=block.terminator,
            )
        )

    surviving = _inline_single_use_temps(new_blocks, introduced, stats)
    return Program(
        name=program.name,
        blocks=new_blocks,
        scalars=list(program.scalars) + sorted(surviving),
        arrays=dict(program.arrays),
        entry=program.entry,
        hw_loops=dict(program.hw_loops),
    )
