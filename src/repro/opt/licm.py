"""Loop-invariant code motion into preheaders.

LICM operates on *single-block self-loops* (a block whose conditional
branch targets itself) -- the shape every rotated counted loop and every
``do``-``while`` takes.  Entering such a block executes its body at
least once, so moving invariant work in front of the loop can never
execute code the original program would have skipped (the classic
zero-trip hazard of hoisting out of ``while`` loops does not arise).

Two kinds of motion, both into the loop's preheader, the landing pad
in front of it:

* **statement hoisting** -- a statement assigning a plain scalar exactly
  once in the loop, reading only loop-invariant values, not read earlier
  in the block, moves wholesale.  Pure motion: never adds code;
* **subexpression hoisting** -- an invariant operator subtree with at
  least :data:`~repro.opt.cse.MIN_OPS` operators occurring at least
  twice in data-path position is materialized into a ``__licm*``
  temporary defined in the preheader.  Address-context occurrences
  (:class:`~repro.ir.expr.ArrayRef` indices) never justify a hoist on
  their own -- the address generator evaluates them for free.

The loop's sole outside predecessor is its preheader when it ends in
an unconditional jump and the header is not the program entry;
otherwise an empty ``<header>.pre`` block is created in front of the
header and every outside edge goes through it.  A created
preheader costs one jump word, so creation is gated on at least two
planned hoists; a reused one accepts any number.  Planning
(:func:`plan_loop_invariants`) is read-only and decides both, on the
block structure of the program it is handed; hoisting places every
planned preheader against that structure.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from repro.ir.expr import (
    ArrayRef,
    Const,
    IRNode,
    Op,
    PortInput,
    VarRef,
    base_array,
    expr_variables,
    is_plain_scalar,
)
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement
from repro.ir.temps import LICM_TEMP_PREFIX, TempNamer, replace_in_statement
from repro.opt.cse import MIN_OCCURRENCES, MIN_OPS
from repro.opt.loops import _retarget, has_backward_branch

if TYPE_CHECKING:
    from repro.opt.pipeline import OptRun

#: Suffix appended to a header name to name a created preheader.
PREHEADER_SUFFIX = ".pre"


def _block_effects(
    statements: Sequence[Statement],
) -> Tuple[Set[str], Set[str], Set[str]]:
    """``(defined, dynamic_arrays, stored_arrays)`` of one block's
    statements: destination names written, arrays hit by runtime-indexed
    stores, and arrays hit by any store at all."""
    defined: Set[str] = set()
    dynamic: Set[str] = set()
    stored: Set[str] = set()
    for statement in statements:
        if statement.destination_index is not None:
            dynamic.add(statement.destination)
            stored.add(statement.destination)
        else:
            defined.add(statement.destination)
            base = base_array(statement.destination)
            if base is not None:
                stored.add(base)
    return defined, dynamic, stored


def _invariant(
    expr: IRNode, defined: Set[str], dynamic: Set[str], stored: Set[str]
) -> bool:
    """True when no leaf of ``expr`` can observe a write the loop body
    performs (ports are excluded outright: port reads are never moved)."""
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            continue
        if isinstance(node, PortInput):
            return False
        if isinstance(node, VarRef):
            if node.name in defined:
                return False
            base = base_array(node.name)
            if base is not None and base in dynamic:
                return False
            continue
        if isinstance(node, ArrayRef):
            if node.name in stored:
                return False
            stack.append(node.index)
            continue
        if isinstance(node, Op):
            stack.extend(node.operands)
            continue
        return False
    return True


def _statement_hoists(statements: Sequence[Statement]) -> List[int]:
    """Indices of statements hoistable *right now* (first fixpoint round:
    callers re-invoke after each move)."""
    defined, dynamic, stored = _block_effects(statements)
    def_counts: Dict[str, int] = {}
    for statement in statements:
        if statement.destination_index is None:
            def_counts[statement.destination] = (
                def_counts.get(statement.destination, 0) + 1
            )
    hoists: List[int] = []
    read_so_far: Set[str] = set()
    for index, statement in enumerate(statements):
        destination = statement.destination
        eligible = (
            statement.destination_index is None
            and is_plain_scalar(destination)
            and def_counts.get(destination) == 1
            and destination not in read_so_far
            and _invariant(statement.expression, defined, dynamic, stored)
        )
        if eligible:
            hoists.append(index)
        read_so_far.update(expr_variables(statement.expression))
        if statement.destination_index is not None:
            read_so_far.update(expr_variables(statement.destination_index))
    return hoists


def _subexpr_candidates(statements: Sequence[Statement]) -> List[IRNode]:
    """Invariant operator subtrees of a loop body worth a ``__licm*``
    temporary -- ``MIN_OPS`` operators or more and ``MIN_OCCURRENCES``
    data-path occurrences or more -- largest first, then in the order
    of their text.

    One numbering pass per statement, as in GVN's scan: a pre-order walk
    lists the nodes with their address flag, pushing each node's
    children left to right, and numbering the list in reverse meets
    every node right after its children, whose ids, operator counts,
    sizes and invariance are then on top of a result stack.  Subtrees
    are keyed by structure, and only candidates of equal size are
    rendered, for the order."""
    defined, dynamic, stored = _block_effects(statements)
    ids: Dict[tuple, int] = {}
    counts: Dict[int, int] = {}
    reps: Dict[int, Tuple[int, IRNode]] = {}  # id -> (size, first occurrence)
    for statement in statements:
        order: List[Tuple[IRNode, bool]] = []
        stack: List[Tuple[IRNode, bool]] = [(statement.expression, False)]
        if statement.destination_index is not None:
            stack.append((statement.destination_index, True))
        while stack:
            node, in_address = stack.pop()
            order.append((node, in_address))
            kind = type(node)
            if kind is Op:
                stack.extend([(operand, in_address) for operand in node.operands])
            elif kind is ArrayRef:
                stack.append((node.index, True))
        results: List[Tuple[int, int, int, bool]] = []  # id, operators, size, invariant
        for node, in_address in reversed(order):
            kind = type(node)
            if kind is Op:
                split = len(results) - len(node.operands)
                operands = results[split:]
                del results[split:]
                key: tuple = (node.op,) + tuple([operand[0] for operand in operands])
                ops = 1 + sum([operand[1] for operand in operands])
                size = 1 + sum([operand[2] for operand in operands])
                invariant = all([operand[3] for operand in operands])
            elif kind is ArrayRef:
                index_id, ops, size, invariant = results.pop()
                key, size = (kind, node.name, index_id), size + 1
                invariant = invariant and node.name not in stored
            elif kind is VarRef:
                key, ops, size = (kind, node.name), 0, 1
                base = base_array(node.name)
                invariant = node.name not in defined and (base is None or base not in dynamic)
            elif kind is Const:
                key, ops, size, invariant = (kind, node.value), 0, 1, True
            else:  # a port read never moves
                key, ops, size, invariant = (kind, str(node)), 0, 1, False
            node_id = ids.setdefault(key, len(ids))
            if kind is Op and invariant and ops >= MIN_OPS and not in_address:
                counts[node_id] = counts.get(node_id, 0) + 1
                reps.setdefault(node_id, (size, node))
            results.append((node_id, ops, size, invariant))
    ranked = sorted(
        (reps[node_id] for node_id, count in counts.items() if count >= MIN_OCCURRENCES),
        key=lambda rep: -rep[0],
    )
    ordered: List[IRNode] = []
    for _size, group in groupby(ranked, key=lambda rep: rep[0]):
        nodes = [node for _size, node in group]
        if len(nodes) > 1:
            nodes.sort(key=str)
        ordered.extend(nodes)
    return ordered


def plan_loop_invariants(program: Program, run: OptRun) -> list:
    """``(header, outside predecessors, reused preheader or None,
    statement hoists in move order, subexpression candidates)`` of each
    single-block self-loop passing the preheader gate, on ``run``'s
    analyses of ``program``'s block structure.  No loop's hoists touch
    the edges into another's header, so all plan on the unmodified
    program."""
    if not has_backward_branch(program):
        return []
    structure = run.structure(program)
    cfg = structure.cfg
    if not cfg.names:
        return []
    entry = program.entry_block_name()
    plan = []
    for header, loop in structure.forest.loops.items():
        block = program.block(header)
        if len(loop.blocks) != 1 or not isinstance(block.terminator, CBranch):
            continue
        # Statement hoists are simulated to fixpoint on a scratch copy of
        # the statement list; each subexpression candidate adds one.
        scratch = list(block.statements)
        moves: List[int] = []
        while True:
            hoists = _statement_hoists(scratch)
            if not hoists:
                break
            del scratch[hoists[0]]
            moves.append(hoists[0])
        candidates = _subexpr_candidates(scratch)
        planned = len(moves) + len(candidates)
        if not planned:
            continue
        outside = [pred for pred in cfg.predecessors.get(header, ()) if pred != header]
        reuse = (
            outside[0]
            if len(outside) == 1
            and header != entry
            and isinstance(program.block(outside[0]).terminator, Jump)
            else None
        )
        if reuse is None and planned < 2:
            # A created preheader costs a jump word; one hoisted
            # statement cannot pay for it.
            continue
        plan.append((header, outside, reuse, moves, candidates))
    return plan


def _index_of(blocks: Sequence[BasicBlock], name: str) -> int:
    # The first block of that name, as Program.block finds it.
    return next(index for index, block in enumerate(blocks) if block.name == name)


def _create_preheader(program: Program, header: str, outside: List[str]) -> Tuple[Program, str]:
    """``program`` with an empty block ``<header>.pre`` (uniquified if
    taken) in front of ``header`` in layout order, jumping to it, and
    every edge from ``outside`` into ``header`` redirected to it; it
    becomes the entry when ``header`` was.  Returns the program and the
    block's name."""
    blocks = list(program.blocks)
    taken = {block.name for block in blocks}
    name = header + PREHEADER_SUFFIX
    serial = 0
    while name in taken:
        serial += 1
        name = "%s%s%d" % (header, PREHEADER_SUFFIX, serial)
    for pred in outside:
        index = _index_of(blocks, pred)
        blocks[index] = replace(
            blocks[index], terminator=_retarget(blocks[index].terminator, header, name)
        )
    blocks.insert(_index_of(blocks, header), BasicBlock(name, (), Jump(header)))
    entry = name if program.entry_block_name() == header else program.entry
    return replace(program, blocks=tuple(blocks), entry=entry), name


def hoist_loop_invariants(program: Program, run: OptRun) -> Program:
    """Hoist the loop-invariant statements and subexpressions of every
    single-block self-loop of ``program`` into its preheader, as
    :func:`plan_loop_invariants` plans them.  ``run.stats.licm_hoisted``
    counts the statements moved plus the temporaries materialized, and
    ``run`` records the ``__licm*`` temporaries.  With an empty plan the
    result is ``program`` itself; otherwise the blocks no hoist touched
    are shared with it."""
    plan = plan_loop_invariants(program, run)
    if not plan:
        return program
    namer = TempNamer(program, LICM_TEMP_PREFIX)
    for header, outside, preheader_name, moves, candidates in plan:
        # The edges into this header are as planned.
        if preheader_name is None:
            program, preheader_name = _create_preheader(program, header, outside)
        block = program.block(header)
        preheader = program.block(preheader_name)
        body = list(block.statements)
        landed = list(preheader.statements)

        for index in moves:  # the simulated statement hoists, in order
            landed.append(body.pop(index))
            run.stats.licm_hoisted += 1

        # Subexpression hoisting, largest candidates first, re-scanned
        # after every materialization.
        while candidates:
            pattern = candidates[0]
            temp = namer()
            landed.append(Statement(destination=temp, expression=pattern))
            read = VarRef(temp)
            body = [
                replace_in_statement(statement, (pattern,), read) for statement in body
            ]
            run.stats.licm_hoisted += 1
            candidates = _subexpr_candidates(body)
        changed = {
            id(block): replace(block, statements=tuple(body)),
            id(preheader): replace(preheader, statements=tuple(landed)),
        }
        program = replace(
            program,
            blocks=tuple(changed.get(id(old), old) for old in program.blocks),
        )
    if namer.names:
        run.introduce(namer.names)
        program = replace(program, scalars=program.scalars + tuple(namer.names))
    return program
