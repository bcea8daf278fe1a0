"""Loop-invariant code motion into preheaders.

LICM operates on *single-block self-loops* (a block whose conditional
branch targets itself) -- the shape every rotated counted loop and every
``do``-``while`` takes.  Entering such a block executes its body at
least once, so moving invariant work in front of the loop can never
execute code the original program would have skipped (the classic
zero-trip hazard of hoisting out of ``while`` loops does not arise).

Two kinds of motion, both into the loop's preheader (the landing pad
:func:`repro.analysis.loops.insert_preheaders` reuses or creates):

* **statement hoisting** -- a statement assigning a plain scalar exactly
  once in the loop, reading only loop-invariant values, not read earlier
  in the block, moves wholesale.  Pure motion: never adds code;
* **subexpression hoisting** -- an invariant operator subtree with at
  least :data:`~repro.opt.cse.MIN_OPS` operators occurring at least
  twice in data-path position is materialized into a ``__licm*``
  temporary defined in the preheader.  Address-context occurrences
  (:class:`~repro.ir.expr.ArrayRef` indices) never justify a hoist on
  their own -- the address generator evaluates them for free.

A *created* preheader costs one jump word, so creation is gated on at
least two planned hoists; a reused preheader (the loop's sole outside
predecessor already ends in an unconditional jump) accepts any number.
Planning (:func:`plan_loop_invariants`) is read-only, so a caller can
hand a program whose plan is empty through untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.loops import BlockStructure, LoopNestingForest, insert_preheaders
from repro.ir.expr import (
    ArrayRef,
    Const,
    IRNode,
    Op,
    PortInput,
    VarRef,
    expr_size,
    expr_variables,
)
from repro.ir.program import CBranch, Jump, Program, Statement
from repro.opt.cse import MIN_OCCURRENCES, MIN_OPS
from repro.opt.loops import has_backward_branch

#: Prefix of loop-invariant code motion temporaries.
LICM_TEMP_PREFIX = "__licm"


def _is_plain_scalar(name: str) -> bool:
    return not name.startswith("@") and "[" not in name


def _base_array(name: str) -> Optional[str]:
    bracket = name.find("[")
    return name[:bracket] if bracket > 0 else None


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
            base = _base_array(statement.destination)
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
            base = _base_array(node.name)
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


def _op_count(expr: IRNode) -> int:
    count = 0
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Op):
            count += 1
        stack.extend(node.children())
    return count


def _self_loops(program: Program, forest: LoopNestingForest) -> List[str]:
    return [
        header
        for header, loop in forest.loops.items()
        if len(loop.blocks) == 1
        and isinstance(program.block(header).terminator, CBranch)
    ]


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
            and _is_plain_scalar(destination)
            and not destination.startswith("@")
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


def _subexpr_candidates(
    statements: Sequence[Statement],
    min_occurrences: int = MIN_OCCURRENCES,
    min_ops: int = MIN_OPS,
) -> List[Tuple[str, IRNode, int]]:
    """Invariant operator subtrees of a loop body worth a ``__licm*``
    temporary: ``(key, representative, occurrences)`` with data-path
    occurrence counts, largest subtrees first."""
    defined, dynamic, stored = _block_effects(statements)
    counts: Dict[str, int] = {}
    reps: Dict[str, IRNode] = {}
    for statement in statements:
        stack: List[Tuple[IRNode, bool]] = [(statement.expression, False)]
        if statement.destination_index is not None:
            stack.append((statement.destination_index, True))
        while stack:
            node, in_address = stack.pop()
            if isinstance(node, ArrayRef):
                stack.append((node.index, True))
                continue
            if isinstance(node, Op):
                if (
                    not in_address
                    and _op_count(node) >= min_ops
                    and _invariant(node, defined, dynamic, stored)
                ):
                    key = str(node)
                    counts[key] = counts.get(key, 0) + 1
                    reps.setdefault(key, node)
                for operand in node.operands:
                    stack.append((operand, in_address))
                continue
    ordered = [
        (key, reps[key], count)
        for key, count in counts.items()
        if count >= min_occurrences
    ]
    ordered.sort(key=lambda item: (-expr_size(item[1]), item[0]))
    return ordered


def _replace_equal(expr: IRNode, pattern: IRNode, temp: str) -> IRNode:
    if expr == pattern:
        return VarRef(temp)
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, _replace_equal(expr.index, pattern, temp))
    if isinstance(expr, Op):
        return Op(
            expr.op,
            tuple(_replace_equal(operand, pattern, temp) for operand in expr.operands),
        )
    return expr


def plan_loop_invariants(
    program: Program, structure: Optional[BlockStructure] = None
) -> list:
    """``(header, statement hoists in move order, subexpression candidates)``
    of each self-loop passing the preheader gate (``structure``, when
    given, describes ``program``'s block structure).  No loop's hoists
    touch the edges into another's header, so all plan on the unmodified
    program."""
    if not has_backward_branch(program):
        return []
    if structure is None:
        structure = BlockStructure(program)
    cfg = structure.cfg
    if not cfg.names:
        return []
    plan = []
    for header in _self_loops(program, structure.forest):
        block = program.block(header)
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
        outside = [
            pred for pred in cfg.predecessors.get(header, ()) if pred != header
        ]
        reusable = (
            len(outside) == 1
            and header != program.entry_block_name()
            and isinstance(program.block(outside[0]).terminator, Jump)
        )
        if not reusable and planned < 2:
            # A created preheader costs a jump word; one hoisted
            # statement cannot pay for it.
            continue
        plan.append((header, moves, candidates))
    return plan


def hoist_loop_invariants(
    program: Program,
    counters: Optional[Dict[str, int]] = None,
    plan: Optional[list] = None,
    structure: Optional[BlockStructure] = None,
) -> Tuple[Program, Set[str]]:
    """Apply ``plan`` (:func:`plan_loop_invariants` of ``program``; made
    here when ``None``): hoist loop-invariant statements and
    subexpressions of every single-block self-loop into its preheader.
    Returns ``(hoisted program, the __licm* temporaries introduced)``;
    with an empty plan the program is ``program`` itself, and otherwise
    the blocks no hoist touched are shared with it.  ``counters``
    accumulates ``licm_hoisted`` (statements moved plus temporaries
    materialized).  ``structure`` (the block structure of ``program`` as
    passed) is updated in place when a preheader is created."""
    stats = counters if counters is not None else {}
    stats.setdefault("licm_hoisted", 0)
    introduced: Set[str] = set()
    if structure is None:
        structure = BlockStructure(program)
    if plan is None:
        plan = plan_loop_invariants(program, structure)
    if not plan:
        return program, introduced
    reserved = set(program.all_variables()) | set(program.scalars)
    serial = [0]

    def alloc_temp() -> str:
        while True:
            name = "%s%d" % (LICM_TEMP_PREFIX, serial[0])
            serial[0] += 1
            if name not in reserved:
                reserved.add(name)
                return name

    blocks_before = len(program.blocks)
    scalars = list(program.scalars)
    for header, moves, candidates in plan:
        # The edges into this header are as planned: the structure the
        # plan was made on still gives its loop and predecessors.
        mini = LoopNestingForest(
            loops={header: structure.forest.loops[header]},
            roots=[header],
            children={header: []},
        )
        program, preheaders = insert_preheaders(program, mini, structure.cfg)
        block = program.block(header)
        preheader = program.block(preheaders[header])
        body = list(block.statements)
        landed = list(preheader.statements)

        for index in moves:  # the simulated statement hoists, in order
            landed.append(body.pop(index))
            stats["licm_hoisted"] += 1

        # Subexpression hoisting, largest candidates first, re-scanned
        # after every materialization.
        while candidates:
            _key, pattern, _count = candidates[0]
            temp = alloc_temp()
            landed.append(Statement(destination=temp, expression=pattern))
            for index, statement in enumerate(body):
                expression = _replace_equal(statement.expression, pattern, temp)
                destination_index = statement.destination_index
                if destination_index is not None:
                    destination_index = _replace_equal(
                        destination_index, pattern, temp
                    )
                body[index] = Statement(
                    destination=statement.destination,
                    expression=expression,
                    destination_index=destination_index,
                )
            introduced.add(temp)
            if temp not in scalars:
                scalars.append(temp)
            stats["licm_hoisted"] += 1
            candidates = _subexpr_candidates(body)
        changed = {
            id(block): replace(block, statements=tuple(body)),
            id(preheader): replace(preheader, statements=tuple(landed)),
        }
        program = replace(
            program,
            blocks=tuple(changed.get(id(old), old) for old in program.blocks),
        )
    if len(scalars) != len(program.scalars):
        program = replace(program, scalars=tuple(scalars))
    if len(program.blocks) != blocks_before:
        structure.update(program)
    return program, introduced
