"""Counted-loop recognition, loop rotation and strength reduction.

The DSPStone loop kernels all share one shape after frontend lowering: an
induction variable initialized to a constant, stepped by a constant once
per iteration, and tested by the sole loop condition.  This module
recognizes that shape (:func:`find_counted_loops`), proves the exact trip
count by evaluating the induction recurrence with the reference
semantics, and applies two transformations:

* **rotation** -- a ``while``-form loop (empty header testing the
  condition, single latch jumping back) whose trip count is proven >= 1
  is rewritten into ``do``-``while`` form: the latch takes over the
  conditional branch and the header block disappears.  One branch word
  less per loop, and the surviving single-block self-loop is exactly the
  shape the TMS320C25 repeat mechanism wants;
* **strength reduction** -- multiplications of the induction variable by
  a loop constant (``i * k``, the dynamic ``a[i]``-style address
  arithmetic scaled accesses produce) are replaced by a ``__sr*``
  temporary maintained incrementally (initialized next to the induction
  variable's constant init, stepped right after its update).  Gated on
  at least two *data-path* occurrences so the added init/update
  statements are always paid for.

The ``loops`` stage (:func:`rotate_and_reduce`) runs both.
:func:`annotate_hardware_loops` returns, for the counted single-block
self-loops of the final optimized program, the
:class:`~repro.ir.program.HardwareLoop` annotations the backend's
repeat-instruction lowering consumes.

Every function here takes the :class:`~repro.opt.pipeline.OptRun` it
belongs to, which keeps the block structure and the counted loops of
the program it is asked about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.ir.expr import (
    ArrayRef,
    Const,
    IRNode,
    Op,
    VarRef,
    evaluate_expr,
    expr_variables,
    is_plain_scalar,
    wrap_word,
)
from repro.ir.program import CBranch, HardwareLoop, Jump, Program, Statement, Terminator
from repro.ir.temps import SR_TEMP_PREFIX, TempNamer, replace_in_statement

if TYPE_CHECKING:
    from repro.opt.pipeline import OptRun

#: Cap on trip-count evaluation steps.  Word-wrapped induction values
#: revisit a value within 2**16 steps, so exceeding this means the
#: condition never exits and the loop is not counted.
TRIP_LIMIT = 1 << 17

#: Minimum data-path occurrences of ``i * k`` for strength reduction --
#: the reduced form spends one init and one update statement, so fewer
#: than two eliminated multiplies could grow the code.
SR_MIN_OCCURRENCES = 2


@dataclass(frozen=True)
class CountedLoop:
    """One recognized counted loop with its proven trip count.

    ``form`` is ``"while"`` (empty header + separate latch) or ``"self"``
    (single block branching back to itself); ``trip_count`` is the exact
    number of body executions per entry into the loop.  ``step`` is the
    constant increment when the update is ``v = v +/- c`` (``None`` for
    other self-recurrences, which still trip-count but cannot be
    strength-reduced)."""

    header: str
    latch: str
    exit: str
    induction: str
    init: int
    init_block: str
    init_index: int
    step: Optional[int]
    update_index: int
    trip_count: int
    form: str


def _reads_only(expr: IRNode, allowed: Set[str]) -> bool:
    """True when ``expr`` reads nothing but constants and ``allowed``
    scalars (no ports, no array accesses)."""
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            continue
        if isinstance(node, VarRef):
            if node.name not in allowed:
                return False
            continue
        if isinstance(node, Op):
            stack.extend(node.operands)
            continue
        return False  # ArrayRef / PortInput / anything exotic
    return True


def _find_induction(
    statements: Sequence[Statement], condition: IRNode
) -> Optional[Tuple[str, int, Optional[int]]]:
    """The loop's induction variable: the sole variable the condition
    reads, defined exactly once by a self-recurrence over constants.
    Returns ``(name, update_index, step)`` or ``None``."""
    cond_vars = expr_variables(condition)
    if len(cond_vars) != 1:
        return None
    (name,) = cond_vars
    if not is_plain_scalar(name):
        return None
    if not _reads_only(condition, {name}):
        return None
    defs = [
        index
        for index, statement in enumerate(statements)
        if statement.destination == name and statement.destination_index is None
    ]
    if len(defs) != 1:
        return None
    update = statements[defs[0]]
    if not _reads_only(update.expression, {name}):
        return None
    step = _constant_step(update.expression, name)
    return name, defs[0], step


def _constant_step(expression: IRNode, name: str) -> Optional[int]:
    """The constant ``s`` when ``expression`` is ``name + s``/``name - s``
    (or ``s + name``); ``None`` otherwise."""
    if not isinstance(expression, Op) or len(expression.operands) != 2:
        return None
    left, right = expression.operands
    if expression.op == "add":
        if isinstance(left, VarRef) and left.name == name and isinstance(right, Const):
            return right.value
        if isinstance(right, VarRef) and right.name == name and isinstance(left, Const):
            return left.value
    if expression.op == "sub":
        if isinstance(left, VarRef) and left.name == name and isinstance(right, Const):
            return -right.value
    return None


def _constant_init(
    program: Program,
    cfg: ControlFlowGraph,
    start: str,
    name: str,
) -> Optional[Tuple[int, str, int]]:
    """The constant reaching definition of ``name`` at the exit of block
    ``start``, found by walking the unique-predecessor chain backwards.
    Every execution that reaches ``start`` provably passes the returned
    definition last.  Returns ``(value, block, statement_index)``."""
    entry = program.entry_block_name()
    block = start
    visited: Set[str] = set()
    while True:
        if block in visited:
            return None
        visited.add(block)
        body = program.block(block)
        for index in range(len(body.statements) - 1, -1, -1):
            statement = body.statements[index]
            if statement.destination == name and statement.destination_index is None:
                if isinstance(statement.expression, Const):
                    return statement.expression.value, block, index
                return None
        if block == entry:
            # Walking past the program entry would skip the definition on
            # the initial execution; the reaching value is unknown.
            return None
        predecessors = cfg.predecessors.get(block, ())
        if len(predecessors) != 1:
            return None
        block = predecessors[0]


def _trip_count(
    form: str,
    init: int,
    induction: str,
    update: IRNode,
    condition: IRNode,
    stays: Tuple[bool, bool],
) -> Optional[int]:
    """Exact body-execution count by reference evaluation of the
    induction recurrence (``None`` when the loop never exits within the
    step cap, or executes zero times in ``self`` form -- impossible).
    ``stays[holds]`` tells whether the branch stays in the loop when the
    condition holds (``True``) or not."""
    value = init
    trips = 0
    if form == "while":
        while True:
            if not stays[evaluate_expr(condition, {induction: value}) != 0]:
                return trips
            trips += 1
            if trips > TRIP_LIMIT:
                return None
            value = evaluate_expr(update, {induction: value})
    while True:  # "self": body runs before the first test
        trips += 1
        if trips > TRIP_LIMIT:
            return None
        value = evaluate_expr(update, {induction: value})
        if not stays[evaluate_expr(condition, {induction: value}) != 0]:
            return trips


def has_backward_branch(program: Program) -> bool:
    """True when a branch targets its own or an earlier block; every cycle needs one."""
    position: Dict[str, int] = {}
    for index, block in enumerate(program.blocks):
        position.setdefault(block.name, index)
        targets = block.terminator.targets() if block.terminator is not None else ()
        if any(position.get(target, index + 1) <= index for target in targets):
            return True
    return False


def find_counted_loops(program: Program, run: OptRun) -> Dict[str, CountedLoop]:
    """All counted loops of ``program``, keyed by header block name,
    recognized on ``run``'s analyses of its block structure.  Trip counts
    are memoized in ``run.trip_counts``, by induction recurrence and
    loop condition, for the recognitions after a rewrite."""
    structure = run.structure(program)
    cfg = structure.cfg
    if not cfg.names:
        return {}
    forest = structure.forest
    trip_counts = run.trip_counts
    counted: Dict[str, CountedLoop] = {}
    for header, loop in forest.loops.items():
        if len(loop.back_edges) != 1:
            continue
        header_block = program.block(header)
        if len(loop.blocks) == 1:
            form = "self"
            latch = header
            branch = header_block.terminator
            if not isinstance(branch, CBranch):
                continue
            in_loop = [t for t in branch.targets() if t == header]
            if len(in_loop) != 1:
                continue
            exit_target = (
                branch.false_target
                if branch.true_target == header
                else branch.true_target
            )
            body_statements = header_block.statements
        elif len(loop.blocks) == 2:
            form = "while"
            latch = loop.latches[0]
            if header_block.statements:
                continue
            branch = header_block.terminator
            if not isinstance(branch, CBranch):
                continue
            in_loop = [t for t in branch.targets() if t in loop.blocks]
            if len(in_loop) != 1 or in_loop[0] != latch:
                continue
            exit_target = (
                branch.false_target
                if branch.true_target == latch
                else branch.true_target
            )
            latch_block = program.block(latch)
            if not isinstance(latch_block.terminator, Jump):
                continue
            body_statements = latch_block.statements
        else:
            continue
        induction = _find_induction(body_statements, branch.condition)
        if induction is None:
            continue
        name, update_index, step = induction
        outside = [
            pred
            for pred in cfg.predecessors.get(header, ())
            if pred not in loop.blocks
        ]
        if len(outside) != 1:
            continue
        init = _constant_init(program, cfg, outside[0], name)
        if init is None:
            continue
        init_value, init_block, init_index = init
        key = (
            form,
            init_value,
            name,
            body_statements[update_index].expression,
            branch.condition,
            (branch.false_target in loop.blocks, branch.true_target in loop.blocks),
        )
        trips = trip_counts.get(key, -1)  # -1: not counted yet
        if trips == -1:
            trips = trip_counts[key] = _trip_count(*key)
        if trips is None:
            continue
        counted[header] = CountedLoop(
            header=header,
            latch=latch,
            exit=exit_target,
            induction=name,
            init=init_value,
            init_block=init_block,
            init_index=init_index,
            step=step,
            update_index=update_index,
            trip_count=trips,
            form=form,
        )
    return counted


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------


def _retarget(terminator: Terminator, old: str, new: str) -> Terminator:
    """``terminator`` with branch target ``old`` renamed ``new``."""
    if isinstance(terminator, Jump):
        return Jump(new) if terminator.target == old else terminator
    if isinstance(terminator, CBranch):
        targets = (terminator.true_target, terminator.false_target)
        if old not in targets:
            return terminator
        true_target, false_target = (new if target == old else target for target in targets)
        return CBranch(terminator.condition, true_target, false_target)
    raise TypeError("cannot retarget terminator of type %r" % type(terminator).__name__)


def _rotate_one(program: Program, loop: CountedLoop, predecessors: Sequence[str]) -> Program:
    """``program`` with one ``while``-form counted loop (proven >= 1
    trip), whose header's predecessors are ``predecessors``, rewritten
    into ``do``-``while`` form: the latch takes the header's conditional
    branch, every outside edge enters the latch directly, and the (now
    unreachable) header block is removed.  The other blocks are shared
    with ``program``."""
    branch = program.block(loop.header).terminator
    latch_block = program.block(loop.latch)
    changed = {id(latch_block): replace(latch_block, terminator=branch)}
    for pred in predecessors:
        if pred != loop.latch:
            block = program.block(pred)
            changed[id(block)] = replace(
                block, terminator=_retarget(block.terminator, loop.header, loop.latch)
            )
    return replace(
        program,
        blocks=tuple(
            changed.get(id(block), block)
            for block in program.blocks
            if block.name != loop.header
        ),
    )


def _rotation_candidates(program: Program, counted: Dict[str, CountedLoop]) -> List[CountedLoop]:
    entry = program.entry_block_name() if program.blocks else ""
    return [
        loop
        for loop in counted.values()
        if loop.form == "while" and loop.trip_count >= 1 and loop.header != entry
    ]


def rotate_counted_loops(program: Program, run: OptRun) -> Program:
    """Rotate every eligible ``while``-form counted loop of ``program``;
    ``run.stats.loops_rotated`` counts the rotations.  Without a rotation
    the result is ``program`` itself.

    Rotation goes in rounds: one recognition, then every candidate it
    found, each rotated in the program the previous ones left (two loops
    entered from one block both retarget it).  No candidate's
    predecessor is another candidate's header: a loop's one outside
    predecessor starts the walk to its constant init, which stops at an
    empty header with two predecessors.  So a loop that was counted stays
    counted with the same trip count, but a loop can become counted when
    its walk now starts in a rotated latch that holds its init: the next
    round's recognition finds it, and a round without a candidate ends
    the stage."""
    while True:
        candidates = _rotation_candidates(program, run.counted_loops(program))
        if not candidates:
            return program
        predecessors = run.structure(program).cfg.predecessors
        for loop in candidates:
            program = _rotate_one(program, loop, predecessors.get(loop.header, ()))
        run.stats.loops_rotated += len(candidates)


# ---------------------------------------------------------------------------
# Strength reduction
# ---------------------------------------------------------------------------


def _mul_patterns(induction: str, factor: int) -> Tuple[Op, Op]:
    return (
        Op("mul", (VarRef(induction), Const(factor))),
        Op("mul", (Const(factor), VarRef(induction))),
    )


def _count_data_path_matches(expr: IRNode, patterns: Tuple[Op, Op]) -> int:
    """Occurrences of the patterns outside address contexts (an
    :class:`~repro.ir.expr.ArrayRef` index is evaluated by the
    address-generation logic for free, so it never justifies the
    reduction on its own)."""
    count = 0
    stack: List[Tuple[IRNode, bool]] = [(expr, False)]
    while stack:
        node, in_address = stack.pop()
        if not in_address and node in patterns:
            count += 1
            continue
        if isinstance(node, ArrayRef):
            stack.append((node.index, True))
            continue
        for child in node.children():
            stack.append((child, in_address))
    return count


def _reducible_factors(
    statements: Sequence[Statement], loop: CountedLoop
) -> List[Tuple[int, int]]:
    """``(factor, data-path occurrences)`` strength reduction rewrites of
    ``loop``, whose latch holds ``statements``."""
    if loop.step is None:
        return []
    factors: Dict[int, int] = {}
    for index, statement in enumerate(statements):
        if index == loop.update_index:
            continue
        for factor in _candidate_factors(statement.expression, loop.induction):
            patterns = _mul_patterns(loop.induction, factor)
            factors[factor] = factors.get(factor, 0) + _count_data_path_matches(
                statement.expression, patterns
            )
    return [
        (factor, occurrences)
        for factor, occurrences in sorted(factors.items())
        if occurrences >= SR_MIN_OCCURRENCES
    ]


def strength_reduce(program: Program, run: OptRun) -> Program:
    """Replace ``i * k`` products of counted-loop induction variables by
    incrementally maintained ``__sr*`` temporaries, counting the
    occurrences rewritten in ``run.stats.strength_reductions``.
    Without a rewrite the result is ``program`` itself; otherwise the
    blocks no reduction touched are shared with it."""
    counted = run.counted_loops(program)
    namer = TempNamer(program, SR_TEMP_PREFIX)

    # The statement lists of the blocks rewritten so far, by block identity.
    edited: Dict[int, List[Statement]] = {}

    def statements_of(name: str) -> List[Statement]:
        block = program.block(name)
        if id(block) not in edited:
            edited[id(block)] = list(block.statements)
        return edited[id(block)]

    for loop in counted.values():
        latch = program.block(loop.latch)
        factors = _reducible_factors(edited.get(id(latch), latch.statements), loop)
        for factor, occurrences in factors:
            body = statements_of(loop.latch)
            patterns = _mul_patterns(loop.induction, factor)
            temp = namer()
            read = VarRef(temp)
            # Earlier factors inserted statements; relocate the update.
            update_at = next(
                index
                for index, statement in enumerate(body)
                if statement.destination == loop.induction
                and statement.destination_index is None
            )
            for index, statement in enumerate(body):
                if index != update_at:
                    body[index] = replace_in_statement(statement, patterns, read)
            # Maintain the recurrence: init next to the induction init,
            # step right after the induction update.
            statements_of(loop.init_block).insert(
                loop.init_index + 1,
                Statement(temp, Const(wrap_word(loop.init * factor))),
            )
            body.insert(
                update_at + 1,
                Statement(temp, Op("add", (read, Const(wrap_word(loop.step * factor))))),
            )
            run.stats.strength_reductions += occurrences
    if not namer.names:
        return program
    run.introduce(namer.names)
    blocks = tuple(
        replace(block, statements=tuple(edited[id(block)]))
        if id(block) in edited
        else block
        for block in program.blocks
    )
    return replace(program, blocks=blocks, scalars=program.scalars + tuple(namer.names))


def rotate_and_reduce(program: Program, run: OptRun) -> Program:
    """The ``loops`` stage: rotation, then strength reduction."""
    return strength_reduce(rotate_counted_loops(program, run), run)


def _candidate_factors(expr: IRNode, induction: str) -> Set[int]:
    """Constant factors ``k`` of ``induction * k`` products in ``expr``."""
    factors: Set[int] = set()
    stack: List[IRNode] = [expr]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, Op)
            and node.op == "mul"
            and len(node.operands) == 2
        ):
            left, right = node.operands
            if (
                isinstance(left, VarRef)
                and left.name == induction
                and isinstance(right, Const)
            ):
                factors.add(right.value)
            elif (
                isinstance(right, VarRef)
                and right.name == induction
                and isinstance(left, Const)
            ):
                factors.add(left.value)
        stack.extend(node.children())
    return factors


# ---------------------------------------------------------------------------
# Hardware-loop annotation
# ---------------------------------------------------------------------------


def annotate_hardware_loops(program: Program, run: OptRun) -> Dict[str, HardwareLoop]:
    """Hardware-loop annotations for every counted single-block self-loop
    of the (final, optimized) program.

    The annotation promises: every entry into the latch block executes
    its body exactly ``trip_count`` times before control leaves through
    the branch's exit target.  That is exactly what the recognition
    proves (constant init on every entering path, sole constant-step
    update, condition over the induction variable only), so a backend may
    replace the conditional branch by a repeat instruction without
    consulting the condition at runtime."""
    annotations: Dict[str, HardwareLoop] = {}
    for loop in run.counted_loops(program).values():
        if loop.form != "self":
            continue
        body = program.block(loop.latch)
        kind = "rpt" if len(body.statements) == 1 else "repeat"
        annotations[loop.latch] = HardwareLoop(
            latch=loop.latch, trip_count=loop.trip_count, kind=kind
        )
    return annotations
