"""Lowering of source ASTs into the expression-tree IR.

Straight-line programs lower to the classic one-block shape.  Control
flow (``if``/``else``, ``while``, ``do``/``while``) lowers to a real CFG:
fresh basic blocks connected through ``Jump``/``CBranch`` terminators,
with the condition carried as an ordinary IR expression on the branch.
Array accesses with compile-time-constant indices still resolve to
distinct variables (``a[3]``); runtime indices (``a[i]`` in a loop body)
lower to :class:`~repro.ir.expr.ArrayRef` nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.frontend.ast import (
    Assignment,
    IfStatement,
    SourceBinary,
    SourceConst,
    SourceExpr,
    SourceIndex,
    SourceProgram,
    SourceUnary,
    SourceVar,
    WhileStatement,
)
from repro.diagnostics import ReproError
from repro.frontend.parser import parse_source
from repro.ir import wrap_word
from repro.ir.expr import ArrayRef, Const, IRNode, Op, VarRef
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement, Terminator

_BINARY_NAMES = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
}

_UNARY_NAMES = {
    "-": "neg",
    "~": "not",
}

#: Relational operators (condition context only; they evaluate on the
#: processor's condition logic, never on the covered data path).
_RELATION_NAMES = {
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    ">": "gt",
    "<=": "le",
    ">=": "ge",
}

class LoweringError(ReproError):
    """Raised when a source program cannot be lowered (undeclared variables,
    out-of-range constant array accesses, misplaced operators)."""

    phase = "frontend"


class _BlockDraft:
    """A block under construction: its name, statements and terminator."""

    __slots__ = ("name", "statements", "terminator")

    def __init__(self, name: str):
        self.name = name
        self.statements: List[Statement] = []
        self.terminator: Optional[Terminator] = None

    def freeze(self) -> BasicBlock:
        return BasicBlock(self.name, tuple(self.statements), self.terminator)


class _CFGBuilder:
    """Accumulates block drafts while walking the statement tree."""

    def __init__(self):
        self.blocks: List[_BlockDraft] = [_BlockDraft("entry")]
        self.current: _BlockDraft = self.blocks[0]
        self._serial = 0

    def make_block(self, hint: str) -> _BlockDraft:
        self._serial += 1
        return _BlockDraft("L%d_%s" % (self._serial, hint))

    def append(self, block: _BlockDraft) -> None:
        self.blocks.append(block)
        self.current = block


def lower_source(program: SourceProgram) -> Program:
    """Lower a parsed source program to an IR program (a CFG; one basic
    block without terminator for straight-line input)."""
    scalars: Set[str] = {decl.name for decl in program.scalars}
    arrays: Dict[str, int] = {decl.name: decl.size for decl in program.arrays}
    builder = _CFGBuilder()
    _lower_statement_list(program.statements, builder, scalars, arrays)
    return Program(
        name=program.name,
        blocks=tuple(draft.freeze() for draft in builder.blocks),
        scalars=tuple(sorted(scalars)),
        arrays=arrays,
        entry="entry",
    )


def lower_to_program(source_text: str, name: str = "program") -> Program:
    """Parse and lower source text in one step."""
    return lower_source(parse_source(source_text, name=name))


# ---------------------------------------------------------------------------
# Statements and control flow
# ---------------------------------------------------------------------------


def _lower_statement_list(
    statements: List[object],
    builder: _CFGBuilder,
    scalars: Set[str],
    arrays: Dict[str, int],
) -> None:
    for statement in statements:
        if isinstance(statement, Assignment):
            builder.current.statements.append(
                _lower_assignment(statement, scalars, arrays)
            )
        elif isinstance(statement, IfStatement):
            _lower_if(statement, builder, scalars, arrays)
        elif isinstance(statement, WhileStatement):
            _lower_while(statement, builder, scalars, arrays)
        else:
            raise LoweringError(
                "unexpected source statement %r" % type(statement).__name__
            )


def _lower_if(
    statement: IfStatement,
    builder: _CFGBuilder,
    scalars: Set[str],
    arrays: Dict[str, int],
) -> None:
    condition = _lower_condition(statement.condition, scalars, arrays)
    then_block = builder.make_block("then")
    else_block = builder.make_block("else") if statement.else_body else None
    join_block = builder.make_block("join")
    false_block = join_block if else_block is None else else_block
    builder.current.terminator = CBranch(
        condition=condition,
        true_target=then_block.name,
        false_target=false_block.name,
    )
    builder.append(then_block)
    _lower_statement_list(statement.then_body, builder, scalars, arrays)
    builder.current.terminator = Jump(join_block.name)
    if else_block is not None:
        builder.append(else_block)
        _lower_statement_list(statement.else_body, builder, scalars, arrays)
        builder.current.terminator = Jump(join_block.name)
    builder.append(join_block)


def _lower_while(
    statement: WhileStatement,
    builder: _CFGBuilder,
    scalars: Set[str],
    arrays: Dict[str, int],
) -> None:
    condition = _lower_condition(statement.condition, scalars, arrays)
    if statement.test_first:
        header = builder.make_block("while")
        body = builder.make_block("body")
        exit_block = builder.make_block("endwhile")
        builder.current.terminator = Jump(header.name)
        builder.append(header)
        header.terminator = CBranch(
            condition=condition, true_target=body.name, false_target=exit_block.name
        )
        builder.append(body)
        _lower_statement_list(statement.body, builder, scalars, arrays)
        builder.current.terminator = Jump(header.name)
        builder.append(exit_block)
    else:
        body = builder.make_block("do")
        exit_block = builder.make_block("enddo")
        builder.current.terminator = Jump(body.name)
        builder.append(body)
        _lower_statement_list(statement.body, builder, scalars, arrays)
        builder.current.terminator = CBranch(
            condition=condition, true_target=body.name, false_target=exit_block.name
        )
        builder.append(exit_block)


def _lower_assignment(
    assignment: Assignment, scalars: Set[str], arrays: Dict[str, int]
) -> Statement:
    expression = _lower_expr(assignment.expression, scalars, arrays)
    name = assignment.target_name
    if assignment.target_index is None:
        if name not in scalars:
            raise LoweringError("assignment to undeclared scalar %r" % name)
        return Statement(destination=name, expression=expression)
    if name not in arrays:
        raise LoweringError("assignment to undeclared array %r" % name)
    constant = _try_constant_index(assignment.target_index)
    if constant is not None:
        return Statement(
            destination=_checked_element(name, constant, arrays), expression=expression
        )
    index = _lower_expr(assignment.target_index, scalars, arrays)
    return Statement(destination=name, expression=expression, destination_index=index)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _lower_expr(expr: SourceExpr, scalars: Set[str], arrays: Dict[str, int]) -> IRNode:
    if isinstance(expr, SourceConst):
        # Literals are canonicalized to the machine word width right here,
        # so the IR, the optimizer's folded constants and the simulator
        # all agree on one value for out-of-range literals.
        return Const(wrap_word(expr.value))
    if isinstance(expr, SourceVar):
        if expr.name not in scalars:
            raise LoweringError("use of undeclared scalar %r" % expr.name)
        return VarRef(expr.name)
    if isinstance(expr, SourceIndex):
        if expr.name not in arrays:
            raise LoweringError("use of undeclared array %r" % expr.name)
        constant = _try_constant_index(expr.index)
        if constant is not None:
            return VarRef(_checked_element(expr.name, constant, arrays))
        return ArrayRef(expr.name, _lower_expr(expr.index, scalars, arrays))
    if isinstance(expr, SourceUnary):
        name = _UNARY_NAMES.get(expr.operator)
        if name is None:
            raise LoweringError(
                "unsupported unary operator %r outside conditions" % expr.operator
            )
        return Op(name, (_lower_expr(expr.operand, scalars, arrays),))
    if isinstance(expr, SourceBinary):
        name = _BINARY_NAMES.get(expr.operator)
        if name is None:
            raise LoweringError(
                "unsupported binary operator %r outside conditions" % expr.operator
            )
        return Op(
            name,
            (
                _lower_expr(expr.left, scalars, arrays),
                _lower_expr(expr.right, scalars, arrays),
            ),
        )
    raise LoweringError("unexpected source expression %r" % type(expr).__name__)


def _lower_condition(
    expr: SourceExpr, scalars: Set[str], arrays: Dict[str, int]
) -> IRNode:
    """Lower a condition to an IR expression whose nonzero-ness is the
    branch decision.  A bare arithmetic expression counts as "nonzero";
    relational and logical operators produce 0/1 values (comparisons are
    *unsigned* over the machine word, matching the wrapped environment
    values of the reference semantics)."""
    if isinstance(expr, SourceBinary):
        relation = _RELATION_NAMES.get(expr.operator)
        if relation is not None:
            return Op(
                relation,
                (
                    _lower_expr(expr.left, scalars, arrays),
                    _lower_expr(expr.right, scalars, arrays),
                ),
            )
        if expr.operator == "&&":
            return Op(
                "and",
                (
                    _lower_bool(expr.left, scalars, arrays),
                    _lower_bool(expr.right, scalars, arrays),
                ),
            )
        if expr.operator == "||":
            return Op(
                "or",
                (
                    _lower_bool(expr.left, scalars, arrays),
                    _lower_bool(expr.right, scalars, arrays),
                ),
            )
    if isinstance(expr, SourceUnary) and expr.operator == "!":
        return Op("lnot", (_lower_condition(expr.operand, scalars, arrays),))
    return _lower_expr(expr, scalars, arrays)


def _lower_bool(expr: SourceExpr, scalars: Set[str], arrays: Dict[str, int]) -> IRNode:
    """A strictly 0/1-valued lowering (the operand form ``&&``/``||``
    combine bitwise)."""
    condition = _lower_condition(expr, scalars, arrays)
    if isinstance(condition, Op) and condition.op in (
        "eq", "ne", "lt", "gt", "le", "ge", "lnot", "and", "or",
    ):
        # Relational / logical results are already 0 or 1.  ("and"/"or"
        # only reach here through this same booleanization, so their
        # operands are 0/1 as well.)
        return condition
    return Op("ne", (condition, Const(0)))


def _try_constant_index(index: SourceExpr) -> Optional[int]:
    """The compile-time value of an index expression, or ``None`` when it
    depends on runtime state (loop induction variables and friends)."""
    if isinstance(index, SourceConst):
        return index.value
    if isinstance(index, SourceBinary):
        left = _try_constant_index(index.left)
        right = _try_constant_index(index.right)
        if left is None or right is None:
            return None
        name = _BINARY_NAMES.get(index.operator)
        if name == "add":
            return left + right
        if name == "sub":
            return left - right
        if name == "mul":
            return left * right
        return None
    if isinstance(index, SourceUnary) and index.operator == "-":
        inner = _try_constant_index(index.operand)
        return None if inner is None else -inner
    return None


def _checked_element(name: str, value: int, arrays: Dict[str, int]) -> str:
    if value < 0 or value >= arrays[name]:
        raise LoweringError(
            "index %d out of range for array %r of size %d" % (value, name, arrays[name])
        )
    return "%s[%d]" % (name, value)
