"""Seeded structured program generator over the documented language subset.

Programs are built directly as :mod:`repro.frontend.ast` trees and
rendered to source text, so generation can never produce a syntax error
-- every generated program exercises the *semantics* of the pipeline,
not the parser's error paths.  The renderer fully parenthesizes
subexpressions; since the AST does not represent parentheses, rendering
followed by :func:`repro.frontend.parse_source` round-trips to an equal
tree (a property the fuzz test suite checks).

Design constraints that keep every generated program a valid oracle
subject:

* **Termination.**  Loops only appear as the bounded induction pattern
  ``i = 0; while (i < N) { ...; i = i + 1; }`` (or its do-while form)
  over a fresh induction variable the body never writes, so reference
  execution always halts well inside the simulator step limits.
* **Array safety.**  Every array is at least ``max_loop_trip`` elements
  long and dynamic indices are always a live induction variable (or a
  constant in range), so runtime indexing never leaves the array.
* **Operator palette.**  Mostly ``+``/``-``/``*`` (covered by every
  DSPStone-capable target) with occasional bitwise operators; ``/`` and
  ``%`` are excluded (division-by-zero semantics would make oracles
  target-dependent).  Shifts and unary ``-``/``~`` are *off by default*
  -- no built-in target's grammar covers them, so a program containing
  one skips every differential check -- but the config knobs remain for
  campaigns against richer targets.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.frontend.ast import (
    ArrayDecl,
    Assignment,
    IfStatement,
    SourceBinary,
    SourceConst,
    SourceExpr,
    SourceIndex,
    SourceProgram,
    SourceUnary,
    SourceVar,
    VarDecl,
    WhileStatement,
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape knobs of generated programs (all bounds inclusive)."""

    min_scalars: int = 2
    max_scalars: int = 5
    max_arrays: int = 2
    min_array_size: int = 5
    max_array_size: int = 8
    max_statements: int = 7   # per block
    min_statements: int = 2   # top level
    max_block_depth: int = 3
    max_expr_depth: int = 3
    max_loop_trip: int = 5
    max_constant: int = 99
    #: probability weights of statement kinds at depth < max_block_depth;
    #: do-while loops take the rest (0.12 here).  Loops are weighted up
    #: relative to the original campaign: the global optimizer (rotation,
    #: LICM, hardware loops) lives on loop shapes, so they must be common
    #: enough to exercise every round.
    assign_weight: float = 0.56
    if_weight: float = 0.14
    while_weight: float = 0.18
    #: probability of the rarer operator classes inside expressions
    bitwise_probability: float = 0.10
    shift_probability: float = 0.0
    unary_probability: float = 0.0
    #: probability of an ``E op E`` shape (same subtree twice) -- a
    #: direct common-subexpression-elimination subject
    cse_probability: float = 0.08


DEFAULT_CONFIG = GeneratorConfig()

#: The ``loops`` generator knob: loop-dominated programs (counted
#: ``while``/``do``-``while`` shapes roughly half of all statements)
#: aimed squarely at the rotation/LICM/hardware-loop pipeline.
LOOP_HEAVY_CONFIG = GeneratorConfig(
    assign_weight=0.40,
    if_weight=0.10,
    while_weight=0.30,
)

#: Named generator configurations selectable from the CLI.
GENERATOR_PROFILES = {
    "default": DEFAULT_CONFIG,
    "loops": LOOP_HEAVY_CONFIG,
}

_CORE_OPS = ("+", "-", "*")
_BITWISE_OPS = ("&", "|", "^")
_RELOPS = ("==", "!=", "<", ">", "<=", ">=")


class _Generator:
    def __init__(self, seed: int, config: GeneratorConfig):
        self.rng = random.Random(seed)
        self.config = config
        count = self.rng.randint(config.min_scalars, config.max_scalars)
        self.scalars = ["v%d" % index for index in range(count)]
        self.arrays = {}
        for index in range(self.rng.randint(0, config.max_arrays)):
            self.arrays["arr%d" % index] = self.rng.randint(
                max(config.min_array_size, config.max_loop_trip),
                config.max_array_size,
            )
        self.loop_counter = 0
        self.induction_vars: List[str] = []  # all ever created (declared)

    # -- expressions -------------------------------------------------------------

    def expr(self, depth: int, live_loops: Set[str]) -> SourceExpr:
        rng = self.rng
        config = self.config
        if depth >= config.max_expr_depth or rng.random() < 0.35:
            return self.leaf(live_loops)
        if rng.random() < config.unary_probability:
            operator = rng.choice(("-", "~"))
            return SourceUnary(
                operator=operator, operand=self.expr(depth + 1, live_loops)
            )
        roll = rng.random()
        if roll < config.shift_probability:
            # Constant shift amounts only: tiny, always well-defined.
            return SourceBinary(
                operator=rng.choice(("<<", ">>")),
                left=self.expr(depth + 1, live_loops),
                right=SourceConst(value=rng.randint(1, 3)),
            )
        if roll < config.shift_probability + config.bitwise_probability:
            operator = rng.choice(_BITWISE_OPS)
        else:
            operator = rng.choice(_CORE_OPS)
        left = self.expr(depth + 1, live_loops)
        if rng.random() < config.cse_probability:
            right = copy.deepcopy(left)  # E op E: a CSE subject
        else:
            right = self.expr(depth + 1, live_loops)
        return SourceBinary(operator=operator, left=left, right=right)

    def leaf(self, live_loops: Set[str]) -> SourceExpr:
        rng = self.rng
        choices = ["const", "scalar"]
        if self.arrays:
            choices.append("array")
        kind = rng.choice(choices)
        if kind == "const":
            return SourceConst(value=rng.randint(0, self.config.max_constant))
        if kind == "scalar":
            names = self.scalars + sorted(live_loops)
            return SourceVar(name=rng.choice(names))
        name = rng.choice(sorted(self.arrays))
        return SourceIndex(name=name, index=self.array_index(name, live_loops))

    def array_index(self, name: str, live_loops: Set[str]) -> SourceExpr:
        """An index expression guaranteed in-bounds: a live induction
        variable (trip counts never exceed array sizes) or a constant."""
        rng = self.rng
        if live_loops and rng.random() < 0.5:
            return SourceVar(name=rng.choice(sorted(live_loops)))
        return SourceConst(value=rng.randint(0, self.arrays[name] - 1))

    def condition(self, live_loops: Set[str]) -> SourceExpr:
        rng = self.rng
        relation = SourceBinary(
            operator=rng.choice(_RELOPS),
            left=self.expr(1, live_loops),
            right=self.expr(1, live_loops),
        )
        roll = rng.random()
        if roll < 0.15:
            other = SourceBinary(
                operator=rng.choice(_RELOPS),
                left=self.expr(2, live_loops),
                right=self.expr(2, live_loops),
            )
            return SourceBinary(
                operator=rng.choice(("&&", "||")), left=relation, right=other
            )
        if roll < 0.25:
            return SourceUnary(operator="!", operand=relation)
        return relation

    # -- statements --------------------------------------------------------------

    def assignment(self, live_loops: Set[str]):
        rng = self.rng
        expression = self.expr(0, live_loops)
        if self.arrays and rng.random() < 0.30:
            name = rng.choice(sorted(self.arrays))
            return Assignment(
                target_name=name,
                target_index=self.array_index(name, live_loops),
                expression=expression,
            )
        # Never write a live induction variable: termination depends on it.
        return Assignment(
            target_name=rng.choice(self.scalars),
            target_index=None,
            expression=expression,
        )

    def loop(self, depth: int, live_loops: Set[str], test_first: bool) -> List:
        """The bounded induction pattern (always terminates):
        ``i = 0; while (i < N) { body; i = i + 1; }``."""
        rng = self.rng
        var = "i%d" % self.loop_counter
        self.loop_counter += 1
        self.induction_vars.append(var)
        trip = rng.randint(1, self.config.max_loop_trip)
        inner = live_loops | {var}
        body = self.block(depth + 1, inner)
        body.append(
            Assignment(
                target_name=var,
                target_index=None,
                expression=SourceBinary(
                    operator="+", left=SourceVar(name=var), right=SourceConst(value=1)
                ),
            )
        )
        condition = SourceBinary(
            operator="<", left=SourceVar(name=var), right=SourceConst(value=trip)
        )
        return [
            Assignment(target_name=var, target_index=None, expression=SourceConst(value=0)),
            WhileStatement(condition=condition, body=body, test_first=test_first),
        ]

    def statement(self, depth: int, live_loops: Set[str]) -> List:
        rng = self.rng
        config = self.config
        if depth >= config.max_block_depth:
            return [self.assignment(live_loops)]
        roll = rng.random()
        threshold = config.assign_weight
        if roll < threshold:
            return [self.assignment(live_loops)]
        threshold += config.if_weight
        if roll < threshold:
            then_body = self.block(depth + 1, live_loops)
            else_body = (
                self.block(depth + 1, live_loops) if rng.random() < 0.5 else []
            )
            return [
                IfStatement(
                    condition=self.condition(live_loops),
                    then_body=then_body,
                    else_body=else_body,
                )
            ]
        threshold += config.while_weight
        if roll < threshold:
            return self.loop(depth, live_loops, test_first=True)
        return self.loop(depth, live_loops, test_first=False)

    def block(self, depth: int, live_loops: Set[str]) -> List:
        count = self.rng.randint(1, max(1, self.config.max_statements - 2 * depth))
        statements: List = []
        for _ in range(count):
            statements.extend(self.statement(depth, live_loops))
        return statements

    def program(self, name: str) -> SourceProgram:
        statements: List = []
        count = self.rng.randint(
            self.config.min_statements, self.config.max_statements
        )
        while len(statements) < count:
            statements.extend(self.statement(0, set()))
        program = SourceProgram(name=name)
        program.statements = statements
        program.scalars = [VarDecl(name=n) for n in self.scalars + self.induction_vars]
        program.arrays = [
            ArrayDecl(name=n, size=s) for n, s in sorted(self.arrays.items())
        ]
        return program


def generate_program(
    seed: int,
    config: GeneratorConfig = DEFAULT_CONFIG,
    name: Optional[str] = None,
) -> SourceProgram:
    """The deterministic program of ``seed``: same seed, same AST."""
    return _Generator(seed, config).program(name or "fuzz%d" % seed)


def generate_source(
    seed: int,
    config: GeneratorConfig = DEFAULT_CONFIG,
    name: Optional[str] = None,
) -> str:
    """The deterministic program of ``seed`` as source text."""
    return render_source(generate_program(seed, config, name))


# ---------------------------------------------------------------------------
# rendering (AST -> source text)
# ---------------------------------------------------------------------------


def render_expr(expr: SourceExpr) -> str:
    """Fully parenthesized rendering; parses back to an equal tree."""
    if isinstance(expr, SourceConst):
        return str(expr.value)
    if isinstance(expr, SourceVar):
        return expr.name
    if isinstance(expr, SourceIndex):
        return "%s[%s]" % (expr.name, render_expr(expr.index))
    if isinstance(expr, SourceUnary):
        return "%s(%s)" % (expr.operator, render_expr(expr.operand))
    if isinstance(expr, SourceBinary):
        return "(%s) %s (%s)" % (
            render_expr(expr.left), expr.operator, render_expr(expr.right)
        )
    raise TypeError("cannot render %r" % (expr,))


def _render_block(statements: List, indent: str, lines: List[str]) -> None:
    for statement in statements:
        _render_statement(statement, indent, lines)


def _render_statement(statement, indent: str, lines: List[str]) -> None:
    inner = indent + "    "
    if isinstance(statement, Assignment):
        if statement.target_index is not None:
            target = "%s[%s]" % (
                statement.target_name, render_expr(statement.target_index)
            )
        else:
            target = statement.target_name
        lines.append("%s%s = %s;" % (indent, target, render_expr(statement.expression)))
        return
    if isinstance(statement, IfStatement):
        lines.append("%sif (%s) {" % (indent, render_expr(statement.condition)))
        _render_block(statement.then_body, inner, lines)
        if statement.else_body:
            lines.append("%s} else {" % indent)
            _render_block(statement.else_body, inner, lines)
        lines.append("%s}" % indent)
        return
    if isinstance(statement, WhileStatement):
        if statement.test_first:
            lines.append("%swhile (%s) {" % (indent, render_expr(statement.condition)))
            _render_block(statement.body, inner, lines)
            lines.append("%s}" % indent)
        else:
            lines.append("%sdo {" % indent)
            _render_block(statement.body, inner, lines)
            lines.append("%s} while (%s);" % (indent, render_expr(statement.condition)))
        return
    raise TypeError("cannot render %r" % (statement,))


def render_source(program: SourceProgram) -> str:
    """Render a frontend AST back to parseable source text."""
    lines: List[str] = []
    if program.scalars:
        lines.append("int %s;" % ", ".join(decl.name for decl in program.scalars))
    for decl in program.arrays:
        lines.append("int %s[%d];" % (decl.name, decl.size))
    _render_block(program.statements, "", lines)
    return "\n".join(lines) + "\n"
