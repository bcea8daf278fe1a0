"""The precedence-climbing parser against the recursive descent it replaced.

:class:`ReferenceParser` is that parser, one ``_parse_expression`` level
per row of ``_BINARY_LEVELS``, kept as the oracle with one fix: a
backtracking condition uncounts the nodes its attempt counted.  Both
must build equal :class:`~repro.frontend.ast.SourceProgram`s, or raise
the same error (type, message, line), on the DSPStone sources, on
generated programs, on hand-picked edge cases at every resource limit,
and on random token soups.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnostics import ReproError, ResourceLimitError, SourceLocation
from repro.dspstone import all_kernel_names, get_kernel, loop_kernel_names
from repro.frontend import DEFAULT_LIMITS, FrontendLimits, parse_source
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
from repro.frontend.lexer import SourceSyntaxError, SourceToken, tokenize_source
from repro.fuzz.generator import GENERATOR_PROFILES, generate_source

_BINARY_LEVELS = [
    ["|"],
    ["^"],
    ["&"],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class ReferenceParser:
    """The recursive-descent parser, one method per binary level."""

    def __init__(self, tokens: List[SourceToken], limits: FrontendLimits = DEFAULT_LIMITS):
        self._tokens = tokens
        self._position = 0
        self._limits = limits
        self._expr_depth = 0
        self._expr_nodes = 0
        self._block_depth = 0
        self._statements = 0

    def _limit_error(self, message: str) -> ResourceLimitError:
        return ResourceLimitError(
            message, location=SourceLocation(line=self._peek().line)
        )

    def _enter_expr(self) -> None:
        self._expr_depth += 1
        limit = self._limits.max_expr_depth
        if limit and self._expr_depth > limit:
            raise self._limit_error(
                "expression nesting exceeds %d levels" % limit
            )

    def _leave_expr(self) -> None:
        self._expr_depth -= 1

    def _bump_nodes(self, count: int = 1) -> None:
        self._expr_nodes += count
        limit = self._limits.max_expr_nodes
        if limit and self._expr_nodes > limit:
            raise self._limit_error(
                "expression of statement exceeds %d nodes" % limit
            )

    def _bump_statement(self) -> None:
        self._statements += 1
        limit = self._limits.max_statements
        if limit and self._statements > limit:
            raise self._limit_error(
                "program exceeds %d statements" % limit
            )

    def _peek(self) -> SourceToken:
        return self._tokens[self._position]

    def _advance(self) -> SourceToken:
        token = self._tokens[self._position]
        if token.kind != "eof":
            self._position += 1
        return token

    def _error(self, message: str) -> SourceSyntaxError:
        return SourceSyntaxError(message, self._peek().line)

    def _expect_symbol(self, symbol: str) -> None:
        token = self._peek()
        if token.kind != "symbol" or token.text != symbol:
            raise self._error("expected %r, found %r" % (symbol, token.text))
        self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident":
            raise self._error("expected identifier, found %r" % token.text)
        return self._advance().text

    def _expect_number(self) -> int:
        token = self._peek()
        if token.kind != "number":
            raise self._error("expected number, found %r" % token.text)
        return int(self._advance().text, 0)

    # -- grammar ------------------------------------------------------------------

    def parse_program(self, name: str) -> SourceProgram:
        program = SourceProgram(name=name)
        while self._peek().kind != "eof":
            token = self._peek()
            if token.kind == "keyword" and token.text == "int":
                self._parse_declaration(program)
            else:
                program.statements.append(self._parse_statement())
        return program

    def _parse_statement(self):
        self._bump_statement()
        self._expr_nodes = 0
        token = self._peek()
        if token.kind == "keyword":
            if token.text == "if":
                return self._parse_if()
            if token.text == "while":
                return self._parse_while()
            if token.text == "do":
                return self._parse_do_while()
            raise self._error("unexpected keyword %r" % token.text)
        return self._parse_assignment()

    def _parse_body(self) -> list:
        """``{ statement* }`` or one bare statement."""
        self._block_depth += 1
        limit = self._limits.max_block_depth
        if limit and self._block_depth > limit:
            raise self._limit_error("block nesting exceeds %d levels" % limit)
        try:
            token = self._peek()
            if token.kind == "symbol" and token.text == "{":
                self._advance()
                body = []
                while not (self._peek().kind == "symbol" and self._peek().text == "}"):
                    if self._peek().kind == "eof":
                        raise self._error("unterminated block, expected '}'")
                    body.append(self._parse_statement())
                self._advance()  # '}'
                return body
            return [self._parse_statement()]
        finally:
            self._block_depth -= 1

    def _parse_if(self) -> IfStatement:
        self._advance()  # 'if'
        self._expect_symbol("(")
        condition = self._parse_condition()
        self._expect_symbol(")")
        then_body = self._parse_body()
        else_body: list = []
        token = self._peek()
        if token.kind == "keyword" and token.text == "else":
            self._advance()
            else_body = self._parse_body()
        return IfStatement(condition=condition, then_body=then_body, else_body=else_body)

    def _parse_while(self) -> WhileStatement:
        self._advance()  # 'while'
        self._expect_symbol("(")
        condition = self._parse_condition()
        self._expect_symbol(")")
        body = self._parse_body()
        return WhileStatement(condition=condition, body=body, test_first=True)

    def _parse_do_while(self) -> WhileStatement:
        self._advance()  # 'do'
        body = self._parse_body()
        token = self._peek()
        if not (token.kind == "keyword" and token.text == "while"):
            raise self._error("expected 'while' after do-block, found %r" % token.text)
        self._advance()
        self._expect_symbol("(")
        condition = self._parse_condition()
        self._expect_symbol(")")
        self._expect_symbol(";")
        return WhileStatement(condition=condition, body=body, test_first=False)

    # -- conditions ---------------------------------------------------------------
    #
    # Conditions live above the arithmetic expression grammar:
    #     condition := and-term ('||' and-term)*
    #     and-term  := not-term ('&&' not-term)*
    #     not-term  := '!' not-term | relation
    #     relation  := expression (relop expression)?
    # A bare arithmetic expression counts as "nonzero".

    _RELOPS = ("==", "!=", "<", ">", "<=", ">=")

    def _parse_condition(self) -> SourceExpr:
        left = self._parse_condition_and()
        while self._peek().kind == "symbol" and self._peek().text == "||":
            self._advance()
            right = self._parse_condition_and()
            self._bump_nodes()
            left = SourceBinary(operator="||", left=left, right=right)
        return left

    def _parse_condition_and(self) -> SourceExpr:
        left = self._parse_condition_not()
        while self._peek().kind == "symbol" and self._peek().text == "&&":
            self._advance()
            right = self._parse_condition_not()
            self._bump_nodes()
            left = SourceBinary(operator="&&", left=left, right=right)
        return left

    def _parse_condition_not(self) -> SourceExpr:
        token = self._peek()
        if token.kind == "symbol" and token.text == "!":
            self._advance()
            self._bump_nodes()
            self._enter_expr()
            try:
                return SourceUnary(operator="!", operand=self._parse_condition_not())
            finally:
                self._leave_expr()
        if token.kind == "symbol" and token.text == "(":
            # "(" is ambiguous: "(a < b) && c" parenthesizes a condition,
            # "(a + b) < c" an arithmetic subexpression.  Try the condition
            # reading; backtrack when what follows the ")" shows the
            # parentheses belonged to an expression.
            position = self._position
            nodes = self._expr_nodes
            self._advance()
            self._enter_expr()
            try:
                condition = self._parse_condition()
                self._expect_symbol(")")
            except SourceSyntaxError:
                self._position = position
                self._expr_nodes = nodes
                return self._parse_relation()
            finally:
                self._leave_expr()
            following = self._peek()
            if following.kind == "symbol" and following.text not in (")", "&&", "||"):
                self._position = position
                self._expr_nodes = nodes
                return self._parse_relation()
            return condition
        return self._parse_relation()

    def _parse_relation(self) -> SourceExpr:
        left = self._parse_expression()
        token = self._peek()
        if token.kind == "symbol" and token.text in self._RELOPS:
            operator = self._advance().text
            right = self._parse_expression()
            self._bump_nodes()
            return SourceBinary(operator=operator, left=left, right=right)
        return left

    def _parse_declaration(self, program: SourceProgram) -> None:
        self._advance()  # 'int'
        while True:
            name = self._expect_ident()
            if self._peek().kind == "symbol" and self._peek().text == "[":
                self._advance()
                size = self._expect_number()
                self._expect_symbol("]")
                program.arrays.append(ArrayDecl(name=name, size=size))
            else:
                program.scalars.append(VarDecl(name=name))
            token = self._peek()
            if token.kind == "symbol" and token.text == ",":
                self._advance()
                continue
            self._expect_symbol(";")
            return

    def _parse_assignment(self) -> Assignment:
        name = self._expect_ident()
        index: Optional[SourceExpr] = None
        if self._peek().kind == "symbol" and self._peek().text == "[":
            self._advance()
            index = self._parse_expression()
            self._expect_symbol("]")
        self._expect_symbol("=")
        expression = self._parse_expression()
        self._expect_symbol(";")
        return Assignment(target_name=name, target_index=index, expression=expression)

    def _parse_expression(self, level: int = 0) -> SourceExpr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_expression(level + 1)
        operators = _BINARY_LEVELS[level]
        while self._peek().kind == "symbol" and self._peek().text in operators:
            operator = self._advance().text
            right = self._parse_expression(level + 1)
            self._bump_nodes()
            left = SourceBinary(operator=operator, left=left, right=right)
        return left

    def _parse_unary(self) -> SourceExpr:
        token = self._peek()
        if token.kind == "symbol" and token.text in ("-", "~"):
            self._advance()
            self._bump_nodes()
            self._enter_expr()
            try:
                return SourceUnary(operator=token.text, operand=self._parse_unary())
            finally:
                self._leave_expr()
        return self._parse_primary()

    def _parse_primary(self) -> SourceExpr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            self._bump_nodes()
            return SourceConst(value=int(token.text, 0))
        if token.kind == "symbol" and token.text == "(":
            self._advance()
            self._enter_expr()
            try:
                expression = self._parse_expression()
            finally:
                self._leave_expr()
            self._expect_symbol(")")
            return expression
        if token.kind == "ident":
            name = self._advance().text
            self._bump_nodes()
            if self._peek().kind == "symbol" and self._peek().text == "[":
                self._advance()
                index = self._parse_expression()
                self._expect_symbol("]")
                return SourceIndex(name=name, index=index)
            return SourceVar(name=name)
        raise self._error("unexpected token %r in expression" % token.text)


def outcome(parse, text: str, limits: FrontendLimits = DEFAULT_LIMITS):
    """The program, or the error's type, message and line."""
    try:
        return parse(text, limits)
    except ReproError as error:
        return ("error", type(error).__name__, str(error), error.location.line)


def parse_new(text: str, limits: FrontendLimits):
    return parse_source(text, name="p", limits=limits)


def parse_reference(text: str, limits: FrontendLimits):
    return ReferenceParser(tokenize_source(text), limits).parse_program("p")


def assert_same(text: str, limits: FrontendLimits = DEFAULT_LIMITS):
    expected = outcome(parse_reference, text, limits)
    assert outcome(parse_new, text, limits) == expected, (text, limits)
    return expected


@pytest.mark.parametrize("name", all_kernel_names() + loop_kernel_names())
def test_dspstone_sources(name):
    assert isinstance(assert_same(get_kernel(name).source), SourceProgram)


@pytest.mark.parametrize("profile", sorted(GENERATOR_PROFILES))
def test_generated_programs(profile):
    config = GENERATOR_PROFILES[profile]
    for seed in range(300):
        assert isinstance(assert_same(generate_source(seed, config)), SourceProgram), seed


def _nested_condition(depth: int) -> str:
    """``if ((...((a + a) + a)...) < 1)`` with ``depth`` parentheses."""
    expression = "a"
    for _ in range(depth):
        expression = "(%s + a)" % expression
    return "int a, b; if (%s < 1) { b = a; }" % expression


EDGE_CASES = [
    # parentheses in conditions: condition readings, arithmetic readings, both
    "int a, b, c; if ((a) < (b)) { c = 1; }",
    "int a, b, c; if (((a + b)) * c < (b)) { c = 1; }",
    "int a, b, c; if (((a < b)) && ((c))) { c = 1; }",
    "int a, b, c; if ((a < b) + 1) { c = 1; }",
    "int a, b, c; if ((a) [1]) { c = 1; }",
    "int a, b, c; if (((a) + b) c) { c = 1; }",
    "int a, b, c; while ((((a)))) c = 1;",
    "int a, b, c; if ((a + ) < b) { c = 1; }",
    "int a, b, c; if ((a && b) | c) { c = 1; }",
    "int a, b, c; if ((-(a) + ~b) >= (c)) { c = 1; }",
    "int a, x[4]; if ((x[(a)]) == (x[a + 1])) { a = 0; }",
    _nested_condition(16),
    _nested_condition(24),
    # ! chains
    "int a, b; if (!!!(a < b)) { b = a; }",
    "int a, b; if (!(a) + 1) { b = a; }",
    "int a, b; if (!a) { b = a; }",
    "int a, b; if (! ! (! (a))) { b = a; }",
    "int a, b; if (!) { b = a; }",
    # && / || mixes
    "int a, b, c, d; if (a < b && c || !d && (a || b)) { d = 1; }",
    "int a, b, c, d; if (a || b && c || d) { d = 1; }",
    "int a, b, c, d; do { a = 1; } while ((a && b) || (c && (d || a)));",
    "int a, b; if (a && ) { b = a; }",
    "int a, b; if (a || b ||) { b = a; }",
    # unary chains and precedence
    "int a, b; b = - ~ - a;",
    "int a, b; b = -(-(a));",
    "int a, b; b = ~-~-~a * -b;",
    "int a, b, c; c = a | b ^ c & a << 2 >> 1 + b - c * a / b % 3;",
    "int a, b, c; c = a - b - c + a * b * c << 1 << 2;",
    "int a, b, c; c = (a | b) ^ (c & (a << (2 >> (1 + (b - c)))));",
    "int a, b; b = a +;",
    "int a, b; b = (a;",
    "int a, b; b = a);",
    "int a, b; b = ;",
    "int a, x[4]; x[a + 1] = x[x[a] * 2] - 0x1F;",
    "int a; a = 09;",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same(text)


LIMITS = [
    FrontendLimits(max_expr_depth=3),
    FrontendLimits(max_expr_depth=1),
    FrontendLimits(max_expr_nodes=5),
    FrontendLimits(max_expr_nodes=34),
    FrontendLimits(max_expr_nodes=35),
    FrontendLimits(max_block_depth=1),
    FrontendLimits(max_statements=2),
    FrontendLimits(0, 0, 0, 0),
]


@pytest.mark.parametrize("limits", LIMITS)
@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_at_each_limit(text, limits):
    assert_same(text, limits)


@pytest.mark.parametrize(
    "text",
    [
        "int a, b; b = %s a %s;" % ("(" * 70, ")" * 70),
        "int a, b; if (%s(a < b)) { b = a; }" % ("!" * 70),
        "int a, b; if (%sa%s < b) { b = a; }" % ("(" * 70, ")" * 70),
        "int a, b; b = %sa;" % ("-" * 70),
        "int a, b; b = %s;" % " + ".join(["a"] * 600),
        "int a, b; if (%s) { b = a; }" % " && ".join(["a < b"] * 200),
        "int a, b;\n" + "if (a < b) {\n" * 40 + "b = a;\n" + "}\n" * 40,
        "int a, b;\n" + "b = a;\n" * 5000,
    ],
)
def test_default_limits(text):
    assert_same(text)


_WORDS = [
    "int", "if", "else", "while", "do", "a", "b", "x", "0", "1", "7", "0x3",
    "(", ")", "[", "]", "{", "}", "=", ";", ",",
    "+", "-", "*", "/", "%", "|", "^", "&", "<<", ">>", "~",
    "!", "&&", "||", "<", ">", "<=", ">=", "==", "!=",
]
_EXPRESSION_WORDS = ["a", "b", "x", "1", "(", ")", "[", "]", "+", "-", "*", "|", "~",
                     "!", "&&", "||", "<", "==", "<<"]
_SOUP_LIMITS = st.builds(
    FrontendLimits,
    max_expr_depth=st.integers(0, 6),
    max_expr_nodes=st.integers(0, 12),
    max_block_depth=st.integers(0, 3),
    max_statements=st.integers(0, 4),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_WORDS), max_size=30))
def test_token_soups(words):
    assert_same(" ".join(words))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(_EXPRESSION_WORDS), min_size=1, max_size=25),
    st.sampled_from(["if (%s) { a = 1; }", "while (%s) b = a;", "a = %s;",
                     "do { a = 1; } while (%s);", "x[%s] = 1;"]),
    _SOUP_LIMITS,
)
def test_expression_soups(words, frame, limits):
    assert_same("int a, b, x[4];\n" + frame % " ".join(words), limits)
