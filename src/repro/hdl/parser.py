"""Recursive-descent parser for the MIMOLA-inspired HDL.

Grammar sketch (keywords in quotes)::

    model       := 'processor' IDENT ';' { module | primary_port } structure?
    module      := 'module' IDENT ['kind' IDENT] port_decl* behavior? 'end' 'module' ';'
    port_decl   := ('in' | 'out') IDENT ':' NUMBER ';'
    behavior    := 'behavior' assign*
    assign      := target ':=' expr ['when' expr] ';'
    target      := IDENT | 'mem' '[' expr ']'
    primary_port:= 'port' IDENT ':' ('in' | 'out') NUMBER ';'
    structure   := 'structure' { connect | bus } 'end' 'structure' ';'
    connect     := 'connect' portref '->' portref ';'
    bus         := 'bus' IDENT ':' NUMBER ';'
    portref     := IDENT ['.' IDENT] ['[' NUMBER ':' NUMBER ']']

Expressions use conventional precedence; ``case`` expressions select among
constant-labelled arms and are the idiomatic way to describe ALUs and
instruction decoders.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hdl.ast import (
    BehaviorAssign,
    BinaryExpr,
    BusDecl,
    CaseArm,
    CaseExpr,
    ConnectDecl,
    HdlExpr,
    IdentExpr,
    MemRefExpr,
    ModuleDecl,
    ModuleKind,
    NumberExpr,
    PortDecl,
    PortDirection,
    PortRef,
    PrimaryPortDecl,
    ProcessorModel,
    SliceExpr,
    UnaryExpr,
)
from repro.hdl.errors import HdlParseError
from repro.hdl.lexer import Token, TokenKind, tokenize

# Binary operator precedence levels, lowest binding first.
_BINARY_LEVELS = [
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
_PRECEDENCE = {
    operator: level
    for level, operators in enumerate(_BINARY_LEVELS)
    for operator in operators
}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._position = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.EOF:
            self._position += 1
        return token

    def _error(self, message: str) -> HdlParseError:
        token = self._peek()
        return HdlParseError(message, token.line, token.column)

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error("expected keyword %r, found %r" % (word, token.text))
        return self._advance()

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if not token.is_punct(punct):
            raise self._error("expected %r, found %r" % (punct, token.text))
        return self._advance()

    def _expect_operator(self, op: str) -> Token:
        token = self._peek()
        if not token.is_operator(op):
            raise self._error("expected %r, found %r" % (op, token.text))
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != TokenKind.IDENT:
            raise self._error("expected identifier, found %r" % token.text)
        return self._advance().text

    def _expect_number(self) -> int:
        token = self._peek()
        if token.kind != TokenKind.NUMBER:
            raise self._error("expected number, found %r" % token.text)
        return int(self._advance().text, 0)

    # -- top level ------------------------------------------------------------

    def parse_model(self) -> ProcessorModel:
        self._expect_keyword("processor")
        name = self._expect_ident()
        self._expect_punct(";")
        model = ProcessorModel(name=name)
        while True:
            token = self._peek()
            if token.is_keyword("module"):
                model.modules.append(self._parse_module())
            elif token.is_keyword("port"):
                model.primary_ports.append(self._parse_primary_port())
            elif token.is_keyword("structure"):
                self._parse_structure(model)
            elif token.kind == TokenKind.EOF:
                break
            else:
                raise self._error(
                    "expected 'module', 'port' or 'structure', found %r" % token.text
                )
        return model

    # -- modules ---------------------------------------------------------------

    def _parse_module(self) -> ModuleDecl:
        self._expect_keyword("module")
        name = self._expect_ident()
        kind = ModuleKind.COMBINATIONAL
        if self._peek().is_keyword("kind"):
            self._advance()
            kind_token = self._peek()
            if kind_token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise self._error("expected module kind name")
            self._advance()
            try:
                kind = ModuleKind(kind_token.text)
            except ValueError:
                raise HdlParseError(
                    "unknown module kind %r" % kind_token.text,
                    kind_token.line,
                    kind_token.column,
                )
        module = ModuleDecl(name=name, kind=kind)
        while True:
            token = self._peek()
            if token.is_keyword("in") or token.is_keyword("out"):
                module.ports.append(self._parse_port_decl())
            elif token.is_keyword("depth"):
                self._advance()
                module.depth_bits = self._expect_number()
                self._expect_punct(";")
            elif token.is_keyword("behavior"):
                self._advance()
                while not self._peek().is_keyword("end"):
                    module.behavior.append(self._parse_assignment())
                break
            elif token.is_keyword("end"):
                break
            else:
                raise self._error(
                    "expected port declaration, 'behavior' or 'end', found %r"
                    % token.text
                )
        self._expect_keyword("end")
        self._expect_keyword("module")
        self._expect_punct(";")
        return module

    def _parse_port_decl(self) -> PortDecl:
        token = self._advance()
        direction = PortDirection.IN if token.text == "in" else PortDirection.OUT
        name = self._expect_ident()
        self._expect_punct(":")
        width = self._expect_number()
        self._expect_punct(";")
        return PortDecl(name=name, direction=direction, width=width)

    def _parse_assignment(self) -> BehaviorAssign:
        token = self._peek()
        target_memory = False
        target: Optional[str] = None
        target_address: Optional[HdlExpr] = None
        if token.is_keyword("mem"):
            self._advance()
            self._expect_punct("[")
            target_address = self._parse_expression()
            self._expect_punct("]")
            target_memory = True
        else:
            target = self._expect_ident()
        self._expect_operator(":=")
        value = self._parse_expression()
        condition: Optional[HdlExpr] = None
        if self._peek().is_keyword("when"):
            self._advance()
            condition = self._parse_expression()
        self._expect_punct(";")
        return BehaviorAssign(
            target=target,
            value=value,
            condition=condition,
            target_memory=target_memory,
            target_address=target_address,
        )

    # -- primary ports -----------------------------------------------------------

    def _parse_primary_port(self) -> PrimaryPortDecl:
        self._expect_keyword("port")
        name = self._expect_ident()
        self._expect_punct(":")
        token = self._peek()
        if token.is_keyword("in"):
            direction = PortDirection.IN
        elif token.is_keyword("out"):
            direction = PortDirection.OUT
        else:
            raise self._error("expected 'in' or 'out' in primary port declaration")
        self._advance()
        width = self._expect_number()
        self._expect_punct(";")
        return PrimaryPortDecl(name=name, direction=direction, width=width)

    # -- structure -----------------------------------------------------------------

    def _parse_structure(self, model: ProcessorModel) -> None:
        self._expect_keyword("structure")
        while not self._peek().is_keyword("end"):
            token = self._peek()
            if token.is_keyword("connect"):
                self._advance()
                source = self._parse_portref()
                self._expect_operator("->")
                sink = self._parse_portref()
                self._expect_punct(";")
                model.connections.append(ConnectDecl(source=source, sink=sink))
            elif token.is_keyword("bus"):
                self._advance()
                name = self._expect_ident()
                self._expect_punct(":")
                width = self._expect_number()
                self._expect_punct(";")
                model.buses.append(BusDecl(name=name, width=width))
            else:
                raise self._error(
                    "expected 'connect', 'bus' or 'end', found %r" % token.text
                )
        self._expect_keyword("end")
        self._expect_keyword("structure")
        self._expect_punct(";")

    def _parse_portref(self) -> PortRef:
        first = self._expect_ident()
        module: Optional[str] = None
        port = first
        if self._peek().is_punct("."):
            self._advance()
            module = first
            port = self._expect_ident()
        high: Optional[int] = None
        low: Optional[int] = None
        if self._peek().is_punct("["):
            self._advance()
            high = self._expect_number()
            self._expect_punct(":")
            low = self._expect_number()
            self._expect_punct("]")
        return PortRef(module=module, port=port, high=high, low=low)

    # -- expressions --------------------------------------------------------------

    def _parse_expression(self, min_level: int = 0) -> HdlExpr:
        """Precedence climbing: operators of ``min_level`` and tighter bind
        here, left-associatively; a right operand takes only tighter ones."""
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is not TokenKind.OPERATOR:
                return left
            level = _PRECEDENCE.get(token.text, -1)
            if level < min_level:
                return left
            self._advance()
            right = self._parse_expression(level + 1)
            left = BinaryExpr(operator=token.text, left=left, right=right)

    def _parse_unary(self) -> HdlExpr:
        token = self._peek()
        if token.kind == TokenKind.OPERATOR and token.text in ("-", "~", "!"):
            self._advance()
            return UnaryExpr(operator=token.text, operand=self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> HdlExpr:
        expr = self._parse_primary()
        while self._peek().is_punct("["):
            self._advance()
            high = self._expect_number()
            self._expect_punct(":")
            low = self._expect_number()
            self._expect_punct("]")
            expr = SliceExpr(base=expr, high=high, low=low)
        return expr

    def _parse_primary(self) -> HdlExpr:
        token = self._peek()
        if token.kind == TokenKind.NUMBER:
            self._advance()
            return NumberExpr(value=int(token.text, 0))
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_keyword("mem"):
            self._advance()
            self._expect_punct("[")
            address = self._parse_expression()
            self._expect_punct("]")
            return MemRefExpr(address=address)
        if token.is_keyword("case"):
            return self._parse_case()
        if token.kind == TokenKind.IDENT:
            self._advance()
            return IdentExpr(name=token.text)
        raise self._error("unexpected token %r in expression" % token.text)

    def _parse_case(self) -> CaseExpr:
        self._expect_keyword("case")
        selector = self._parse_expression()
        arms: List[CaseArm] = []
        while True:
            token = self._peek()
            if token.is_keyword("when"):
                self._advance()
                value = self._expect_number()
                self._expect_operator("=>")
                arms.append(CaseArm(selector=value, value=self._parse_expression()))
                self._expect_punct(";")
            elif token.is_keyword("else"):
                self._advance()
                self._expect_operator("=>")
                arms.append(CaseArm(selector=None, value=self._parse_expression()))
                self._expect_punct(";")
            elif token.is_keyword("end"):
                self._advance()
                break
            else:
                raise self._error(
                    "expected 'when', 'else' or 'end' in case expression, found %r"
                    % token.text
                )
        if not arms:
            raise self._error("case expression needs at least one arm")
        return CaseExpr(selector=selector, arms=tuple(arms))


def parse_processor(source: str) -> ProcessorModel:
    """Parse an HDL processor description into a :class:`ProcessorModel`."""
    return _Parser(tokenize(source)).parse_model()
