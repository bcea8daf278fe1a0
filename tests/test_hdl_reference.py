"""The compiled-``re`` HDL scanner and the precedence-climbing expression
parser against the code they replaced.

:func:`reference_tokenize` is the character loop and
:class:`RecursiveParser` the parser with one recursive call per precedence
level, both kept as oracles.  They must give the same token stream (kind,
text, line, column) and the same :class:`ProcessorModel`, or raise the same
error at the same line and column, on the built-in models, on hand-picked
edge cases and on generated texts.

Two intended differences, both in positions.  The character loop did not
advance the column through a ``--`` comment, so after a trailing comment
its end-of-input token sat at the comment's start; the scanner puts it
where the text ends (:func:`test_end_of_input_after_a_trailing_comment`
pins it).  And the loop reported an invalid number literal at the column
just past it; the scanner reports it at the literal's first column, like
every other error.  :func:`reference_tokens` applies both fixes to the
oracle.
"""

import ast
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl import HdlParseError, Token, TokenKind, parse_processor, tokenize
from repro.hdl.ast import BinaryExpr, HdlExpr
from repro.hdl.lexer import KEYWORDS
from repro.hdl.parser import _BINARY_LEVELS, _Parser
from repro.toolchain import default_registry

_OPERATORS = [":=", "=>", "->", "==", "!=", "<=", ">=", "<<", ">>",
              "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">"]

_PUNCT = [";", ":", ".", ",", "[", "]", "(", ")"]


def reference_tokenize(source: str) -> List[Token]:
    """The character-by-character lexer."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> HdlParseError:
        return HdlParseError(message, line, column)

    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char.isalpha() or char == "_":
            start = index
            start_column = column
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
                column += 1
            text = source[start:index]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, start_column))
            continue
        if char.isdigit():
            start = index
            start_column = column
            while index < length and (
                source[index].isalnum() or source[index] in "xXbB"
            ):
                index += 1
                column += 1
            text = source[start:index]
            try:
                int(text, 0)
            except ValueError:
                raise error("invalid number literal %r" % text)
            tokens.append(Token(TokenKind.NUMBER, text, line, start_column))
            continue
        matched = False
        for operator in _OPERATORS:
            if source.startswith(operator, index):
                tokens.append(Token(TokenKind.OPERATOR, operator, line, column))
                index += len(operator)
                column += len(operator)
                matched = True
                break
        if matched:
            continue
        if char in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, char, line, column))
            index += 1
            column += 1
            continue
        raise error("unexpected character %r" % char)

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens


class RecursiveParser(_Parser):
    """The parser with one recursive call per precedence level."""

    def _parse_expression(self, level: int = 0) -> HdlExpr:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_expression(level + 1)
        operators = _BINARY_LEVELS[level]
        while self._peek().kind == TokenKind.OPERATOR and self._peek().text in operators:
            operator = self._advance().text
            right = self._parse_expression(level + 1)
            left = BinaryExpr(operator=operator, left=left, right=right)
        return left


def end_column(text: str) -> int:
    """The column just past the text's last character."""
    return len(text) - text.rfind("\n")


_INVALID_NUMBER = "invalid number literal "


def reference_tokens(text: str) -> List[Token]:
    """The character loop's tokens, the end-of-input token moved to the end
    of the text (it differs from the loop's only after a comment), and an
    invalid number literal reported at its first column."""
    try:
        tokens = reference_tokenize(text)
    except HdlParseError as error:
        message = str(error).partition(": ")[2]
        if not message.startswith(_INVALID_NUMBER):
            raise
        literal = ast.literal_eval(message[len(_INVALID_NUMBER):])
        raise HdlParseError(message, error.line, error.column - len(literal))
    eof = tokens[-1]
    if eof.column != end_column(text):
        assert "--" in text[text.rfind("\n") + 1:], repr(text)
    tokens[-1] = Token(TokenKind.EOF, "", eof.line, end_column(text))
    return tokens


def reference_parse(text: str):
    return RecursiveParser(reference_tokens(text)).parse_model()


def outcome(function, text: str):
    """The result, or the error's type, message, line and column."""
    try:
        return function(text)
    except HdlParseError as error:
        return ("error", type(error), str(error), error.line, error.column)


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokens, text), repr(text)
    assert outcome(parse_processor, text) == outcome(reference_parse, text), repr(text)


_MODELS = default_registry().names()


@pytest.mark.parametrize("name", _MODELS)
def test_builtin_models(name):
    text = default_registry().hdl_source(name)
    assert tokenize(text) == reference_tokens(text)
    assert parse_processor(text) == reference_parse(text)


def _model(behavior: str) -> str:
    return (
        "processor p;\nmodule M\n  in a : 8;\n  in b : 8;\n  out y : 8;\n"
        "behavior\n  " + behavior + "\nend module;\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \t\r\n\n",
        "a -- comment\nb",
        "a--b->c-d - -e",
        "a -> b --> c",
        "-",
        "--",
        "-- only a comment",
        "a --",
        "x\r\ny\r\n",
        "\ta\t:=\tb;",
        "0x1F 0b101 007 0 1x",
        "0x",
        "0b",
        "0b12",
        "12abc",
        "0x1G",
        "é ü1 a² _x x_1",
        "٣ + 4",
        "a = b",
        "a $ b",
        "a\x0b",
        "½",
        "²",
        "processor x; module M in a : 4; -- trailing",
        "processor x; module M in a : 4;\n-- trailing\n",
        "processor x; module M kind nosuch end module;",
        "processor x; port P : in 8; port Q : sideways 8;",
        "processor x; structure connect A.y -> B.a[7:0]; bus D : 16; end structure;",
        "processor x; structure connect A.y => B.a; end structure;",
        "processor x; module M behavior y := case s when 0 => a; end; end module;",
        "processor x; module M behavior y := case s end; end module;",
        _model("y := a + b * c - d / e % f << 1 >> 2 < a > b <= c >= d == e != f & g ^ h | i;"),
        _model("y := a | b ^ c & d == e < f << g + h * i;"),
        _model("y := -a * ~b + !c - -(-d);"),
        _model("y := (a + b) * (c - d)[3:0][1:0];"),
        _model("mem[a + 1] := b when a == 0 & b != 1;"),
        _model("y := a + ;"),
        _model("y := a b;"),
        _model("y := case a + b when 0x3 => mem[a]; else => a[7:4] << 1; end;"),
    ],
)
def test_edge_cases(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("0x", "line 1, column 1: invalid number literal '0x'"),
        ("a\n  12abc", "line 2, column 3: invalid number literal '12abc'"),
        ("a\n$", "line 2, column 1: unexpected character '$'"),
        ("a = b", "line 1, column 3: unexpected character '='"),
        ("\t½", "line 1, column 2: unexpected character '½'"),
    ],
)
def test_lexical_errors(text, error):
    with pytest.raises(HdlParseError) as excinfo:
        tokenize(text)
    assert str(excinfo.value) == error
    assert_same(text)


def test_end_of_input_after_a_trailing_comment():
    """The character loop stopped the column at a trailing comment's start
    and reported end-of-input errors there; the scanner reports them where
    the text ends."""
    text = "processor x; module M in a : 4; -- trailing"
    assert len(text) == 43
    assert reference_tokenize(text)[-1].column == 33
    assert tokenize(text)[-1] == Token(TokenKind.EOF, "", 1, 44)
    with pytest.raises(HdlParseError) as excinfo:
        parse_processor(text)
    assert (excinfo.value.line, excinfo.value.column) == (1, 44)
    assert str(excinfo.value) == (
        "line 1, column 44: expected port declaration, 'behavior' or 'end', found ''"
    )


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\r\n-->:=<!|&^~+*/%;.,[]()ax_019bBéü²½٣$", max_size=40))
def test_random_text(text):
    assert_same(text)


_FRAGMENTS = sorted(KEYWORDS) + _OPERATORS + _PUNCT + [
    "a", "b", "y", "M", "register", "0", "7", "0x1F", "0b10", "1x",
    " ", " ", "\n", "\t", "--c\n", "--",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30))
def test_random_token_soup(fragments):
    assert_same(" ".join(fragments))
    assert_same("processor p; module M " + "".join(fragments))


_BINARY = [operator for level in _BINARY_LEVELS for operator in level]

_EXPRESSIONS = st.recursive(
    st.sampled_from(["a", "b", "7", "0x3", "mem[a]", "a[3:0]",
                     "case a when 0 => b; else => 1; end"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_BINARY), inner).map(" ".join),
        st.tuples(st.sampled_from(["-", "~", "!"]), inner).map("".join),
        inner.map("({})".format),
        inner.map("{}[1:0]".format),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS, _EXPRESSIONS)
def test_random_expressions(value, condition):
    assert_same(_model("y := %s when %s;" % (value, condition)))
