"""The compiled-``re`` source lexer against the character loop it replaced.

:func:`reference_tokenize` is that loop, kept as the oracle.  Both must
produce the same token stream, or raise the same error at the same line,
on every DSPStone kernel, on generated programs and on hand-picked and
random edge cases.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnostics import ResourceLimitError
from repro.dspstone import all_kernel_names, get_kernel, loop_kernel_names
from repro.frontend.lexer import (
    MAX_SOURCE_BYTES,
    SourceSyntaxError,
    SourceToken,
    tokenize_source,
)
from repro.fuzz.generator import generate_source

_KEYWORDS = {"int", "if", "else", "while", "do"}

_SYMBOLS = ["<<", ">>", "==", "!=", "<=", ">=", "&&", "||",
            "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
            "=", ";", ",", "(", ")", "[", "]", "{", "}", "<", ">"]


def reference_tokenize(text: str) -> List[SourceToken]:
    """The character-by-character lexer (size check omitted)."""
    tokens: List[SourceToken] = []
    index = 0
    line = 1
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            continue
        if text.startswith("//", index):
            while index < length and text[index] != "\n":
                index += 1
            continue
        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end < 0:
                raise SourceSyntaxError("unterminated block comment", line)
            line += text.count("\n", index, end)
            index = end + 2
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(SourceToken(kind, word, line))
            continue
        if char.isdigit():
            start = index
            while index < length and (text[index].isalnum()):
                index += 1
            word = text[start:index]
            try:
                int(word, 0)
            except ValueError:
                raise SourceSyntaxError("invalid number %r" % word, line)
            tokens.append(SourceToken("number", word, line))
            continue
        matched = False
        for symbol in _SYMBOLS:
            if text.startswith(symbol, index):
                tokens.append(SourceToken("symbol", symbol, line))
                index += len(symbol)
                matched = True
                break
        if matched:
            continue
        raise SourceSyntaxError("unexpected character %r" % char, line)
    tokens.append(SourceToken("eof", "", line))
    return tokens


def outcome(lexer, text: str):
    """The token list, or the error's message and line."""
    try:
        return lexer(text)
    except SourceSyntaxError as error:
        return ("error", str(error), error.line)


def assert_same(text: str) -> None:
    assert outcome(tokenize_source, text) == outcome(reference_tokenize, text), repr(text)


@pytest.mark.parametrize("name", all_kernel_names() + loop_kernel_names())
def test_kernels(name):
    assert_same(get_kernel(name).source)


def test_generated_programs():
    for seed in range(1000):
        assert_same(generate_source(seed))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \t\r\n\n",
        "int a, b; a = b << 2 >> 1;",
        "if (a <= b && c != d || !e) { x = ~y ^ z % 3; }",
        "a=b==c>=d<e>f",
        "&&&|||!==<<<",
        "a // comment\nb // to the end",
        "a /* one\ntwo\nthree */ b\nc",
        "/*/ still open */ x",
        "x/y/*z*/",
        "0x1F + 0 + 007x",
        "1_000 _x x_1 __cse0",
        "é = ü1 + a²;",
        "٣ + 4",
        "\t a \t\n\t b",
        # CRLF line ends
        "int a;\r\na = 1;\r\n\r\nb = a;\r\n",
        "a // comment\r\nb",
        # "//" at the end of the input
        "a = 1; //",
        "a = 1; // trailing",
        "//",
        # block comments spanning lines, before tokens and at the end
        "/*\n*/x\n/* a\r\nb */ y",
        "a /* one\n\ntwo */\n/**/ b /*\n*/",
        "a\n/* last\nline */",
        # non-ASCII letters and digits after blanks
        " é = \tü1;\n  ñ_2 = 3;",
        "a = \t٣ + \n ٤_b;",
        "x =  Ωmega + \t½;",
        " \n\t ²",
    ],
)
def test_edge_cases(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("int a;\na = 12abc;", "invalid number '12abc'", 2),
        ("a = 09;", "invalid number '09'", 1),
        ("a = 1;\n/* never\nclosed", "unterminated block comment", 2),
        ("a = b $ c;", "unexpected character '$'", 1),
        ("\n\n  @", "unexpected character '@'", 3),
        ("a = ½;", "unexpected character '½'", 1),
        ("a = ²;", "invalid number '²'", 1),
        ("a\x0b", "unexpected character '\\x0b'", 1),
    ],
)
def test_errors(text, message, line):
    assert outcome(tokenize_source, text) == ("error", "line %d: %s" % (line, message), line)
    assert_same(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\r\n/*<>=!&|+-%^~;,()[]{}ax_019éü²½٣$.", max_size=30))
def test_random_text(text):
    assert_same(text)


def test_size_limit():
    with pytest.raises(ResourceLimitError):
        tokenize_source("a" * (MAX_SOURCE_BYTES + 1))
    with pytest.raises(ResourceLimitError):
        tokenize_source("abc", max_bytes=2)
    assert [token.text for token in tokenize_source("abc", max_bytes=0)] == ["abc", ""]
