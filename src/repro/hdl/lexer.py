"""Lexer for the MIMOLA-inspired HDL.

One compiled regular expression scans the text, as in
:mod:`repro.frontend.lexer`: each match is one token together with the
blanks in front of it.  A token's column is its offset from the start of
its line, so a ``--`` comment advances the position like any other text
and the end-of-input token sits where the text ends.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.hdl.errors import HdlParseError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "processor",
    "module",
    "kind",
    "in",
    "out",
    "behavior",
    "end",
    "structure",
    "connect",
    "bus",
    "port",
    "case",
    "when",
    "else",
    "mem",
    "depth",
}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_operator(self, op: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == op

    def is_punct(self, punct: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == punct


#: Blanks, then one alternative per token class, tried in this order.  The
#: groups are numbered: 1 newline, 2 comment, 3 word, 4 number, 5 operator,
#: 6 punctuation, 7 any other character (see :func:`tokenize`); blanks at
#: the end of the text match with no group.  Word and number *starts* are
#: ASCII here; ``\w`` continues a word over exactly ``str.isalnum`` plus
#: ``_``.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|(--[^\n]*)|([A-Za-z_]\w*)|([0-9][^\W_]*)"
    # Longest first so that "<<" wins over "<" and ":=" over ":".
    r"|(:=|=>|->|==|!=|<=|>=|<<|>>|[-+*/%&|^~!<>])"
    r"|([;:.,\[\]()])"
    r"|(.)|$)"
)
_WORD_TAIL = re.compile(r"\w*")
_NUMBER_TAIL = re.compile(r"[^\W_]*")


def _number(text: str, line: int, column: int) -> Token:
    try:
        int(text, 0)
    except ValueError:
        raise HdlParseError("invalid number literal %r" % text, line, column)
    return Token(TokenKind.NUMBER, text, line, column)


def tokenize(source: str) -> List[Token]:
    """Split HDL source text into tokens.

    Comments start with ``--`` and run to the end of the line.  Numbers may
    be decimal, hexadecimal (``0x..``) or binary (``0b..``).
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
    operator, punct = TokenKind.OPERATOR, TokenKind.PUNCT
    index = 0
    line = 1
    line_start = -1  # the index before the line's first character
    length = len(source)
    while index < length:
        found = match(source, index)
        group = found.lastindex
        index = found.end()
        if group == 3:
            text = found.group(3)
            column = found.start(3) - line_start
            append(Token(keyword if text in KEYWORDS else ident, text, line, column))
        elif group == 5:
            append(Token(operator, found.group(5), line, found.start(5) - line_start))
        elif group == 6:
            append(Token(punct, found.group(6), line, found.start(6) - line_start))
        elif group == 1:
            line += 1
            line_start = index - 1
        elif group == 4:
            append(_number(found.group(4), line, found.start(4) - line_start))
        elif group == 7:
            # Not an ASCII token start: a non-ASCII letter starts a word and
            # a non-ASCII digit a number; anything else is an error.
            start = found.start(7)
            char = found.group(7)
            column = start - line_start
            if char.isalpha():
                index = _WORD_TAIL.match(source, index).end()
                append(Token(ident, source[start:index], line, column))
            elif char.isdigit():
                index = _NUMBER_TAIL.match(source, index).end()
                append(_number(source[start:index], line, column))
            else:
                raise HdlParseError("unexpected character %r" % char, line, column)
    append(Token(TokenKind.EOF, "", line, length - line_start))
    return tokens
