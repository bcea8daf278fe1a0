"""Lexer for the small C-like source language.

One compiled regular expression scans the text, as in
:mod:`repro.hdl.lexer`: each match is one token together with the
blanks, newlines and comments in front of it, so a program takes one
match per token.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.diagnostics import ReproError, ResourceLimitError, SourceLocation


class SourceSyntaxError(ReproError):
    """Raised for lexical or syntactic errors in source programs."""

    phase = "frontend"

    def __init__(self, message: str, line: int = 0):
        super().__init__(message, location=SourceLocation(line=line))
        self.line = line


#: Source texts larger than this are rejected up front with a structured
#: :class:`ResourceLimitError` -- a pathological megabyte of ``a+a+a...``
#: must not reach the parser, let alone the recursive lowering walk.
MAX_SOURCE_BYTES = 1 << 20


_KEYWORDS = {"int", "if", "else", "while", "do"}

#: Group 1 is what the token follows: blanks, newlines, ``//`` and closed
#: ``/* */`` comments.  Then one alternative per token class, tried in
#: this order: 2 word, 3 number, 4 an unterminated ``/*``, 5 symbol, 6 any
#: other character with the word characters after it (see
#: :func:`_unusual`); blanks at the end of the text match with no token.
#: Word and number *starts* are ASCII here; ``\w`` continues a word over
#: exactly ``str.isalnum`` plus ``_``.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*)"
    r"(?:([A-Za-z_]\w*)|([0-9][^\W_]*)|(/\*)"
    # Longest first so that "<<" wins over "<" and "&&" over "&".
    r"|(<<|>>|==|!=|<=|>=|&&|\|\||[-+*/%&|^~!=;,()\[\]{}<>])"
    r"|(.\w*)|\Z)"
)


class SourceToken(NamedTuple):
    kind: str  # "ident" | "number" | "keyword" | "symbol" | "eof"
    text: str
    line: int


#: Builds a token from a ``(kind, text, line)`` tuple without the Python
#: frame of the generated ``SourceToken.__new__``.
_new_token = tuple.__new__


def _number(word: str, line: int) -> SourceToken:
    try:
        int(word, 0)
    except ValueError:
        raise SourceSyntaxError("invalid number %r" % word, line)
    return _new_token(SourceToken, ("number", word, line))


def _unusual(run: str, line: int, tokens: List[SourceToken]) -> None:
    """Tokens of ``run``, a character no ASCII alternative starts followed
    by word characters: a non-ASCII letter starts a word and a non-ASCII
    digit a number, which ends before an ``_`` (the rest is a word);
    anything else is an error."""
    char = run[0]
    if char.isalpha():
        tokens.append(_new_token(SourceToken, ("ident", run, line)))
    elif char.isdigit():
        number, underscore, rest = run.partition("_")
        tokens.append(_number(number, line))
        if underscore:
            tokens.append(_new_token(SourceToken, ("ident", underscore + rest, line)))
    else:
        raise SourceSyntaxError("unexpected character %r" % char, line)


def tokenize_source(text: str, max_bytes: int = MAX_SOURCE_BYTES) -> List[SourceToken]:
    """Tokenize source text; ``//`` and ``/* ... */`` comments are skipped."""
    if max_bytes and len(text) > max_bytes:
        raise ResourceLimitError(
            "source program too large: %d characters (limit %d)"
            % (len(text), max_bytes)
        )
    tokens: List[SourceToken] = []
    append = tokens.append
    line = 1
    for found in _TOKEN.finditer(text):
        before, word, number, unterminated, symbol, other = found.groups()
        if "\n" in before:
            line += before.count("\n")
        if symbol:
            append(_new_token(SourceToken, ("symbol", symbol, line)))
        elif word:
            kind = "keyword" if word in _KEYWORDS else "ident"
            append(_new_token(SourceToken, (kind, word, line)))
        elif number:
            append(_number(number, line))
        elif unterminated:
            raise SourceSyntaxError("unterminated block comment", line)
        elif other:
            _unusual(other, line, tokens)
    append(_new_token(SourceToken, ("eof", "", line)))
    return tokens
