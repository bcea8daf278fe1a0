"""Lexer for the small C-like source language."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

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

#: One alternative per token class, tried in this order at each position.
#: Identifier and number *starts* are ASCII here; other characters take
#: the ``str.isalpha``/``str.isdigit`` fallback in :func:`tokenize_source`,
#: and ``\w`` continues a word over exactly ``str.isalnum`` plus ``_``.
_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<number>[0-9][^\W_]*)"
    # Longest first so that "<<" wins over "<" and "&&" over "&".
    r"|(?P<symbol><<|>>|==|!=|<=|>=|&&|\|\||[-+*/%&|^~!=;,()\[\]{}<>])"
)
_WORD_TAIL = re.compile(r"\w*")
_NUMBER_TAIL = re.compile(r"[^\W_]*")


@dataclass(frozen=True)
class SourceToken:
    kind: str  # "ident" | "number" | "keyword" | "symbol" | "eof"
    text: str
    line: int


def _number(word: str, line: int) -> SourceToken:
    try:
        int(word, 0)
    except ValueError:
        raise SourceSyntaxError("invalid number %r" % word, line)
    return SourceToken("number", word, line)


def tokenize_source(text: str, max_bytes: int = MAX_SOURCE_BYTES) -> List[SourceToken]:
    """Tokenize source text; ``//`` and ``/* ... */`` comments are skipped."""
    if max_bytes and len(text) > max_bytes:
        raise ResourceLimitError(
            "source program too large: %d characters (limit %d)"
            % (len(text), max_bytes)
        )
    tokens: List[SourceToken] = []
    match = _TOKEN.match
    index = 0
    line = 1
    length = len(text)
    while index < length:
        found = match(text, index)
        if found is None:
            char = text[index]
            if char.isalpha():  # a non-ASCII letter starts an identifier
                end = _WORD_TAIL.match(text, index + 1).end()
                tokens.append(SourceToken("ident", text[index:end], line))
            elif char.isdigit():
                end = _NUMBER_TAIL.match(text, index + 1).end()
                tokens.append(_number(text[index:end], line))
            else:
                raise SourceSyntaxError("unexpected character %r" % char, line)
            index = end
            continue
        kind = found.lastgroup
        index = found.end()
        if kind == "word":
            word = found.group()
            tokens.append(
                SourceToken("keyword" if word in _KEYWORDS else "ident", word, line)
            )
        elif kind == "symbol":
            tokens.append(SourceToken("symbol", found.group(), line))
        elif kind == "newline":
            line += 1
        elif kind == "number":
            tokens.append(_number(found.group(), line))
        elif kind == "block":
            end = text.find("*/", index)
            if end < 0:
                raise SourceSyntaxError("unterminated block comment", line)
            line += text.count("\n", index, end)
            index = end + 2
    tokens.append(SourceToken("eof", "", line))
    return tokens
