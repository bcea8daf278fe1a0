"""Unit tests for the HDL lexer."""

import pytest

from repro.hdl import HdlParseError, TokenKind, parse_processor, tokenize


class TestTokens:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("module ALU kind combinational")
        kinds = [t.kind for t in tokens[:-1]]
        texts = [t.text for t in tokens[:-1]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.IDENT]
        assert texts == ["module", "ALU", "kind", "combinational"]

    def test_numbers_decimal_hex_binary(self):
        tokens = tokenize("12 0x1F 0b101")
        values = [int(t.text, 0) for t in tokens[:-1]]
        assert values == [12, 31, 5]

    def test_invalid_number_raises(self):
        with pytest.raises(HdlParseError):
            tokenize("0x")

    def test_operators_longest_match(self):
        tokens = tokenize("a := b << 2 -> c == 1")
        operator_texts = [t.text for t in tokens if t.kind == TokenKind.OPERATOR]
        assert operator_texts == [":=", "<<", "->", "=="]

    def test_punctuation(self):
        tokens = tokenize("y[3:0];")
        punct = [t.text for t in tokens if t.kind == TokenKind.PUNCT]
        assert punct == ["[", ":", "]", ";"]

    def test_comments_are_skipped(self):
        tokens = tokenize("a -- this is a comment\nb")
        texts = [t.text for t in tokens[:-1]]
        assert texts == ["a", "b"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(HdlParseError) as excinfo:
            tokenize("a\n$")
        assert "line 2" in str(excinfo.value)

    def test_eof_token_is_appended(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_end_of_input_after_a_trailing_comment(self):
        """A comment advances the column: end-of-input errors point past
        the text's last character, not at the comment's start."""
        text = "processor x; module M in a : 4; -- trailing"
        assert (tokenize(text)[-1].line, tokenize(text)[-1].column) == (1, 44)
        with pytest.raises(HdlParseError) as excinfo:
            parse_processor(text)
        assert str(excinfo.value).startswith("line 1, column 44: ")

    def test_token_predicates(self):
        tokens = tokenize("module ; :=")
        assert tokens[0].is_keyword("module")
        assert tokens[1].is_punct(";")
        assert tokens[2].is_operator(":=")
        assert not tokens[0].is_keyword("end")
