"""Lexer tests."""

import pytest

from repro.compiler.lexer import TokenKind, tokenize
from repro.errors import CompileError


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int intx for fortune")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[2].kind is TokenKind.KEYWORD
        assert tokens[3].kind is TokenKind.IDENT

    def test_decimal_and_hex(self):
        tokens = tokenize("42 0x2A 0XFF")
        assert [t.value for t in tokens[:-1]] == [42, 42, 255]

    def test_integer_suffixes_ignored(self):
        tokens = tokenize("1u 2UL 3L")
        assert [t.value for t in tokens[:-1]] == [1, 2, 3]

    def test_char_literals(self):
        tokens = tokenize(r"'a' '\n' '\0'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 0]

    def test_maximal_munch(self):
        texts = [t.text for t in tokenize("a<<=b>>c<=d") if t.kind is TokenKind.PUNCT]
        assert texts == ["<<=", ">>", "<="]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_comments(self):
        tokens = tokenize("a // comment\nb /* multi\nline */ c")
        assert [t.text for t in tokens[:-1]] == ["a", "b", "c"]

    def test_line_count_after_block_comment(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert tokens[0].line == 2


class TestLexErrors:
    def test_unterminated_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* oops")

    def test_bad_char(self):
        with pytest.raises(CompileError):
            tokenize("a @ b")

    def test_unterminated_char(self):
        with pytest.raises(CompileError):
            tokenize("'a")

    def test_hex_prefix_without_digits(self):
        # used to leak a bare ValueError from int(..., 16)
        with pytest.raises(CompileError) as info:
            tokenize("int x = 0x;")
        assert (info.value.line, info.value.column) == (1, 9)

    def test_hex_prefix_with_suffix_only(self):
        with pytest.raises(CompileError) as info:
            tokenize("\n  y = 0XuL;")
        assert (info.value.line, info.value.column) == (2, 7)

    def test_truncated_escape_in_char_literal(self):
        # used to leak a bare UnicodeDecodeError
        with pytest.raises(CompileError) as info:
            tokenize(r"c = '\x';")
        assert (info.value.line, info.value.column) == (1, 5)


class TestErrorPositions:
    """Line and column of each lexer error, at the start of the bad token."""

    @pytest.mark.parametrize(
        "source, position, message",
        [
            ("int a;\n  /* never closed\n", (2, 3), "unterminated block comment"),
            ("x /*/", (1, 3), "unterminated block comment"),
            ("a = 'ab';", (1, 5), "bad character literal"),
            ("\n\tq = '';", (2, 6), "bad character literal"),
            ("a @ b", (1, 3), "unexpected character '@'"),
            ("/* one\ntwo */ $", (2, 8), "unexpected character '$'"),
            ('s = "str";', (1, 5), "unexpected character '\"'"),
            ("x = 'a", (1, 5), "unterminated character literal"),
        ],
    )
    def test_error_position(self, source, position, message):
        with pytest.raises(CompileError) as info:
            tokenize(source)
        assert (info.value.line, info.value.column) == position
        assert message in str(info.value)


class TestTokenPositions:
    def test_kinds_values_and_positions(self):
        source = "int f(void) {\n\treturn 0x1fU + 'a'; // note\n} /* x\ny */ k"
        tokens = tokenize(source)
        assert [(t.kind.name, t.text, t.line, t.column, t.value) for t in tokens] == [
            ("KEYWORD", "int", 1, 1, 0),
            ("IDENT", "f", 1, 5, 0),
            ("PUNCT", "(", 1, 6, 0),
            ("KEYWORD", "void", 1, 7, 0),
            ("PUNCT", ")", 1, 11, 0),
            ("PUNCT", "{", 1, 13, 0),
            ("KEYWORD", "return", 2, 2, 0),
            ("NUMBER", "0x1fU", 2, 9, 31),
            ("PUNCT", "+", 2, 15, 0),
            ("CHAR", "'a'", 2, 17, 97),
            ("PUNCT", ";", 2, 20, 0),
            ("PUNCT", "}", 3, 1, 0),
            ("IDENT", "k", 4, 6, 0),
            ("EOF", "", 4, 7, 0),
        ]

    def test_eof_after_trailing_line_comment(self):
        # a line comment does not advance the column
        assert tokenize("a // end")[-1].column == 3
