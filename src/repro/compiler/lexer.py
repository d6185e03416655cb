"""Tokenizer for the mini-C language."""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.errors import CompileError

KEYWORDS = {
    "int", "unsigned", "signed", "short", "char", "void", "long",
    "if", "else", "while", "do", "for", "switch", "case", "default",
    "break", "continue", "return", "const", "static",
}

# Longest first so maximal munch works with simple ordered matching.
PUNCTUATION = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
]


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    CHAR = auto()
    STRING = auto()
    PUNCT = auto()
    EOF = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int
    value: int = 0  # numeric value for NUMBER/CHAR tokens

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}"


_KEYWORD, _IDENT, _NUMBER, _CHAR, _PUNCT = (
    TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.NUMBER, TokenKind.CHAR, TokenKind.PUNCT
)

#: one alternative per token shape, tried in order at each position; the
#: comment groups precede ``punct`` so "/" never shadows "//" or "/*", and
#: ``punct`` lists operators longest first (maximal munch).  ``\d`` and
#: ``\w`` are the Unicode classes that ``int()`` and ``str.isalnum`` use.
_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<ws>[ \t\r]+)",
            r"(?P<nl>\n[ \t\r]*)",
            r"(?P<ident>[^\W\d]\w*)",
            r"(?P<line_comment>//[^\n]*)",
            r"(?P<block_comment>/\*[\s\S]*?\*/)",
            r"(?P<open_comment>/\*)",
            "(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")",
            r"(?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)",
            r"(?P<dec>\d+[uUlL]*)",
            r"(?P<char>'(?:[^'\\]|\\[\s\S])*')",
            r"(?P<other>[\s\S])",
        )
    )
)


def tokenize(source: str) -> list[Token]:
    """Convert *source* into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    col = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "ident":
            if not (text[0].isalpha() or text[0] == "_"):  # e.g. a superscript digit
                raise CompileError(f"unexpected character {text[0]!r}", line, col)
            append(Token(_KEYWORD if text in KEYWORDS else _IDENT, text, line, col))
            col += len(text)
        elif kind == "punct":
            append(Token(_PUNCT, text, line, col))
            col += len(text)
        elif kind == "ws":
            col += len(text)
        elif kind == "nl":
            line += 1
            col = len(text)
        elif kind == "dec":
            append(Token(_NUMBER, text, line, col, int(text.rstrip("uUlL"), 10)))
            col += len(text)
        elif kind == "hex":
            digits = text.rstrip("uUlL")
            if len(digits) == 2:
                raise CompileError(f"bad hex literal {text!r}", line, col)
            append(Token(_NUMBER, text, line, col, int(digits, 16)))
            col += len(text)
        elif kind == "line_comment":
            pass  # the newline that ends it resets the column
        elif kind == "block_comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
        elif kind == "char":
            body = text[1:-1]
            try:
                decoded = body.encode().decode("unicode_escape")
            except UnicodeDecodeError:  # e.g. a truncated '\x' escape
                decoded = ""
            if len(decoded) != 1:
                raise CompileError(f"bad character literal '{body}'", line, col)
            # a raw newline inside the quotes advances only the column
            append(Token(_CHAR, text, line, col, ord(decoded)))
            col += len(text)
        elif kind == "open_comment":
            raise CompileError("unterminated block comment", line, col)
        elif text == "'":
            raise CompileError("unterminated character literal", line, col)
        else:
            raise CompileError(f"unexpected character {text!r}", line, col)

    append(Token(TokenKind.EOF, "", line, col))
    return tokens
