"""One scanner for the ALU DSL and the Domino dialect.

The ALU DSL (paper §3.1, Figure 3) and the Domino-style transactions of
Figure 1 share their lexical rules, so both tokenise through :func:`scan`:

* comments start with ``#`` or ``//`` and run to the end of the line;
* a number is an unsigned decimal integer (``\\d+``; machine-code
  immediates are unsigned integer constants, §2.3);
* a name is any Python identifier (``str.isidentifier``), promoted to a
  keyword token when the language lists it;
* operators and punctuation come from the language's operator table, the
  longest match first.

Any other character raises the language's syntax error at its line and
column, so ``.`` and ``?``, which only Domino lists, stay errors in the ALU
DSL.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import AbstractSet, Callable, List

from ..errors import ALUDSLSyntaxError


class TokenType(enum.Enum):
    """Every terminal of the two languages; a keyword's or operator's value is its lexeme."""

    NUMBER = "NUMBER"
    IDENT = "IDENT"
    EOF = "EOF"

    # Keywords.
    TYPE = "type"
    STATEFUL = "stateful"
    STATELESS = "stateless"
    STATE = "state"
    HOLE = "hole"
    PACKET = "packet"
    VARIABLES = "variables"
    FIELDS = "fields"
    IF = "if"
    ELIF = "elif"
    ELSE = "else"
    RETURN = "return"
    PKT = "pkt"
    TRANSACTION = "transaction"

    # Punctuation and operators.
    COLON = ":"
    COMMA = ","
    SEMICOLON = ";"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    DOT = "."
    QUESTION = "?"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NEQ = "!="
    LE = "<="
    GE = ">="
    LT = "<"
    GT = ">"
    AND = "&&"
    OR = "||"
    NOT = "!"


@dataclass(frozen=True)
class Token:
    """A single lexeme with its source location (1-based line and column)."""

    type: TokenType
    value: str
    line: int
    column: int


#: The ALU DSL's keywords.
KEYWORDS = frozenset(TokenType(word) for word in (
    "type", "stateful", "stateless", "state", "hole", "packet", "variables", "fields",
    "if", "elif", "else", "return",
))

#: The ALU DSL's operators and punctuation.
OPERATORS = frozenset(TokenType(op) for op in ":,;{}()=+-*/%!<>") | {
    TokenType.EQ, TokenType.NEQ, TokenType.LE, TokenType.GE, TokenType.AND, TokenType.OR,
}

_BY_LEXEME = {token_type.value: token_type for token_type in TokenType}


@functools.lru_cache(maxsize=None)  # one entry per language
def _token_regex(operators: AbstractSet[TokenType]) -> "re.Pattern[str]":
    lexemes = sorted((op.value for op in operators), key=len, reverse=True)
    return re.compile(
        r"(?P<newline>\n)|[ \t\r]+|(?:#|//)[^\n]*|(?P<number>\d+)|(?P<name>[^\W\d]\w*)"
        rf"|(?P<operator>{'|'.join(map(re.escape, lexemes))})|(?P<other>.)"
    )


def scan(
    source: str,
    keywords: AbstractSet[TokenType],
    operators: AbstractSet[TokenType],
    error: Callable[..., Exception],
) -> List[Token]:
    """Tokenise ``source`` with one language's tables; the list ends with an EOF token.

    ``error(message, line=, column=)`` builds the exception raised on a
    character the language does not accept.
    """
    tokens: List[Token] = []
    line, line_start = 1, 0
    for match in _token_regex(operators).finditer(source):
        kind = match.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "number":
            token_type = TokenType.NUMBER
        elif kind == "operator":
            token_type = _BY_LEXEME[text]
        elif kind == "name" and text.isidentifier():
            token_type = _BY_LEXEME.get(text, TokenType.IDENT)
            if token_type not in keywords:
                token_type = TokenType.IDENT
        else:
            bad = next(i for i in range(len(text)) if not text[: i + 1].isidentifier())
            raise error(f"unexpected character {text[bad]!r}", line=line, column=column + bad)
        tokens.append(Token(token_type, text, line, column))
    tokens.append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens


def tokenize(source: str) -> List[Token]:
    """Tokenise ALU DSL ``source``."""
    return scan(source, KEYWORDS, OPERATORS, ALUDSLSyntaxError)
