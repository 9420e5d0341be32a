"""Domino's keyword and operator tables for the shared scanner.

Domino tokenises through :func:`repro.alu_dsl.lexer.scan`, the ALU DSL's
scanner, with its own keywords and two more operators: ``.`` for packet
fields (``pkt.x``) and ``?`` for the ternary.
"""

from __future__ import annotations

from typing import List

from ..alu_dsl import lexer as alu_lexer
from ..alu_dsl.lexer import Token, TokenType, scan
from ..errors import DominoSyntaxError

KEYWORDS = frozenset(
    {TokenType.PKT, TokenType.STATE, TokenType.TRANSACTION, TokenType.IF, TokenType.ELSE}
)
OPERATORS = alu_lexer.OPERATORS | {TokenType.DOT, TokenType.QUESTION}


def tokenize(source: str) -> List[Token]:
    """Tokenise Domino ``source``."""
    return scan(source, KEYWORDS, OPERATORS, DominoSyntaxError)
