"""Recursive-descent parser for the Domino-like packet-transaction language.

:class:`DominoParser` extends the ALU DSL's parser core
(:class:`repro.alu_dsl.parser.TokenParser`), which supplies the statement,
``if``/``else if`` and expression rules and builds the ALU DSL's ``Number``,
``UnaryOp``, ``BinaryOp`` and ``If`` nodes.  Domino adds ``state``
declarations, the ``transaction`` block, ``pkt.`` fields, reads of state and
temporaries, and the ternary ``cond ? a : b`` (the loosest expression form).
"""

from __future__ import annotations

from typing import List, Optional

from ..alu_dsl.ast_nodes import Expr, Stmt
from ..alu_dsl.lexer import Token, TokenType
from ..alu_dsl.parser import TokenParser
from ..errors import DominoSyntaxError
from .ast_nodes import DAssign, DFieldRef, DominoProgram, DStateRef, DTernary, StateDecl
from .lexer import tokenize


class DominoParser(TokenParser):
    """Parses a token stream into a :class:`DominoProgram`."""

    error = DominoSyntaxError

    def parse(self) -> DominoProgram:
        """Parse state declarations followed by a transaction block or bare statements."""
        state_decls: List[StateDecl] = []
        while self._match(TokenType.STATE):
            state_decls.append(self._parse_state_decl())

        name = "transaction"
        if self._match(TokenType.TRANSACTION):
            name = self._expect(TokenType.IDENT, "transaction name").value
            self._expect(TokenType.LBRACE, "'{' opening the transaction")
            body = self._parse_statements((TokenType.RBRACE, TokenType.EOF))
            self._expect(TokenType.RBRACE, "'}' closing the transaction")
        else:
            body = self._parse_statements((TokenType.EOF,))
        self._expect(TokenType.EOF, "end of program")

        return DominoProgram(name=name, state_decls=state_decls, body=body, source=self._source)

    def _parse_state_decl(self) -> StateDecl:
        name = self._expect(TokenType.IDENT, "state variable name").value
        initial = 0
        if self._match(TokenType.ASSIGN):
            negative = self._match(TokenType.MINUS) is not None
            initial = int(self._expect(TokenType.NUMBER, "initial state value").value)
            if negative:
                initial = -initial
        self._expect(TokenType.SEMICOLON, "';' after state declaration")
        return StateDecl(name=name, initial=initial)

    def _parse_field_name(self) -> str:
        """``.name`` after a consumed ``pkt``."""
        self._expect(TokenType.DOT, "'.' after 'pkt'")
        return self._expect(TokenType.IDENT, "packet field name").value

    def _parse_simple_statement(self) -> Stmt:
        if self._match(TokenType.PKT):
            field_name = self._parse_field_name()
            value = self._parse_assigned_value("packet-field assignment")
            return DAssign(field_name, value, is_field=True)
        target = self._expect(TokenType.IDENT, "assignment target").value
        return DAssign(target, self._parse_assigned_value("assignment"), is_field=False)

    def _parse_expr(self) -> Expr:
        condition = self._parse_binary()
        if self._match(TokenType.QUESTION):
            if_true = self._parse_expr()
            self._expect(TokenType.COLON, "':' in ternary expression")
            return DTernary(condition, if_true, self._parse_expr())
        return condition

    def _parse_operand(self, token: Token) -> Optional[Expr]:
        if self._match(TokenType.PKT):
            return DFieldRef(self._parse_field_name())
        if self._match(TokenType.IDENT):
            return DStateRef(token.value)
        return None


def parse(source: str) -> DominoProgram:
    """Parse Domino ``source`` into an (un-analysed) program."""
    return DominoParser(tokenize(source), source=source).parse()
