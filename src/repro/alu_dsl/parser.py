"""Recursive-descent parsers for the ALU DSL and, through :class:`TokenParser`, Domino.

:class:`TokenParser` is the front end both languages share: token-stream
plumbing, statement lists, blocks, ``if`` chains (``elif`` and ``else if``)
and the expression ladder, loosest first::

    "||"  <  "&&"  <  one of == != <= >= < >  <  + -  <  * / %  <  unary - !

It builds the node family of :mod:`repro.alu_dsl.ast_nodes` (``Number``,
``UnaryOp``, ``BinaryOp``, ``If``) for either language.  :class:`Parser`
adds the ALU DSL's header, ``return`` and primitive calls; the grammar it
accepts is :data:`repro.alu_dsl.grammar.EBNF` (paper Figure 3).  The header
declarations may appear in any order but each must appear exactly once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from ..errors import ALUDSLSyntaxError, DruzhbaError
from .ast_nodes import (
    ALUSpec,
    ArithOpExpr,
    Assign,
    BinaryOp,
    BoolOpExpr,
    ConstExpr,
    Expr,
    If,
    MuxExpr,
    Number,
    OptExpr,
    PRIMITIVE_CALLS,
    RelOpExpr,
    Return,
    Stmt,
    UnaryOp,
    Var,
)
from .lexer import Token, TokenType, tokenize

#: Binary operator levels of the expression ladder, loosest first.
_BINARY_LEVELS = (
    (TokenType.OR,),
    (TokenType.AND,),
    (TokenType.EQ, TokenType.NEQ, TokenType.LE, TokenType.GE, TokenType.LT, TokenType.GT),
    (TokenType.PLUS, TokenType.MINUS),
    (TokenType.STAR, TokenType.SLASH, TokenType.PERCENT),
)
#: The relational level takes at most one operator (``a < b < c`` is an error).
_RELATIONAL_LEVEL = 2


class TokenParser:
    """The parser core both languages share; subclasses add their own forms.

    A subclass sets :attr:`error` to its syntax-error class and supplies
    ``_parse_simple_statement`` (every statement but ``if``) and
    ``_parse_operand`` (the primaries other than numbers and parentheses).
    """

    error: Type[DruzhbaError]

    def __init__(self, tokens: List[Token], source: str = ""):
        self._tokens = tokens
        self._pos = 0
        self._source = source

    # ------------------------------------------------------------------
    # Token-stream plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType) -> bool:
        return self._peek().type is token_type

    def _match(self, *token_types: TokenType) -> Optional[Token]:
        if self._peek().type in token_types:
            return self._advance()
        return None

    def _fail(self, message: str, token: Token) -> DruzhbaError:
        return self.error(message, line=token.line, column=token.column)

    def _expect(self, token_type: TokenType, what: str) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise self._fail(f"expected {what}, found {token.value!r}", token)
        return self._advance()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_statements(self, stop_types: Tuple[TokenType, ...]) -> List[Stmt]:
        statements: List[Stmt] = []
        while self._peek().type not in stop_types:
            if self._match(TokenType.IF):
                statements.append(self._parse_if())
            else:
                statements.append(self._parse_simple_statement())
        return statements

    def _parse_simple_statement(self) -> Stmt:
        raise NotImplementedError

    def _parse_if(self) -> If:
        """The rest of an ``if`` chain whose ``if`` keyword is consumed."""
        branches = [self._parse_branch()]
        orelse: Tuple[Stmt, ...] = ()
        while True:
            if self._match(TokenType.ELIF):
                branches.append(self._parse_branch())
            elif self._match(TokenType.ELSE):
                if not self._match(TokenType.IF):
                    orelse = tuple(self._parse_block())
                    break
                branches.append(self._parse_branch())
            else:
                break
        return If(tuple(branches), orelse)

    def _parse_branch(self) -> Tuple[Expr, Tuple[Stmt, ...]]:
        self._expect(TokenType.LPAREN, "'(' before condition")
        condition = self._parse_expr()
        self._expect(TokenType.RPAREN, "')' after condition")
        return condition, tuple(self._parse_block())

    def _parse_block(self) -> List[Stmt]:
        self._expect(TokenType.LBRACE, "'{' opening a block")
        statements = self._parse_statements((TokenType.RBRACE, TokenType.EOF))
        self._expect(TokenType.RBRACE, "'}' closing a block")
        return statements

    def _parse_assigned_value(self, what: str) -> Expr:
        """``= expr ;`` after an assignment target."""
        self._expect(TokenType.ASSIGN, f"'=' in {what}")
        value = self._parse_expr()
        self._expect(TokenType.SEMICOLON, "';' after assignment")
        return value

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        return self._parse_binary()

    def _parse_binary(self, level: int = 0) -> Expr:
        if level == len(_BINARY_LEVELS):
            return self._parse_unary()
        operators = _BINARY_LEVELS[level]
        expr = self._parse_binary(level + 1)
        while self._peek().type in operators:
            op = self._advance().value
            expr = BinaryOp(op, expr, self._parse_binary(level + 1))
            if level == _RELATIONAL_LEVEL:
                break
        return expr

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.MINUS or token.type is TokenType.NOT:
            self._advance()
            return UnaryOp(token.value, self._parse_unary())
        if token.type is TokenType.NUMBER:
            self._advance()
            return Number(int(token.value))
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN, "')'")
            return expr
        operand = self._parse_operand(token)
        if operand is None:
            raise self._fail(f"unexpected token {token.value!r} in expression", token)
        return operand

    def _parse_operand(self, token: Token) -> Optional[Expr]:
        raise NotImplementedError


#: The second header keyword of each name-set declaration.
_NAME_SET_KEYWORDS = {
    TokenType.STATE: TokenType.VARIABLES,
    TokenType.HOLE: TokenType.VARIABLES,
    TokenType.PACKET: TokenType.FIELDS,
}


class Parser(TokenParser):
    """The ALU DSL parser: the header, then a body with ``return`` and primitive calls."""

    error = ALUDSLSyntaxError

    def __init__(self, tokens: List[Token], name: str = "alu", source: str = ""):
        super().__init__(tokens, source)
        self._name = name

    def parse(self) -> ALUSpec:
        """Parse the full specification and return an un-analysed ALUSpec."""
        header: Dict[TokenType, object] = {}
        while self._peek().type in (TokenType.TYPE, *_NAME_SET_KEYWORDS):
            token = self._advance()
            second = _NAME_SET_KEYWORDS.get(token.type)
            if token.type in header:
                what = token.value if second is None else f"{token.value} {second.value}"
                raise self._fail(f"duplicate '{what}' declaration", token)
            if second is None:
                self._expect(TokenType.COLON, "':' after 'type'")
                kind = self._advance()
                if kind.type not in (TokenType.STATEFUL, TokenType.STATELESS):
                    raise self._fail("ALU type must be 'stateful' or 'stateless'", kind)
                header[token.type] = kind.value
            else:
                self._expect(second, f"'{second.value}' after '{token.value}'")
                header[token.type] = self._parse_name_set()

        if TokenType.TYPE not in header:
            raise ALUDSLSyntaxError("missing 'type:' declaration")
        if TokenType.PACKET not in header:
            raise ALUDSLSyntaxError("missing 'packet fields:' declaration")

        body = self._parse_statements((TokenType.EOF,))
        self._expect(TokenType.EOF, "end of input")
        return ALUSpec(
            name=self._name,
            kind=header[TokenType.TYPE],
            state_vars=header.get(TokenType.STATE, []),
            hole_vars=header.get(TokenType.HOLE, []),
            packet_fields=header[TokenType.PACKET],
            body=body,
            source=self._source,
        )

    def _parse_name_set(self) -> List[str]:
        self._expect(TokenType.COLON, "':' in declaration")
        self._expect(TokenType.LBRACE, "'{' opening a name set")
        names: List[str] = []
        if not self._check(TokenType.RBRACE):
            names.append(self._expect(TokenType.IDENT, "identifier").value)
            while self._match(TokenType.COMMA):
                names.append(self._expect(TokenType.IDENT, "identifier").value)
        self._expect(TokenType.RBRACE, "'}' closing a name set")
        return names

    def _parse_simple_statement(self) -> Stmt:
        if self._match(TokenType.RETURN):
            value = self._parse_expr()
            self._expect(TokenType.SEMICOLON, "';' after return value")
            return Return(value)
        target = self._expect(TokenType.IDENT, "assignment target")
        return Assign(target.value, self._parse_assigned_value("assignment"))

    def _parse_operand(self, token: Token) -> Optional[Expr]:
        if token.type is not TokenType.IDENT:
            return None
        if token.value in PRIMITIVE_CALLS and self._peek(1).type is TokenType.LPAREN:
            return self._parse_primitive_call()
        self._advance()
        return Var(token.value)

    def _parse_primitive_call(self) -> Expr:
        name_token = self._advance()
        name = name_token.value
        arity = PRIMITIVE_CALLS[name]
        self._expect(TokenType.LPAREN, f"'(' after {name}")
        args: List[Expr] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._parse_expr())
            while self._match(TokenType.COMMA):
                args.append(self._parse_expr())
        self._expect(TokenType.RPAREN, f"')' closing {name} call")
        if len(args) != arity:
            raise self._fail(f"{name} expects {arity} argument(s), got {len(args)}", name_token)
        if name in ("Mux2", "Mux3", "Mux4"):
            return MuxExpr(tuple(args))
        if name == "Opt":
            return OptExpr(args[0])
        if name == "C":
            return ConstExpr()
        if name == "rel_op":
            return RelOpExpr(args[0], args[1])
        if name == "arith_op":
            return ArithOpExpr(args[0], args[1])
        return BoolOpExpr(args[0], args[1])


def parse(source: str, name: str = "alu") -> ALUSpec:
    """Parse ALU DSL ``source`` into an (un-analysed) :class:`ALUSpec`."""
    return Parser(tokenize(source), name=name, source=source).parse()
