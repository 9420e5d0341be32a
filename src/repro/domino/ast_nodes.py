"""AST for the Domino-like packet-transaction language.

Domino [Sivaraman et al., SIGCOMM 2016] expresses packet processing as
*packet transactions*: blocks of imperative code that execute atomically per
packet over packet fields (``pkt.x``) and persistent switch state.  Figure 1
of the Druzhba paper shows such a program (a sampling transaction) being
compiled down to the Druzhba machine model.

The reproduction's dialect supports:

* ``state <name> = <integer>;`` declarations of persistent state,
* a single ``transaction <name> { ... }`` block (or a bare statement list),
* assignments to packet fields (``pkt.field = expr;``), state variables and
  transaction-local temporaries,
* ``if`` / ``else if`` / ``else`` statements,
* integer expressions with arithmetic (``+ - * / %``), relational
  (``== != < > <= >=``) and logical (``&& || !``) operators, and a ternary
  conditional ``cond ? a : b``.

Literals, unary and binary operators and ``if`` chains are the ALU DSL's own
``Number``, ``UnaryOp``, ``BinaryOp`` and ``If`` nodes
(:mod:`repro.alu_dsl.ast_nodes`), so both languages share one parser core and
one operator semantics; walk statements with
:func:`repro.alu_dsl.ast_nodes.walk_stmts`.  Only the Domino-specific forms
below are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..alu_dsl.ast_nodes import BinaryOp, Expr, Stmt, UnaryOp


@dataclass(frozen=True)
class DFieldRef(Expr):
    """A packet-field read: ``pkt.<name>``."""

    name: str


@dataclass(frozen=True)
class DStateRef(Expr):
    """A read of a declared state variable or transaction-local temporary."""

    name: str


@dataclass(frozen=True)
class DTernary(Expr):
    """``condition ? if_true : if_false``."""

    condition: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class DAssign(Stmt):
    """Assignment to a packet field (``is_field=True``) or state/local variable."""

    target: str
    value: Expr
    is_field: bool


@dataclass
class StateDecl:
    """A ``state name = value;`` declaration."""

    name: str
    initial: int


@dataclass
class DominoProgram:
    """A parsed Domino program.

    Attributes
    ----------
    name:
        Transaction name (defaults to ``"transaction"`` for bare programs).
    state_decls:
        Persistent state declarations in source order.
    body:
        Transaction body statements.
    packet_fields_read / packet_fields_written:
        Field usage sets, filled in by :mod:`repro.domino.analysis`.
    source:
        Original source text.
    """

    name: str
    state_decls: List[StateDecl]
    body: List[Stmt]
    packet_fields_read: List[str] = field(default_factory=list)
    packet_fields_written: List[str] = field(default_factory=list)
    source: str = ""

    @property
    def state_names(self) -> List[str]:
        """Names of the declared state variables, in declaration order."""
        return [decl.name for decl in self.state_decls]

    def initial_state(self) -> dict:
        """Initial value of every state variable."""
        return {decl.name: decl.initial for decl in self.state_decls}

def walk_dexpr(expr: Expr) -> List[Expr]:
    """Pre-order traversal of a Domino expression."""
    out: List[Expr] = [expr]
    if isinstance(expr, UnaryOp):
        out.extend(walk_dexpr(expr.operand))
    elif isinstance(expr, BinaryOp):
        out.extend(walk_dexpr(expr.left))
        out.extend(walk_dexpr(expr.right))
    elif isinstance(expr, DTernary):
        out.extend(walk_dexpr(expr.condition))
        out.extend(walk_dexpr(expr.if_true))
        out.extend(walk_dexpr(expr.if_false))
    return out
