"""Abstract syntax tree nodes for the ALU DSL.

The tree mirrors the grammar of Figure 3: an ALU specification is a header
(type, state variables, hole variables, packet fields) followed by a body of
statements.  Expressions include the machine-code-controlled primitives
(:class:`Primitive` call sites of ``Mux2``, ``Mux3``, ``Mux4``, ``Opt``,
``C``, ``rel_op``, ``arith_op`` and ``bool_op``), each of which corresponds
to a *hole*: an integer supplied by machine code that selects the
primitive's behaviour at configuration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of all ALU DSL expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Number(Expr):
    """An unsigned integer literal."""

    value: int


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a packet field, state variable or hole variable."""

    name: str


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation: negation (``-``) or logical not (``!``)."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary arithmetic, relational or logical operation."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Primitive(Expr):
    """A call site ``name(args...)`` of a machine-code-controlled primitive.

    ``name`` is one of :data:`repro.alu_dsl.semantics.PRIMITIVES` (``Mux2``,
    ``Mux3``, ``Mux4``, ``Opt``, ``C``, ``rel_op``, ``arith_op``,
    ``bool_op``); its row there gives the arity, the hole's domain and what
    each hole value selects.  ``hole_name`` is the unique per-ALU name of
    the controlling hole (assigned by semantic analysis; ``None`` until
    then).
    """

    name: str
    args: Tuple[Expr, ...]
    hole_name: Optional[str] = None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt:
    """Base class of all ALU DSL statements."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    """An assignment to a state variable or to a local/output variable."""

    target: str
    value: Expr


@dataclass(frozen=True)
class Return(Stmt):
    """``return expr;`` — the value the ALU forwards to the output muxes."""

    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    """An ``if``/``elif``/``else`` chain.

    ``branches`` holds (condition, body) pairs in source order; ``orelse``
    holds the statements of the final ``else`` block (possibly empty).
    """

    branches: Tuple[Tuple[Expr, Tuple[Stmt, ...]], ...]
    orelse: Tuple[Stmt, ...] = ()


# ----------------------------------------------------------------------
# Top-level specification
# ----------------------------------------------------------------------
@dataclass
class ALUSpec:
    """A parsed ALU specification.

    Attributes
    ----------
    name:
        Identifier for the ALU (taken from the file name or supplied by the
        caller); used in generated function names.
    kind:
        ``"stateful"`` or ``"stateless"``.
    state_vars:
        Names of the ALU-local state variables (empty for stateless ALUs).
    hole_vars:
        Names of additional machine-code-supplied values beyond the ones
        implied by primitive call sites (paper Figure 4: "hole variables").
    packet_fields:
        Names of the PHV container value operands.
    body:
        Statements of the ALU body.
    holes:
        Ordered names of every hole (primitive call sites plus declared hole
        variables).  Populated by :func:`repro.alu_dsl.analysis.analyze`.
    hole_domains:
        Mapping from hole name to the number of admissible values (e.g. a
        ``Mux3`` hole has domain 3).  Immediates (``C()``) and declared hole
        variables get a domain of 0, meaning "any unsigned integer".
    source:
        The original DSL text, kept for diagnostics and regeneration.
    """

    name: str
    kind: str
    state_vars: List[str]
    hole_vars: List[str]
    packet_fields: List[str]
    body: List[Stmt]
    holes: List[str] = field(default_factory=list)
    hole_domains: dict = field(default_factory=dict)
    source: str = ""

    @property
    def is_stateful(self) -> bool:
        """True when the ALU reads and writes persistent switch state."""
        return self.kind == "stateful"

    @property
    def num_operands(self) -> int:
        """Number of PHV container value operands (input muxes needed)."""
        return len(self.packet_fields)

    @property
    def num_state_vars(self) -> int:
        """Number of persistent state variables stored in the ALU."""
        return len(self.state_vars)


def walk_expr(expr: Expr) -> Sequence[Expr]:
    """Yield ``expr`` and every sub-expression in pre-order."""
    out: List[Expr] = [expr]
    if isinstance(expr, UnaryOp):
        out.extend(walk_expr(expr.operand))
    elif isinstance(expr, BinaryOp):
        out.extend(walk_expr(expr.left))
        out.extend(walk_expr(expr.right))
    elif isinstance(expr, Primitive):
        for sub in expr.args:
            out.extend(walk_expr(sub))
    return out


def walk_stmts(stmts: Sequence[Stmt]) -> Sequence[Stmt]:
    """Yield every statement in ``stmts`` recursively, in pre-order."""
    out: List[Stmt] = []
    for stmt in stmts:
        out.append(stmt)
        if isinstance(stmt, If):
            for _cond, body in stmt.branches:
                out.extend(walk_stmts(body))
            out.extend(walk_stmts(stmt.orelse))
    return out


def walk_stmt_exprs(stmts: Sequence[Stmt]) -> Sequence[Expr]:
    """Every expression ``stmts`` evaluate, nested statements and sub-expressions included."""
    out: List[Expr] = []
    for stmt in walk_stmts(stmts):
        roots = [cond for cond, _body in stmt.branches] if isinstance(stmt, If) else [stmt.value]
        for root in roots:
            out.extend(walk_expr(root))
    return out
