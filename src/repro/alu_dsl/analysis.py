"""Semantic analysis for parsed ALU specifications.

Analysis performs three jobs:

1. **Hole naming.**  Every machine-code-controlled primitive call site
   (``Mux2``, ``Mux3``, ``Mux4``, ``Opt``, ``C``, ``rel_op``, ``arith_op``,
   ``bool_op``) is given a deterministic, unique name such as ``mux3_0`` or
   ``arith_op_1``.  Declared *hole variables* keep their declared names.  The
   resulting ordered hole list is what dgen later prefixes with the pipeline
   stage and ALU position to obtain the full machine-code pair names
   (paper §3.1: "strings ... indicate the pipeline stage and the position
   within that stage").
2. **Domain computation.**  Each hole is assigned the number of values it can
   legally take (``0`` means unbounded, e.g. an immediate).  A call site's
   hole prefix and domain come from its row of
   :data:`repro.alu_dsl.semantics.PRIMITIVES`.
3. **Validation.**  Stateless ALUs must not declare or assign state
   variables, every referenced identifier must be declared or locally
   assigned, stateful ALUs must declare at least one state variable, and
   stateless ALUs must end in a ``return``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..errors import ALUDSLSemanticError
from .ast_nodes import (
    ALUSpec,
    Assign,
    BinaryOp,
    Expr,
    If,
    Number,
    Primitive,
    Return,
    Stmt,
    UnaryOp,
    Var,
    walk_expr,
)
from .semantics import PRIMITIVES, UNBOUNDED


class _HoleNamer:
    """Assigns sequential names to primitive call sites during a tree walk."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self.holes: List[str] = []
        self.domains: Dict[str, int] = {}

    def fresh(self, prefix: str, domain: int) -> str:
        index = self._counters.get(prefix, 0)
        self._counters[prefix] = index + 1
        name = f"{prefix}_{index}"
        self.holes.append(name)
        self.domains[name] = domain
        return name


def _rewrite_expr(expr: Expr, namer: _HoleNamer) -> Expr:
    """Return a copy of ``expr`` with hole names assigned to primitive sites."""
    if isinstance(expr, (Number, Var)):
        return expr
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite_expr(expr.operand, namer))
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rewrite_expr(expr.left, namer), _rewrite_expr(expr.right, namer))
    if isinstance(expr, Primitive):
        args = tuple(_rewrite_expr(sub, namer) for sub in expr.args)
        row = PRIMITIVES[expr.name]
        return Primitive(expr.name, args, namer.fresh(row.hole_prefix, row.domain))
    raise ALUDSLSemanticError(f"unknown expression node {type(expr).__name__}")


def _rewrite_stmts(stmts: Sequence[Stmt], namer: _HoleNamer) -> List[Stmt]:
    rewritten: List[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            rewritten.append(Assign(stmt.target, _rewrite_expr(stmt.value, namer)))
        elif isinstance(stmt, Return):
            rewritten.append(Return(_rewrite_expr(stmt.value, namer)))
        elif isinstance(stmt, If):
            branches: List[Tuple[Expr, Tuple[Stmt, ...]]] = []
            for condition, body in stmt.branches:
                branches.append(
                    (_rewrite_expr(condition, namer), tuple(_rewrite_stmts(body, namer)))
                )
            orelse = tuple(_rewrite_stmts(stmt.orelse, namer))
            rewritten.append(If(tuple(branches), orelse))
        else:
            raise ALUDSLSemanticError(f"unknown statement node {type(stmt).__name__}")
    return rewritten


def _validate(spec: ALUSpec) -> None:
    declared = set(spec.packet_fields) | set(spec.state_vars) | set(spec.hole_vars)
    if len(declared) < len(spec.packet_fields) + len(spec.state_vars) + len(spec.hole_vars):
        raise ALUDSLSemanticError(
            f"ALU {spec.name!r}: packet fields, state variables and hole variables must not overlap"
        )

    if spec.kind == "stateless" and spec.state_vars:
        raise ALUDSLSemanticError(
            f"stateless ALU {spec.name!r} must not declare state variables"
        )
    if spec.kind == "stateful" and not spec.state_vars:
        raise ALUDSLSemanticError(
            f"stateful ALU {spec.name!r} must declare at least one state variable"
        )
    if not spec.packet_fields:
        raise ALUDSLSemanticError(
            f"ALU {spec.name!r} must declare at least one packet field operand"
        )

    has_return = False
    locals_defined: Set[str] = set()

    def check_reads(expr: Expr, locally: Set[str]) -> None:
        unknown = {sub.name for sub in walk_expr(expr) if isinstance(sub, Var)} - declared - locally
        if unknown:
            raise ALUDSLSemanticError(
                f"ALU {spec.name!r}: undeclared identifier(s) {sorted(unknown)}"
            )

    def check_stmts(stmts: Sequence[Stmt], locally: Set[str]) -> None:
        nonlocal has_return
        for stmt in stmts:
            if isinstance(stmt, Assign):
                check_reads(stmt.value, locally)
                if spec.kind == "stateless" and stmt.target in spec.state_vars:
                    raise ALUDSLSemanticError(
                        f"stateless ALU {spec.name!r} assigns to state variable {stmt.target!r}"
                    )
                if stmt.target in spec.packet_fields:
                    raise ALUDSLSemanticError(
                        f"ALU {spec.name!r} assigns to packet-field operand {stmt.target!r}; "
                        "operands are read-only, write through the output instead"
                    )
                if stmt.target in spec.hole_vars:
                    raise ALUDSLSemanticError(
                        f"ALU {spec.name!r} assigns to hole variable {stmt.target!r}; "
                        "hole values are supplied by machine code"
                    )
                if stmt.target not in spec.state_vars:
                    locally.add(stmt.target)
            elif isinstance(stmt, Return):
                check_reads(stmt.value, locally)
                has_return = True
            elif isinstance(stmt, If):
                for condition, body in stmt.branches:
                    check_reads(condition, locally)
                    check_stmts(body, set(locally))
                check_stmts(stmt.orelse, set(locally))

    check_stmts(spec.body, locals_defined)

    if spec.kind == "stateless" and not has_return:
        raise ALUDSLSemanticError(
            f"stateless ALU {spec.name!r} must contain a 'return' statement"
        )


def analyze(spec: ALUSpec) -> ALUSpec:
    """Validate ``spec`` and return a copy with hole names and domains filled in.

    The input spec is not modified.  The returned spec's ``holes`` list is the
    canonical per-ALU hole ordering used everywhere else in the library:
    primitive call sites in body order followed by the declared hole
    variables.
    """
    namer = _HoleNamer()
    body = _rewrite_stmts(spec.body, namer)

    holes = list(namer.holes)
    domains = dict(namer.domains)
    for hole_var in spec.hole_vars:
        if hole_var in domains:
            raise ALUDSLSemanticError(
                f"ALU {spec.name!r}: hole variable {hole_var!r} collides with a generated hole name"
            )
        holes.append(hole_var)
        domains[hole_var] = UNBOUNDED

    analyzed = ALUSpec(
        name=spec.name,
        kind=spec.kind,
        state_vars=list(spec.state_vars),
        hole_vars=list(spec.hole_vars),
        packet_fields=list(spec.packet_fields),
        body=body,
        holes=holes,
        hole_domains=domains,
        source=spec.source,
    )
    _validate(analyzed)
    return analyzed


def parse_and_analyze(source: str, name: str = "alu") -> ALUSpec:
    """Parse ``source`` and run semantic analysis in one step."""
    from .parser import parse

    return analyze(parse(source, name=name))
