"""Pretty-printer: turn ALU specifications back into ALU DSL source text.

Used by the verification and debugging extensions to show users what an ALU
computes *after* machine code has been substituted (the specialised spec from
the SCC-propagation pass), and by round-trip tests that check
``parse(print(spec))`` behaves exactly like ``spec``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ALUDSLSemanticError
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
    RelOpExpr,
    Return,
    Stmt,
    UnaryOp,
    Var,
)

_INDENT = "    "

#: Binding strength of binary operators, loosest first (mirrors the parser).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<=": 3, ">=": 3, "<": 3, ">": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def format_expr(expr: Expr, parent_precedence: int = 0) -> str:
    """Render one expression as DSL source."""
    if isinstance(expr, Number):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{format_expr(expr.operand, parent_precedence=6)}"
    if isinstance(expr, BinaryOp):
        precedence = _PRECEDENCE.get(expr.op, 3)
        # Relational operators do not chain, so a relational left operand is
        # parenthesised like a right one.
        left = format_expr(expr.left, precedence + 1 if precedence == 3 else precedence)
        right = format_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(expr, MuxExpr):
        name = f"Mux{expr.width}"
        return f"{name}({', '.join(format_expr(sub) for sub in expr.inputs)})"
    if isinstance(expr, OptExpr):
        return f"Opt({format_expr(expr.operand)})"
    if isinstance(expr, ConstExpr):
        return "C()"
    if isinstance(expr, RelOpExpr):
        return f"rel_op({format_expr(expr.left)}, {format_expr(expr.right)})"
    if isinstance(expr, ArithOpExpr):
        return f"arith_op({format_expr(expr.left)}, {format_expr(expr.right)})"
    if isinstance(expr, BoolOpExpr):
        return f"bool_op({format_expr(expr.left)}, {format_expr(expr.right)})"
    raise ALUDSLSemanticError(f"cannot print expression node {type(expr).__name__}")


def format_stmts(stmts: Sequence[Stmt], indent: int = 0) -> List[str]:
    """Render a statement list as DSL source lines."""
    pad = _INDENT * indent
    lines: List[str] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            lines.append(f"{pad}{stmt.target} = {format_expr(stmt.value)};")
        elif isinstance(stmt, Return):
            lines.append(f"{pad}return {format_expr(stmt.value)};")
        elif isinstance(stmt, If):
            for index, (condition, body) in enumerate(stmt.branches):
                keyword = "if" if index == 0 else "elif"
                lines.append(f"{pad}{keyword} ({format_expr(condition)}) {{")
                lines.extend(format_stmts(body, indent + 1))
                lines.append(f"{pad}}}")
            if stmt.orelse:
                lines.append(f"{pad}else {{")
                lines.extend(format_stmts(stmt.orelse, indent + 1))
                lines.append(f"{pad}}}")
        else:  # pragma: no cover - defensive
            raise ALUDSLSemanticError(f"cannot print statement node {type(stmt).__name__}")
    return lines


def format_spec(spec: ALUSpec) -> str:
    """Render a whole ALU specification (header + body) as DSL source text."""
    lines = [
        f"type: {spec.kind}",
        "state variables : {" + ", ".join(spec.state_vars) + "}",
        "hole variables : {" + ", ".join(spec.hole_vars) + "}",
        "packet fields : {" + ", ".join(spec.packet_fields) + "}",
        "",
    ]
    lines.extend(format_stmts(spec.body))
    return "\n".join(lines) + "\n"
