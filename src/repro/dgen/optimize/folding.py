"""Constant folding over ALU DSL expressions.

Folding is the second half of sparse conditional constant propagation
(paper §3.4): after machine-code values have been substituted for hole
references, any sub-expression whose operands are all constants is evaluated
at generation time.  Folding is what turns the conditions of ``if``
statements into literal 0/1 values that the dead-code-elimination pass can
then prune.
"""

from __future__ import annotations

from ...alu_dsl import semantics
from ...alu_dsl.ast_nodes import BinaryOp, Expr, Number, UnaryOp


def fold_expr(expr: Expr) -> Expr:
    """Recursively fold constant sub-expressions of ``expr``.

    Only pure literal operators (``BinaryOp`` / ``UnaryOp`` / ``Number``) are
    folded; hole-controlled primitives must be specialised away first by the
    constant-propagation pass.  Non-constant sub-expressions are preserved
    untouched, so folding is always safe to apply.
    """
    if isinstance(expr, UnaryOp):
        operand = fold_expr(expr.operand)
        if isinstance(operand, Number):
            return Number(semantics.apply_unary(expr.op, operand.value))
        return UnaryOp(expr.op, operand)
    if isinstance(expr, BinaryOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if isinstance(left, Number) and isinstance(right, Number):
            return Number(semantics.apply_binary(expr.op, left.value, right.value))
        folded = BinaryOp(expr.op, left, right)
        return _fold_algebraic_identities(folded)
    return expr


def _fold_algebraic_identities(expr: BinaryOp) -> Expr:
    """Simplify a handful of safe algebraic identities.

    Only identities that hold for all integers are applied (``x + 0``,
    ``0 + x``, ``x - 0``, ``x * 1``, ``1 * x``, ``x * 0``, ``0 * x``, and
    ``&&``/``||`` with a literal that decides them: ``x && 0`` is 0 and
    ``x || 5`` is 1, since a DSL expression has no side effect to skip); they
    commonly appear after ``Opt`` holes resolve to the constant 0.
    """
    left, right = expr.left, expr.right
    if expr.op == "+":
        if isinstance(left, Number) and left.value == 0:
            return right
        if isinstance(right, Number) and right.value == 0:
            return left
    elif expr.op == "-":
        if isinstance(right, Number) and right.value == 0:
            return left
    elif expr.op == "*":
        if isinstance(left, Number) and left.value == 1:
            return right
        if isinstance(right, Number) and right.value == 1:
            return left
        if (isinstance(left, Number) and left.value == 0) or (
            isinstance(right, Number) and right.value == 0
        ):
            return Number(0)
    elif expr.op in ("&&", "||"):
        decider = expr.op == "||"  # the truth value that decides the operator
        for operand in (left, right):
            if isinstance(operand, Number) and bool(operand.value) == decider:
                return Number(int(decider))
    return expr
