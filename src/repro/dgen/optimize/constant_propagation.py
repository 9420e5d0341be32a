"""Sparse conditional constant (SCC) propagation for ALU specifications.

This pass implements the first dgen optimisation of the paper (§3.4):

    "providing the machine code pairs during pipeline generation enables a
    global static mapping of names to values [...] We do this by replacing
    machine code variable occurrences with their corresponding integer
    values.  Then we use constant folding by evaluating constant expressions
    which allows us to determine the results of conditional statements.  This
    results in dead code elimination from unused control paths and solely
    emitting single simplified expressions in place of the previous function
    bodies."

:func:`specialize_expr` / :func:`specialize_stmts` fully substitute hole
values into an expression or statement list, producing an equivalent AST
with no hole-controlled primitives left: each call site becomes the
expression :func:`repro.alu_dsl.semantics.select` resolves it to, so the
primitive's operands are inlined into that expression.  Together with
constant folding and dead-branch elimination this is the fully-specialised
form used by the version-3 (inlined) code.  :func:`specialize_stmts` also
substitutes a variable bound to a literal into the code after it, drops
self-assignments and replaces an ``if`` whose arms all do what its ``else``
does by that ``else``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ...alu_dsl import semantics
from ...alu_dsl.ast_nodes import (
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
    walk_stmts,
)
from ...errors import CodegenError, MissingMachineCodeError
from .dce import remove_dead_local_assignments
from .folding import fold_expr


def _hole_value(holes: Mapping[str, int], name: str | None) -> int:
    if name is None:
        raise CodegenError("primitive call site has no hole name; run ALU DSL analysis first")
    try:
        return int(holes[name])
    except KeyError:
        raise MissingMachineCodeError(name) from None


# ----------------------------------------------------------------------
# Full specialisation (inlined granularity, Figure 6 v3)
# ----------------------------------------------------------------------
def specialize_expr(
    expr: Expr,
    holes: Mapping[str, int],
    hole_var_names: Sequence[str] = (),
    constants: Optional[Mapping[str, Number]] = None,
) -> Expr:
    """Substitute hole values into ``expr`` and fold the result.

    Every hole-controlled primitive is replaced by the concrete behaviour its
    machine-code value selects, references to declared hole variables and
    to the variables in ``constants`` become literal numbers, and constant
    folding is applied bottom-up.
    """
    specialized = _specialize(expr, holes, set(hole_var_names), constants or {})
    return fold_expr(specialized)


def _specialize(
    expr: Expr, holes: Mapping[str, int], hole_vars: set, constants: Mapping[str, Number]
) -> Expr:
    if isinstance(expr, Number):
        return expr
    if isinstance(expr, Var):
        if expr.name in hole_vars:
            return Number(_hole_value(holes, expr.name))
        return constants.get(expr.name, expr)
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _specialize(expr.operand, holes, hole_vars, constants))
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _specialize(expr.left, holes, hole_vars, constants),
            _specialize(expr.right, holes, hole_vars, constants),
        )
    if isinstance(expr, Primitive):
        selected = semantics.select(expr.name, _hole_value(holes, expr.hole_name), expr.args)
        return _specialize(selected, holes, hole_vars, constants)
    raise CodegenError(f"unknown expression node {type(expr).__name__}")


def specialize_stmts(
    stmts: Sequence[Stmt],
    holes: Mapping[str, int],
    hole_var_names: Sequence[str] = (),
    constants: Optional[Dict[str, Number]] = None,
) -> List[Stmt]:
    """Specialise a statement list: substitute holes, fold, prune dead branches.

    The folding carries on through the variables the statements assign.  One
    bound to a literal is substituted into the straight-line code after it:
    ``constants`` holds those known before ``stmts`` and is updated to those
    known after them.  A self-assignment (the "unchanged" arm an ``Opt`` or
    ``Mux`` leaves behind) is dropped, and so is a trailing ``elif`` arm, or
    every arm, equal to the ``else``: conditions are pure, so only the
    statements that run matter.
    """
    if constants is None:
        constants = {}
    result: List[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            value = specialize_expr(stmt.value, holes, hole_var_names, constants)
            constants.pop(stmt.target, None)
            if value == Var(stmt.target):
                continue
            if isinstance(value, Number):
                constants[stmt.target] = value
            result.append(Assign(stmt.target, value))
        elif isinstance(stmt, Return):
            result.append(Return(specialize_expr(stmt.value, holes, hole_var_names, constants)))
        elif isinstance(stmt, If):
            branches = []
            orelse: Sequence[Stmt] = stmt.orelse
            for condition, body in stmt.branches:
                condition = specialize_expr(condition, holes, hole_var_names, constants)
                if not isinstance(condition, Number):
                    branches.append((condition, body))
                elif condition.value:  # always runs once reached: the chain ends here
                    orelse = body
                    break
            after_orelse = dict(constants)
            orelse = specialize_stmts(orelse, holes, hole_var_names, after_orelse)
            arms = [
                (condition, tuple(specialize_stmts(body, holes, hole_var_names, dict(constants))))
                for condition, body in branches
            ]
            while arms and list(arms[-1][1]) == orelse:
                arms.pop()
            if arms:
                result.append(If(tuple(arms), tuple(orelse)))
                for inner in walk_stmts(result[-1:]):
                    if isinstance(inner, Assign):
                        constants.pop(inner.target, None)
            else:
                result.extend(orelse)
                constants.clear()
                constants.update(after_orelse)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"unknown statement node {type(stmt).__name__}")
    return result


def specialize_spec(spec: ALUSpec, holes: Mapping[str, int]) -> ALUSpec:
    """Return a fully specialised copy of ``spec`` for the given hole values.

    The returned spec contains no hole-controlled primitives and no hole
    variables; its behaviour under the reference interpreter (with an empty
    hole mapping) is identical to the original spec's behaviour under
    ``holes``.  Assignments to local variables that become dead after
    specialisation are removed.
    """
    body = specialize_stmts(spec.body, holes, spec.hole_vars)
    body = remove_dead_local_assignments(body, protected=set(spec.state_vars))
    return ALUSpec(
        name=spec.name,
        kind=spec.kind,
        state_vars=list(spec.state_vars),
        hole_vars=[],
        packet_fields=list(spec.packet_fields),
        body=body,
        holes=[],
        hole_domains={},
        source=spec.source,
    )
