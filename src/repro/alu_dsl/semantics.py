"""Shared operational semantics of the ALU DSL.

Both the reference interpreter (:mod:`repro.alu_dsl.interpreter`) and the
code generator (:mod:`repro.dgen.codegen`) derive their behaviour from the
tables in this module, which keeps the two execution paths in agreement by
construction.  The property-based tests in
``tests/test_equivalence_property.py`` additionally check the agreement
empirically.

:data:`BINARY_OPS` and :data:`UNARY_OPS` give each literal operator its
emitted Python template and its interpreter function.  :data:`PRIMITIVES`
gives each hole-controlled primitive its one row: arity, hole-name prefix,
domain and :func:`select`, which resolves a call site with a known hole
value to the plain expression it stands for.  The parser, semantic
analysis, the grammar text, the interpreter and dgen read every fact about
a primitive from that row.

All arithmetic is ordinary Python integer arithmetic.  Division by zero and
modulo by zero are defined to return 0 (a switch ALU never traps), and
relational/logical results are the integers 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .ast_nodes import BinaryOp, Expr, Number

# ----------------------------------------------------------------------
# Operator tables.  Each entry is (python_expression_template, function).
# The template uses {a} and {b} placeholders and is what dgen emits; the
# function is what the interpreter calls.  Keeping them adjacent makes a
# mismatch easy to spot and easy to test.
# ----------------------------------------------------------------------

#: Binary operators of DSL source, and the ones hole-controlled operators select.
BINARY_OPS: Dict[str, Tuple[str, Callable[[int, int], int]]] = {
    "+": ("(({a}) + ({b}))", lambda a, b: a + b),
    "-": ("(({a}) - ({b}))", lambda a, b: a - b),
    "*": ("(({a}) * ({b}))", lambda a, b: a * b),
    "/": ("(({a}) // ({b}) if ({b}) != 0 else 0)", lambda a, b: a // b if b != 0 else 0),
    "%": ("(({a}) % ({b}) if ({b}) != 0 else 0)", lambda a, b: a % b if b != 0 else 0),
    "==": ("int(({a}) == ({b}))", lambda a, b: int(a == b)),
    "!=": ("int(({a}) != ({b}))", lambda a, b: int(a != b)),
    "<=": ("int(({a}) <= ({b}))", lambda a, b: int(a <= b)),
    ">=": ("int(({a}) >= ({b}))", lambda a, b: int(a >= b)),
    "<": ("int(({a}) < ({b}))", lambda a, b: int(a < b)),
    ">": ("int(({a}) > ({b}))", lambda a, b: int(a > b)),
    "&&": ("int(bool({a}) and bool({b}))", lambda a, b: int(bool(a) and bool(b))),
    "||": ("int(bool({a}) or bool({b}))", lambda a, b: int(bool(a) or bool(b))),
}

#: Unary operators appearing literally in DSL source.
UNARY_OPS: Dict[str, Tuple[str, Callable[[int], int]]] = {
    "-": ("(-({a}))", lambda a: -a),
    "!": ("int(not ({a}))", lambda a: int(not a)),
}


def apply_binary(op: str, a: int, b: int) -> int:
    """Apply a literal DSL binary operator ``op`` to integer operands."""
    return BINARY_OPS[op][1](a, b)


def apply_unary(op: str, a: int) -> int:
    """Apply a literal DSL unary operator ``op`` to an integer operand."""
    return UNARY_OPS[op][1](a)


# ----------------------------------------------------------------------
# Hole-controlled primitives
# ----------------------------------------------------------------------

#: Domain of a hole that takes any unsigned integer (``C()`` and declared
#: hole variables).
UNBOUNDED = 0


@dataclass(frozen=True)
class PrimitiveDef:
    """Everything the library knows about one hole-controlled primitive.

    ``name(args)`` is the call form, with ``arity`` arguments.  Analysis
    names each call site's hole ``{hole_prefix}_{index}`` and gives it
    ``domain`` admissible values (:data:`UNBOUNDED` for ``C``).  ``choose``
    maps a hole value below the domain and the argument expressions to the
    expression the site computes.  ``symbols`` lists the :data:`BINARY_OPS`
    operators an operator primitive chooses among, in opcode order.
    """

    name: str
    arity: int
    hole_prefix: str
    domain: int
    summary: str
    choose: Callable[[int, Sequence[Expr]], Expr]
    symbols: Tuple[str, ...] = ()


def _mux(width: int) -> PrimitiveDef:
    return PrimitiveDef(
        f"Mux{width}", width, f"mux{width}", width,
        f"{width}-to-1 multiplexer; machine code selects which input is forwarded",
        lambda value, args: args[value],
    )


def _operator(name: str, kind: str, symbols: Tuple[str, ...]) -> PrimitiveDef:
    return PrimitiveDef(
        name, 2, name, len(symbols),
        f"machine-code-selected {kind} operator ({len(symbols)} choices: {', '.join(symbols)})",
        lambda value, args: BinaryOp(symbols[value], args[0], args[1]),
        symbols,
    )


#: Every hole-controlled primitive call form, keyed by name, in grammar order.
PRIMITIVES: Dict[str, PrimitiveDef] = {
    row.name: row
    for row in (
        _mux(2),
        _mux(3),
        _mux(4),
        PrimitiveDef(
            "Opt", 1, "opt", 2, "2-to-1 multiplexer returning its argument or the constant 0",
            lambda value, args: args[0] if value == 0 else Number(0),
        ),
        PrimitiveDef(
            "C", 0, "const", UNBOUNDED, "immediate operand supplied by machine code",
            lambda value, args: Number(value),
        ),
        _operator("rel_op", "relational", ("==", "<", ">", "!=", "<=", ">=")),
        _operator("arith_op", "arithmetic", ("+", "-", "*", "/")),
        _operator("bool_op", "logical", ("&&", "||")),
    )
}


def select(name: str, value: int, args: Sequence[Expr]) -> Expr:
    """The expression primitive ``name`` computes over ``args`` when its hole holds ``value``.

    ``value`` is reduced modulo the primitive's domain, so any integer
    machine code is accepted.  ``Mux`` returns one of ``args``, ``Opt`` its
    argument or ``Number(0)``, ``C`` the literal ``Number(value)``, and an
    operator primitive the :class:`BinaryOp` of the operator ``value``
    selects.
    """
    row = PRIMITIVES[name]
    return row.choose(value % row.domain if row.domain != UNBOUNDED else value, args)
