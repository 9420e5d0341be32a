"""Machine-readable description of the ALU DSL grammar (paper Figure 3).

This module exposes the grammar as an EBNF string plus small helper queries
used by documentation, the CLI (``druzhba-dgen --grammar``) and tests that
check the parser actually accepts everything the grammar promises.
"""

from __future__ import annotations

from .semantics import PRIMITIVES, PrimitiveDef


def _call_form(row: PrimitiveDef) -> str:
    """The EBNF alternative of one primitive call, e.g. ``"Opt" "(" expr ")"``."""
    args = ' "," '.join(["expr"] * row.arity)
    return " ".join(filter(None, [f'"{row.name}" "("', args, '")"']))

#: EBNF of the ALU DSL accepted by :mod:`repro.alu_dsl.parser`.
EBNF = """
alu            := header body
header         := declaration+
declaration    := "type" ":" ("stateful" | "stateless")
                | "state" "variables" ":" "{" ident_list? "}"
                | "hole" "variables" ":" "{" ident_list? "}"
                | "packet" "fields" ":" "{" ident_list? "}"
ident_list     := IDENT ("," IDENT)*
body           := stmt*
stmt           := if_stmt | return_stmt | assign_stmt
if_stmt        := "if" "(" expr ")" block ("elif" "(" expr ")" block)* ("else" block)?
block          := "{" stmt* "}"
return_stmt    := "return" expr ";"
assign_stmt    := IDENT "=" expr ";"
expr           := or_expr
or_expr        := and_expr ("||" and_expr)*
and_expr       := rel_expr ("&&" rel_expr)*
rel_expr       := add_expr (("==" | "!=" | "<=" | ">=" | "<" | ">") add_expr)?
add_expr       := mul_expr (("+" | "-") mul_expr)*
mul_expr       := unary_expr (("*" | "/" | "%") unary_expr)*
unary_expr     := ("-" | "!") unary_expr | primary
primary        := NUMBER | primitive_call | IDENT | "(" expr ")"
primitive_call := """ + "\n                | ".join(map(_call_form, PRIMITIVES.values())) + "\n"


def primitive_names() -> list[str]:
    """Names of every hole-controlled primitive call form."""
    return sorted(PRIMITIVES)


def describe() -> str:
    """Return a formatted grammar + primitive reference used by the CLI."""
    lines = ["ALU DSL grammar (EBNF)", "=" * 22, EBNF.strip(), "", "Primitives", "-" * 10]
    for name in primitive_names():
        lines.append(f"{name:10s} {PRIMITIVES[name].summary}")
    return "\n".join(lines)
