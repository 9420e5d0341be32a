"""ALU domain-specific language (paper §3.1, Figures 3 and 4).

The ALU DSL expresses the capabilities of a single switch ALU: its PHV
operands, its state variables, any extra hole variables, and a body of
statements over machine-code-controlled primitives (``Mux2``, ``Mux3``,
``Mux4``, ``Opt``, ``C``, ``rel_op``, ``arith_op``, ``bool_op``; see
:data:`repro.alu_dsl.semantics.PRIMITIVES`).

Typical use::

    from repro.alu_dsl import parse_and_analyze, ALUInterpreter

    spec = parse_and_analyze(source_text, name="if_else_raw")
    result = ALUInterpreter(spec).execute(operands=[3, 7], state=[0],
                                          holes={"rel_op_0": 0, ...})
"""

from .analysis import analyze, parse_and_analyze
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
)
from .grammar import EBNF, describe
from .interpreter import ALUInterpreter, ALUResult
from .lexer import tokenize
from .parser import Parser, parse
from .printer import format_expr, format_spec, format_stmts

__all__ = [
    "ALUSpec",
    "ALUInterpreter",
    "ALUResult",
    "Parser",
    "parse",
    "tokenize",
    "analyze",
    "parse_and_analyze",
    "EBNF",
    "describe",
    "format_expr",
    "format_stmts",
    "format_spec",
    "Expr",
    "Stmt",
    "Number",
    "Var",
    "UnaryOp",
    "BinaryOp",
    "Primitive",
    "Assign",
    "Return",
    "If",
]
