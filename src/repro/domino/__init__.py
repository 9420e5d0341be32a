"""Domino-like packet-transaction frontend (the high-level language of Figure 1).

Parse packet-transaction programs, execute them per packet with the reference
interpreter, and adapt them into pipeline-testing specifications.  The
frontend shares the ALU DSL's scanner, parser core, expression nodes and
operator semantics (:mod:`repro.alu_dsl`); only Domino's own forms live here.
"""

from .analysis import analyze, parse_and_analyze
from .ast_nodes import DAssign, DFieldRef, DominoProgram, DStateRef, DTernary, StateDecl
from .interpreter import DominoInterpreter
from .lexer import tokenize
from .parser import DominoParser, parse
from .spec_adapter import DominoSpecification, PacketLayout

__all__ = [
    "DominoProgram",
    "DominoInterpreter",
    "DominoSpecification",
    "PacketLayout",
    "DominoParser",
    "parse",
    "tokenize",
    "analyze",
    "parse_and_analyze",
    "StateDecl",
    "DFieldRef",
    "DStateRef",
    "DTernary",
    "DAssign",
]
