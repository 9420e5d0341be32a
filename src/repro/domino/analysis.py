"""Semantic analysis for Domino programs.

Fills in the packet-field usage sets, checks that every referenced name is a
declared state variable, a packet field or a previously assigned
transaction-local temporary, and rejects programs that read a temporary
before writing it.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..alu_dsl.ast_nodes import Expr, If, Stmt
from ..errors import DominoSemanticError
from .ast_nodes import DAssign, DFieldRef, DominoProgram, DStateRef, walk_dexpr


def analyze(program: DominoProgram) -> DominoProgram:
    """Validate ``program`` in place and return it with field usage populated."""
    state_names = set(program.state_names)
    if len(state_names) != len(program.state_decls):
        raise DominoSemanticError(f"program {program.name!r}: duplicate state declarations")

    fields_read: List[str] = []
    fields_written: List[str] = []
    locals_defined: Set[str] = set()

    def check(stmts: Sequence[Stmt], local: Set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, DAssign):
                _collect_stmt_reads(stmt.value, local)
                if stmt.is_field:
                    if stmt.target not in fields_written:
                        fields_written.append(stmt.target)
                else:
                    if stmt.target not in state_names:
                        local.add(stmt.target)
                        locals_defined.add(stmt.target)
            elif isinstance(stmt, If):
                for condition, body in stmt.branches:
                    _collect_stmt_reads(condition, local)
                    check(body, set(local))
                check(stmt.orelse, set(local))
            else:  # pragma: no cover - defensive
                raise DominoSemanticError(f"unknown statement {type(stmt).__name__}")

    def _collect_stmt_reads(expr: Expr, local: Set[str]) -> None:
        nodes = walk_dexpr(expr)
        for node in nodes:
            if isinstance(node, DFieldRef) and node.name not in fields_read:
                fields_read.append(node.name)
        unknown = {node.name for node in nodes if isinstance(node, DStateRef)} - state_names - local
        if unknown:
            raise DominoSemanticError(
                f"program {program.name!r}: undeclared identifier(s) {sorted(unknown)} "
                "(state variables must be declared with 'state', packet fields accessed as 'pkt.<name>')"
            )

    check(program.body, set())

    program.packet_fields_read = fields_read
    program.packet_fields_written = fields_written
    return program


def parse_and_analyze(source: str) -> DominoProgram:
    """Parse and validate Domino ``source`` in one step."""
    from .parser import parse

    return analyze(parse(source))
