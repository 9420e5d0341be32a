"""Dead-assignment elimination for ALU DSL statement lists.

The SCC-propagation pass turns some ``if`` conditions into literal constants
and prunes the branches that can never execute — "dead code elimination from
unused control paths" (paper §3.4).  That can leave a local nothing reads;
this module drops assignments to local variables that are never
subsequently read.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ...alu_dsl.ast_nodes import Assign, Stmt, Var, walk_stmt_exprs


def _stmts_reads(stmts: Sequence[Stmt]) -> Set[str]:
    return {expr.name for expr in walk_stmt_exprs(stmts) if isinstance(expr, Var)}


def remove_dead_local_assignments(stmts: Sequence[Stmt], protected: Set[str]) -> List[Stmt]:
    """Drop top-level assignments to locals that nothing later reads.

    ``protected`` names (state variables) are never removed because their
    assignment is itself the ALU's externally visible effect.  Only
    straight-line, top-level assignments are considered — assignments inside
    ``if`` bodies are conservatively kept.
    """
    kept: List[Stmt] = []
    for index, stmt in enumerate(stmts):
        if isinstance(stmt, Assign) and stmt.target not in protected:
            later = _stmts_reads(stmts[index + 1 :])
            if stmt.target not in later:
                continue
        kept.append(stmt)
    return kept
