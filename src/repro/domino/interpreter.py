"""Reference interpreter for Domino programs.

Executing a Domino program per packet is how the reproduction obtains an
executable high-level specification from the same artefact a compiler
consumes — the "program spec" box of Figure 5.  The interpreter operates on a
packet dictionary (field name → value) and a persistent state dictionary and
mirrors Domino's atomic per-packet transaction semantics.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, MutableMapping, Sequence

from ..alu_dsl.ast_nodes import BinaryOp, Expr, If, Number, Stmt, UnaryOp
from ..alu_dsl.semantics import apply_binary, apply_unary
from ..errors import DominoSemanticError
from .ast_nodes import DAssign, DFieldRef, DominoProgram, DStateRef, DTernary


class DominoInterpreter:
    """Executes a Domino program one packet at a time."""

    def __init__(self, program: DominoProgram):
        self.program = program

    def initial_state(self) -> Dict[str, int]:
        """Fresh state dictionary from the program's ``state`` declarations."""
        return self.program.initial_state()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, packet: Mapping[str, int], state: MutableMapping[str, int]) -> Dict[str, int]:
        """Run the transaction on one packet.

        ``packet`` supplies the input field values; ``state`` is mutated in
        place.  The returned dictionary holds the packet's field values after
        the transaction (input fields unchanged unless assigned).
        """
        fields: Dict[str, int] = {name: int(value) for name, value in packet.items()}
        locals_env: Dict[str, int] = {}
        self._exec_stmts(self.program.body, fields, state, locals_env)
        return fields

    def run_trace(
        self, packets: Sequence[Mapping[str, int]], state: MutableMapping[str, int] | None = None
    ) -> List[Dict[str, int]]:
        """Execute a whole packet trace, returning the per-packet output fields."""
        if state is None:
            state = self.initial_state()
        return [self.execute(packet, state) for packet in packets]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _exec_stmts(
        self,
        stmts: Sequence[Stmt],
        fields: Dict[str, int],
        state: MutableMapping[str, int],
        locals_env: Dict[str, int],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, DAssign):
                value = self._eval(stmt.value, fields, state, locals_env)
                if stmt.is_field:
                    fields[stmt.target] = value
                elif stmt.target in state:
                    state[stmt.target] = value
                else:
                    locals_env[stmt.target] = value
            elif isinstance(stmt, If):
                taken = False
                for condition, body in stmt.branches:
                    if self._eval(condition, fields, state, locals_env):
                        self._exec_stmts(body, fields, state, locals_env)
                        taken = True
                        break
                if not taken:
                    self._exec_stmts(stmt.orelse, fields, state, locals_env)
            else:  # pragma: no cover - defensive
                raise DominoSemanticError(f"unknown statement {type(stmt).__name__}")

    def _eval(
        self,
        expr: Expr,
        fields: Mapping[str, int],
        state: Mapping[str, int],
        locals_env: Mapping[str, int],
    ) -> int:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, DFieldRef):
            return int(fields.get(expr.name, 0))
        if isinstance(expr, DStateRef):
            if expr.name in state:
                return int(state[expr.name])
            if expr.name in locals_env:
                return int(locals_env[expr.name])
            raise DominoSemanticError(
                f"identifier {expr.name!r} read before assignment in program {self.program.name!r}"
            )
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, self._eval(expr.operand, fields, state, locals_env))
        if isinstance(expr, BinaryOp):
            left = self._eval(expr.left, fields, state, locals_env)
            right = self._eval(expr.right, fields, state, locals_env)
            return apply_binary(expr.op, left, right)
        if isinstance(expr, DTernary):
            if self._eval(expr.condition, fields, state, locals_env):
                return self._eval(expr.if_true, fields, state, locals_env)
            return self._eval(expr.if_false, fields, state, locals_env)
        raise DominoSemanticError(f"unknown expression {type(expr).__name__}")
