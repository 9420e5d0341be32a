"""Reference interpreter for analysed ALU specifications.

The interpreter executes an :class:`~repro.alu_dsl.ast_nodes.ALUSpec`
directly on concrete operand values, state values and machine-code hole
values.  It defines the *semantics* of an ALU; the code that dgen generates
must agree with it (and the property-based tests assert that it does).

The interpreter intentionally mirrors how the generated code behaves:

* operands are read-only,
* state-variable assignments update the persistent state vector,
* ``return`` terminates the body and yields the ALU output,
* a stateful ALU with no executed ``return`` outputs the value its first
  state variable held *before* the body ran (read-modify-write register
  convention),
* hole values are reduced modulo their domain where a domain exists, so any
  integer machine code is accepted (the paper's machine code values are raw
  unsigned integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence

from ..errors import ALUDSLSemanticError, MissingMachineCodeError
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
    walk_stmt_exprs,
)
from . import semantics


#: Placeholders standing for a primitive's evaluated arguments in its selection.
_ARGS = tuple(
    Var(f"${index}") for index in range(max(p.arity for p in semantics.PRIMITIVES.values()))
)


@lru_cache(maxsize=4096)
def _selection(name: str, opcode: int) -> Expr:
    """What primitive ``name`` computes over :data:`_ARGS` when its hole holds ``opcode``."""
    return semantics.select(name, opcode, _ARGS[: semantics.PRIMITIVES[name].arity])


class _ReturnSignal(Exception):
    """Internal control-flow signal used to implement ``return``."""

    def __init__(self, value: int):
        super().__init__(value)
        self.value = value


@dataclass
class ALUResult:
    """Outcome of executing an ALU once.

    Attributes
    ----------
    output:
        The value forwarded to the stage's output multiplexers.
    state:
        The (possibly updated) state vector, in ``spec.state_vars`` order.
    """

    output: int
    state: List[int]


class ALUInterpreter:
    """Executes one analysed ALU specification.

    Parameters
    ----------
    spec:
        An *analysed* ALU specification (hole names assigned).  Passing an
        un-analysed spec raises :class:`ALUDSLSemanticError`.
    """

    def __init__(self, spec: ALUSpec):
        if not spec.holes and _spec_has_primitives(spec):
            raise ALUDSLSemanticError(
                f"ALU {spec.name!r} has not been analysed; call analysis.analyze() first"
            )
        self.spec = spec

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        operands: Sequence[int],
        state: Sequence[int],
        holes: Mapping[str, int],
    ) -> ALUResult:
        """Run the ALU once.

        Parameters
        ----------
        operands:
            PHV container values, one per declared packet field.
        state:
            Current state-variable values, one per declared state variable
            (ignored / must be empty for stateless ALUs).
        holes:
            Machine-code hole values keyed by the per-ALU hole names from
            ``spec.holes``.  Missing holes raise
            :class:`MissingMachineCodeError` — this is the §5.2 failure class
            "missing machine code pairs".
        """
        spec = self.spec
        if len(operands) != len(spec.packet_fields):
            raise ALUDSLSemanticError(
                f"ALU {spec.name!r} expects {len(spec.packet_fields)} operand(s), "
                f"got {len(operands)}"
            )
        if len(state) != len(spec.state_vars):
            raise ALUDSLSemanticError(
                f"ALU {spec.name!r} expects {len(spec.state_vars)} state value(s), "
                f"got {len(state)}"
            )

        env: Dict[str, int] = {}
        for field_name, value in zip(spec.packet_fields, operands):
            env[field_name] = int(value)
        new_state = [int(value) for value in state]
        state_index = {name: i for i, name in enumerate(spec.state_vars)}
        for name, index in state_index.items():
            env[name] = new_state[index]
        for hole_var in spec.hole_vars:
            env[hole_var] = self._hole(holes, hole_var)

        default_output = new_state[0] if spec.is_stateful and new_state else 0

        try:
            self._exec_stmts(spec.body, env, new_state, state_index, holes)
            output = default_output
        except _ReturnSignal as signal:
            output = signal.value

        return ALUResult(output=output, state=new_state)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _exec_stmts(
        self,
        stmts: Sequence[Stmt],
        env: Dict[str, int],
        state: List[int],
        state_index: Mapping[str, int],
        holes: Mapping[str, int],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                value = self._eval(stmt.value, env, holes)
                env[stmt.target] = value
                if stmt.target in state_index:
                    state[state_index[stmt.target]] = value
            elif isinstance(stmt, Return):
                raise _ReturnSignal(self._eval(stmt.value, env, holes))
            elif isinstance(stmt, If):
                taken = False
                for condition, body in stmt.branches:
                    if self._eval(condition, env, holes):
                        self._exec_stmts(body, env, state, state_index, holes)
                        taken = True
                        break
                if not taken:
                    self._exec_stmts(stmt.orelse, env, state, state_index, holes)
            else:  # pragma: no cover - parser cannot produce other nodes
                raise ALUDSLSemanticError(f"unknown statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, env: Mapping[str, int], holes: Mapping[str, int]) -> int:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise ALUDSLSemanticError(
                    f"ALU {self.spec.name!r}: identifier {expr.name!r} used before assignment"
                ) from None
        if isinstance(expr, UnaryOp):
            return semantics.apply_unary(expr.op, self._eval(expr.operand, env, holes))
        if isinstance(expr, BinaryOp):
            left = self._eval(expr.left, env, holes)
            right = self._eval(expr.right, env, holes)
            return semantics.apply_binary(expr.op, left, right)
        if isinstance(expr, Primitive):
            # Every argument is evaluated, selected or not, so an argument
            # that cannot be evaluated fails whatever the hole value.
            opcode = self._hole(holes, expr.hole_name)
            args = {arg.name: self._eval(sub, env, holes) for arg, sub in zip(_ARGS, expr.args)}
            return self._eval(_selection(expr.name, opcode), args, holes)
        raise ALUDSLSemanticError(f"unknown expression {type(expr).__name__}")

    def _hole(self, holes: Mapping[str, int], name: str | None) -> int:
        if name is None:
            raise ALUDSLSemanticError(
                f"ALU {self.spec.name!r} contains an unnamed hole; run analysis first"
            )
        try:
            return int(holes[name])
        except KeyError:
            raise MissingMachineCodeError(name) from None


def _spec_has_primitives(spec: ALUSpec) -> bool:
    """True when the body contains any hole-controlled primitive call."""
    return any(isinstance(sub, Primitive) for sub in walk_stmt_exprs(spec.body))
