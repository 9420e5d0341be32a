"""Grid allocation: building machine code by placing operations onto the pipeline.

This module is the reproduction's *rule-based* compiler backend.  It exposes a
:class:`MachineCodeBuilder` that starts from the all-pass-through baseline and
lets a caller (a compiler, the benchmark-program suite, or a test) place
concrete behaviour onto individual ALUs, wire input multiplexers to PHV
containers and route ALU outputs to containers.  Each ``configure_*`` helper
knows the hole layout of one catalogue atom (:mod:`repro.atoms`) and converts
programmer intent ("if state < pkt then state = state + 1") into the raw
machine-code integers the atom's holes expect — exactly the translation a
compiler backend targeting Druzhba performs.

Operand sources are written as small tuples:

* ``("pkt", i)`` — the ALU's i-th operand (whatever container its input mux
  selects);
* ``("const", v)`` — an immediate with value ``v``;
* for pair-atom state selectors, ``("state", i)`` — the i-th state variable.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..alu_dsl import semantics
from ..errors import AllocationError
from ..hardware import PipelineSpec
from ..machine_code import naming
from ..machine_code.pairs import MachineCode

Source = Tuple[str, int]


def _opcode(primitive: str, symbol: str) -> int:
    """The value of an operator ``primitive``'s hole that selects ``symbol``."""
    symbols = semantics.PRIMITIVES[primitive].symbols
    if symbol not in symbols:
        raise AllocationError(
            f"unknown {primitive} operator {symbol!r}; choose from {list(symbols)}"
        )
    return symbols.index(symbol)


def _check_source(source: Source, allowed: Sequence[str]) -> Source:
    if (
        not isinstance(source, tuple)
        or len(source) != 2
        or source[0] not in allowed
        or not isinstance(source[1], int)
    ):
        raise AllocationError(
            f"operand source must be a (kind, value) tuple with kind in {list(allowed)}, got {source!r}"
        )
    return source


class MachineCodeBuilder:
    """Accumulates machine-code pairs for one pipeline configuration.

    The builder starts from :meth:`PipelineSpec.passthrough_machine_code`, so
    anything not explicitly configured behaves as a no-op and the resulting
    machine code is always complete (no missing pairs).
    """

    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self._pairs: Dict[str, int] = spec.passthrough_machine_code().as_dict()

    # ------------------------------------------------------------------
    # Raw primitives
    # ------------------------------------------------------------------
    def set_hole(self, stage: int, kind: str, slot: int, hole: str, value: int) -> "MachineCodeBuilder":
        """Set one ALU hole's machine-code value."""
        name = naming.alu_hole_name(stage, kind, slot, hole)
        if name not in self._pairs:
            raise AllocationError(f"pipeline has no machine-code pair named {name!r}")
        self._pairs[name] = int(value)
        return self

    def input_mux(
        self, stage: int, kind: str, slot: int, operand: int, container: int
    ) -> "MachineCodeBuilder":
        """Wire one ALU operand's input multiplexer to a PHV container."""
        if container < 0 or container >= self.spec.width:
            raise AllocationError(
                f"container {container} out of range for width {self.spec.width}"
            )
        name = naming.input_mux_name(stage, kind, slot, operand)
        if name not in self._pairs:
            raise AllocationError(f"pipeline has no machine-code pair named {name!r}")
        self._pairs[name] = container
        return self

    def route_output(
        self,
        stage: int,
        container: int,
        kind: Optional[str] = None,
        slot: Optional[int] = None,
    ) -> "MachineCodeBuilder":
        """Select what a PHV container receives at the end of a stage.

        With ``kind``/``slot`` given, the container receives that ALU's
        output; with both omitted the container passes through unchanged.
        """
        name = naming.output_mux_name(stage, container)
        if name not in self._pairs:
            raise AllocationError(f"pipeline has no machine-code pair named {name!r}")
        if kind is None:
            self._pairs[name] = self.spec.passthrough_value
        else:
            if slot is None:
                raise AllocationError("route_output needs a slot when kind is given")
            self._pairs[name] = self.spec.output_mux_value_for(kind, slot)
        return self

    def set_inputs(
        self, stage: int, kind: str, slot: int, containers: Sequence[int]
    ) -> "MachineCodeBuilder":
        """Wire all of an ALU's operands at once (operand i ← containers[i])."""
        for operand, container in enumerate(containers):
            self.input_mux(stage, kind, slot, operand, container)
        return self

    def build(self) -> MachineCode:
        """Return the accumulated machine code."""
        return MachineCode(self._pairs)

    # ------------------------------------------------------------------
    # Shared atom-building blocks
    # ------------------------------------------------------------------
    def _mux3_source(
        self, stage: int, kind: str, slot: int, mux_hole: str, const_hole: str, source: Source
    ) -> None:
        """Program a ``Mux3(pkt_0, pkt_1, C())`` site from a source tuple."""
        kind_name, value = _check_source(source, ("pkt", "const"))
        if kind_name == "pkt":
            if value not in (0, 1):
                raise AllocationError("('pkt', i) operands must use operand index 0 or 1")
            self.set_hole(stage, kind, slot, mux_hole, value)
        else:
            self.set_hole(stage, kind, slot, mux_hole, 2)
            self.set_hole(stage, kind, slot, const_hole, value)

    def _opt_state(self, stage: int, kind: str, slot: int, opt_hole: str, use_state: bool) -> None:
        """Program an ``Opt(state_0)`` site: keep the state value or force 0."""
        self.set_hole(stage, kind, slot, opt_hole, 0 if use_state else 1)

    # ------------------------------------------------------------------
    # Stateless atoms
    # ------------------------------------------------------------------
    def configure_stateless_full(
        self,
        stage: int,
        slot: int,
        mode: str,
        op: str,
        a: Source,
        b: Source,
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program a ``stateless_full`` ALU.

        ``mode`` selects the arithmetic path (``"arith"``) or the comparison
        path (``"rel"``); ``op`` is the operator symbol; ``a`` and ``b`` are
        the operand sources.  ``input_containers`` wires the ALU's two input
        multiplexers (defaults to containers 0 and 1 clipped to the width).
        """
        kind = naming.STATELESS
        if input_containers is None:
            input_containers = [0, min(1, self.spec.width - 1)]
        self.set_inputs(stage, kind, slot, input_containers)
        if mode == "arith":
            self._mux3_source(stage, kind, slot, "mux3_0", "const_0", a)
            self._mux3_source(stage, kind, slot, "mux3_1", "const_1", b)
            self.set_hole(stage, kind, slot, "arith_op_0", _opcode("arith_op", op))
            self.set_hole(stage, kind, slot, "mux2_0", 0)
        elif mode == "rel":
            self._mux3_source(stage, kind, slot, "mux3_2", "const_2", a)
            self._mux3_source(stage, kind, slot, "mux3_3", "const_3", b)
            self.set_hole(stage, kind, slot, "rel_op_0", _opcode("rel_op", op))
            self.set_hole(stage, kind, slot, "mux2_0", 1)
        else:
            raise AllocationError(f"stateless_full mode must be 'arith' or 'rel', got {mode!r}")
        return self

    # ------------------------------------------------------------------
    # Stateful atoms
    # ------------------------------------------------------------------
    def configure_raw(
        self,
        stage: int,
        slot: int,
        use_state: bool,
        rhs: Source,
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program a ``raw`` atom: ``state_0 = (state_0 | 0) + rhs``."""
        kind = naming.STATEFUL
        self._default_inputs(stage, slot, input_containers)
        self._opt_state(stage, kind, slot, "opt_0", use_state)
        self._mux3_source(stage, kind, slot, "mux3_0", "const_0", rhs)
        return self

    def configure_if_else_raw(
        self,
        stage: int,
        slot: int,
        cond: Tuple[str, bool, Source],
        then: Tuple[bool, Source],
        els: Tuple[bool, Source],
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program an ``if_else_raw`` atom (paper Figure 4).

        ``cond`` is ``(rel_symbol, use_state, rhs)`` meaning
        ``(state_0 if use_state else 0) rel rhs``; ``then``/``els`` are
        ``(use_state, rhs)`` meaning ``state_0 = (state_0 if use_state else 0) + rhs``.
        """
        kind = naming.STATEFUL
        self._default_inputs(stage, slot, input_containers)
        rel_symbol, cond_use_state, cond_rhs = cond
        self._opt_state(stage, kind, slot, "opt_0", cond_use_state)
        self._mux3_source(stage, kind, slot, "mux3_0", "const_0", cond_rhs)
        self.set_hole(stage, kind, slot, "rel_op_0", _opcode("rel_op", rel_symbol))
        then_use_state, then_rhs = then
        self._opt_state(stage, kind, slot, "opt_1", then_use_state)
        self._mux3_source(stage, kind, slot, "mux3_1", "const_1", then_rhs)
        else_use_state, else_rhs = els
        self._opt_state(stage, kind, slot, "opt_2", else_use_state)
        self._mux3_source(stage, kind, slot, "mux3_2", "const_2", else_rhs)
        return self

    def configure_pred_raw(
        self,
        stage: int,
        slot: int,
        cond: Tuple[str, bool, Source],
        update: Tuple[str, bool, Source],
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program a ``pred_raw`` atom: ``if (cond) state_0 = (state_0|0) op rhs``.

        ``cond`` is ``(rel_symbol, use_state, rhs)`` and ``update`` is
        ``(arith_symbol, use_state, rhs)``.
        """
        kind = naming.STATEFUL
        self._default_inputs(stage, slot, input_containers)
        rel_symbol, cond_use_state, cond_rhs = cond
        self._opt_state(stage, kind, slot, "opt_0", cond_use_state)
        self._mux3_source(stage, kind, slot, "mux3_0", "const_0", cond_rhs)
        self.set_hole(stage, kind, slot, "rel_op_0", _opcode("rel_op", rel_symbol))
        op_symbol, update_use_state, update_rhs = update
        self._opt_state(stage, kind, slot, "opt_1", update_use_state)
        self._mux3_source(stage, kind, slot, "mux3_1", "const_1", update_rhs)
        self.set_hole(stage, kind, slot, "arith_op_0", _opcode("arith_op", op_symbol))
        return self

    def configure_sub(
        self,
        stage: int,
        slot: int,
        cond: Tuple[str, bool, Source],
        then: Tuple[str, bool, Source],
        els: Tuple[str, bool, Source],
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program a ``sub`` atom: like ``if_else_raw`` but each branch picks its operator.

        ``then``/``els`` are ``(arith_symbol, use_state, rhs)``.
        """
        kind = naming.STATEFUL
        self._default_inputs(stage, slot, input_containers)
        rel_symbol, cond_use_state, cond_rhs = cond
        self._opt_state(stage, kind, slot, "opt_0", cond_use_state)
        self._mux3_source(stage, kind, slot, "mux3_0", "const_0", cond_rhs)
        self.set_hole(stage, kind, slot, "rel_op_0", _opcode("rel_op", rel_symbol))
        then_op, then_use_state, then_rhs = then
        self._opt_state(stage, kind, slot, "opt_1", then_use_state)
        self._mux3_source(stage, kind, slot, "mux3_1", "const_1", then_rhs)
        self.set_hole(stage, kind, slot, "arith_op_0", _opcode("arith_op", then_op))
        else_op, else_use_state, else_rhs = els
        self._opt_state(stage, kind, slot, "opt_2", else_use_state)
        self._mux3_source(stage, kind, slot, "mux3_2", "const_2", else_rhs)
        self.set_hole(stage, kind, slot, "arith_op_1", _opcode("arith_op", else_op))
        return self

    def configure_pair(
        self,
        stage: int,
        slot: int,
        cond0: Optional[Tuple[int, str, Source]],
        cond1: Optional[Tuple[int, str, Source]],
        combine: str,
        then_updates: Tuple[Tuple[Source, str, Source], Tuple[Source, str, Source]],
        else_updates: Tuple[Tuple[Source, str, Source], Tuple[Source, str, Source]],
        input_containers: Optional[Sequence[int]] = None,
    ) -> "MachineCodeBuilder":
        """Program a ``pair`` atom (two state variables).

        ``cond0``/``cond1`` are ``(state_index, rel_symbol, rhs)`` or ``None``
        for "always true"; ``combine`` is ``"&&"`` or ``"||"``.  The updates
        are pairs of ``(lhs_source, arith_symbol, rhs_source)`` — one entry
        for ``state_0`` and one for ``state_1`` — where ``lhs_source`` is
        ``("state", 0)``, ``("state", 1)`` or ``("const", v)`` and
        ``rhs_source`` is ``("pkt", i)`` or ``("const", v)``.
        """
        kind = naming.STATEFUL
        self._default_inputs(stage, slot, input_containers)

        condition_holes = (
            ("mux2_0", "const_0", "mux3_0", "rel_op_0", "const_1", "mux2_1"),
            ("mux2_2", "const_2", "mux3_1", "rel_op_1", "const_3", "mux2_3"),
        )
        for index, cond in enumerate((cond0, cond1)):
            state_mux, rhs_const, rhs_mux, rel_hole, outer_const, outer_mux = condition_holes[index]
            if cond is None:
                # Outer Mux2 selects its C() input, which we set to 1 (always true).
                self.set_hole(stage, kind, slot, outer_mux, 1)
                self.set_hole(stage, kind, slot, outer_const, 1)
                continue
            state_index, rel_symbol, rhs = cond
            if state_index not in (0, 1):
                raise AllocationError("pair condition state index must be 0 or 1")
            self.set_hole(stage, kind, slot, outer_mux, 0)
            self.set_hole(stage, kind, slot, state_mux, state_index)
            self._mux3_source(stage, kind, slot, rhs_mux, rhs_const, rhs)
            self.set_hole(stage, kind, slot, rel_hole, _opcode("rel_op", rel_symbol))

        self.set_hole(stage, kind, slot, "bool_op_0", _opcode("bool_op", combine))

        update_holes = (
            # (lhs const, lhs mux, rhs const, rhs mux, arith op)
            ("const_4", "mux3_2", "const_5", "mux3_3", "arith_op_0"),
            ("const_6", "mux3_4", "const_7", "mux3_5", "arith_op_1"),
            ("const_8", "mux3_6", "const_9", "mux3_7", "arith_op_2"),
            ("const_10", "mux3_8", "const_11", "mux3_9", "arith_op_3"),
        )
        updates = list(then_updates) + list(else_updates)
        if len(updates) != 4:
            raise AllocationError("pair updates must provide (state_0, state_1) for both branches")
        for holes, (lhs, op_symbol, rhs) in zip(update_holes, updates):
            lhs_const, lhs_mux, rhs_const, rhs_mux, arith_hole = holes
            lhs_kind, lhs_value = _check_source(lhs, ("state", "const"))
            if lhs_kind == "state":
                if lhs_value not in (0, 1):
                    raise AllocationError("pair update state index must be 0 or 1")
                self.set_hole(stage, kind, slot, lhs_mux, lhs_value)
            else:
                self.set_hole(stage, kind, slot, lhs_mux, 2)
                self.set_hole(stage, kind, slot, lhs_const, lhs_value)
            self._mux3_source(stage, kind, slot, rhs_mux, rhs_const, rhs)
            self.set_hole(stage, kind, slot, arith_hole, _opcode("arith_op", op_symbol))
        return self

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _default_inputs(
        self, stage: int, slot: int, input_containers: Optional[Sequence[int]]
    ) -> None:
        if input_containers is None:
            input_containers = [0, min(1, self.spec.width - 1)]
        self.set_inputs(stage, naming.STATEFUL, slot, input_containers)
