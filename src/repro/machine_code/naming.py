"""Machine-code naming conventions.

The paper (§3.1) describes machine code as a list of string/integer pairs
whose strings "are each given unique names that succinctly denote the
primitive that the pair corresponds to and the primitive's location within
the pipeline".  This module defines that naming scheme for the reproduction
and provides the helpers that build them, so that the rest of the library
never hand-formats names.

Naming scheme
-------------

=======================  ==============================================================
Primitive                 Machine-code pair name
=======================  ==============================================================
ALU hole                  ``pipeline_stage_{stage}_{kind}_alu_{slot}_{hole}``
ALU input multiplexer     ``pipeline_stage_{stage}_{kind}_alu_{slot}_input_mux_{operand}``
PHV output multiplexer    ``pipeline_stage_{stage}_output_mux_phv_{container}``
=======================  ==============================================================

``kind`` is ``stateful`` or ``stateless``; ``stage``, ``slot``, ``operand``
and ``container`` are zero-based indices.
"""

from __future__ import annotations

from ..errors import MachineCodeError

STATEFUL = "stateful"
STATELESS = "stateless"
_KINDS = (STATEFUL, STATELESS)

def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise MachineCodeError(f"ALU kind must be one of {_KINDS}, got {kind!r}")
    return kind


def alu_hole_prefix(stage: int, kind: str, slot: int) -> str:
    """The name shared by every hole of one ALU; append a hole to name the pair."""
    _check_kind(kind)
    return f"pipeline_stage_{stage}_{kind}_alu_{slot}_"


def alu_hole_name(stage: int, kind: str, slot: int, hole: str) -> str:
    """Name of an ALU hole (opcode, immediate, mux internal to the ALU, ...)."""
    return alu_hole_prefix(stage, kind, slot) + hole


def input_mux_name(stage: int, kind: str, slot: int, operand: int) -> str:
    """Name of the input multiplexer feeding operand ``operand`` of an ALU."""
    _check_kind(kind)
    return f"pipeline_stage_{stage}_{kind}_alu_{slot}_input_mux_{operand}"


def output_mux_name(stage: int, container: int) -> str:
    """Name of the output multiplexer writing PHV container ``container``."""
    return f"pipeline_stage_{stage}_output_mux_phv_{container}"
