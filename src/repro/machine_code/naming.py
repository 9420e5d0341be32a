"""Machine-code naming conventions.

The paper (§3.1) describes machine code as a list of string/integer pairs
whose strings "are each given unique names that succinctly denote the
primitive that the pair corresponds to and the primitive's location within
the pipeline".  This module defines that naming scheme for the reproduction
and provides both construction and parsing helpers so that the rest of the
library never hand-formats names.

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

import re
from dataclasses import dataclass
from typing import Optional

from ..errors import MachineCodeError

STATEFUL = "stateful"
STATELESS = "stateless"
_KINDS = (STATEFUL, STATELESS)

_INPUT_MUX_RE = re.compile(
    r"^pipeline_stage_(?P<stage>\d+)_(?P<kind>stateful|stateless)_alu_(?P<slot>\d+)"
    r"_input_mux_(?P<operand>\d+)$"
)
_OUTPUT_MUX_RE = re.compile(
    r"^pipeline_stage_(?P<stage>\d+)_output_mux_phv_(?P<container>\d+)$"
)
_ALU_HOLE_RE = re.compile(
    r"^pipeline_stage_(?P<stage>\d+)_(?P<kind>stateful|stateless)_alu_(?P<slot>\d+)"
    r"_(?P<hole>[A-Za-z_][A-Za-z0-9_]*)$"
)


@dataclass(frozen=True)
class PrimitiveName:
    """Structured form of a machine-code pair name.

    ``category`` is one of ``"alu_hole"``, ``"input_mux"`` or ``"output_mux"``.
    Fields that do not apply to a category are ``None`` (for example an
    output multiplexer has no ``kind``, ``slot`` or ``hole``).
    """

    category: str
    stage: int
    kind: Optional[str] = None
    slot: Optional[int] = None
    operand: Optional[int] = None
    container: Optional[int] = None
    hole: Optional[str] = None

    def render(self) -> str:
        """Format this structured name back into its canonical string form."""
        if self.category == "output_mux":
            return output_mux_name(self.stage, self.container)
        if self.category == "input_mux":
            return input_mux_name(self.stage, self.kind, self.slot, self.operand)
        if self.category == "alu_hole":
            return alu_hole_name(self.stage, self.kind, self.slot, self.hole)
        raise MachineCodeError(f"unknown primitive category {self.category!r}")


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


def parse_name(name: str) -> PrimitiveName:
    """Parse a machine-code pair name into its structured form.

    Raises :class:`MachineCodeError` when the string does not follow the
    naming convention.  Input-mux names are matched before generic ALU-hole
    names because an input mux name is also a syntactically valid hole name.
    """
    match = _OUTPUT_MUX_RE.match(name)
    if match:
        return PrimitiveName(
            category="output_mux",
            stage=int(match.group("stage")),
            container=int(match.group("container")),
        )
    match = _INPUT_MUX_RE.match(name)
    if match:
        return PrimitiveName(
            category="input_mux",
            stage=int(match.group("stage")),
            kind=match.group("kind"),
            slot=int(match.group("slot")),
            operand=int(match.group("operand")),
        )
    match = _ALU_HOLE_RE.match(name)
    if match:
        return PrimitiveName(
            category="alu_hole",
            stage=int(match.group("stage")),
            kind=match.group("kind"),
            slot=int(match.group("slot")),
            hole=match.group("hole"),
        )
    raise MachineCodeError(f"machine code name {name!r} does not follow the naming convention")


def is_valid_name(name: str) -> bool:
    """True when ``name`` follows the machine-code naming convention."""
    try:
        parse_name(name)
    except MachineCodeError:
        return False
    return True
