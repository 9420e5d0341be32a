"""Machine code: the instruction-set-level configuration of a Druzhba pipeline.

A machine-code *program* is a set of ``(name, unsigned integer)`` pairs.  The
names identify hardware primitives (ALU holes, input multiplexers, output
multiplexers) and their position in the pipeline; the integers program their
behaviour (paper §3.1).
"""

from .naming import (
    STATEFUL,
    STATELESS,
    alu_hole_name,
    input_mux_name,
    output_mux_name,
)
from .pairs import MachineCode, expected_names

__all__ = [
    "MachineCode",
    "expected_names",
    "alu_hole_name",
    "input_mux_name",
    "output_mux_name",
    "STATEFUL",
    "STATELESS",
]
