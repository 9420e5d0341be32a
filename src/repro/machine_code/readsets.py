"""Static read-set analysis of RMT machine code.

The sharded meta-driver (:mod:`repro.engine.sharded`) merges per-shard final
state under a write-based conflict check, which by construction cannot see
*reads*: a packet that copies another flow's state into its outputs leaves no
trace in the final state vectors.  On this machine model there is exactly one
way a packet can read pipeline state into its outputs — a stage's output
multiplexer selecting a *stateful* ALU's output, which by the atom catalogue's
read-modify-write convention is the value of that ALU's ``state_0`` before
the update (:mod:`repro.atoms.sources`).

This module computes that read set statically from the machine code: for each
stage, which stateful ALU slots have their state value routed into a PHV
container.  Because output-mux routing is unconditional (the mux choice is a
machine-code constant, not data-dependent), an exposed slot is read by *every*
packet traversing the pipeline — so the merge rule for an exposed cell is
"no shard may write it at all", while unexposed cells keep the one-writer
flow rule, so programs that expose only read-only cells (configuration
thresholds, learned constants) shard legally.

The executed output mux reduces its machine-code value modulo the choice
count (see ``pipeline_builder._output_mux_code``); the analysis mirrors that
reduction so an out-of-domain opcode cannot smuggle a stateful route past it.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Tuple

from . import naming

#: A state cell address at slot granularity: ``(stage, slot)``.
StateSlot = Tuple[int, int]


def exposed_state_slots(spec, values: Mapping[str, int]) -> FrozenSet[StateSlot]:
    """The stateful ALU slots whose state is routed into a PHV container.

    ``spec`` is the :class:`~repro.hardware.PipelineSpec` and ``values`` the
    machine-code values that actually execute (baked-in pairs at opt levels
    1+, the runtime dict at level 0).  A slot ``(stage, slot)`` is in the
    result exactly when some container's output mux at ``stage`` selects the
    stateful ALU ``slot`` — every packet then reads that cell's pre-update
    state value into its outputs.
    """
    width = spec.width
    choices = spec.output_mux_choices
    exposed = set()
    for stage in range(spec.depth):
        for container in range(width):
            value = values.get(naming.output_mux_name(stage, container))
            if value is None:
                continue
            code = value % choices
            if width <= code < 2 * width:
                exposed.add((stage, code - width))
    return frozenset(exposed)
