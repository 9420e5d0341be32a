"""Marple new-flow detection (Table 1: pipeline 2x2, ``pred_raw``).

Marple's new-flow query flags packets that start a flow the switch has not
seen recently.  Without match tables, the Druzhba rendition keeps the most
recently seen flow identifier and flags a packet whenever its flow differs
from that identifier (a single-entry flow cache).

PHV layout (width 2):

====  =====================  =====================================
container  input              output
====  =====================  =====================================
0      flow identifier        unchanged
1      (unused)               1 when the packet starts a new flow
====  =====================  =====================================
"""

from __future__ import annotations

from typing import Dict, List

from ..chipmunk.allocation import MachineCodeBuilder
from ..traffic import choice_field
from ..machine_code import naming
from .base import BenchmarkProgram

DOMINO_SOURCE = """
state last_flow = 0;

transaction marple_new_flow {
    if (last_flow != pkt.flow_id) {
        pkt.new_flow = 1;
        last_flow = pkt.flow_id;
    } else {
        pkt.new_flow = 0;
    }
}
"""


def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
    """Reference behaviour: flag packets whose flow differs from the last one seen."""
    outputs = list(phv)
    old_flow = state["last_flow"]
    if state["last_flow"] != phv[0]:
        state["last_flow"] = phv[0]
    outputs[1] = 1 if old_flow != phv[0] else 0
    return outputs


def build(builder: MachineCodeBuilder) -> None:
    """Place new-flow detection onto the 2x2 pipeline."""
    # Stage 0: remember the current flow id; expose the previous one.
    builder.configure_pred_raw(
        stage=0,
        slot=0,
        cond=("!=", True, ("pkt", 0)),      # last_flow != flow_id
        update=("+", False, ("pkt", 0)),    # last_flow = flow_id
        input_containers=[0, 0],
    )
    builder.route_output(stage=0, container=1, kind=naming.STATEFUL, slot=0)
    # Stage 1: new_flow = (flow_id != previous flow id).
    builder.configure_stateless_full(
        stage=1,
        slot=0,
        mode="rel",
        op="!=",
        a=("pkt", 0),
        b=("pkt", 1),
        input_containers=[0, 1],
    )
    builder.route_output(stage=1, container=1, kind=naming.STATELESS, slot=0)


PROGRAM = BenchmarkProgram(
    name="marple_new_flow",
    display_name="Marple new flow",
    depth=2,
    width=2,
    stateful_atom="pred_raw",
    description=(
        "Marple-style new-flow detection with a single-entry flow cache: a packet is "
        "flagged when its flow identifier differs from the most recently seen one."
    ),
    spec_function=spec,
    build_machine_code=build,
    state_template={"last_flow": 0},
    relevant_containers=[1],
    field_generators=[choice_field(list(range(1, 9))), None],
    domino_source=DOMINO_SOURCE,
)
