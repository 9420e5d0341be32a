"""Stateful firewall (Table 1: pipeline 4x5, ``pred_raw``).

The SNAP stateful-firewall example admits inbound traffic only after the
protected host has sent outbound traffic.  Without match tables the Druzhba
rendition protects a single host pair: a one-bit "outbound seen" flag is set
by outbound packets, and a packet is admitted when it is outbound itself or
the flag was already set.

PHV layout (width 5):

====  ==========================  =====================================
container  input                   output
====  ==========================  =====================================
0      direction (0 out, 1 in)     unchanged
1      (unused)                    unchanged
2      (unused)                    "outbound seen" flag *before* packet
3      (unused)                    outbound-flag + previous seen flag
4      (unused)                    1 when the packet is admitted
====  ==========================  =====================================
"""

from __future__ import annotations

from typing import Dict, List

from ..chipmunk.allocation import MachineCodeBuilder
from ..traffic import choice_field
from ..machine_code import naming
from .base import BenchmarkProgram

DOMINO_SOURCE = """
state seen = 0;

transaction stateful_firewall {
    pkt.seen_out = seen;
    outbound = pkt.direction == 0;
    if (outbound || seen > 0) {
        pkt.allowed = 1;
    } else {
        pkt.allowed = 0;
    }
    if (outbound) {
        seen = 1;
    }
}
"""


def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
    """Reference behaviour: admit outbound packets and inbound packets after contact."""
    outputs = list(phv)
    direction = phv[0]
    old_seen = state["seen"]
    if direction == 0:
        state["seen"] = 1
    outbound = 1 if direction == 0 else 0
    outputs[2] = old_seen
    outputs[3] = outbound + old_seen
    outputs[4] = 1 if (outbound + old_seen) > 0 else 0
    return outputs


def build(builder: MachineCodeBuilder) -> None:
    """Place the stateful firewall onto the 4x5 pipeline."""
    # Stage 0: record outbound contact; expose the previous flag value.
    builder.configure_pred_raw(
        stage=0,
        slot=0,
        cond=("==", False, ("pkt", 0)),     # 0 == direction (outbound)
        update=("+", False, ("const", 1)),  # seen = 1
        input_containers=[0, 0],
    )
    builder.route_output(stage=0, container=2, kind=naming.STATEFUL, slot=0)
    # Stage 1: outbound flag = (direction == 0).
    builder.configure_stateless_full(
        stage=1,
        slot=0,
        mode="rel",
        op="==",
        a=("pkt", 0),
        b=("const", 0),
        input_containers=[0, 0],
    )
    builder.route_output(stage=1, container=3, kind=naming.STATELESS, slot=0)
    # Stage 2: admission score = outbound flag + previous seen flag.
    builder.configure_stateless_full(
        stage=2,
        slot=0,
        mode="arith",
        op="+",
        a=("pkt", 0),
        b=("pkt", 1),
        input_containers=[3, 2],
    )
    builder.route_output(stage=2, container=3, kind=naming.STATELESS, slot=0)
    # Stage 3: admitted = (score > 0).
    builder.configure_stateless_full(
        stage=3,
        slot=0,
        mode="rel",
        op=">",
        a=("pkt", 0),
        b=("const", 0),
        input_containers=[3, 3],
    )
    builder.route_output(stage=3, container=4, kind=naming.STATELESS, slot=0)


PROGRAM = BenchmarkProgram(
    name="stateful_firewall",
    display_name="Stateful firewall",
    depth=4,
    width=5,
    stateful_atom="pred_raw",
    description=(
        "SNAP stateful firewall for a single host pair: outbound packets set a contact "
        "flag; a packet is admitted when it is outbound or contact was already recorded."
    ),
    spec_function=spec,
    build_machine_code=build,
    state_template={"seen": 0},
    relevant_containers=[2, 3, 4],
    field_generators=[choice_field([0, 1]), None, None, None, None],
    domino_source=DOMINO_SOURCE,
)
