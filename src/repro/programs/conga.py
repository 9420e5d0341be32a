"""CONGA (Table 1: pipeline 1x5, ``pair``).

CONGA's leaf switches track, per destination, the uplink path with the lowest
congestion metric.  The data-plane kernel is a conditional pairwise update:
when a packet advertises a path whose utilisation is lower than the best seen
so far, both the best-utilisation value and the best-path identifier are
replaced.  The two values live in the two state variables of a ``pair`` atom.

PHV layout (width 5):

====  ====================  =====================================
container  input             output
====  ====================  =====================================
0      path identifier       unchanged
1      path utilisation      unchanged
2      (unused)              best utilisation *before* this packet
3, 4   (unused)              unchanged
====  ====================  =====================================
"""

from __future__ import annotations

from typing import Dict, List

from ..chipmunk.allocation import MachineCodeBuilder
from ..traffic import choice_field
from ..machine_code import naming
from .base import BenchmarkProgram

#: Initial best utilisation: worse than any advertised value (10-bit inputs).
INITIAL_BEST_UTIL = (1 << 10) - 1

DOMINO_SOURCE = """
state best_util = 1023;
state best_path = 0;

transaction conga {
    pkt.best_util_out = best_util;
    if (best_util > pkt.util) {
        best_util = pkt.util;
        best_path = pkt.path_id;
    }
}
"""


def spec(phv: List[int], state: Dict[str, int]) -> List[int]:
    """Reference behaviour: keep the minimum-utilisation path."""
    outputs = list(phv)
    outputs[2] = state["best_util"]
    if state["best_util"] > phv[1]:
        state["best_util"] = phv[1]
        state["best_path"] = phv[0]
    return outputs


def build(builder: MachineCodeBuilder) -> None:
    """Place the CONGA best-path update onto the pair atom at stage 0."""
    builder.configure_pair(
        stage=0,
        slot=0,
        cond0=(0, ">", ("pkt", 1)),  # best_util > pkt.util
        cond1=None,
        combine="&&",
        then_updates=(
            (("const", 0), "+", ("pkt", 1)),  # best_util = pkt.util
            (("const", 0), "+", ("pkt", 0)),  # best_path = pkt.path_id
        ),
        else_updates=(
            (("state", 0), "+", ("const", 0)),
            (("state", 1), "+", ("const", 0)),
        ),
        input_containers=[0, 1],
    )
    builder.route_output(stage=0, container=2, kind=naming.STATEFUL, slot=0)


PROGRAM = BenchmarkProgram(
    name="conga",
    display_name="CONGA",
    depth=1,
    width=5,
    stateful_atom="pair",
    description=(
        "CONGA-style best-path tracking: keep the (utilisation, path id) pair with the "
        "lowest advertised utilisation, exposing the previous best utilisation per packet."
    ),
    spec_function=spec,
    build_machine_code=build,
    state_template={"best_util": INITIAL_BEST_UTIL, "best_path": 0},
    relevant_containers=[2],
    initial_stateful_values={(0, 0): [INITIAL_BEST_UTIL, 0]},
    field_generators=[
        choice_field(list(range(1, 9))),  # path identifiers 1..8
        None,                             # utilisation: uniform
        None,
        None,
        None,
    ],
    domino_source=DOMINO_SOURCE,
)
