"""dRMT dgen: preprocessing a P4 program for simulation (paper §4.1).

"dgen takes as input a P4 file ... converts the given P4 file into a DAG
representing the match+action table dependencies.  This DAG along with other
parameterized data is then sent to the dRMT scheduler ...  Static analysis
is performed both on the scheduler output and the initial P4 file to extract
data about the program such as header-types, packet fields, actions, matches,
other relevant data and all of it is packaged into a Rust file to be used by
dsim."

The reproduction packages the same information into a
:class:`DrmtProgramBundle` (a Python object rather than a generated Rust
file): the parsed program, the dependency DAG, the schedule and the static
analysis summary the simulator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import networkx as nx

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .fused import DrmtFusedProgram

from ..p4.dependency import build_dependency_graph, critical_path, dependency_summary
from ..p4.parser import parse as parse_p4
from ..p4.program import P4Program
from .resources import DEFAULT_HARDWARE, DrmtHardwareParams
from .scheduler import Schedule, schedule_program


@dataclass
class StaticAnalysis:
    """Static facts about the program extracted by dgen for dsim."""

    header_types: List[str]
    packet_fields: List[str]
    metadata_fields: List[str]
    actions: List[str]
    tables: List[str]
    registers: List[str]
    match_fields_per_table: Dict[str, List[str]] = field(default_factory=dict)
    dependency_counts: Dict[str, int] = field(default_factory=dict)
    critical_path: List[str] = field(default_factory=list)


@dataclass
class DrmtProgramBundle:
    """Everything dRMT dsim needs to simulate one program."""

    program: P4Program
    dependency_graph: nx.DiGraph
    schedule: Schedule
    hardware: DrmtHardwareParams
    analysis: StaticAnalysis
    _fused: Optional["DrmtFusedProgram"] = field(default=None, repr=False, compare=False)

    def fused_program(self) -> "DrmtFusedProgram":
        """The generated fused program for this bundle (built once, cached).

        dRMT's analogue of the RMT opt-level-3 description: a generated
        ``run_trace`` loop with every scheduled match/action operation
        inlined, bit-for-bit faithful to the tick interpreter (see
        :mod:`repro.drmt.fused`).
        """
        if self._fused is None:
            from .fused import generate_fused

            self._fused = generate_fused(
                self.program, self.schedule, self.hardware.num_processors
            )
        return self._fused

    def describe(self) -> str:
        """Human-readable bundle summary (CLI output)."""
        lines = [
            f"dRMT program bundle for {self.program.name!r}",
            f"  tables:        {', '.join(self.analysis.tables) or '(none)'}",
            f"  actions:       {', '.join(self.analysis.actions) or '(none)'}",
            f"  registers:     {', '.join(self.analysis.registers) or '(none)'}",
            f"  packet fields: {len(self.analysis.packet_fields)}",
            f"  dependencies:  {self.analysis.dependency_counts}",
            f"  critical path: {' -> '.join(self.analysis.critical_path) or '(empty)'}",
            f"  schedule:      {self.schedule.makespan} cycles ({self.schedule.backend})",
        ]
        return "\n".join(lines)


def analyze_program(program: P4Program, graph: nx.DiGraph) -> StaticAnalysis:
    """Extract the static analysis summary from a program and its dependency DAG."""
    packet_fields: List[str] = []
    metadata_fields: List[str] = []
    for qualified in program.all_fields():
        instance = program.headers[qualified.split(".", 1)[0]]
        if instance.is_metadata:
            metadata_fields.append(qualified)
        else:
            packet_fields.append(qualified)
    return StaticAnalysis(
        header_types=sorted(program.header_types),
        packet_fields=packet_fields,
        metadata_fields=metadata_fields,
        actions=sorted(program.actions),
        tables=program.table_order(),
        registers=sorted(program.registers),
        match_fields_per_table={
            name: table.match_fields() for name, table in program.tables.items()
        },
        dependency_counts=dependency_summary(graph),
        critical_path=critical_path(graph),
    )


def generate_bundle(
    program: Union[str, P4Program],
    hardware: DrmtHardwareParams = DEFAULT_HARDWARE,
    use_milp: bool = False,
    name: str = "p4_program",
) -> DrmtProgramBundle:
    """dRMT dgen: parse (if needed), validate, build the DAG, schedule, and package."""
    if isinstance(program, str):
        program = parse_p4(program, name=name)
    else:
        program.validate()
    graph = build_dependency_graph(program)
    schedule = schedule_program(program, graph, hardware, use_milp=use_milp)
    analysis = analyze_program(program, graph)
    return DrmtProgramBundle(
        program=program,
        dependency_graph=graph,
        schedule=schedule,
        hardware=hardware,
        analysis=analysis,
    )
