"""Pipeline hardware specification.

A :class:`PipelineSpec` captures the three hardware inputs dgen needs
(paper §3.1): the pipeline depth and width, and the ALU DSL specifications of
the stateful and stateless ALUs that populate every stage.  Following
Figure 2, each stage holds ``width`` stateless ALUs and ``width`` stateful
ALUs, the PHV has ``width`` containers, every ALU operand is fed by an input
multiplexer that can select any PHV container, and every PHV container is
written by an output multiplexer that can select any ALU output in the stage
or keep the container's previous value (pass-through).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .alu_dsl.ast_nodes import ALUSpec
from .errors import CodegenError
from .machine_code import naming
from .machine_code.pairs import MachineCode, expected_names


@dataclass
class PipelineSpec:
    """Complete description of a Druzhba RMT pipeline configuration.

    Attributes
    ----------
    depth:
        Number of pipeline stages.
    width:
        Number of stateful ALUs, stateless ALUs and PHV containers per stage.
    stateful_alu:
        Analysed ALU DSL spec instantiated in every stateful slot.
    stateless_alu:
        Analysed ALU DSL spec instantiated in every stateless slot.
    name:
        Optional human-readable name (used in generated module docstrings).
    """

    depth: int
    width: int
    stateful_alu: ALUSpec
    stateless_alu: ALUSpec
    name: str = "pipeline"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise CodegenError(f"pipeline depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise CodegenError(f"pipeline width must be >= 1, got {self.width}")
        if self.stateful_alu.kind != "stateful":
            raise CodegenError(
                f"stateful_alu must be a stateful ALU spec, got {self.stateful_alu.kind!r}"
            )
        if self.stateless_alu.kind != "stateless":
            raise CodegenError(
                f"stateless_alu must be a stateless ALU spec, got {self.stateless_alu.kind!r}"
            )

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def num_containers(self) -> int:
        """Number of PHV containers (equal to the pipeline width, Figure 2)."""
        return self.width

    @property
    def num_state_vars(self) -> int:
        """State variables per stateful ALU."""
        return self.stateful_alu.num_state_vars

    @property
    def output_mux_choices(self) -> int:
        """Inputs selectable by an output mux: all ALU outputs plus pass-through."""
        return 2 * self.width + 1

    def output_mux_value_for(self, kind: str, slot: int) -> int:
        """Machine-code value that routes the given ALU's output to a container.

        Stateless ALU ``slot`` outputs occupy values ``0 .. width-1``,
        stateful ALU outputs occupy ``width .. 2*width-1`` and the value
        ``2*width`` keeps the container unchanged (pass-through).
        """
        if slot < 0 or slot >= self.width:
            raise CodegenError(f"ALU slot {slot} out of range for width {self.width}")
        if kind == naming.STATELESS:
            return slot
        if kind == naming.STATEFUL:
            return self.width + slot
        raise CodegenError(f"unknown ALU kind {kind!r}")

    @property
    def passthrough_value(self) -> int:
        """Output-mux machine-code value that leaves a container unchanged."""
        return 2 * self.width

    # ------------------------------------------------------------------
    # Machine-code contract
    # ------------------------------------------------------------------
    def expected_machine_code_names(self) -> List[str]:
        """Every machine-code pair name this configuration requires."""
        return expected_names(
            depth=self.depth,
            width=self.width,
            stateful_holes=self.stateful_alu.holes,
            stateless_holes=self.stateless_alu.holes,
            stateful_operands=self.stateful_alu.num_operands,
            stateless_operands=self.stateless_alu.num_operands,
        )

    def hole_domains(self) -> Dict[str, int]:
        """Domain size of every expected machine-code pair (0 means unbounded).

        Input muxes have a domain equal to the number of PHV containers and
        output muxes a domain of ``2*width + 1``; ALU holes inherit the
        domains computed by ALU DSL analysis.
        """
        domains: Dict[str, int] = {}
        for stage in range(self.depth):
            for slot in range(self.width):
                for kind, alu in (
                    (naming.STATELESS, self.stateless_alu),
                    (naming.STATEFUL, self.stateful_alu),
                ):
                    for operand in range(alu.num_operands):
                        domains[naming.input_mux_name(stage, kind, slot, operand)] = self.width
                    for hole in alu.holes:
                        domains[naming.alu_hole_name(stage, kind, slot, hole)] = alu.hole_domains[hole]
            for container in range(self.width):
                domains[naming.output_mux_name(stage, container)] = self.output_mux_choices
        return domains

    def validate_machine_code(self, machine_code: MachineCode) -> List[str]:
        """Return the machine-code pair names this pipeline needs but that are missing."""
        return machine_code.missing(self.expected_machine_code_names())

    def passthrough_machine_code(self) -> MachineCode:
        """A complete machine-code program in which every stage is a no-op.

        Every output mux selects pass-through, every input mux selects
        container 0 and every ALU hole is 0.  Useful as a baseline to build
        real configurations from (compilers override only the pairs they
        need), and as the starting point for synthesis.
        """
        pairs = {name: 0 for name in self.expected_machine_code_names()}
        for stage in range(self.depth):
            for container in range(self.width):
                pairs[naming.output_mux_name(stage, container)] = self.passthrough_value
        return MachineCode(pairs)


def describe_pipeline(spec: PipelineSpec) -> str:
    """Human-readable single-paragraph description of a pipeline configuration."""
    return (
        f"pipeline {spec.name!r}: depth={spec.depth}, width={spec.width}, "
        f"PHV containers={spec.num_containers}, "
        f"stateful ALU={spec.stateful_alu.name!r} "
        f"({spec.stateful_alu.num_operands} operands, {spec.num_state_vars} state vars, "
        f"{len(spec.stateful_alu.holes)} holes), "
        f"stateless ALU={spec.stateless_alu.name!r} "
        f"({spec.stateless_alu.num_operands} operands, {len(spec.stateless_alu.holes)} holes), "
        f"{len(spec.expected_machine_code_names())} machine-code pairs expected"
    )
