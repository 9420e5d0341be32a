"""Reference (interpretation-based) pipeline simulator.

Druzhba's normal execution path runs code that dgen *generated* from the ALU
DSL and the machine code.  This module provides an independent second path:
the pipeline is executed directly from the hardware specification and the
machine code, using the ALU DSL reference interpreter for every ALU and the
shared mux semantics for the interconnect — no code generation involved.

Having two implementations of the same semantics is a classic compiler-
testing technique (it is how this reproduction tests *its own* dgen, in the
same spirit in which Druzhba tests external compilers): the property-based
tests assert that the generated-code simulator and this reference simulator
produce identical traces for random machine code.  The reference simulator is
much slower, which is precisely the gap the paper's generated-code design
(and its §3.4 optimisations) exists to close; the benchmark suite measures
that gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..alu_dsl import ALUInterpreter
from ..errors import MissingMachineCodeError, SimulationError
from ..hardware import PipelineSpec
from ..machine_code import naming
from ..machine_code.pairs import MachineCode
from .trace import Trace


class ReferenceStage:
    """Interpreted execution of one pipeline stage."""

    def __init__(self, spec: PipelineSpec, stage: int, values: Dict[str, int]):
        self.spec = spec
        self.stage = stage
        self.values = values
        self._stateless = ALUInterpreter(spec.stateless_alu)
        self._stateful = ALUInterpreter(spec.stateful_alu)

    # ------------------------------------------------------------------
    # Machine-code access
    # ------------------------------------------------------------------
    def _value(self, name: str) -> int:
        try:
            return int(self.values[name])
        except KeyError:
            raise MissingMachineCodeError(name) from None

    def _alu_holes(self, kind: str, slot: int, holes: Sequence[str]) -> Dict[str, int]:
        return {
            hole: self._value(naming.alu_hole_name(self.stage, kind, slot, hole)) for hole in holes
        }

    def _operands(self, kind: str, slot: int, count: int, phv: Sequence[int]) -> List[int]:
        operands = []
        for operand in range(count):
            selector = self._value(naming.input_mux_name(self.stage, kind, slot, operand))
            operands.append(phv[selector % self.spec.width])
        return operands

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, phv: Sequence[int], stage_state: List[List[int]]) -> List[int]:
        """Run the stage on one PHV's read half; returns the write-half values."""
        spec = self.spec
        stateless_outputs: List[int] = []
        for slot in range(spec.width):
            operands = self._operands(naming.STATELESS, slot, spec.stateless_alu.num_operands, phv)
            holes = self._alu_holes(naming.STATELESS, slot, spec.stateless_alu.holes)
            stateless_outputs.append(self._stateless.execute(operands, [], holes).output)

        stateful_outputs: List[int] = []
        for slot in range(spec.width):
            operands = self._operands(naming.STATEFUL, slot, spec.stateful_alu.num_operands, phv)
            holes = self._alu_holes(naming.STATEFUL, slot, spec.stateful_alu.holes)
            result = self._stateful.execute(operands, stage_state[slot], holes)
            stage_state[slot][:] = result.state
            stateful_outputs.append(result.output)

        outputs: List[int] = []
        for container in range(spec.width):
            selector = self._value(naming.output_mux_name(self.stage, container))
            choices = (*stateless_outputs, *stateful_outputs, phv[container])
            outputs.append(choices[selector % len(choices)])
        return outputs


class ReferenceSimulator:
    """Interpreted end-to-end pipeline simulation (no dgen involved).

    Because the pipeline preserves packet order and all state is stage-local,
    end-to-end behaviour equals processing each PHV through all stages in
    sequence; the reference simulator therefore does exactly that, which also
    makes it the simplest possible statement of the pipeline's semantics.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        machine_code: MachineCode,
        initial_state: Optional[List[List[List[int]]]] = None,
    ):
        self.spec = spec
        self.machine_code = machine_code
        values = machine_code.as_dict()
        self._stages = [ReferenceStage(spec, stage, values) for stage in range(spec.depth)]
        if initial_state is None:
            initial_state = [
                [[0] * spec.num_state_vars for _ in range(spec.width)] for _ in range(spec.depth)
            ]
        if len(initial_state) != spec.depth:
            raise SimulationError(f"initial state must cover {spec.depth} stages")
        self.state = [[list(alu) for alu in stage] for stage in initial_state]

    def process_phv(self, values: Sequence[int]) -> List[int]:
        """Run one PHV through every stage and return its final container values."""
        if len(values) != self.spec.width:
            raise SimulationError(
                f"PHV has {len(values)} containers, pipeline width is {self.spec.width}"
            )
        current = [int(v) for v in values]
        for stage_index, stage in enumerate(self._stages):
            current = stage.execute(current, self.state[stage_index])
        return current

    def run(self, phv_values: Sequence[Sequence[int]]) -> Trace:
        """Run a whole input trace and return the output trace."""
        inputs = list(map(tuple, phv_values))
        outputs = list(map(self.process_phv, inputs))
        return Trace(inputs, outputs, [[list(alu) for alu in stage] for stage in self.state])
