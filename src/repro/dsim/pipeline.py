"""Feedforward pipeline execution (paper §3.3).

"At every simulation tick, dsim ensures that a PHV created by the traffic
generator enters the pipeline and is executed by the first pipeline stage and
that PHVs in subsequent stages are sent to their next respective stages."

The :class:`Pipeline` class holds the in-flight PHVs (one slot per stage),
the per-stage stateful-ALU state vectors, and implements one simulation tick:

1. *commit*: every in-flight PHV moves its write half into its read half
   (the values written by the previous stage on the previous tick become
   visible);
2. *advance*: the PHV in the last stage exits, every other PHV moves one
   stage forward, and the incoming PHV (if any) occupies stage 0;
3. *execute*: every stage holding a PHV runs its generated stage function on
   the PHV's read half and records the result in the write half.

This class is the tick-accurate model; descriptions generated at opt level 3
also carry a fused ``run_trace`` loop that :class:`repro.dsim.RMTSimulator`
prefers (bit-for-bit equivalent for a feedforward pipeline, much faster).
The debugger's recorder always drives this class, tick by tick.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dgen.emit import PipelineDescription
from ..errors import MissingMachineCodeError, SimulationError
from .phv import PHV


def copy_state(state: Optional[List[List[List[int]]]]) -> Optional[List[List[List[int]]]]:
    """Deep copy of per-stage, per-ALU state vectors (``None`` stays ``None``)."""
    if state is None:
        return None
    return [[list(alu) for alu in stage] for stage in state]


class Pipeline:
    """Executable pipeline built from a dgen pipeline description."""

    def __init__(
        self,
        description: PipelineDescription,
        runtime_values: Optional[Dict[str, int]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
    ):
        self.description = description
        self.depth = description.spec.depth
        self.width = description.spec.width
        self._stage_functions = description.stage_functions
        if runtime_values is None:
            runtime_values = description.runtime_values()
        self._values = runtime_values
        if initial_state is None:
            initial_state = description.initial_state()
        self._validate_initial_state(initial_state)
        self.state = initial_state
        self._slots: List[Optional[PHV]] = [None] * self.depth
        self.current_tick = 0

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------
    def _validate_initial_state(self, state: List[List[List[int]]]) -> None:
        if len(state) != self.depth:
            raise SimulationError(
                f"initial state must have {self.depth} stages, got {len(state)}"
            )
        for stage_state in state:
            if len(stage_state) != self.width:
                raise SimulationError(
                    f"each stage's state must have {self.width} stateful-ALU entries"
                )
            for alu_state in stage_state:
                if len(alu_state) != self.description.spec.num_state_vars:
                    raise SimulationError(
                        "each stateful ALU state vector must have "
                        f"{self.description.spec.num_state_vars} entries"
                    )

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Number of PHVs currently inside the pipeline."""
        return sum(1 for slot in self._slots if slot is not None)

    def tick(self, incoming: Optional[PHV] = None) -> Optional[PHV]:
        """Run one simulation tick; return the PHV exiting the pipeline, if any."""
        # 1. Start of tick: write halves become read halves (paper §3.3).
        for phv in self._slots:
            if phv is not None:
                phv.commit()

        # 2. Advance every PHV by exactly one stage.
        exiting = self._slots[-1]
        for stage in range(self.depth - 1, 0, -1):
            self._slots[stage] = self._slots[stage - 1]
        if incoming is not None:
            incoming.entered_tick = self.current_tick
        self._slots[0] = incoming

        # 3. Execute every occupied stage on its PHV's read half.
        for stage, phv in enumerate(self._slots):
            if phv is None:
                continue
            stage_function = self._stage_functions[stage]
            try:
                outputs = stage_function(phv.read, self.state[stage], self._values)
            except KeyError as error:
                # Unoptimised descriptions look machine code up at runtime; a
                # missing pair surfaces here (§5.2 failure class 1).
                raise MissingMachineCodeError(str(error.args[0])) from error
            phv.set_write(outputs)

        self.current_tick += 1
        return exiting

    def drain(self) -> List[PHV]:
        """Tick with no new input until every in-flight PHV has exited."""
        drained: List[PHV] = []
        while self.in_flight:
            exited = self.tick(None)
            if exited is not None:
                drained.append(exited)
        return drained

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def process(self, phv_values: Sequence[Sequence[int]]) -> List[PHV]:
        """Push a full input trace through the pipeline and return exited PHVs in order."""
        exited: List[PHV] = []
        for index, values in enumerate(phv_values):
            if len(values) != self.width:
                raise SimulationError(
                    f"PHV {index} has {len(values)} containers, pipeline width is {self.width}"
                )
            result = self.tick(PHV.from_values(index, values))
            if result is not None:
                exited.append(result)
        exited.extend(self.drain())
        return exited
