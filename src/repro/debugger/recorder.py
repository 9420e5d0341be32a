"""Execution recording for the time-travel debugger.

The paper's future-work section (§7) proposes "a domain specific time travel
debugger for Druzhba ... setting breakpoints to observe PHV container and
state values at different points of simulation [and] rewind pipeline
simulation ticks to past pipeline states to trace origins of erroneous
behavior".  Recording is the substrate that makes this possible: every
simulation tick's complete pipeline state — which PHV occupies which stage,
both of its halves, and every stateful ALU's state vector — is captured so
the debugger can move the cursor freely in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..dgen.emit import PipelineDescription
from ..dsim.phv import PHV
from ..dsim.pipeline import Pipeline, copy_state
from ..engine.rmt import prepare_inputs
from ..errors import SimulationError


@dataclass(frozen=True)
class StageOccupancy:
    """What one pipeline stage held at the end of one tick."""

    stage: int
    phv_id: Optional[int]
    read: Optional[tuple]
    write: Optional[tuple]


@dataclass(frozen=True)
class TickSnapshot:
    """Complete pipeline state at the end of one simulation tick.

    ``state`` is indexed ``[stage][slot][state_var]`` and reflects the values
    *after* the tick's computations; ``stages`` records the PHV (if any) in
    every stage together with its read and write halves; ``entered`` and
    ``exited`` are the ids of the PHV that entered stage 0 and the PHV that
    left the pipeline on this tick.
    """

    tick: int
    stages: tuple
    state: tuple
    entered: Optional[int]
    exited: Optional[int]

    def state_of(self, stage: int, slot: int) -> List[int]:
        """State vector of one stateful ALU at the end of this tick."""
        return list(self.state[stage][slot])


@dataclass
class ExecutionRecording:
    """A fully recorded simulation run."""

    description: PipelineDescription
    inputs: List[List[int]]
    snapshots: List[TickSnapshot] = field(default_factory=list)
    outputs: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_ticks(self) -> int:
        """Number of recorded ticks."""
        return len(self.snapshots)

    def snapshot(self, tick: int) -> TickSnapshot:
        """The snapshot taken at the end of ``tick``."""
        if tick < 0 or tick >= len(self.snapshots):
            raise SimulationError(
                f"tick {tick} outside the recorded range 0..{len(self.snapshots) - 1}"
            )
        return self.snapshots[tick]

    # ------------------------------------------------------------------
    # PHV-centric queries
    # ------------------------------------------------------------------
    def phv_journey(self, phv_id: int) -> List[StageOccupancy]:
        """Every (tick, stage) position of one PHV, in tick order.

        The returned occupancies carry the PHV's read and write halves at the
        end of each tick, so the effect of every stage on the PHV can be read
        off directly.
        """
        journey: List[StageOccupancy] = []
        for snapshot in self.snapshots:
            for occupancy in snapshot.stages:
                if occupancy.phv_id == phv_id:
                    journey.append(occupancy)
        return journey

    def phv_output(self, phv_id: int) -> List[int]:
        """The final container values of one PHV (after it exited)."""
        if phv_id not in self.outputs:
            raise SimulationError(f"PHV {phv_id} never exited the recorded pipeline")
        return list(self.outputs[phv_id])

    def exit_tick(self, phv_id: int) -> Optional[int]:
        """The tick at which one PHV exited, or ``None`` if it never did."""
        for snapshot in self.snapshots:
            if snapshot.exited == phv_id:
                return snapshot.tick
        return None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe_tick(self, tick: int) -> str:
        """Human-readable rendering of one tick's snapshot."""
        snapshot = self.snapshot(tick)
        lines = [f"tick {snapshot.tick}:"]
        if snapshot.entered is not None:
            lines.append(f"  entered:  PHV {snapshot.entered}")
        if snapshot.exited is not None:
            lines.append(f"  exited:   PHV {snapshot.exited} -> {self.outputs.get(snapshot.exited)}")
        for occupancy in snapshot.stages:
            if occupancy.phv_id is None:
                lines.append(f"  stage {occupancy.stage}: (empty)")
            else:
                lines.append(
                    f"  stage {occupancy.stage}: PHV {occupancy.phv_id} "
                    f"read={list(occupancy.read)} write={list(occupancy.write)}"
                )
        for stage, stage_state in enumerate(snapshot.state):
            rendered = ", ".join(str(list(alu_state)) for alu_state in stage_state)
            lines.append(f"  state[{stage}]: {rendered}")
        return "\n".join(lines)


def record_execution(
    description: PipelineDescription,
    inputs: Sequence[Sequence[int]],
    initial_state: Optional[List[List[List[int]]]] = None,
    runtime_values: Optional[Dict[str, int]] = None,
) -> ExecutionRecording:
    """Simulate ``inputs`` through ``description`` while recording every tick.

    ``inputs`` is read by :func:`~repro.engine.rmt.prepare_inputs`, as under
    every RMT driver, so a value or a PHV width that a simulator refuses is
    refused here with the same error.  ``initial_state`` is copied, so the
    caller's lists are left as they were.
    """
    work = prepare_inputs(description, inputs)
    pipeline = Pipeline(
        description, runtime_values=runtime_values, initial_state=copy_state(initial_state)
    )
    recording = ExecutionRecording(description=description, inputs=list(map(list, work)))

    def capture(entered: Optional[int], exited_phv: Optional[PHV]) -> None:
        stages = tuple(
            StageOccupancy(
                stage=index,
                phv_id=phv.phv_id if phv is not None else None,
                read=tuple(phv.read) if phv is not None else None,
                write=tuple(phv.write) if phv is not None else None,
            )
            for index, phv in enumerate(pipeline._slots)  # noqa: SLF001 - recorder is a dsim companion
        )
        state = tuple(
            tuple(tuple(alu_state) for alu_state in stage_state) for stage_state in pipeline.state
        )
        recording.snapshots.append(
            TickSnapshot(
                tick=pipeline.current_tick - 1,
                stages=stages,
                state=state,
                entered=entered,
                exited=exited_phv.phv_id if exited_phv is not None else None,
            )
        )
        if exited_phv is not None:
            recording.outputs[exited_phv.phv_id] = exited_phv.snapshot()

    for index, values in enumerate(work):
        exited = pipeline.tick(PHV.from_values(index, values))
        capture(entered=index, exited_phv=exited)
    while pipeline.in_flight:
        exited = pipeline.tick(None)
        capture(entered=None, exited_phv=exited)
    return recording
