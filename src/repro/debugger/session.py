"""The time-travel debugger (paper §7 future work).

A :class:`TimeTravelDebugger` wraps an :class:`ExecutionRecording` with a
movable cursor: testers run forward to a breakpoint on a PHV container
value, then rewind tick by tick.  Because every tick was recorded,
"bi-directional traveling" costs nothing: rewinding just moves the cursor
back over the snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import SimulationError
from .recorder import ExecutionRecording, TickSnapshot

#: A breakpoint predicate: inspects one tick snapshot and returns True to stop.
Predicate = Callable[[TickSnapshot], bool]


@dataclass
class Breakpoint:
    """A named breakpoint over tick snapshots."""

    name: str
    predicate: Predicate

    def matches(self, snapshot: TickSnapshot) -> bool:
        """True when the debugger should stop at ``snapshot``."""
        return bool(self.predicate(snapshot))


def container_breakpoint(
    stage: int, container: int, condition: Callable[[int], bool], name: str = ""
) -> Breakpoint:
    """Break when the write half of the PHV in ``stage`` satisfies ``condition``.

    The write half is inspected because it holds the values the stage just
    produced — the natural place to catch an erroneous computation as it
    happens.
    """
    label = name or f"stage {stage} container {container}"

    def predicate(snapshot: TickSnapshot) -> bool:
        occupancy = snapshot.stages[stage]
        if occupancy.phv_id is None or occupancy.write is None:
            return False
        return condition(occupancy.write[container])

    return Breakpoint(name=label, predicate=predicate)


class TimeTravelDebugger:
    """A cursor over a recorded execution, with breakpoints in both directions."""

    def __init__(self, recording: ExecutionRecording):
        if recording.num_ticks == 0:
            raise SimulationError("cannot debug an empty recording")
        self.recording = recording
        self._cursor = 0
        self.breakpoints: List[Breakpoint] = []

    # ------------------------------------------------------------------
    # Cursor movement
    # ------------------------------------------------------------------
    @property
    def current_tick(self) -> int:
        """Tick the cursor currently points at."""
        return self._cursor

    @property
    def current(self) -> TickSnapshot:
        """Snapshot under the cursor."""
        return self.recording.snapshot(self._cursor)

    def rewind(self, ticks: int = 1) -> TickSnapshot:
        """Move the cursor backwards by ``ticks`` (clamped to the first tick)."""
        self._cursor = max(self._cursor - ticks, 0)
        return self.current

    # ------------------------------------------------------------------
    # Breakpoints
    # ------------------------------------------------------------------
    def add_breakpoint(self, breakpoint: Breakpoint) -> Breakpoint:
        """Register a breakpoint and return it (for later removal)."""
        self.breakpoints.append(breakpoint)
        return breakpoint

    def run_forward(self) -> Optional[TickSnapshot]:
        """Advance until a breakpoint matches; return its snapshot or ``None`` at the end."""
        if not self.breakpoints:
            raise SimulationError("no breakpoints registered")
        for tick in range(self._cursor + 1, self.recording.num_ticks):
            snapshot = self.recording.snapshot(tick)
            if any(breakpoint.matches(snapshot) for breakpoint in self.breakpoints):
                self._cursor = tick
                return snapshot
        return None

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def state_at_cursor(self, stage: int, slot: int) -> List[int]:
        """State vector of one stateful ALU at the cursor."""
        return self.current.state_of(stage, slot)

    def describe(self) -> str:
        """Render the snapshot under the cursor."""
        return self.recording.describe_tick(self._cursor)

    def trace_origin(self, phv_id: int) -> List[str]:
        """Render a PHV's per-stage transformation history (oldest first).

        This is the "trace origins of erroneous behavior" use case of §7: for
        a mismatching PHV found by the fuzzer, the journey shows what every
        stage read and wrote for that PHV.
        """
        journey = self.recording.phv_journey(phv_id)
        lines = []
        for occupancy in journey:
            lines.append(
                f"stage {occupancy.stage}: read {list(occupancy.read)} -> wrote {list(occupancy.write)}"
            )
        exit_tick = self.recording.exit_tick(phv_id)
        if exit_tick is not None:
            lines.append(f"exited at tick {exit_tick} with {self.recording.phv_output(phv_id)}")
        return lines
