"""Time-travel debugging for Druzhba pipeline simulations (paper §7 future work).

Record a simulation tick by tick, then run a cursor forward to a breakpoint
on a container value, rewind it, and trace the per-stage journey of any PHV.
"""

from .recorder import (
    ExecutionRecording,
    StageOccupancy,
    TickSnapshot,
    record_execution,
)
from .session import Breakpoint, TimeTravelDebugger, container_breakpoint

__all__ = [
    "record_execution",
    "ExecutionRecording",
    "TickSnapshot",
    "StageOccupancy",
    "TimeTravelDebugger",
    "Breakpoint",
    "container_breakpoint",
]
