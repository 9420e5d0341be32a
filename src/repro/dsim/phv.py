"""Packet header vectors (PHVs).

Druzhba does not model packets directly; it models PHVs — "vectors of
containers each holding a packet or metadata field" (paper §2.2).  To keep a
PHV from traversing more than one pipeline stage per simulation tick, dsim
"models a PHV in two parts: a read half and a write half" (§3.3): a stage
writes its results into the write half while the next stage reads the values
committed on the previous tick from the read half; at the beginning of every
tick the write half is moved into the read half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import SimulationError


@dataclass
class PHV:
    """A packet header vector in flight through the pipeline.

    Attributes
    ----------
    phv_id:
        Sequence number assigned by the traffic generator (input order).
    read:
        Container values visible to the stage currently holding the PHV.
    write:
        Container values produced by the stage currently holding the PHV;
        they become visible (moved into ``read``) at the start of the next
        tick.
    entered_tick:
        Simulation tick at which the PHV entered stage 0 (-1 until it does).
    """

    phv_id: int
    read: List[int]
    write: List[int] = field(default_factory=list)
    entered_tick: int = -1

    @classmethod
    def from_values(cls, phv_id: int, values: Sequence[int]) -> "PHV":
        """Create a PHV whose read half holds ``values`` (write half starts as a copy)."""
        values_list = list(values)
        return cls(phv_id=phv_id, read=values_list, write=list(values_list))

    def commit(self) -> None:
        """Move the write half into the read half (start-of-tick bookkeeping)."""
        if len(self.write) != len(self.read):
            raise SimulationError(
                f"PHV {self.phv_id}: write half has {len(self.write)} containers, "
                f"read half has {len(self.read)}"
            )
        self.read = list(self.write)

    def set_write(self, values: Sequence[int]) -> None:
        """Record the containers produced by the stage currently holding the PHV."""
        if len(values) != len(self.read):
            raise SimulationError(
                f"PHV {self.phv_id}: stage produced {len(values)} containers, "
                f"expected {len(self.read)}"
            )
        self.write = [int(v) for v in values]

    def snapshot(self) -> List[int]:
        """Copy of the currently committed (read-half) container values."""
        return list(self.read)
