"""dRMT match+action processors (paper §4.2).

Each processor "runs the packet processing program to completion" for the
packets assigned to it, issuing the match and action operations of each table
at the cycles the dRMT schedule prescribes and accessing the centralised
table store and register file shared by every processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import SimulationError
from ..p4.program import Action, ControlApply, P4Program
from .scheduler import ACTION_OP, MATCH_OP, Schedule
from .tables import TableEntry, TableStore


class RegisterFile:
    """The centralised stateful memories (registers) shared across processors."""

    def __init__(self, program: P4Program):
        self._arrays: Dict[str, List[int]] = {
            name: [0] * register.instance_count for name, register in program.registers.items()
        }

    def read(self, register: str, index: int) -> int:
        """Read one register cell (out-of-range indices wrap modulo the array size)."""
        array = self._get(register)
        return array[index % len(array)]

    def write(self, register: str, index: int, value: int) -> None:
        """Write one register cell."""
        array = self._get(register)
        array[index % len(array)] = int(value)

    def dump(self, register: str, limit: Optional[int] = None) -> List[int]:
        """Copy of a register array (optionally truncated)."""
        array = self._get(register)
        return list(array if limit is None else array[:limit])

    def arrays(self) -> Dict[str, List[int]]:
        """The live register arrays, keyed by name.

        The returned lists are the registers themselves, not copies: the
        fused dRMT driver indexes them directly (with the instance count
        baked into the generated code), so its mutations
        are visible to every other consumer of this register file.
        """
        return self._arrays

    def _get(self, register: str) -> List[int]:
        try:
            return self._arrays[register]
        except KeyError:
            raise SimulationError(f"unknown register {register!r}") from None


@dataclass
class PacketContext:
    """A packet in flight on a processor."""

    packet_id: int
    fields: Dict[str, int]
    arrival_tick: int
    processor: int
    dropped: bool = False
    matched_entries: Dict[str, Optional[TableEntry]] = field(default_factory=dict)
    completed_tick: Optional[int] = None

    def is_complete(self, makespan: int, current_tick: int) -> bool:
        """True once every scheduled operation of the program has run for this packet."""
        return current_tick - self.arrival_tick >= makespan


class MatchActionProcessor:
    """One dRMT processor executing the scheduled program on its packets."""

    def __init__(
        self,
        processor_id: int,
        program: P4Program,
        schedule: Schedule,
        tables: TableStore,
        registers: RegisterFile,
    ):
        self.processor_id = processor_id
        self.program = program
        self.schedule = schedule
        self.tables = tables
        self.registers = registers
        self.in_flight: List[PacketContext] = []
        self.completed: List[PacketContext] = []
        self.operations_executed = 0
        self._conditions: Dict[str, ControlApply] = {
            apply.table: apply for apply in program.control_flow
        }

    # ------------------------------------------------------------------
    # Packet lifecycle
    # ------------------------------------------------------------------
    def accept(self, packet: PacketContext) -> None:
        """Take ownership of a newly arrived packet."""
        if packet.processor != self.processor_id:
            raise SimulationError(
                f"packet {packet.packet_id} routed to processor {packet.processor}, "
                f"accepted by {self.processor_id}"
            )
        self.in_flight.append(packet)

    def tick(self, current_tick: int) -> List[PacketContext]:
        """Run one cycle: execute due operations, retire finished packets."""
        for packet in self.in_flight:
            relative = current_tick - packet.arrival_tick
            for table, op_kind in self.schedule.operations_at(relative):
                self._execute(packet, table, op_kind)
                self.operations_executed += 1

        finished = [
            packet
            for packet in self.in_flight
            if packet.is_complete(self.schedule.makespan, current_tick + 1)
        ]
        for packet in finished:
            packet.completed_tick = current_tick
            self.in_flight.remove(packet)
            self.completed.append(packet)
        return finished

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------
    def _execute(self, packet: PacketContext, table_name: str, op_kind: str) -> None:
        if packet.dropped:
            return
        if op_kind == MATCH_OP:
            self._execute_match(packet, table_name)
        elif op_kind == ACTION_OP:
            self._execute_action(packet, table_name)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown operation kind {op_kind!r}")

    def _table_enabled(self, packet: PacketContext, table_name: str) -> bool:
        condition = self._conditions.get(table_name)
        if condition is None or condition.condition_field is None:
            return True
        return packet.fields.get(condition.condition_field, 0) == condition.condition_value

    def _execute_match(self, packet: PacketContext, table_name: str) -> None:
        if not self._table_enabled(packet, table_name):
            packet.matched_entries[table_name] = None
            return
        entry = self.tables[table_name].lookup(packet.fields)
        packet.matched_entries[table_name] = entry

    def _execute_action(self, packet: PacketContext, table_name: str) -> None:
        if not self._table_enabled(packet, table_name):
            return
        entry = packet.matched_entries.get(table_name)
        table = self.program.tables[table_name]
        if entry is None:
            if table.default_action is None:
                return
            action = self.program.actions[table.default_action]
            args: List[int] = []
        else:
            action = self.program.actions[entry.action]
            args = list(entry.action_args)
        self._run_action(packet, action, args)

    def _run_action(self, packet: PacketContext, action: Action, args: List[int]) -> None:
        bindings: Dict[str, int] = {}
        for index, param in enumerate(action.params):
            bindings[param] = args[index] if index < len(args) else 0

        for call in action.body:
            if call.op == "drop":
                packet.dropped = True
            elif call.op == "no_op":
                continue
            elif call.op == "modify_field":
                destination, source = call.args[0], call.args[1]
                packet.fields[destination] = self._resolve(source, packet, bindings)
            elif call.op == "add_to_field":
                destination, source = call.args[0], call.args[1]
                packet.fields[destination] = packet.fields.get(destination, 0) + self._resolve(
                    source, packet, bindings
                )
            elif call.op == "subtract_from_field":
                destination, source = call.args[0], call.args[1]
                packet.fields[destination] = packet.fields.get(destination, 0) - self._resolve(
                    source, packet, bindings
                )
            elif call.op == "register_read":
                destination, register, index_arg = call.args[0], call.args[1], call.args[2]
                packet.fields[destination] = self.registers.read(
                    register, self._resolve(index_arg, packet, bindings)
                )
            elif call.op == "register_write":
                register, index_arg, value_arg = call.args[0], call.args[1], call.args[2]
                self.registers.write(
                    register,
                    self._resolve(index_arg, packet, bindings),
                    self._resolve(value_arg, packet, bindings),
                )
            else:  # pragma: no cover - PrimitiveCall validates ops
                raise SimulationError(f"unsupported primitive {call.op!r}")

    def _resolve(self, arg: str, packet: PacketContext, bindings: Mapping[str, int]) -> int:
        if arg in bindings:
            return bindings[arg]
        if "." in arg:
            return int(packet.fields.get(arg, 0))
        try:
            return int(arg, 0)
        except ValueError:
            raise SimulationError(f"cannot resolve action argument {arg!r}") from None
