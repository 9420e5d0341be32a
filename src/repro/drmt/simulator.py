"""dRMT dsim: the disaggregated match+action simulator (paper §4.2).

"At every simulation tick, a packet is generated by the traffic generator and
given to a processor in a round robin fashion.  Matches and actions performed
on packets specified by the given table entries are performed according to
the given dRMT schedule."

Execution goes through the unified engine layer's drivers:

* **tick** — the per-tick round-robin processor loop below (the paper's
  model; ``tick_accurate=True`` forces it);
* **fused** — the bundle's generated ``run_trace`` loop, which runs each
  packet to completion.  It exists only when the schedule proves that
  bit-identical to the tick model: every written register is accessed at
  one cycle (the bundle's ``hazard`` is ``None``).

dRMT has no generic driver.  The choice between the two is
:func:`repro.engine.base.resolve_engine`, the rule the RMT facade uses too,
made statically from the bundle's ``hazard``: ``auto`` runs fused when the
bundle has no hazard and tick when it has one, and an explicit
``engine="fused"`` on a hazard bundle raises :class:`SimulationError`
naming the register and its cycles.  A generator error propagates instead
of falling back to tick.

Both drivers return through :func:`repro.engine.drmt.assemble_result` and
report per-run per-processor statistics.  Register and table-hit state
accumulate across runs of one simulator under both drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.base import ENGINE_FUSED, ENGINE_TICK, resolve_engine
from ..errors import SimulationError
from ..traffic import PacketGenerator
from .codegen import DrmtProgramBundle
from .fused import hazard_reason
from .processor import MatchActionProcessor, PacketContext, RegisterFile
from .table_config import parse_entries, populate_store
from .tables import TableEntry, TableStore


class _Unset(int):
    """The type of :data:`UNSET`."""


#: What a ragged packet's row holds for a declared field the packet omits.
#: It reads as the 0 an absent field reads as: arithmetic, masks, ``==``
#: and dict probes on it give or match plain ints.  A record's ``outputs``
#: leave out every slot that still holds it.
UNSET = _Unset(0)


@dataclass
class DrmtPacketRecord:
    """One packet's inputs, outputs and fate."""

    packet_id: int
    processor: int
    arrival_tick: int
    completed_tick: Optional[int]
    inputs: Dict[str, int]
    outputs: Dict[str, int]
    dropped: bool

    @property
    def latency(self) -> Optional[int]:
        """Cycles between arrival and completion (``None`` if never completed)."""
        if self.completed_tick is None:
            return None
        return self.completed_tick - self.arrival_tick + 1


@dataclass
class DrmtSimulationResult:
    """Output of one dRMT simulation run, whatever its driver.

    Both drivers build it through :func:`repro.engine.drmt.assemble_result`;
    ``engine`` names the one that ran (``tick`` or ``fused``).

    The result keeps the input and output columns, one tuple per packet in
    ``fields`` order (see :func:`repro.engine.drmt.prepare_packets`), the
    ragged packets' exact-int dicts by packet index, and the dropped flags.
    It builds :class:`DrmtPacketRecord` objects from them on every read of
    :attr:`records`, caching none: each record's ``inputs`` and ``outputs``
    are new dicts.  A ragged packet's ``inputs`` are its own dict, and its
    ``outputs`` leave out the fields still :data:`UNSET` and carry its
    undeclared keys unchanged.  Packet ``p``'s id, processor
    (``p % num_processors``), arrival tick (``p``) and completion tick
    (``p + completion_offset``) follow from its index.  The columns are
    kept without copying: callers hand over lists they no longer mutate.
    Two results compare equal when their columns and summaries are equal.
    :attr:`packets_processed`, :attr:`packets_dropped` and :meth:`describe`
    read the columns and build no more records than they print.
    """

    fields: Tuple[str, ...] = field(repr=False)
    inputs: Sequence[Tuple[int, ...]] = field(repr=False)
    ragged: Dict[int, Dict[str, int]] = field(repr=False)
    outputs: Sequence[Tuple[int, ...]] = field(repr=False)
    dropped: Sequence[bool] = field(repr=False)
    num_processors: int
    completion_offset: int
    ticks: int
    per_processor_packets: Dict[int, int]
    per_processor_operations: Dict[int, int]
    table_hits: Dict[str, Tuple[int, int]]
    register_dump: Dict[str, List[int]]
    engine: str

    def _record_list(self, count: int) -> List[DrmtPacketRecord]:
        """The records of the first ``count`` packets, built from the columns."""
        names, num_processors, offset = self.fields, self.num_processors, self.completion_offset
        inputs = [dict(zip(names, row)) for row in self.inputs[:count]]
        outputs = [dict(zip(names, row)) for row in self.outputs[:count]]
        for packet, given in self.ragged.items():
            if packet < count:
                inputs[packet] = dict(given)
                outputs[packet] = {
                    name: value for name, value in outputs[packet].items() if value is not UNSET
                }
                outputs[packet].update(
                    (name, value) for name, value in given.items() if name not in names
                )
        return [
            DrmtPacketRecord(
                packet_id=packet,
                processor=packet % num_processors,
                arrival_tick=packet,
                completed_tick=packet + offset,
                inputs=inputs[packet],
                outputs=outputs[packet],
                dropped=bool(dropped),
            )
            for packet, dropped in zip(range(count), self.dropped)
        ]

    @property
    def records(self) -> List[DrmtPacketRecord]:
        """One record per packet, built from the columns."""
        return self._record_list(len(self.outputs))

    @property
    def packets_processed(self) -> int:
        """Packets that completed the program."""
        return len(self.outputs)

    @property
    def packets_dropped(self) -> int:
        """Packets dropped by an action."""
        return sum(map(bool, self.dropped))

    def throughput(self) -> float:
        """Completed packets per simulation tick."""
        if self.ticks == 0:
            return 0.0
        return self.packets_processed / self.ticks

    def describe(self, limit: int = 10) -> str:
        """Human-readable summary (CLI / example output)."""
        total = self.packets_processed
        lines = [
            f"dRMT simulation ({self.engine} engine): {total} packets "
            f"over {self.ticks} ticks ({self.throughput():.2f} packets/tick), "
            f"{self.packets_dropped} dropped",
            f"packets per processor: {dict(sorted(self.per_processor_packets.items()))}",
            f"table hits/misses:     {self.table_hits}",
        ]
        for record in self._record_list(min(total, limit)):
            lines.append(
                f"  packet {record.packet_id} (proc {record.processor}, latency {record.latency}): "
                f"dropped={record.dropped}"
            )
        if total > limit:
            lines.append(f"  ... ({total - limit} more packets)")
        return "\n".join(lines)


class DRMTSimulator:
    """Round-robin dRMT simulation over a dgen bundle."""

    def __init__(
        self,
        bundle: DrmtProgramBundle,
        table_entries: Union[str, Sequence[Tuple[str, TableEntry]], None] = None,
        register_dump_limit: int = 16,
        engine: str = "auto",
    ):
        self.bundle = bundle
        self.register_dump_limit = register_dump_limit
        self.engine = engine
        self.tables = TableStore(bundle.program)
        if table_entries is not None:
            if isinstance(table_entries, str):
                table_entries = parse_entries(table_entries, bundle.program)
            populate_store(self.tables, table_entries)
        self.registers = RegisterFile(bundle.program)
        self.processors = [
            MatchActionProcessor(
                processor_id=index,
                program=bundle.program,
                schedule=bundle.schedule,
                tables=self.tables,
                registers=self.registers,
            )
            for index in range(bundle.hardware.num_processors)
        ]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_packets(
        self, packets: Sequence[Dict[str, int]], tick_accurate: bool = False
    ) -> DrmtSimulationResult:
        """Simulate an explicit packet trace (one packet injected per tick).

        The driver follows the engine layer's selection rules: ``auto``
        runs the bundle's fused ``run_trace`` when the bundle has no register
        hazard, else the per-tick model; ``tick_accurate=True`` always forces
        the per-tick model.
        """
        hazard = self.bundle.hazard
        mode = resolve_engine(
            self.engine,
            fused_available=hazard is None,
            tick_accurate=tick_accurate,
            context="dRMT bundle",
            generic_available=False,
            fused_unavailable_reason=None if hazard is None else hazard_reason(hazard),
        )
        if mode == ENGINE_TICK:
            return self._run_tick(packets)
        return self._run_fused(packets)

    # Engine-protocol alias: packet dicts in, result out.
    run = run_packets

    def _run_fused(self, packets: Sequence[Dict[str, int]]) -> DrmtSimulationResult:
        """Run the whole trace under the bundle's generated fused loop."""
        from ..engine import drmt as drivers

        rows, ragged = drivers.prepare_packets(packets, self.bundle.fields)
        outputs, dropped = drivers.run_fused(self.bundle, self.tables, self.registers, rows)
        return drivers.assemble_result(
            self.bundle,
            self.tables,
            self.registers,
            rows,
            ragged,
            outputs,
            dropped,
            self.register_dump_limit,
            engine=ENGINE_FUSED,
        )

    def _run_tick(self, packets: Sequence[Dict[str, int]]) -> DrmtSimulationResult:
        """The paper's per-tick round-robin processor loop.

        The input rows become the working dicts (a ragged packet's own
        dict), the processors mutate them in place and the loop fills the
        dropped flags; the dicts then go back into rows, with :data:`UNSET`
        for a field still absent, and
        :func:`~repro.engine.drmt.assemble_result` builds the result as for
        the fused driver.  The loop stays an independent reference: a
        packet that completes at a tick other than ``p + makespan - 1``, or
        a tick count or per-processor operation count other than the
        builder's, raises :class:`SimulationError`.
        """
        from ..engine import drmt as drivers

        fields = self.bundle.fields
        rows, ragged = drivers.prepare_packets(packets, fields)
        work = [
            dict(ragged[number]) if number in ragged else dict(zip(fields, row))
            for number, row in enumerate(rows)
        ]
        num_processors = len(self.processors)
        for processor in self.processors:
            processor.operations_executed = 0
        total = len(work)
        dropped = [False] * total
        completion_offset = max(self.bundle.schedule.makespan - 1, 0)

        tick = 0
        injected = 0
        # Keep ticking until every injected packet has completed its program.
        while injected < total or any(processor.in_flight for processor in self.processors):
            if injected < total:
                processor_id = tick % num_processors
                packet = PacketContext(
                    packet_id=injected,
                    fields=work[injected],
                    arrival_tick=tick,
                    processor=processor_id,
                )
                self.processors[processor_id].accept(packet)
                injected += 1

            for processor in self.processors:
                for finished in processor.tick(tick):
                    if finished.completed_tick != finished.packet_id + completion_offset:
                        raise SimulationError(
                            f"packet {finished.packet_id} completed at tick "
                            f"{finished.completed_tick}, expected "
                            f"{finished.packet_id + completion_offset}"
                        )
                    dropped[finished.packet_id] = finished.dropped
            tick += 1
            if tick > (total + 1) * (self.bundle.schedule.makespan + num_processors + 1) + 10:
                raise SimulationError("dRMT simulation failed to drain; schedule appears inconsistent")

        result = drivers.assemble_result(
            self.bundle,
            self.tables,
            self.registers,
            rows,
            ragged,
            [tuple([packet.get(name, UNSET) for name in fields]) for packet in work],
            dropped,
            self.register_dump_limit,
            engine=ENGINE_TICK,
        )
        operations = {
            processor.processor_id: processor.operations_executed for processor in self.processors
        }
        if (tick, operations) != (result.ticks, result.per_processor_operations):
            raise SimulationError(
                f"tick loop ran {tick} ticks and {operations} operations per processor, "
                f"expected {result.ticks} and {result.per_processor_operations}"
            )
        return result

    def run_traffic(
        self,
        count: int,
        seed: int = 0,
        generator: Optional[PacketGenerator] = None,
        tick_accurate: bool = False,
    ) -> DrmtSimulationResult:
        """Generate ``count`` random packets and simulate them."""
        if generator is None:
            generator = PacketGenerator(self.bundle.program, seed=seed)
        return self.run_packets(generator.generate(count), tick_accurate=tick_accurate)
