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

Both drivers report per-run per-processor statistics.  Register and
table-hit state accumulate across runs of one simulator under both drivers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.base import ENGINE_FUSED, ENGINE_TICK, resolve_engine
from ..errors import SimulationError
from ..traffic import PacketGenerator
from .codegen import DrmtProgramBundle
from .fused import hazard_reason
from .processor import MatchActionProcessor, PacketContext, RegisterFile
from .table_config import parse_entries, populate_store
from .tables import TableEntry, TableStore


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


#: What two results must share to compare equal (the records included).
_RESULT_FIELDS = (
    "records",
    "ticks",
    "per_processor_packets",
    "per_processor_operations",
    "table_hits",
    "register_dump",
    "engine",
)


class DrmtSimulationResult:
    """Output of one dRMT simulation run.

    ``engine`` names the driver that produced the result (``tick`` or
    ``fused``).

    The fused driver's result is column-backed (:meth:`from_columns`): it
    keeps the input and output dict columns and the dropped flags, and
    builds the :class:`DrmtPacketRecord` list only when :attr:`records` is
    first read.  Packet ``p``'s id, processor (``p % N``), arrival tick
    (``p``) and completion tick follow from its index.  From then on the
    records list is authoritative, as for :class:`repro.dsim.Trace`.
    :attr:`packets_processed`, :attr:`packets_dropped` and :meth:`describe`
    read the columns and build no more records than they print.
    """

    def __init__(
        self,
        records: Optional[List[DrmtPacketRecord]] = None,
        ticks: int = 0,
        per_processor_packets: Optional[Dict[int, int]] = None,
        per_processor_operations: Optional[Dict[int, int]] = None,
        table_hits: Optional[Dict[str, Tuple[int, int]]] = None,
        register_dump: Optional[Dict[str, List[int]]] = None,
        engine: str = "tick",
    ):
        self._records: Optional[List[DrmtPacketRecord]] = records if records is not None else []
        self._inputs: Sequence[Dict[str, int]] = ()
        self._outputs: Sequence[Dict[str, int]] = ()
        self._dropped: Sequence[bool] = ()
        self._num_processors = 1
        self._completion_offset = 0
        self.ticks = ticks
        self.per_processor_packets = per_processor_packets or {}
        self.per_processor_operations = per_processor_operations or {}
        self.table_hits = table_hits or {}
        self.register_dump = register_dump or {}
        self.engine = engine

    @classmethod
    def from_columns(
        cls,
        inputs: Sequence[Dict[str, int]],
        outputs: Sequence[Dict[str, int]],
        dropped: Sequence[bool],
        num_processors: int,
        completion_offset: int,
        **summary,
    ) -> "DrmtSimulationResult":
        """A result over packets ``0..n-1`` injected round-robin, one per tick.

        Packet ``p`` ran on processor ``p % num_processors``, arrived at tick
        ``p`` and completed at tick ``p + completion_offset``.  The columns
        are kept without copying; callers hand over lists they no longer
        mutate.  ``summary`` carries the remaining constructor fields.
        """
        result = cls(**summary)
        result._records = None
        result._inputs, result._outputs, result._dropped = inputs, outputs, dropped
        result._num_processors = num_processors
        result._completion_offset = completion_offset
        return result

    def _build_records(self, packets: range) -> List[DrmtPacketRecord]:
        """The records of ``packets``, built from the columns."""
        num_processors, offset = self._num_processors, self._completion_offset
        inputs, outputs, dropped = self._inputs, self._outputs, self._dropped
        return [
            DrmtPacketRecord(
                packet_id=packet,
                processor=packet % num_processors,
                arrival_tick=packet,
                completed_tick=packet + offset,
                inputs=inputs[packet],
                outputs=outputs[packet],
                dropped=bool(dropped[packet]),
            )
            for packet in packets
        ]

    @property
    def records(self) -> List[DrmtPacketRecord]:
        """One record per packet, built from the columns on first access."""
        if self._records is None:
            self._records = self._build_records(range(len(self._outputs)))
            self._inputs, self._outputs, self._dropped = (), (), ()
        return self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DrmtSimulationResult):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _RESULT_FIELDS)

    __hash__ = None  # type: ignore[assignment]

    @property
    def packets_processed(self) -> int:
        """Packets that completed the program."""
        if self._records is None:
            return len(self._outputs)
        return len(self._records)

    @property
    def packets_dropped(self) -> int:
        """Packets dropped by an action."""
        if self._records is None:
            return sum(map(bool, self._dropped))
        return sum(1 for record in self._records if record.dropped)

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
        if self._records is None:
            shown = self._build_records(range(total)[:limit])
        else:
            shown = self._records[:limit]
        for record in shown:
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

        inputs, work = drivers.prepare_packets(packets)
        dropped = drivers.run_fused(self.bundle, self.tables, self.registers, work)
        return drivers.assemble_result(
            self.bundle,
            self.tables,
            self.registers,
            inputs,
            work,
            dropped,
            self.register_dump_limit,
            engine=ENGINE_FUSED,
        )

    def _run_tick(self, packets: Sequence[Dict[str, int]]) -> DrmtSimulationResult:
        """The paper's per-tick round-robin processor loop."""
        from ..engine.drmt import prepare_packets

        inputs, work = prepare_packets(packets)
        num_processors = len(self.processors)
        for processor in self.processors:
            processor.operations_executed = 0
        records: List[DrmtPacketRecord] = []

        tick = 0
        injected = 0
        total = len(work)
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
                    records.append(
                        DrmtPacketRecord(
                            packet_id=finished.packet_id,
                            processor=finished.processor,
                            arrival_tick=finished.arrival_tick,
                            completed_tick=finished.completed_tick,
                            inputs=inputs[finished.packet_id],
                            outputs=finished.fields,
                            dropped=finished.dropped,
                        )
                    )
            tick += 1
            if tick > (total + 1) * (self.bundle.schedule.makespan + num_processors + 1) + 10:
                raise SimulationError("dRMT simulation failed to drain; schedule appears inconsistent")

        records.sort(key=lambda record: record.packet_id)
        packets_done = Counter(record.processor for record in records)
        return DrmtSimulationResult(
            records=records,
            ticks=tick,
            per_processor_packets={
                processor.processor_id: packets_done[processor.processor_id]
                for processor in self.processors
            },
            per_processor_operations={
                processor.processor_id: processor.operations_executed for processor in self.processors
            },
            table_hits=self.tables.hit_statistics(),
            register_dump={
                name: self.registers.dump(name, self.register_dump_limit)
                for name in self.bundle.program.registers
            },
        )

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
