"""dRMT dsim: the disaggregated match+action simulator (paper §4.2).

"At every simulation tick, a packet is generated by the traffic generator and
given to a processor in a round robin fashion.  Matches and actions performed
on packets specified by the given table entries are performed according to
the given dRMT schedule."

Execution goes through the unified engine layer's drivers:

* **tick** — the per-tick round-robin processor loop below (the paper's
  model; ``tick_accurate=True`` forces it);
* **fused** — the bundle's generated ``run_trace`` loop, which replays the
  tick interpreter's exact cross-packet interleaving and is faithful for
  any program; the default whenever generation succeeds.

dRMT has no generic driver.  The choice between the two is
:func:`repro.engine.base.resolve_engine`, the rule the RMT facade uses too;
``auto`` runs tick only when fused generation refuses the bundle.

The fused driver reports per-run per-processor statistics, where the tick
interpreter's processors count cumulatively across runs.  Register and
table-hit state accumulate across runs of one simulator under both drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.base import ENGINE_AUTO, ENGINE_FUSED, ENGINE_TICK, resolve_engine
from ..errors import DruzhbaError, SimulationError
from ..traffic import PacketGenerator
from .codegen import DrmtProgramBundle
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


@dataclass
class DrmtSimulationResult:
    """Output of one dRMT simulation run.

    ``engine`` names the driver that produced the result (``tick`` or
    ``fused``).
    """

    records: List[DrmtPacketRecord] = field(default_factory=list)
    ticks: int = 0
    per_processor_packets: Dict[int, int] = field(default_factory=dict)
    per_processor_operations: Dict[int, int] = field(default_factory=dict)
    table_hits: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    register_dump: Dict[str, List[int]] = field(default_factory=dict)
    engine: str = "tick"

    @property
    def packets_processed(self) -> int:
        """Packets that completed the program."""
        return len(self.records)

    @property
    def packets_dropped(self) -> int:
        """Packets dropped by an action."""
        return sum(1 for record in self.records if record.dropped)

    def throughput(self) -> float:
        """Completed packets per simulation tick."""
        if self.ticks == 0:
            return 0.0
        return self.packets_processed / self.ticks

    def describe(self, limit: int = 10) -> str:
        """Human-readable summary (CLI / example output)."""
        lines = [
            f"dRMT simulation ({self.engine} engine): {self.packets_processed} packets "
            f"over {self.ticks} ticks ({self.throughput():.2f} packets/tick), "
            f"{self.packets_dropped} dropped",
            f"packets per processor: {dict(sorted(self.per_processor_packets.items()))}",
            f"table hits/misses:     {self.table_hits}",
        ]
        for record in self.records[:limit]:
            lines.append(
                f"  packet {record.packet_id} (proc {record.processor}, latency {record.latency}): "
                f"dropped={record.dropped}"
            )
        if len(self.records) > limit:
            lines.append(f"  ... ({len(self.records) - limit} more packets)")
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
        prefers the bundle's fused ``run_trace`` and falls back to the tick
        interpreter only when fused generation refuses the bundle;
        ``tick_accurate=True`` always forces the per-tick model.
        """
        # Only auto consults availability (fused generation is cached on the
        # bundle); an explicit fused request goes straight to the generator,
        # which raises its own error.
        fused_available = (
            self._fused_available()
            if self.engine == ENGINE_AUTO and not tick_accurate
            else True
        )
        mode = resolve_engine(
            self.engine,
            fused_available=fused_available,
            tick_accurate=tick_accurate,
            context="dRMT bundle",
            generic_available=False,
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

    def _fused_available(self) -> bool:
        """Whether the bundle's fused loop generates (cached on the bundle).

        Only a generator refusal (a :class:`DruzhbaError` such as
        ``CodegenError``) makes fused unavailable; any other exception is a
        generator bug and propagates.
        """
        try:
            self.bundle.fused_program()
        except DruzhbaError:
            return False
        return True

    def _run_tick(self, packets: Sequence[Dict[str, int]]) -> DrmtSimulationResult:
        """The paper's per-tick round-robin processor loop."""
        num_processors = len(self.processors)
        records: List[DrmtPacketRecord] = []
        inputs: Dict[int, Dict[str, int]] = {}

        tick = 0
        injected = 0
        total = len(packets)
        # Keep ticking until every injected packet has completed its program.
        while injected < total or any(processor.in_flight for processor in self.processors):
            if injected < total:
                processor_id = tick % num_processors
                packet = PacketContext(
                    packet_id=injected,
                    fields=dict(packets[injected]),
                    arrival_tick=tick,
                    processor=processor_id,
                )
                inputs[injected] = dict(packets[injected])
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
                            outputs=dict(finished.fields),
                            dropped=finished.dropped,
                        )
                    )
            tick += 1
            if tick > (total + 1) * (self.bundle.schedule.makespan + num_processors + 1) + 10:
                raise SimulationError("dRMT simulation failed to drain; schedule appears inconsistent")

        records.sort(key=lambda record: record.packet_id)
        return DrmtSimulationResult(
            records=records,
            ticks=tick,
            per_processor_packets={
                processor.processor_id: len(processor.completed) for processor in self.processors
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
