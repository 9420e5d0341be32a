"""The dRMT fused driver.

The dRMT tick interpreter (:class:`repro.drmt.simulator.DRMTSimulator`'s
per-tick loop) scans every in-flight packet for due operations each cycle.
:func:`run_fused` removes that machinery: it hands the packet trace to the
bundle's generated ``run_trace`` loop (see :mod:`repro.drmt.fused`), which
replays the tick interpreter's exact interleaving over the same shared table
store and register file and is therefore faithful for *any* program.

:func:`assemble_result` builds the same :class:`DrmtSimulationResult` as the
tick interpreter; arrival/completion ticks, processor assignment and
operation counts follow from the round-robin injection discipline (packet
``p`` enters at tick ``p`` on processor ``p % N`` and completes at tick
``p + makespan - 1``), so the records match the tick model field for field.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..drmt.simulator import DrmtPacketRecord, DrmtSimulationResult


def prepare_packets(
    packets: Sequence[Dict[str, int]]
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """Copy the input packets and build integer-coerced working dicts."""
    inputs = [dict(packet) for packet in packets]
    work = [{name: int(value) for name, value in packet.items()} for packet in inputs]
    return inputs, work


def assemble_result(
    bundle,
    tables,
    registers,
    inputs: List[Dict[str, int]],
    work: List[Dict[str, int]],
    dropped: Sequence[bool],
    register_dump_limit: int,
    engine: str,
) -> DrmtSimulationResult:
    """Build the tick-compatible result record for a sequential dRMT run."""
    total = len(inputs)
    makespan = bundle.schedule.makespan
    num_processors = bundle.hardware.num_processors
    completion_offset = makespan - 1 if makespan else 0
    records = [
        DrmtPacketRecord(
            packet_id=packet,
            processor=packet % num_processors,
            arrival_tick=packet,
            completed_tick=packet + completion_offset,
            inputs=inputs[packet],
            outputs=work[packet],
            dropped=bool(dropped[packet]),
        )
        for packet in range(total)
    ]
    per_processor_packets = {
        processor: len(range(processor, total, num_processors))
        for processor in range(num_processors)
    }
    operations = len(bundle.schedule.start_times)
    ticks = 0
    if total:
        ticks = total + completion_offset if makespan else total
    return DrmtSimulationResult(
        records=records,
        ticks=ticks,
        per_processor_packets=per_processor_packets,
        per_processor_operations={
            processor: operations * count
            for processor, count in per_processor_packets.items()
        },
        table_hits=tables.hit_statistics(),
        register_dump={
            name: registers.dump(name, register_dump_limit)
            for name in bundle.program.registers
        },
        engine=engine,
    )


def run_fused(bundle, tables, registers, work: Sequence[Dict[str, int]]) -> List[bool]:
    """Execute the bundle's generated fused loop on prepared packet dicts."""
    return bundle.fused_program().run_trace(work, tables.tables, registers.arrays())
