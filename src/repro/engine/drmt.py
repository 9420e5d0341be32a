"""The dRMT fused driver and the result builder both dRMT drivers share.

The dRMT tick interpreter (:class:`repro.drmt.simulator.DRMTSimulator`'s
per-tick loop) scans every in-flight packet for due operations each cycle.
:func:`run_fused` removes that machinery: it hands the packet trace to the
bundle's generated ``run_trace`` loop (see :mod:`repro.drmt.fused`), which
runs over the same shared table store and register file.  The loop runs
each packet to completion; a bundle has it only when the schedule proves
that bit-identical to the tick interpreter (no register hazard), and the
facade runs every other bundle under tick.

:func:`prepare_packets` is the one place a dRMT input value is decided,
for the tick driver and the fused one alike: it copies the trace twice at C
speed, once for the records' input column and once for the working dicts a
driver mutates, and reads every value as an exact ``int``.

:func:`assemble_result` builds the :class:`DrmtSimulationResult` of both
drivers: it keeps the input dicts, the mutated working dicts and the
dropped flags, and records are built from them on read.  Arrival/completion
ticks, processor assignment and operation counts follow from the
round-robin injection discipline (packet ``p`` enters at tick ``p`` on
processor ``p % N`` and completes at tick ``p + makespan - 1``); the tick
interpreter checks its own counts against them.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Dict, List, Sequence, Tuple

from ..drmt.simulator import DrmtSimulationResult
from ..errors import SimulationError


def prepare_packets(
    packets: Sequence[Dict[str, int]]
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """Read the input packets as an input column and working dicts of exact ints.

    A value is accepted when :func:`operator.index` accepts it (``int``,
    ``bool``, ``IntEnum``, ...) and stored as an exact ``int``; any other
    value (``float``, ``str``, ``None``, ``Decimal``) raises
    :class:`SimulationError` naming the packet and the field.

    Both copies are the caller's own: the result never aliases the packet
    dicts passed in.  When every field value is already an ``int`` (checked
    at C speed over the flattened values), both are plain copies; only a
    trace with another value type takes the per-value pass.
    """
    inputs = list(map(dict, packets))
    if not set(map(type, chain.from_iterable(map(dict.values, inputs)))) <= {int}:
        for number, packet in enumerate(inputs):
            for name, value in packet.items():
                try:
                    packet[name] = index(value)
                except TypeError:
                    raise SimulationError(
                        f"packet {number} field {name!r}: "
                        f"{value!r} ({type(value).__name__}) is not an integer"
                    ) from None
    return inputs, list(map(dict.copy, inputs))


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
    """Build the result of a dRMT run from its columns, whatever its driver."""
    total = len(inputs)
    makespan = bundle.schedule.makespan
    num_processors = bundle.hardware.num_processors
    completion_offset = makespan - 1 if makespan else 0
    per_processor_packets = {
        processor: len(range(processor, total, num_processors))
        for processor in range(num_processors)
    }
    operations = len(bundle.schedule.start_times)
    ticks = 0
    if total:
        ticks = total + completion_offset if makespan else total
    return DrmtSimulationResult(
        inputs,
        work,
        dropped,
        num_processors,
        completion_offset,
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
