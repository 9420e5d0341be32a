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
for the tick driver and the fused one alike: it reads each packet into one
tuple of exact ints in ``P4Program.all_fields()`` order, at C speed when
every packet carries exactly the declared fields.  Those rows are the fused
loop's input and the result's input column; the tick driver turns them
into the working dicts its processors mutate.

:func:`assemble_result` builds the :class:`DrmtSimulationResult` of both
drivers: it keeps the input and output row columns, the ragged packets'
dicts and the dropped flags, and records are built from them on read.
Arrival/completion ticks, processor assignment and operation counts follow
from the round-robin injection discipline (packet ``p`` enters at tick
``p`` on processor ``p % N`` and completes at tick ``p + makespan - 1``);
the tick interpreter checks its own counts against them.
"""

from __future__ import annotations

from itertools import chain
from operator import index, itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from ..drmt.simulator import UNSET, DrmtSimulationResult
from ..errors import SimulationError

Row = Tuple[int, ...]


def prepare_packets(
    packets: Iterable[Dict[str, int]], fields: Sequence[str]
) -> Tuple[List[Row], Dict[int, Dict[str, int]]]:
    """Read the input packets as rows of exact ints in ``fields`` order.

    Returns the rows and the *ragged* packets: those whose keys are not
    exactly ``fields``.  A ragged packet's row holds :data:`UNSET` for each
    field it omits, and its exact-int dict, undeclared keys included, is
    kept by packet index for its records.

    A value is accepted when :func:`operator.index` accepts it (``int``,
    ``bool``, ``IntEnum``, ...) and stored as an exact ``int``; any other
    value (``float``, ``str``, ``None``, ``Decimal``) raises
    :class:`SimulationError` naming the packet and the field.

    When every packet has one key per field (a dict cannot repeat a key, so
    an ``itemgetter`` call that succeeds proves the key set) and every
    value is an ``int`` (checked at C speed over the flattened rows), the
    rows come from one ``itemgetter`` pass; any other trace, and a program
    of fewer than two fields, takes the per-packet pass.  Neither result
    aliases the packet dicts passed in.
    """
    packets = packets if isinstance(packets, (list, tuple)) else list(packets)
    # itemgetter returns a tuple for two or more names only.
    if len(fields) > 1 and set(map(len, packets)) <= {len(fields)}:
        try:
            rows = list(map(itemgetter(*fields), packets))
        except KeyError:
            pass
        else:
            if set(map(type, chain.from_iterable(rows))) <= {int}:
                return rows, {}
    rows, ragged = [], {}
    declared = set(fields)
    for number, packet in enumerate(packets):
        values = {}
        for name, value in packet.items():
            try:
                values[name] = index(value)
            except TypeError:
                raise SimulationError(
                    f"packet {number} field {name!r}: "
                    f"{value!r} ({type(value).__name__}) is not an integer"
                ) from None
        if values.keys() != declared:
            ragged[number] = values
        rows.append(tuple([values.get(name, UNSET) for name in fields]))
    return rows, ragged


def assemble_result(
    bundle,
    tables,
    registers,
    inputs: List[Row],
    ragged: Dict[int, Dict[str, int]],
    outputs: List[Row],
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
        bundle.fields,
        inputs,
        ragged,
        outputs,
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


def run_fused(bundle, tables, registers, rows: Sequence[Row]) -> Tuple[List[Row], List[bool]]:
    """Execute the bundle's generated fused loop on prepared rows: outputs and drop flags."""
    return bundle.fused_program().run_trace(rows, tables.tables, registers.arrays())
