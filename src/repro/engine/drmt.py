"""The dRMT fused driver and its shard-local entry point.

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
The sharded meta-driver (:mod:`repro.engine.sharded`) runs each shard
through :class:`DrmtShardHandle`, the picklable form of the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..drmt.simulator import DrmtPacketRecord, DrmtSimulationResult
from ..p4.program import P4Program
from .rmt import seed_namespace_cache, _namespace_for


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


# ----------------------------------------------------------------------
# Shard-local execution (the sharded meta-driver's per-shard entry point)
# ----------------------------------------------------------------------
def _reachable_actions(program: P4Program):
    """Every action reachable from a table (including default actions)."""
    for table in program.tables.values():
        action_names = list(table.actions)
        if table.default_action is not None:
            action_names.append(table.default_action)
        for action_name in action_names:
            action = program.actions.get(action_name)
            if action is not None:
                yield action


def written_registers(program: P4Program) -> frozenset:
    """The registers some table-reachable action can write.

    The complement — registers that are only ever *read* — cannot change
    during a run, so reads of their cells are interleaving-invariant: the
    read-set analysis excludes them from shard-key derivation entirely.
    """
    return frozenset(
        call.args[0]
        for action in _reachable_actions(program)
        for call in action.body
        if call.op == "register_write"
    )


def derive_state_fields(program: P4Program) -> Optional[Tuple[str, ...]]:
    """The packet fields that index this program's *writable* stateful registers.

    These are the *state-indexing fields*: hash-partitioning a packet trace
    by their values sends every packet that can touch a given writable
    register cell to the same shard, so each shard owns its slice of the
    register arrays.  Accesses to registers no action ever writes are read
    tracked and ignored — a read-only register's cells cannot change, so
    reads of them are consistent under any partition.  Returns:

    * a (sorted, deduplicated) tuple of field names when every access to a
      writable register in every table-reachable action indexes by a packet
      field whose value arrives *with* the packet (no action rewrites it);
    * the empty tuple when the program writes no registers at all (any
      partition of the trace is then state-safe, however much it reads);
    * ``None`` when some writable register is indexed by an action
      parameter, a constant, or a field that an action rewrites before use —
      the input trace then does not determine which cell a packet touches,
      so no input-derived partition can isolate shards.
    """
    writable = written_registers(program)
    index_fields: set = set()
    written_fields: set = set()
    for action in _reachable_actions(program):
        for call in action.body:
            if call.op in ("modify_field", "add_to_field", "subtract_from_field", "register_read"):
                written_fields.add(call.args[0])
            if call.op == "register_read":
                register, index_arg = call.args[1], call.args[2]
            elif call.op == "register_write":
                register, index_arg = call.args[0], call.args[1]
            else:
                continue
            if register not in writable:
                continue  # read-only register: its cells cannot change
            if "." not in index_arg or index_arg in action.params:
                return None
            index_fields.add(index_arg)
    if index_fields & written_fields:
        return None
    return tuple(sorted(index_fields))


def derive_auto_shard_key(program: P4Program) -> Optional[Tuple[Tuple[str, ...], Optional[int]]]:
    """The shard key the driver may adopt *without* a caller contract.

    Returns ``(fields, modulus)`` or ``None`` when no provably safe key
    exists.  ``((), None)`` means the program writes no registers (any
    partition is state-safe — read-only registers cannot change, so this
    covers register-free programs *and* pure-configuration readers).  A
    keyed result is restricted to the one case where input-hash partitioning
    provably gives shards exclusive cell ownership: a *single* index field
    shared by every access to a writable register, with every writable
    register array the same ``instance_count`` — the key is then the field
    value reduced modulo that count, so two packets that can touch the same
    cell (equal index modulo the array size) always share a key.  Read-only
    registers are excluded by the read tracking in
    :func:`derive_state_fields` and do not constrain the field or size rule.
    Multi-field or mixed-size programs get no auto key: a tuple hash would
    split packets that collide on one register's cells across shards, where
    a cross-shard read evades the write-based conflict check.  An explicit
    ``shard_key`` remains available for callers who can assert flow
    ownership themselves.
    """
    fields = derive_state_fields(program)
    if fields is None:
        return None
    if not fields:
        return (), None
    if len(fields) > 1:
        return None
    writable = written_registers(program)
    if any(name not in program.registers for name in writable):
        return None
    sizes = {program.registers[name].instance_count for name in writable}
    if len(sizes) != 1:
        return None
    return fields, sizes.pop()


def clone_tables(tables: Dict[str, "object"]) -> Dict[str, "object"]:
    """Shard-private table views: shared (read-only) entries, fresh counters."""
    clones = {}
    for name, table in tables.items():
        clone = type(table)(table.definition, table.program)
        clone.entries = table.entries
        clones[name] = clone
    return clones


@dataclass(frozen=True)
class DrmtShardHandle:
    """Picklable handle to one bundle's fused program.

    Only the generated module's *source text* crosses the process boundary
    (the executed namespace cannot); workers compile it once into the
    process-local namespace cache.
    """

    fused_source: str

    def run(
        self,
        work: List[Dict[str, int]],
        tables: Dict[str, "object"],
        arrays: Dict[str, List[int]],
    ) -> Tuple[List[Dict[str, int]], List[bool], Dict[str, List[int]], Dict[str, Tuple[int, int]]]:
        """Run one shard of packets; returns (fields, dropped, arrays, hits).

        ``tables`` must be shard-private clones (fresh counters) and
        ``arrays`` a shard-private copy of the register arrays; both are
        mutated in place and handed back so the pool path can ship them home.
        """
        dropped = _namespace_for(self.fused_source)["RUN_TRACE"](work, tables, arrays)
        hits = {name: (table.hit_count, table.miss_count) for name, table in tables.items()}
        return work, dropped, arrays, hits


def drmt_shard_handle(bundle) -> DrmtShardHandle:
    """Build the picklable shard handle for a bundle and seed the cache."""
    fused = bundle.fused_program()
    seed_namespace_cache(fused.source, fused.namespace)
    return DrmtShardHandle(fused_source=fused.source)
