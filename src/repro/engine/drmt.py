"""dRMT drivers: generic run-to-completion and fused.

The dRMT tick interpreter (:class:`repro.drmt.simulator.DRMTSimulator`'s
per-tick loop) scans every in-flight packet for due operations each cycle;
both drivers here remove that machinery while reusing the same shared table
store and register file:

* :class:`RunToCompletionDriver` — the generic driver: the program's
  scheduled operations are compiled once into per-operation closures
  (argument resolution, register bounds and control-flow gating resolved at
  build time), and every packet runs the closure list to completion in
  arrival order.  This reorders cross-packet register accesses relative to
  the tick model, which is invisible exactly when
  :func:`repro.drmt.fused.run_to_completion_hazard` reports no hazard — the
  driver refuses to build otherwise.
* :func:`run_fused` — hands the packet trace to the bundle's generated
  ``run_trace`` loop (see :mod:`repro.drmt.fused`), which replays the tick
  interpreter's exact interleaving and is therefore faithful for *any*
  program.

Both drivers assemble the same :class:`DrmtSimulationResult` as the tick
interpreter; arrival/completion ticks, processor assignment and operation
counts follow from the round-robin injection discipline (packet ``p`` enters
at tick ``p`` on processor ``p % N`` and completes at tick
``p + makespan - 1``), so the records match the tick model field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..drmt.fused import run_to_completion_hazard
from ..drmt.scheduler import ACTION_OP, MATCH_OP, Schedule
from ..drmt.simulator import DrmtPacketRecord, DrmtSimulationResult
from ..errors import SimulationError
from ..p4.program import Action, P4Program
from .rmt import seed_namespace_cache, _namespace_for

#: Closure signature of one compiled operation: (fields, matched) -> dropped?
OpClosure = Callable[[Dict[str, int], Dict[str, object]], bool]


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


class RunToCompletionDriver:
    """Compiled run-to-completion execution of one dRMT bundle."""

    def __init__(self, bundle, tables, registers):
        hazard = run_to_completion_hazard(bundle.program, bundle.schedule)
        if hazard is not None:
            raise SimulationError(
                f"the generic dRMT driver cannot run this program bit-for-bit: {hazard}; "
                "use the fused or tick engine instead"
            )
        self._operations: List[OpClosure] = []
        #: All-exact tables probed through a dict index; refreshed per run so
        #: entries added between runs are picked up (the fused generator
        #: rebuilds its index once per ``run_trace`` call the same way).
        self._exact_probes: List[Tuple[object, List]] = []
        program = bundle.program
        conditions = {apply.table: apply for apply in program.control_flow}
        ordered = sorted(bundle.schedule.start_times.items(), key=lambda item: item[1])
        arrays = registers.arrays()
        for (table_name, kind), _start in ordered:
            condition = conditions.get(table_name)
            gate: Optional[Tuple[str, int]] = None
            if condition is not None and condition.condition_field is not None:
                gate = (condition.condition_field, condition.condition_value)
            if kind == MATCH_OP:
                self._operations.append(
                    self._compile_match(table_name, tables[table_name], gate)
                )
            elif kind == ACTION_OP:
                self._operations.append(
                    self._compile_action_op(program, table_name, arrays, gate)
                )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, work: Sequence[Dict[str, int]]) -> List[bool]:
        """Run every packet to completion in arrival order; return drop flags."""
        for table, index_cell in self._exact_probes:
            index_cell[0] = table.exact_index()
        operations = self._operations
        dropped = [False] * len(work)
        for packet, fields in enumerate(work):
            matched: Dict[str, object] = {}
            for operation in operations:
                if operation(fields, matched):
                    dropped[packet] = True
                    break
        return dropped

    # ------------------------------------------------------------------
    # Operation compilation
    # ------------------------------------------------------------------
    def _compile_match(
        self, table_name: str, table, gate: Optional[Tuple[str, int]]
    ) -> OpClosure:
        """One match operation: a dict probe for all-exact tables, else the scan.

        The dict probe shares :meth:`MatchActionTable.exact_index` with the
        fused code generator — one probe per match instead of a linear scan —
        and preserves the table's hit/miss counters exactly as
        :meth:`MatchActionTable.lookup` would have counted them.
        """
        if table.is_exact:
            field_order = tuple(table.definition.match_fields())
            index_cell: List = [None]  # refreshed at the top of every run()
            self._exact_probes.append((table, index_cell))

            def probe(fields):
                entry = index_cell[0].get(
                    tuple(int(fields.get(name, 0)) for name in field_order)
                )
                if entry is None:
                    table.miss_count += 1
                else:
                    table.hit_count += 1
                return entry

            lookup: Callable = probe
        else:
            lookup = table.lookup
        if gate is None:
            def operation(fields, matched):
                matched[table_name] = lookup(fields)
                return False
        else:
            gate_field, gate_value = gate

            def operation(fields, matched):
                if fields.get(gate_field, 0) == gate_value:
                    matched[table_name] = lookup(fields)
                else:
                    matched[table_name] = None
                return False

        return operation

    def _compile_action_op(
        self,
        program: P4Program,
        table_name: str,
        arrays: Dict[str, List[int]],
        gate: Optional[Tuple[str, int]],
    ) -> OpClosure:
        table = program.tables[table_name]
        bodies = {
            name: self._compile_action(program.actions[name], arrays)
            for name in table.actions
        }
        default_body = None
        if table.default_action is not None:
            default_body = self._compile_action(
                program.actions[table.default_action], arrays
            )
        no_args: List[int] = []

        def operation(fields, matched):
            if gate is not None and fields.get(gate[0], 0) != gate[1]:
                return False
            entry = matched.get(table_name)
            if entry is None:
                if default_body is None:
                    return False
                return default_body(fields, no_args)
            return bodies[entry.action](fields, list(entry.action_args))

        return operation

    @staticmethod
    def _compile_action(action: Action, arrays: Dict[str, List[int]]) -> Callable:
        """Compile one action body into a closure over (fields, args)."""
        params = list(action.params)

        def resolver(arg: str) -> Callable:
            if arg in params:
                position = params.index(arg)
                return lambda fields, args: args[position] if position < len(args) else 0
            if "." in arg:
                return lambda fields, args, name=arg: int(fields.get(name, 0))
            try:
                constant = int(arg, 0)
            except ValueError:
                raise SimulationError(f"cannot resolve action argument {arg!r}") from None
            return lambda fields, args: constant

        steps: List[Callable] = []
        for call in action.body:
            op = call.op
            if op == "no_op":
                continue
            if op == "drop":
                steps.append(lambda fields, args: True)
                continue
            if op in ("modify_field", "add_to_field", "subtract_from_field"):
                destination = call.args[0]
                source = resolver(call.args[1])
                if op == "modify_field":
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = source(fields, args)
                elif op == "add_to_field":
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = fields.get(destination, 0) + source(fields, args)
                else:
                    def step(fields, args, destination=destination, source=source):
                        fields[destination] = fields.get(destination, 0) - source(fields, args)
                steps.append(step)
                continue
            if op == "register_read":
                destination, register = call.args[0], call.args[1]
                index = resolver(call.args[2])
                array = arrays[register]
                size = len(array)

                def step(fields, args, destination=destination, array=array, size=size, index=index):
                    fields[destination] = array[index(fields, args) % size]

                steps.append(step)
                continue
            if op == "register_write":
                register = call.args[0]
                index = resolver(call.args[1])
                value = resolver(call.args[2])
                array = arrays[register]
                size = len(array)

                def step(fields, args, array=array, size=size, index=index, value=value):
                    array[index(fields, args) % size] = int(value(fields, args))

                steps.append(step)
                continue
            raise SimulationError(f"unsupported primitive {op!r}")  # pragma: no cover

        def run_action(fields, args) -> bool:
            was_dropped = False
            for step in steps:
                if step(fields, args):
                    was_dropped = True
            return was_dropped

        return run_action


def run_fused(
    bundle,
    tables,
    registers,
    work: Sequence[Dict[str, int]],
    observer: Optional[Callable] = None,
) -> List[bool]:
    """Execute the bundle's generated fused loop on prepared packet dicts."""
    fused = bundle.fused_program()
    arrays = registers.arrays()
    if observer is None:
        return fused.run_trace(work, tables.tables, arrays)
    return fused.run_trace_observed(work, tables.tables, arrays, observer)


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


class _ShardBundle(NamedTuple):
    """The slice of a program bundle the run-to-completion driver consumes."""

    program: P4Program
    schedule: Schedule


class _ShardRegisters:
    """Register-file stand-in handing the driver a shard's private arrays."""

    def __init__(self, arrays: Dict[str, List[int]]):
        self._arrays = arrays

    def arrays(self) -> Dict[str, List[int]]:
        return self._arrays


@dataclass(frozen=True)
class DrmtShardHandle:
    """Picklable handle to one compiled dRMT program.

    For the fused mode only the generated module's *source text* crosses the
    process boundary (the executed namespace cannot); workers compile it once
    into the process-local namespace cache.  The generic mode rebuilds the
    run-to-completion closures from the program and schedule in each worker.
    """

    mode: str
    program: P4Program
    schedule: Schedule
    fused_source: Optional[str] = None

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
        if self.mode == "fused":
            namespace = _namespace_for(self.fused_source)
            dropped = namespace["RUN_TRACE"](work, tables, arrays)
        else:
            driver = RunToCompletionDriver(
                _ShardBundle(self.program, self.schedule),
                tables,
                _ShardRegisters(arrays),
            )
            dropped = driver.run(work)
        hits = {name: (table.hit_count, table.miss_count) for name, table in tables.items()}
        return work, dropped, arrays, hits


def drmt_shard_handle(bundle, mode: str) -> DrmtShardHandle:
    """Build the picklable shard handle for a bundle and seed the cache."""
    if mode not in ("generic", "fused"):
        raise SimulationError(f"dRMT shards run under generic or fused drivers, not {mode!r}")
    fused_source = None
    if mode == "fused":
        fused = bundle.fused_program()
        fused_source = fused.source
        seed_namespace_cache(fused_source, fused.namespace)
    return DrmtShardHandle(
        mode=mode,
        program=bundle.program,
        schedule=bundle.schedule,
        fused_source=fused_source,
    )
