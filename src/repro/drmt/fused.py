"""dRMT fused code generation: the run-to-completion analogue of opt level 3.

RMT descriptions generated at opt level 3 carry a ``run_trace`` loop with
every stage inlined; this module gives a dRMT program bundle the same
treatment.  The generated module contains a ``run_trace(rows, tables,
registers)`` function with every scheduled match and action operation
inlined — action bodies specialised per action (argument resolution, field
arithmetic, register indexing with the instance count baked in) in schedule
order — so the per-tick interpreter machinery (operation scans, packet
contexts, argument re-parsing) disappears from the hot path.

A packet is one tuple of ints in ``P4Program.all_fields()`` order, like a
dRMT processor's fixed packet header vector: the loop unpacks each row into
one local per field (``f0, f1, ... = rows[p]``), reads and writes those
locals, and appends one output tuple per packet.  A ragged packet's absent
field holds :data:`~repro.drmt.simulator.UNSET`, which reads as 0; the two
sites that store a field unchanged (``modify_field`` from a field and
``register_write`` of one) add ``+ 0``, so a copied absent field is a plain 0.

The loop runs each packet to completion, packet after packet, and is
bit-identical to the tick interpreter whenever :func:`register_hazard`
holds no hazard.  In the tick model, packet ``p`` (injected at tick ``p``,
processor ``p % N``) executes the operations scheduled at relative cycle
``c`` at global tick ``p + c``.  Packets interact only through registers:
tables are read-only, hit counts are sums and a drop flag affects its own
packet.  When every register some action writes is read and written at one
cycle only, packet ``p`` reaches each such register at tick ``p + c``, so the
tick interleaving orders every register's accesses by packet index -- the
order of the per-packet loop.  Match results live in locals, and a packet
that may have been dropped skips its remaining operations with ``continue``.

A bundle with a hazard has no fused program: :func:`generate_fused` raises
:class:`~repro.errors.CodegenError` naming the register and its cycles, and
``DRMTSimulator`` runs such a bundle under the tick interpreter.

No match calls the shared :meth:`MatchActionTable.lookup` (a linear scan
that tests every entry and takes the best candidate).  The generated
prologue builds one probe structure per table, once per trace: tables whose
every read uses the exact match kind are *dict-specialised* through
:meth:`~repro.drmt.tables.MatchActionTable.exact_index`, so each match is a
single dict probe; ternary, LPM and mixed tables get
:meth:`~repro.drmt.tables.MatchActionTable.masked_rows`, and each match is an
inline first-match loop comparing every field under the row's mask, the
rows pre-sorted so the first hit is ``lookup``'s winner.  Both probes hold
each entry's action resolved (an index into the table's actions and its
arguments padded to the action's arity), so a hit dispatches on an int and
reads its arguments without a length test.  Hit and miss counts
accumulate in locals and are folded back into the table's counters on exit,
so the observable statistics stay identical to the interpreter's.  The tick
interpreter keeps calling ``lookup``, which makes tick-vs-fused equivalence
an independent check of the row semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import CodegenError
from ..ir import nodes as ir
from ..ir.printer import execute
from ..p4.dependency import table_usage
from ..p4.program import Action, P4Program, Table, integer_literal
from .scheduler import ACTION_OP, MATCH_OP, Schedule

#: Name of the generated entry point.
RUN_TRACE_FUNCTION_NAME = "run_trace"

#: ``(register, cycles)``: a written register that actions access at several cycles.
Hazard = Tuple[str, Tuple[int, ...]]


def _ident(name: str) -> str:
    """Sanitise a P4 name into an identifier fragment."""
    return re.sub(r"\W", "_", name)


def register_hazard(program: P4Program, schedule: Schedule) -> Optional[Hazard]:
    """The first written register that actions access at more than one cycle.

    Returns ``(register, cycles)``, or ``None`` when every register that
    some action writes (default actions included) is read and written at
    one cycle only.  Then packet ``p`` reaches each such register at tick
    ``p + cycle``, so the tick interleaving orders every register's accesses
    by packet index -- the order a per-packet loop produces.  A register
    that nothing writes never changes, so its readers may sit anywhere.
    Each table's registers come from :func:`~repro.p4.dependency.table_usage`,
    the analysis the scheduler orders the tables by.
    """
    cycles: Dict[str, Set[int]] = {}
    written: Set[str] = set()
    for table_name in program.table_order():
        usage = table_usage(program, table_name)
        written |= usage.register_writes
        start = schedule.start(table_name, ACTION_OP)
        for register in usage.registers:
            cycles.setdefault(register, set()).add(start)
    for register in program.registers:
        if register in written and len(cycles[register]) > 1:
            return register, tuple(sorted(cycles[register]))
    return None


def hazard_reason(hazard: Hazard) -> str:
    """Why a bundle with ``hazard`` has no fused program."""
    register, cycles = hazard
    return (
        f"register {register!r} is accessed at cycles {', '.join(map(str, cycles))}, "
        "so packets interleave on it and cannot run to completion one by one"
    )


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class DrmtFusedGenerator:
    """Generates the fused module for one program bundle."""

    def __init__(self, program: P4Program, schedule: Schedule):
        hazard = register_hazard(program, schedule)
        if hazard is not None:
            raise CodegenError(hazard_reason(hazard))
        self.program = program
        self.schedule = schedule
        self._conditions = {apply.table: apply for apply in program.control_flow}
        #: One local per declared field, in ``all_fields()`` order: the row layout.
        self._locals = {name: f"f{index}" for index, name in enumerate(program.all_fields())}
        self._row = ", ".join(self._locals.values()) + ("," if len(self._locals) == 1 else "")
        self._emit = ir.ExprStmt(f"emit(({self._row}))")

    # ------------------------------------------------------------------
    # Module assembly
    # ------------------------------------------------------------------
    def generate(self) -> ir.Module:
        """Build the fused dRMT module."""
        schedule = self.schedule
        module = ir.Module(
            docstring=(
                f"Fused dRMT program for {self.program.name!r} generated by dgen.\n\n"
                f"makespan={schedule.makespan} cycles, "
                f"{len(schedule.start_times)} scheduled operations; the trace loop "
                "runs each packet to completion, packet after packet: every register "
                "an action writes is read and written at one cycle, so packets reach "
                "it in packet order."
            ),
            globals=[
                ir.Assign("PROGRAM_NAME", repr(self.program.name)),
                ir.Assign("NUM_OPERATIONS", str(len(schedule.start_times))),
            ],
        )
        module.functions.append(self._run_trace_function())
        module.trailer.append(ir.Assign("RUN_TRACE", RUN_TRACE_FUNCTION_NAME))
        return module

    def _run_trace_function(self) -> ir.FunctionDef:
        body: List[ir.IRStmt] = [
            ir.Assign("n", "len(rows)"),
            ir.Assign("dropped", "[False] * n"),
            ir.Assign("outputs", "[]"),
            ir.If(branches=[("n == 0", [ir.Return("outputs, dropped")])], orelse=[]),
            ir.Assign("emit", "outputs.append"),
            ir.Comment("hoist table probes and register arrays"),
        ]
        table_names = self.program.table_order()
        for table_name in table_names:
            # Build each table's probe structure once per trace (a dict
            # index for all-exact tables, first-match masked rows for the
            # rest), count hits and misses locally, and fold them back
            # into the table's counters on exit (identical totals to
            # ``lookup``).
            safe = _ident(table_name)
            body.append(ir.Assign(f"table_{safe}", f"tables[{table_name!r}]"))
            if self._is_exact(table_name):
                body.append(ir.Assign(f"index_{safe}", f"table_{safe}.exact_index()"))
            else:
                body.append(ir.Assign(f"rows_{safe}", f"table_{safe}.masked_rows()"))
            body.append(ir.Assign(f"hits_{safe}", "0"))
            body.append(ir.Assign(f"misses_{safe}", "0"))
        for register_name in self.program.registers:
            body.append(
                ir.Assign(f"reg_{_ident(register_name)}", f"registers[{register_name!r}]")
            )
        body.append(ir.For("p", "range(n)", self._packet_body()))
        for table_name in table_names:
            safe = _ident(table_name)
            body.append(
                ir.Assign(f"table_{safe}.hit_count", f"table_{safe}.hit_count + hits_{safe}")
            )
            body.append(
                ir.Assign(f"table_{safe}.miss_count", f"table_{safe}.miss_count + misses_{safe}")
            )
        body.append(ir.Return("outputs, dropped"))
        return ir.FunctionDef(
            name=RUN_TRACE_FUNCTION_NAME,
            params=["rows", "tables", "registers"],
            body=body,
            docstring=(
                "Fused dRMT trace loop: unpack each packet's row into one local per "
                "field, run its inlined operations to completion in schedule order and "
                "append its output row, packet after packet, which the module's loop "
                "shape proves bit-identical to the tick interleaving.  Mutates the "
                "register arrays in place and returns the output rows and the "
                "per-packet dropped flags."
            ),
        )

    def _packet_body(self) -> List[ir.IRStmt]:
        """One packet's operations in schedule order; a drop skips the rest.

        ``MatchActionProcessor`` executes the operations due at one cycle in
        ``Schedule.operations_at`` order, which is the insertion order of
        ``start_times``; a stable sort by start cycle preserves it.  A
        packet's output row is appended once: at the end of the loop body,
        or, for a packet that an action drops before the last operation, at
        the end of that action, which holds every write made before the
        ``continue``.
        """
        operations = sorted(self.schedule.start_times, key=self.schedule.start_times.get)
        body: List[ir.IRStmt] = [ir.Assign(self._row or "()", "rows[p]")]
        for index, (table_name, kind) in enumerate(operations):
            if kind == MATCH_OP:
                body.extend(self._match_stmts(table_name))
                continue
            follows = index + 1 < len(operations)
            body.extend(self._action_stmts(table_name, emit_on_drop=follows))
            if follows and self._may_drop(table_name):
                body.append(ir.If(branches=[("dropped[p]", [ir.Continue()])], orelse=[]))
        body.append(self._emit)
        return body

    # ------------------------------------------------------------------
    # Per-operation emission
    # ------------------------------------------------------------------
    def _enabled_condition(self, table_name: str) -> Optional[str]:
        condition = self._conditions.get(table_name)
        if condition is None or condition.condition_field is None:
            return None
        return f"{self._locals[condition.condition_field]} == {condition.condition_value}"

    def _may_drop(self, table_name: str) -> bool:
        return any(
            call.op == "drop"
            for action_name in self.program.tables[table_name].action_names()
            for call in self.program.actions[action_name].body
        )

    def _is_exact(self, table_name: str) -> bool:
        """True when the table definition admits the dict specialisation."""
        return self.program.tables[table_name].is_exact

    def _match_stmts(self, table_name: str) -> List[ir.IRStmt]:
        safe = _ident(table_name)
        keys = [self._locals[field] for field in self.program.tables[table_name].match_fields()]
        if self._is_exact(table_name):
            key = "(" + "".join(f"{key}, " for key in keys).rstrip() + ")"
            lookup_stmts: List[ir.IRStmt] = [ir.Assign("_entry", f"index_{safe}.get({key})")]
        else:
            # First-match scan over the masked rows (see
            # MatchActionTable.masked_rows): compare each field local under
            # every row's mask.
            row_target = "".join(f"_m{index}, _w{index}, " for index in range(len(keys)))
            row_test = " and ".join(
                f"{key} & _m{index} == _w{index}" for index, key in enumerate(keys)
            )
            lookup_stmts = [
                ir.Assign("_entry", "None"),
                ir.For(
                    f"{row_target}_row_entry",
                    f"rows_{safe}",
                    [
                        ir.If(
                            branches=[
                                (row_test, [ir.Assign("_entry", "_row_entry"), ir.Break()])
                            ],
                            orelse=[],
                        )
                    ],
                ),
            ]
        lookup_stmts += [
            ir.Assign(f"m_{safe}", "_entry"),
            ir.If(
                branches=[("_entry is None", [ir.Assign(f"misses_{safe}", f"misses_{safe} + 1")])],
                orelse=[ir.Assign(f"hits_{safe}", f"hits_{safe} + 1")],
            ),
        ]
        condition = self._enabled_condition(table_name)
        if condition is None:
            return lookup_stmts
        return [
            ir.If(
                branches=[(condition, lookup_stmts)],
                orelse=[ir.Assign(f"m_{safe}", "None")],
            )
        ]

    def _action_stmts(self, table_name: str, emit_on_drop: bool) -> List[ir.IRStmt]:
        table = self.program.tables[table_name]
        hit_body: List[ir.IRStmt] = [ir.Assign("entry", f"m_{_ident(table_name)}")]
        dispatch = self._action_dispatch(table, emit_on_drop)
        miss_body: List[ir.IRStmt] = []
        if table.default_action is not None:
            miss_body = self._action_body(
                self.program.actions[table.default_action], False, emit_on_drop
            )
        # When a hit runs what a miss runs (the default action is the only
        # action and reads no entry arguments), there is nothing to test.
        inner = [ir.If(branches=[("entry is not None", dispatch)], orelse=miss_body)]
        stmts = hit_body + (miss_body if dispatch == miss_body else inner)
        condition = self._enabled_condition(table_name)
        if condition is None:
            return stmts
        return [ir.If(branches=[(condition, stmts)], orelse=[])]

    def _action_dispatch(self, table: Table, emit_on_drop: bool) -> List[ir.IRStmt]:
        """Dispatch over the actions a matched entry may invoke.

        ``entry`` is :meth:`~repro.drmt.tables.MatchActionTable.resolved_action`.
        """
        action_names = list(table.actions)
        if len(action_names) == 1:
            return self._action_body(self.program.actions[action_names[0]], True, emit_on_drop)
        branches: List[Tuple[str, List[ir.IRStmt]]] = []
        for index, action_name in enumerate(action_names):
            body = self._action_body(self.program.actions[action_name], True, emit_on_drop)
            branches.append((f"_act == {index}", body or [ir.Pass()]))
        return [ir.Assign("_act", "entry[0]"), ir.If(branches=branches, orelse=[])]

    def _action_body(self, action: Action, entry_args: bool, emit_on_drop: bool) -> List[ir.IRStmt]:
        """Inline one action: bind used parameters, then its primitive calls.

        An action that drops appends the packet's output row after its last
        call when ``emit_on_drop`` (operations follow, so the loop skips them).
        """
        used_params = {
            arg for call in action.body for arg in call.args if arg in action.params
        }
        bindings: Dict[str, str] = {}
        stmts: List[ir.IRStmt] = []
        for index, param in enumerate(action.params):
            if param not in used_params:
                continue
            if entry_args:
                # The probe padded the arguments to the action's arity.
                local = f"_a{index}"
                stmts.append(ir.Assign(local, f"entry[{index + 1}]"))
                bindings[param] = local
            else:
                # A default action runs with no entry arguments: every
                # parameter binds to 0, as in the interpreter.
                bindings[param] = "0"

        for call in action.body:
            stmts.extend(self._primitive_stmts(call, bindings))
        if emit_on_drop and any(call.op == "drop" for call in action.body):
            stmts.append(self._emit)
        return stmts

    def _primitive_stmts(self, call, bindings: Dict[str, str]) -> List[ir.IRStmt]:
        op = call.op
        if op == "no_op":
            return []
        if op == "drop":
            return [ir.Assign("dropped[p]", "True")]
        if op == "register_write":
            register, index_arg, value_arg = call.args[0], call.args[1], call.args[2]
            return [
                ir.Assign(
                    self._register_cell(register, index_arg, bindings),
                    self._value(value_arg, bindings, stored=True),
                )
            ]
        target = self._locals[call.args[0]]
        if op == "modify_field":
            return [ir.Assign(target, self._value(call.args[1], bindings, stored=True))]
        if op == "add_to_field":
            return [ir.Assign(target, f"{target} + ({self._value(call.args[1], bindings)})")]
        if op == "subtract_from_field":
            return [ir.Assign(target, f"{target} - ({self._value(call.args[1], bindings)})")]
        if op == "register_read":
            return [ir.Assign(target, self._register_cell(call.args[1], call.args[2], bindings))]
        raise CodegenError(f"unsupported primitive {op!r}")  # pragma: no cover - validated upstream

    def _register_cell(self, register: str, index_arg: str, bindings: Dict[str, str]) -> str:
        declaration = self.program.registers.get(register)
        if declaration is None:
            raise CodegenError(f"unknown register {register!r}")
        size = declaration.instance_count
        return f"reg_{_ident(register)}[({self._value(index_arg, bindings)}) % {size}]"

    def _value(self, arg: str, bindings: Dict[str, str], stored: bool = False) -> str:
        """Source fragment for one action argument (the interpreter's ``_resolve``).

        A field that ``stored`` copies unchanged into a field or a register
        gets ``+ 0``, which turns a ragged packet's
        :data:`~repro.drmt.simulator.UNSET` into a plain 0.
        """
        if arg in bindings:
            return bindings[arg]
        if arg in self._locals:
            return f"{self._locals[arg]} + 0" if stored else self._locals[arg]
        value = integer_literal(arg)
        if value is None:
            raise CodegenError(f"cannot resolve action argument {arg!r}")
        return str(value)


@dataclass
class DrmtFusedProgram:
    """A compiled fused dRMT program plus its provenance."""

    module: ir.Module
    source: str
    namespace: Dict[str, object]

    @property
    def run_trace(self) -> Callable:
        """The generated ``run_trace(packets, tables, registers)`` entry point."""
        return self.namespace["RUN_TRACE"]  # type: ignore[return-value]


def generate_fused(
    program: P4Program,
    schedule: Schedule,
    module_name: str = "druzhba_drmt_fused_program",
) -> DrmtFusedProgram:
    """Generate, render, compile and wrap the fused program for one bundle.

    Raises :class:`~repro.errors.CodegenError` when :func:`register_hazard`
    finds a hazard: such a bundle has no fused program.
    """
    generator = DrmtFusedGenerator(program, schedule)
    module = generator.generate()
    source, namespace = execute(module, module_name)
    fused = DrmtFusedProgram(module=module, source=source, namespace=namespace)
    if not callable(fused.run_trace):
        raise CodegenError("fused dRMT generation produced no callable run_trace")
    return fused
