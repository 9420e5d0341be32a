"""dRMT fused code generation: the run-to-completion analogue of opt level 3.

RMT descriptions generated at opt level 3 carry a ``run_trace`` loop with
every stage inlined; this module gives a dRMT program bundle the same
treatment.  The generated module contains a ``run_trace(packets, tables,
registers)`` function with every scheduled match and action operation
inlined — action bodies specialised per action (argument resolution, field
arithmetic, register indexing with the instance count baked in) in schedule
order — so the per-tick interpreter machinery (operation scans, packet
contexts, argument re-parsing) disappears from the hot path.

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
rows pre-sorted so the first hit is ``lookup``'s winner.  Hit and miss counts
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
        body: List[ir.IRStmt] = []
        body.append(ir.Assign("n", "len(packets)"))
        body.append(ir.Assign("dropped", "[False] * n"))
        if self.schedule.start_times:
            body.append(
                ir.If(branches=[("n == 0", [ir.Return("dropped")])], orelse=[])
            )
            body.append(ir.Comment("hoist table probes and register arrays"))
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
                    ir.Assign(
                        f"table_{safe}.miss_count", f"table_{safe}.miss_count + misses_{safe}"
                    )
                )
        body.append(ir.Return("dropped"))
        return ir.FunctionDef(
            name=RUN_TRACE_FUNCTION_NAME,
            params=["packets", "tables", "registers"],
            body=body,
            docstring=(
                "Fused dRMT trace loop: run each packet's inlined operations to "
                "completion in schedule order, packet after packet, which the module's "
                "loop shape proves bit-identical to the tick interleaving.  Mutates the "
                "packet field dicts and register arrays in place and returns the "
                "per-packet dropped flags."
            ),
        )

    def _packet_body(self) -> List[ir.IRStmt]:
        """One packet's operations in schedule order; a drop skips the rest.

        ``MatchActionProcessor`` executes the operations due at one cycle in
        ``Schedule.operations_at`` order, which is the insertion order of
        ``start_times``; a stable sort by start cycle preserves it.
        """
        operations = sorted(self.schedule.start_times, key=self.schedule.start_times.get)
        body: List[ir.IRStmt] = [ir.Assign("fields", "packets[p]")]
        for index, (table_name, kind) in enumerate(operations):
            if kind == MATCH_OP:
                body.extend(self._match_stmts(table_name))
                continue
            body.extend(self._action_stmts(table_name))
            if self._may_drop(table_name) and index + 1 < len(operations):
                body.append(ir.If(branches=[("dropped[p]", [ir.Continue()])], orelse=[]))
        return body

    # ------------------------------------------------------------------
    # Per-operation emission
    # ------------------------------------------------------------------
    def _enabled_condition(self, table_name: str) -> Optional[str]:
        condition = self._conditions.get(table_name)
        if condition is None or condition.condition_field is None:
            return None
        return (
            f"fields.get({condition.condition_field!r}, 0) == {condition.condition_value}"
        )

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
        match_fields = self.program.tables[table_name].match_fields()
        if self._is_exact(table_name):
            key = (
                "(" + ", ".join(f"fields.get({field!r}, 0)" for field in match_fields) + ",)"
                if match_fields
                else "()"
            )
            lookup_stmts: List[ir.IRStmt] = [ir.Assign("_entry", f"index_{safe}.get({key})")]
        else:
            # First-match scan over the masked rows (see
            # MatchActionTable.masked_rows): read each field once, then
            # compare it under every row's mask.
            lookup_stmts = [
                ir.Assign(f"_k{index}", f"fields.get({field!r}, 0)")
                for index, field in enumerate(match_fields)
            ]
            row_target = "".join(f"_m{index}, _w{index}, " for index in range(len(match_fields)))
            row_test = " and ".join(
                f"_k{index} & _m{index} == _w{index}" for index in range(len(match_fields))
            )
            lookup_stmts += [
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

    def _action_stmts(self, table_name: str) -> List[ir.IRStmt]:
        table = self.program.tables[table_name]
        hit_body: List[ir.IRStmt] = [ir.Assign("entry", f"m_{_ident(table_name)}")]
        dispatch = self._action_dispatch(table)
        miss_body: List[ir.IRStmt] = []
        if table.default_action is not None:
            miss_body = self._action_body(
                self.program.actions[table.default_action], entry_args=False
            )
        # When a hit runs what a miss runs (the default action is the only
        # action and reads no entry arguments), there is nothing to test.
        inner = [ir.If(branches=[("entry is not None", dispatch)], orelse=miss_body)]
        stmts = hit_body + (miss_body if dispatch == miss_body else inner)
        condition = self._enabled_condition(table_name)
        if condition is None:
            return stmts
        return [ir.If(branches=[(condition, stmts)], orelse=[])]

    def _action_dispatch(self, table: Table) -> List[ir.IRStmt]:
        """Dispatch over the actions a matched entry may invoke."""
        action_names = list(table.actions)
        if len(action_names) == 1:
            return self._action_body(
                self.program.actions[action_names[0]], entry_args=True
            )
        branches: List[Tuple[str, List[ir.IRStmt]]] = []
        stmts: List[ir.IRStmt] = [ir.Assign("_name", "entry.action")]
        for action_name in action_names:
            body = self._action_body(self.program.actions[action_name], entry_args=True)
            branches.append((f"_name == {action_name!r}", body or [ir.Pass()]))
        stmts.append(ir.If(branches=branches, orelse=[]))
        return stmts

    def _action_body(self, action: Action, entry_args: bool) -> List[ir.IRStmt]:
        """Inline one action: bind used parameters, then its primitive calls."""
        used_params = {
            arg for call in action.body for arg in call.args if arg in action.params
        }
        bindings: Dict[str, str] = {}
        stmts: List[ir.IRStmt] = []
        if entry_args and used_params:
            stmts.append(ir.Assign("_args", "entry.action_args"))
        for index, param in enumerate(action.params):
            if param not in used_params:
                continue
            if entry_args:
                local = f"_a{index}"
                stmts.append(
                    ir.Assign(local, f"_args[{index}] if len(_args) > {index} else 0")
                )
                bindings[param] = local
            else:
                # A default action runs with no entry arguments: every
                # parameter binds to 0, as in the interpreter.
                bindings[param] = "0"

        for call in action.body:
            stmts.extend(self._primitive_stmts(call, bindings))
        return stmts

    def _primitive_stmts(self, call, bindings: Dict[str, str]) -> List[ir.IRStmt]:
        op = call.op
        if op == "no_op":
            return []
        if op == "drop":
            return [ir.Assign("dropped[p]", "True")]
        if op == "modify_field":
            destination, source = call.args[0], call.args[1]
            return [ir.Assign(f"fields[{destination!r}]", self._value(source, bindings))]
        if op == "add_to_field":
            destination, source = call.args[0], call.args[1]
            return [
                ir.Assign(
                    f"fields[{destination!r}]",
                    f"fields.get({destination!r}, 0) + ({self._value(source, bindings)})",
                )
            ]
        if op == "subtract_from_field":
            destination, source = call.args[0], call.args[1]
            return [
                ir.Assign(
                    f"fields[{destination!r}]",
                    f"fields.get({destination!r}, 0) - ({self._value(source, bindings)})",
                )
            ]
        if op == "register_read":
            destination, register, index_arg = call.args[0], call.args[1], call.args[2]
            return [
                ir.Assign(
                    f"fields[{destination!r}]", self._register_cell(register, index_arg, bindings)
                )
            ]
        if op == "register_write":
            register, index_arg, value_arg = call.args[0], call.args[1], call.args[2]
            return [
                ir.Assign(
                    self._register_cell(register, index_arg, bindings),
                    self._value(value_arg, bindings),
                )
            ]
        raise CodegenError(f"unsupported primitive {op!r}")  # pragma: no cover - validated upstream

    def _register_cell(self, register: str, index_arg: str, bindings: Dict[str, str]) -> str:
        declaration = self.program.registers.get(register)
        if declaration is None:
            raise CodegenError(f"unknown register {register!r}")
        size = declaration.instance_count
        return f"reg_{_ident(register)}[({self._value(index_arg, bindings)}) % {size}]"

    def _value(self, arg: str, bindings: Dict[str, str]) -> str:
        """Source fragment for one action argument (the interpreter's ``_resolve``)."""
        if arg in bindings:
            return bindings[arg]
        if "." in arg:
            return f"fields.get({arg!r}, 0)"
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
