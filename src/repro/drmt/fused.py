"""dRMT fused code generation: the run-to-completion analogue of opt level 3.

RMT descriptions generated at opt level 3 carry a ``run_trace`` loop with
every stage inlined; this module gives a dRMT program bundle the same
treatment.  The generated module contains a ``run_trace(packets, tables,
registers)`` function with every scheduled match and action operation
inlined — action bodies specialised per action (argument resolution, field
arithmetic, register indexing with the instance count baked in) in schedule
order — so the per-tick interpreter machinery (operation scans, packet
contexts, argument re-parsing) disappears from the hot path.

Bit-for-bit fidelity to the tick interpreter is preserved *exactly*, not
just for well-behaved programs: the generated loop replays the interpreter's
global execution order.  In the tick model, packet ``p`` (injected at tick
``p``, processor ``p % N``) executes the operations scheduled at relative
cycle ``c`` at global tick ``p + c``, and within one tick the processors
run in id order with each processor's packets in arrival order.  For a fixed
schedule that order depends only on ``t % N``, so dgen precomputes one
cycle visit order per residue (``VISIT_ORDERS``) and the generated loop
walks ticks executing the inlined per-cycle segments in precisely the
interpreter's interleaving — shared registers observe the identical sequence
of reads and writes.

Tables whose every read uses the exact match kind are *dict-specialised*:
instead of hoisting the shared :meth:`MatchActionTable.lookup` (a linear
scan over the entries), the generated prologue builds the table's
:meth:`~repro.drmt.tables.MatchActionTable.exact_index` once per trace and
each match becomes a single dict probe, with hit/miss counts accumulated in
locals and folded back into the table's counters on exit — so the inner
loop is no longer scan-bound while the observable statistics stay identical
to the interpreter's.  Ternary and LPM tables keep the scan.

This loop is dRMT's only sequential driver besides the tick interpreter:
``DRMTSimulator`` runs it directly, and the sharded meta-driver runs it once
per shard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dgen.optimize.peephole import peephole_block
from ..errors import CodegenError
from ..ir import nodes as ir
from ..ir.printer import to_source
from ..p4.program import Action, P4Program, Table
from .scheduler import ACTION_OP, MATCH_OP, Operation, Schedule

#: Name of the generated entry point.
RUN_TRACE_FUNCTION_NAME = "run_trace"


def _ident(name: str) -> str:
    """Sanitise a P4 name into an identifier fragment."""
    return re.sub(r"\W", "_", name)


def _ordered_operations(schedule: Schedule) -> List[Tuple[Operation, int]]:
    """Operations with start cycles, in the interpreter's per-cycle order.

    ``MatchActionProcessor`` executes the operations due at one cycle in
    ``Schedule.operations_at`` order, which is the insertion order of
    ``start_times``; a stable sort by start cycle preserves it.
    """
    return sorted(schedule.start_times.items(), key=lambda item: item[1])


def _segments(schedule: Schedule) -> Dict[int, List[Operation]]:
    """Group operations by start cycle, preserving per-cycle order."""
    segments: Dict[int, List[Operation]] = {}
    for op, start in _ordered_operations(schedule):
        segments.setdefault(start, []).append(op)
    return segments


def visit_orders(schedule: Schedule, num_processors: int) -> List[Tuple[int, ...]]:
    """Per-``tick % N`` order in which active cycles must be visited.

    At tick ``t`` the in-flight packet executing cycle ``c`` is ``p = t - c``
    on processor ``p % N``; the interpreter visits processors in id order and
    each processor's packets in arrival order, so the cycles sort by
    ``(p % N, p)`` — which, for fixed ``t``, depends only on ``t % N``.
    """
    active = sorted(_segments(schedule))
    orders: List[Tuple[int, ...]] = []
    for residue in range(num_processors):
        orders.append(
            tuple(sorted(active, key=lambda c: ((residue - c) % num_processors, -c)))
        )
    return orders


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class DrmtFusedGenerator:
    """Generates the fused module for one program bundle."""

    def __init__(self, program: P4Program, schedule: Schedule, num_processors: int):
        if num_processors < 1:
            raise CodegenError("dRMT fused generation needs at least one processor")
        self.program = program
        self.schedule = schedule
        self.num_processors = num_processors
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
                f"{self.num_processors} processors, "
                f"{len(schedule.start_times)} scheduled operations; the trace loop "
                "replays the tick interpreter's exact cross-packet interleaving."
            ),
            globals=[
                ir.Assign("PROGRAM_NAME", repr(self.program.name)),
                ir.Assign("MAKESPAN", str(schedule.makespan)),
                ir.Assign("NUM_PROCESSORS", str(self.num_processors)),
                ir.Assign("NUM_OPERATIONS", str(len(schedule.start_times))),
                ir.Assign(
                    "VISIT_ORDERS",
                    repr(tuple(visit_orders(schedule, self.num_processors))),
                ),
            ],
        )
        module.functions.append(self._run_trace_function())
        module.trailer.append(ir.Assign("RUN_TRACE", RUN_TRACE_FUNCTION_NAME))
        return module

    def _run_trace_function(self) -> ir.FunctionDef:
        segments = _segments(self.schedule)
        body: List[ir.IRStmt] = []
        body.append(ir.Assign("n", "len(packets)"))
        body.append(ir.Assign("dropped", "[False] * n"))
        if segments:
            body.append(
                ir.If(branches=[("n == 0", [ir.Return("dropped")])], orelse=[])
            )
            body.append(ir.Comment("hoist table lookups, match results and register arrays"))
            exact_tables: List[str] = []
            for table_name in self.program.table_order():
                safe = _ident(table_name)
                if self._is_exact(table_name):
                    # All-exact tables specialise into one dict probe per
                    # match: build the index once per trace, count hits and
                    # misses locally, and fold them back into the table's
                    # counters on exit (identical totals to the linear scan).
                    exact_tables.append(table_name)
                    body.append(ir.Assign(f"table_{safe}", f"tables[{table_name!r}]"))
                    body.append(ir.Assign(f"index_{safe}", f"table_{safe}.exact_index()"))
                    body.append(ir.Assign(f"hits_{safe}", "0"))
                    body.append(ir.Assign(f"misses_{safe}", "0"))
                else:
                    body.append(ir.Assign(f"lookup_{safe}", f"tables[{table_name!r}].lookup"))
                body.append(ir.Assign(f"matched_{safe}", "[None] * n"))
            for register_name in self.program.registers:
                body.append(
                    ir.Assign(f"reg_{_ident(register_name)}", f"registers[{register_name!r}]")
                )
            loop_body = self._tick_loop_body(segments)
            tick_loop = ir.For("t", "range(n + MAKESPAN - 1)", peephole_block(loop_body))
            body.append(tick_loop)
            for table_name in exact_tables:
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
                "Fused dRMT trace loop: walk global ticks and execute the inlined "
                "per-cycle operation segments in the tick interpreter's exact "
                "packet/processor interleaving.  Mutates the packet field dicts and "
                "register arrays in place and returns the per-packet dropped flags."
            ),
        )

    def _tick_loop_body(self, segments: Dict[int, List[Operation]]) -> List[ir.IRStmt]:
        dispatch: List[Tuple[str, List[ir.IRStmt]]] = [
            (f"c == {cycle}", self._segment_stmts(segments[cycle]))
            for cycle in sorted(segments)
        ]
        inner: List[ir.IRStmt] = [
            ir.Assign("p", "t - c"),
            ir.If(
                branches=[
                    (
                        "0 <= p < n and not dropped[p]",
                        [
                            ir.Assign("fields", "packets[p]"),
                            ir.If(branches=dispatch, orelse=[]),
                        ],
                    )
                ],
                orelse=[],
            ),
        ]
        return [ir.For("c", "VISIT_ORDERS[t % NUM_PROCESSORS]", inner)]

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
        table = self.program.tables[table_name]
        action_names = list(table.actions)
        if table.default_action is not None:
            action_names.append(table.default_action)
        for action_name in action_names:
            action = self.program.actions.get(action_name)
            if action is not None and any(call.op == "drop" for call in action.body):
                return True
        return False

    def _segment_stmts(self, operations: Sequence[Operation]) -> List[ir.IRStmt]:
        """One cycle's operations; later ops re-check the drop flag when needed."""
        stmts: List[ir.IRStmt] = []
        drop_possible = False
        for table_name, kind in operations:
            if kind == MATCH_OP:
                op_stmts = self._match_stmts(table_name)
            else:
                op_stmts = self._action_stmts(table_name)
            if drop_possible:
                op_stmts = [
                    ir.If(branches=[("not dropped[p]", op_stmts)], orelse=[])
                ]
            stmts.extend(op_stmts)
            if kind == ACTION_OP and self._may_drop(table_name):
                drop_possible = True
        return stmts

    def _is_exact(self, table_name: str) -> bool:
        """True when the table definition admits the dict specialisation."""
        return self.program.tables[table_name].is_exact

    def _match_stmts(self, table_name: str) -> List[ir.IRStmt]:
        safe = _ident(table_name)
        if self._is_exact(table_name):
            match_fields = self.program.tables[table_name].match_fields()
            key = (
                "(" + ", ".join(f"fields.get({field!r}, 0)" for field in match_fields) + ",)"
                if match_fields
                else "()"
            )
            lookup_stmts: List[ir.IRStmt] = [
                ir.Assign("_entry", f"index_{safe}.get({key})"),
                ir.Assign(f"matched_{safe}[p]", "_entry"),
                ir.If(
                    branches=[("_entry is None", [ir.Assign(f"misses_{safe}", f"misses_{safe} + 1")])],
                    orelse=[ir.Assign(f"hits_{safe}", f"hits_{safe} + 1")],
                ),
            ]
        else:
            lookup_stmts = [ir.Assign(f"matched_{safe}[p]", f"lookup_{safe}(fields)")]
        condition = self._enabled_condition(table_name)
        if condition is None:
            return lookup_stmts
        return [
            ir.If(
                branches=[(condition, lookup_stmts)],
                orelse=[ir.Assign(f"matched_{safe}[p]", "None")],
            )
        ]

    def _action_stmts(self, table_name: str) -> List[ir.IRStmt]:
        table = self.program.tables[table_name]
        safe = _ident(table_name)
        hit_body: List[ir.IRStmt] = [ir.Assign("entry", f"matched_{safe}[p]")]
        dispatch = self._action_dispatch(table)
        miss_body: List[ir.IRStmt] = []
        if table.default_action is not None:
            miss_body = self._action_body(
                self.program.actions[table.default_action], entry_args=False
            )
        inner = [
            ir.If(branches=[("entry is not None", dispatch)], orelse=miss_body)
        ]
        stmts = hit_body + inner
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
        try:
            return str(int(arg, 0))
        except ValueError:
            raise CodegenError(f"cannot resolve action argument {arg!r}") from None


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
    num_processors: int,
    module_name: str = "druzhba_drmt_fused_program",
) -> DrmtFusedProgram:
    """Generate, render, compile and wrap the fused program for one bundle."""
    generator = DrmtFusedGenerator(program, schedule, num_processors)
    module = generator.generate()
    source = to_source(module)
    namespace: Dict[str, object] = {"__name__": module_name}
    code = compile(source, filename=f"<{module_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code is the point of dgen
    fused = DrmtFusedProgram(module=module, source=source, namespace=namespace)
    if not callable(fused.run_trace):
        raise CodegenError("fused dRMT generation produced no callable run_trace")
    return fused
