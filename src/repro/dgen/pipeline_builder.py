"""Pipeline description generation (dgen, paper §3.2).

The :class:`PipelineGenerator` takes the three dgen inputs — the pipeline
depth/width, the ALU DSL specifications and (for the optimised levels) the
machine code — and produces a complete pipeline description: a Python module
that defines one function per distinct ALU specialisation, the multiplexer
helper functions, one ``stage_k`` function per pipeline stage and a
``STAGE_FUNCTIONS`` list that the simulator iterates over.

At levels 1-3 an ALU's code depends only on its kind and its own hole
values, so slots that agree on both call one shared function, named after
the first of them (``stage_0_stateless_alu_0``); its docstring lists every
(stage, slot) that calls it.  Level 0 reads its holes at run time by stage
and slot, so it keeps one function per slot.

The "initialization code [that] ensures that the input and output
multiplexers as well as the ALUs are executed in the proper order within the
pipeline" (paper §3.2) corresponds to the body of each ``stage_k`` function:
input multiplexers first, then stateless and stateful ALUs, then the output
multiplexers that write the stage's result containers.

At optimisation level 3 ("fused pipeline") the generated module additionally
contains a ``run_trace(inputs, state, values)`` function with every stage
body inlined into a single loop over the input trace: the simulation driver
itself becomes generated code, so the simulator's per-tick machinery (PHV
objects, read/write-half commits, slot shuffling) disappears from the hot
path.  For a feedforward pipeline this is semantically identical to the
tick-accurate model — each stage's state is touched in PHV arrival order
either way — which :mod:`repro.dsim.simulator` exploits as a fast path.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CodegenError, MissingMachineCodeError
from ..hardware import PipelineSpec
from ..ir import nodes as ir
from ..machine_code import naming
from ..machine_code.pairs import MachineCode
from .codegen import (
    ALUCode,
    ALUFunctionGenerator,
    OPT_FUSED,
    OPT_LEVEL_NAMES,
    OPT_LEVELS,
    OPT_SCC,
    OPT_UNOPTIMIZED,
    input_mux_function_name,
    output_mux_function_name,
)

from .optimize.peephole import peephole_block

#: Name of the fused trace-loop entry point emitted at :data:`OPT_FUSED`.
RUN_TRACE_FUNCTION_NAME = "run_trace"


def _contains_return(statement: ir.IRStmt) -> bool:
    """True when ``statement`` is or contains a ``return`` (blocks inlining)."""
    if isinstance(statement, ir.Return):
        return True
    if isinstance(statement, ir.If):
        for _condition, body in statement.branches:
            if any(_contains_return(inner) for inner in body):
                return True
        return any(_contains_return(inner) for inner in statement.orelse)
    if isinstance(statement, ir.For):
        return any(_contains_return(inner) for inner in statement.body)
    return False


def _stmt_texts(statements: Sequence[ir.IRStmt]) -> Iterator[str]:
    """Every source fragment (targets, expressions, conditions) in ``statements``."""
    for statement in statements:
        if isinstance(statement, ir.Assign):
            yield statement.target
            yield statement.expression
        elif isinstance(statement, (ir.Return, ir.ExprStmt)):
            yield statement.expression
        elif isinstance(statement, ir.If):
            for condition, body in statement.branches:
                yield condition
                yield from _stmt_texts(body)
            yield from _stmt_texts(statement.orelse)
        elif isinstance(statement, ir.For):
            yield statement.iterable
            yield from _stmt_texts(statement.body)


def _name_used(name: str, texts: Sequence[str]) -> bool:
    """True when ``name`` occurs as a whole identifier in any of ``texts``."""
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return any(pattern.search(text) for text in texts)


def _assigned_names(statements: Sequence[ir.IRStmt]) -> set:
    """Simple-name assignment targets anywhere in ``statements``."""
    names: set = set()
    for statement in statements:
        if isinstance(statement, ir.Assign):
            if statement.target.isidentifier():
                names.add(statement.target)
        elif isinstance(statement, ir.If):
            for _condition, body in statement.branches:
                names |= _assigned_names(body)
            names |= _assigned_names(statement.orelse)
        elif isinstance(statement, ir.For):
            names |= _assigned_names(statement.body)
    return names


def _rename_stmt(statement: ir.IRStmt, sub) -> ir.IRStmt:
    """Copy of ``statement`` with ``sub`` applied to every source fragment."""
    if isinstance(statement, ir.Assign):
        return ir.Assign(sub(statement.target), sub(statement.expression))
    if isinstance(statement, ir.Return):
        return ir.Return(sub(statement.expression))
    if isinstance(statement, ir.ExprStmt):
        return ir.ExprStmt(sub(statement.expression))
    if isinstance(statement, ir.If):
        return ir.If(
            branches=[
                (sub(condition), [_rename_stmt(inner, sub) for inner in body])
                for condition, body in statement.branches
            ],
            orelse=[_rename_stmt(inner, sub) for inner in statement.orelse],
        )
    if isinstance(statement, ir.For):
        return ir.For(
            target=statement.target,
            iterable=sub(statement.iterable),
            body=[_rename_stmt(inner, sub) for inner in statement.body],
        )
    return statement


def _prune_dead_assigns(
    statements: List[ir.IRStmt], live_texts: Sequence[str]
) -> List[ir.IRStmt]:
    """Drop simple-name assignments whose targets are never read afterwards.

    ``live_texts`` are the source fragments of the statements that follow
    ``statements`` (e.g. the inlined ALU's output assignment).  Only
    assignments to plain identifiers are candidates — subscript targets like
    ``state[0]`` are state mutations and always kept.  Generated expressions
    at the inline levels are pure arithmetic, so dropping an unused
    assignment cannot change behaviour.
    """
    kept_reversed: List[ir.IRStmt] = []
    used_texts: List[str] = list(live_texts)
    for statement in reversed(statements):
        if (
            isinstance(statement, ir.Assign)
            and statement.target.isidentifier()
            and not _name_used(statement.target, used_texts)
        ):
            continue
        kept_reversed.append(statement)
        used_texts.extend(_stmt_texts([statement]))
    return list(reversed(kept_reversed))


class PipelineGenerator:
    """Generates the pipeline-description module for one hardware configuration."""

    def __init__(
        self,
        spec: PipelineSpec,
        machine_code: Optional[MachineCode] = None,
        opt_level: int = OPT_UNOPTIMIZED,
        validate_machine_code: bool = True,
    ):
        if opt_level not in OPT_LEVELS:
            raise CodegenError(f"opt_level must be one of {OPT_LEVELS}, got {opt_level}")
        if opt_level != OPT_UNOPTIMIZED and machine_code is None:
            raise CodegenError(
                "machine code must be supplied to dgen for SCC propagation / inlining (paper §3.4)"
            )
        self.spec = spec
        self.machine_code = machine_code
        self.opt_level = opt_level
        #: The machine code as a plain dict, copied once for every ALU to read.
        self._values: Optional[Dict[str, int]] = (
            dict(machine_code) if machine_code is not None else None
        )
        #: Per :meth:`generate` call: each distinct ALU specialisation's code
        #: and the (stage, slot)s that call it, keyed on
        #: :meth:`ALUFunctionGenerator.dedup_key`.
        self._shared_alus: Dict[Tuple, Tuple[ALUCode, List[Tuple[int, int]]]] = {}
        if machine_code is not None and validate_machine_code:
            missing = spec.validate_machine_code(machine_code)
            if missing:
                raise MissingMachineCodeError(
                    missing[0],
                    message=(
                        f"machine code is missing {len(missing)} pair(s) required by this "
                        f"pipeline, e.g. {missing[0]!r}"
                    ),
                )

    # ------------------------------------------------------------------
    # Module generation
    # ------------------------------------------------------------------
    def generate(self) -> ir.Module:
        """Build the full pipeline-description module."""
        spec = self.spec
        module = ir.Module(
            docstring=(
                f"Pipeline description for {spec.name!r} generated by dgen.\n\n"
                f"depth={spec.depth}, width={spec.width}, "
                f"stateful ALU={spec.stateful_alu.name!r}, "
                f"stateless ALU={spec.stateless_alu.name!r}, "
                f"optimisation level={self.opt_level} ({OPT_LEVEL_NAMES[self.opt_level]})"
            ),
            globals=[
                ir.Assign("PIPELINE_NAME", repr(spec.name)),
                ir.Assign("PIPELINE_DEPTH", str(spec.depth)),
                ir.Assign("PIPELINE_WIDTH", str(spec.width)),
                ir.Assign("NUM_CONTAINERS", str(spec.num_containers)),
                ir.Assign("NUM_STATE_VARS", str(spec.num_state_vars)),
                ir.Assign("OPT_LEVEL", str(self.opt_level)),
                ir.Assign("OPT_LEVEL_NAME", repr(OPT_LEVEL_NAMES[self.opt_level])),
            ],
        )

        stage_function_names: List[str] = []
        stage_alu_codes: List[Tuple[List[ALUCode], List[ALUCode]]] = []
        self._shared_alus = {}
        for stage in range(spec.depth):
            name, codes = self._generate_stage(stage, module)
            stage_function_names.append(name)
            stage_alu_codes.append(codes)
        for code, callers in self._shared_alus.values():
            if len(callers) > 1:
                code.function.docstring = (
                    f"{code.kind} ALU {code.spec.name!r} shared by (stage, slot) "
                    + ", ".join(map(str, callers))
                    + f" ({OPT_LEVEL_NAMES[self.opt_level]})"
                )

        module.trailer.append(
            ir.Assign("STAGE_FUNCTIONS", "[" + ", ".join(stage_function_names) + "]")
        )
        if self.opt_level == OPT_FUSED:
            self._generate_run_trace(module, stage_alu_codes)
            module.trailer.append(ir.Assign("RUN_TRACE", RUN_TRACE_FUNCTION_NAME))
        return module

    # ------------------------------------------------------------------
    # Per-stage generation
    # ------------------------------------------------------------------
    def _generate_stage(
        self, stage: int, module: ir.Module
    ) -> Tuple[str, Tuple[List[ALUCode], List[ALUCode]]]:
        stateless_codes, stateful_codes = self._alu_codes(stage)

        body, out_names = self._stage_body(stage, stateless_codes, stateful_codes, module)
        body.append(ir.Return("[" + ", ".join(out_names) + "]"))

        for codes in (stateless_codes, stateful_codes):
            for slot, code in enumerate(codes):
                if (code.stage, code.slot) == (stage, slot):  # its first caller emits it
                    module.functions.extend(code.helpers)
                    module.functions.append(code.function)

        stage_name = f"stage_{stage}"
        module.functions.append(
            ir.FunctionDef(
                name=stage_name,
                params=["phv", "state", "values"],
                body=body,
                docstring=(
                    f"Execute pipeline stage {stage}: reads the PHV read half, "
                    "updates the stage's stateful-ALU state vectors, and returns the "
                    "write-half container values."
                ),
            )
        )
        return stage_name, (stateless_codes, stateful_codes)

    def _alu_codes(self, stage: int) -> Tuple[List[ALUCode], List[ALUCode]]:
        """The stateless and stateful ALU code each slot of one stage calls.

        Slots whose :meth:`ALUFunctionGenerator.dedup_key` is equal share one
        :class:`ALUCode`, generated for the first of them and named after it.
        """
        spec = self.spec
        stateless_codes: List[ALUCode] = []
        stateful_codes: List[ALUCode] = []
        for slot in range(spec.width):
            for alu_spec, kind, codes in (
                (spec.stateless_alu, naming.STATELESS, stateless_codes),
                (spec.stateful_alu, naming.STATEFUL, stateful_codes),
            ):
                generator = ALUFunctionGenerator(
                    spec=alu_spec,
                    stage=stage,
                    kind=kind,
                    slot=slot,
                    opt_level=self.opt_level,
                    machine_code=self._values,
                )
                key = generator.dedup_key()
                if key not in self._shared_alus:
                    self._shared_alus[key] = (generator.generate(), [])
                code, callers = self._shared_alus[key]
                callers.append((stage, slot))
                codes.append(code)
        return stateless_codes, stateful_codes

    def _stage_body(
        self,
        stage: int,
        stateless_codes: List[ALUCode],
        stateful_codes: List[ALUCode],
        module: ir.Module,
        state_expr: str = "state",
    ) -> Tuple[List[ir.IRStmt], List[str]]:
        """Emit one stage's statements (without the terminal return/assign).

        ``state_expr`` is the source fragment naming the stage's state vector
        list; the per-stage functions use their ``state`` parameter, while the
        fused ``run_trace`` loop hoists ``state_k = state[k]`` locals.
        Returns the statements and the ``phv_out_*`` variable names holding
        the stage's result containers.
        """
        body: List[ir.IRStmt] = []
        body.append(ir.Comment("input multiplexers and stateless ALUs"))
        stateless_outputs = self._emit_alu_calls(
            stage, naming.STATELESS, stateless_codes, body, module, state_expr
        )
        body.append(ir.Comment("input multiplexers and stateful ALUs"))
        stateful_outputs = self._emit_alu_calls(
            stage, naming.STATEFUL, stateful_codes, body, module, state_expr
        )

        body.append(ir.Comment("output multiplexers select what each PHV container receives"))
        out_names: List[str] = []
        for container in range(self.spec.width):
            out_name = f"phv_out_{container}"
            out_names.append(out_name)
            body.append(
                ir.Assign(
                    out_name,
                    self._output_mux_code(stage, container, stateless_outputs, stateful_outputs, module),
                )
            )
        return body, out_names

    def _emit_alu_calls(
        self,
        stage: int,
        kind: str,
        codes: List[ALUCode],
        body: List[ir.IRStmt],
        module: ir.Module,
        state_expr: str = "state",
    ) -> List[str]:
        """Emit operand selection and ALU invocation; return the output variable names."""
        outputs: List[str] = []
        for slot, code in enumerate(codes):
            operand_vars: List[str] = []
            for operand in range(code.spec.num_operands):
                var_name = f"{kind}_{slot}_operand_{operand}"
                operand_vars.append(var_name)
                body.append(
                    ir.Assign(var_name, self._input_mux_code(stage, kind, slot, operand, module))
                )
            output_var = f"{kind}_output_{slot}"
            outputs.append(output_var)
            state_code = f"{state_expr}[{slot}]"
            body.append(ir.Assign(output_var, code.call(operand_vars, state_code=state_code)))
        return outputs

    # ------------------------------------------------------------------
    # Fused trace loop (opt level 3)
    # ------------------------------------------------------------------
    def _generate_run_trace(
        self,
        module: ir.Module,
        stage_alu_codes: List[Tuple[List[ALUCode], List[ALUCode]]],
    ) -> None:
        """Emit the fused ``run_trace`` entry point.

        Every stage body is inlined into one loop over the input trace, so a
        PHV runs through the whole pipeline without any interpreter-side
        per-tick bookkeeping.  Per-stage state lists are hoisted into locals
        before the loop.  Stage-body locals may be reassigned across stages
        inside one loop iteration; that is safe because every local is
        written before it is read within its stage.  The assembled loop body
        runs through the constant-propagation/peephole pass, which folds the
        constant residue that ALU inlining leaves behind.
        """
        spec = self.spec
        hoists: Dict[str, str] = {}
        loop_body: List[ir.IRStmt] = []
        for stage, (stateless_codes, stateful_codes) in enumerate(stage_alu_codes):
            loop_body.append(ir.Comment(f"pipeline stage {stage}, inlined"))
            loop_body.extend(
                self._fused_stage_stmts(
                    stage, stateless_codes, stateful_codes, module, f"state_{stage}", hoists
                )
            )
        loop_body.append(ir.ExprStmt("_append(phv)"))
        loop_body = peephole_block(loop_body)

        body: List[ir.IRStmt] = []
        body.append(ir.Comment("hoist loop-invariant state vectors out of the trace loop"))
        for stage in range(spec.depth):
            body.append(ir.Assign(f"state_{stage}", f"state[{stage}]"))
        for name, expression in hoists.items():
            body.append(ir.Assign(name, expression))
        body.append(ir.Assign("outputs", "[]"))
        body.append(ir.Assign("_append", "outputs.append"))
        body.append(ir.For("phv", "inputs", loop_body))
        body.append(ir.Return("outputs"))
        module.functions.append(
            ir.FunctionDef(
                name=RUN_TRACE_FUNCTION_NAME,
                params=["inputs", "state", "values"],
                body=body,
                docstring=(
                    "Fused trace loop (opt level 3): push every input PHV through all "
                    f"{spec.depth} stages sequentially.  Mutates ``state`` in place and "
                    "returns one output container list per input PHV.  Equivalent to the "
                    "tick-accurate model for this feedforward pipeline."
                ),
            )
        )

    def _fused_stage_stmts(
        self,
        stage: int,
        stateless_codes: List[ALUCode],
        stateful_codes: List[ALUCode],
        module: ir.Module,
        state_expr: str,
        hoists: Dict[str, str],
    ) -> List[ir.IRStmt]:
        """One stage's statements for the fused loop, specialised further.

        Beyond the per-stage function body, two fusion-only optimisations
        apply (both invisible in the output trace and final state):

        * stateless ALUs are pure, so a stateless ALU whose output no output
          multiplexer selects is not executed at all;
        * ALU bodies with a single top-level ``return`` are inlined into the
          loop (their parameters become loop locals), eliminating the
          per-PHV, per-ALU Python call overhead.

        Stateful ALUs always execute — their state updates must match the
        tick-accurate model bit for bit even when their output is unused.
        """
        spec = self.spec
        stateless_names = [f"stateless_output_{slot}" for slot in range(spec.width)]
        stateful_names = [f"stateful_output_{slot}" for slot in range(spec.width)]
        mux_exprs = [
            self._output_mux_code(stage, container, stateless_names, stateful_names, module)
            for container in range(spec.width)
        ]
        used = set(mux_exprs)

        stmts: List[ir.IRStmt] = []
        for slot, code in enumerate(stateless_codes):
            if stateless_names[slot] not in used:
                continue
            stmts.extend(
                self._fused_alu_stmts(
                    stage,
                    code,
                    slot,
                    stateless_names[slot],
                    state_expr,
                    module,
                    hoists,
                    emit_output=True,
                )
            )
        for slot, code in enumerate(stateful_codes):
            stmts.extend(
                self._fused_alu_stmts(
                    stage,
                    code,
                    slot,
                    stateful_names[slot],
                    state_expr,
                    module,
                    hoists,
                    emit_output=stateful_names[slot] in used,
                )
            )
        stmts.append(ir.Assign("phv", "[" + ", ".join(mux_exprs) + "]"))
        return stmts

    def _fused_alu_stmts(
        self,
        stage: int,
        code: ALUCode,
        slot: int,
        output_var: str,
        state_expr: str,
        module: ir.Module,
        hoists: Dict[str, str],
        emit_output: bool,
    ) -> List[ir.IRStmt]:
        """Emit one ALU's work for the fused loop, inlining its body if possible."""
        operand_codes = [
            self._input_mux_code(stage, code.kind, slot, operand, module)
            for operand in range(code.spec.num_operands)
        ]
        state_code = f"{state_expr}[{slot}]"
        inlined = self._inline_alu_body(
            code, operand_codes, state_code, output_var, emit_output, hoists
        )
        if inlined is not None:
            return inlined
        call = code.call(operand_codes, state_code=state_code)
        if emit_output:
            return [ir.Assign(output_var, call)]
        return [ir.ExprStmt(call)]

    @staticmethod
    def _inline_alu_body(
        code: ALUCode,
        operand_codes: List[str],
        state_code: str,
        output_var: str,
        emit_output: bool,
        hoists: Dict[str, str],
    ) -> Optional[List[ir.IRStmt]]:
        """Inline an ALU function body into the fused loop, or ``None``.

        Only bodies whose single ``return`` is a top-level statement qualify
        (an early ``return`` inside a branch cannot become straight-line
        code); statements after it are unreachable and dropped.  Parameters
        become loop locals, with three refinements that keep per-PHV work
        minimal:

        * dead assignments (e.g. an unused ``_default_output``) are pruned;
        * the ``state`` parameter is loop-invariant, so its binding is
          hoisted out of the loop (via ``hoists``) and renamed into the body
          instead of being rebound for every PHV;
        * an operand used exactly once is substituted into the body rather
          than bound.
        """
        function = code.function
        if function is None:  # pragma: no cover - defensive
            return None
        prefix: List[ir.IRStmt] = []
        returned: Optional[ir.Return] = None
        for statement in function.body:
            if isinstance(statement, ir.Return):
                returned = statement
                break
            if _contains_return(statement):
                return None
            prefix.append(statement)
        if returned is None:
            return None
        args = list(operand_codes)
        if code.kind == naming.STATEFUL:
            args.append(state_code)
        if len(args) != len(function.params):
            return None  # e.g. a runtime ``values`` parameter; keep the call
        live_texts = [returned.expression] if emit_output else []
        prefix = _prune_dead_assigns(prefix, live_texts)
        body_texts = list(_stmt_texts(prefix)) + live_texts
        reassigned = _assigned_names(prefix)

        bindings: List[ir.IRStmt] = []
        mapping: Dict[str, str] = {}
        for param, arg in zip(function.params, args):
            pattern = re.compile(rf"\b{re.escape(param)}\b")
            uses = sum(len(pattern.findall(text)) for text in body_texts)
            if uses == 0:
                continue
            if param in reassigned:
                bindings.append(ir.Assign(param, arg))
            elif arg == state_code and code.kind == naming.STATEFUL and param == function.params[-1]:
                # State vectors are stable objects: hoist the lookup out of
                # the loop and reference the hoisted local from the body.
                hoisted = re.sub(r"\W+", "_", arg).strip("_")
                hoists.setdefault(hoisted, arg)
                mapping[param] = hoisted
            elif uses == 1:
                mapping[param] = arg
            else:
                bindings.append(ir.Assign(param, arg))
        if mapping:
            pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")

            def sub(text: str) -> str:
                return pattern.sub(lambda match: mapping[match.group(1)], text)

            prefix = [_rename_stmt(statement, sub) for statement in prefix]
            returned = ir.Return(sub(returned.expression))

        stmts: List[ir.IRStmt] = bindings + prefix
        if emit_output:
            stmts.append(ir.Assign(output_var, returned.expression))
        return stmts

    # ------------------------------------------------------------------
    # Multiplexers
    # ------------------------------------------------------------------
    def _input_mux_code(self, stage: int, kind: str, slot: int, operand: int, module: ir.Module) -> str:
        width = self.spec.width
        pair_name = naming.input_mux_name(stage, kind, slot, operand)
        function_name = input_mux_function_name(stage, kind, slot, operand)

        if self.opt_level == OPT_UNOPTIMIZED:
            module.functions.append(
                ir.FunctionDef(
                    name=function_name,
                    params=["phv", "opcode"],
                    body=[ir.Return(f"phv[opcode % {width}]")],
                )
            )
            return f'{function_name}(phv, values["{pair_name}"])'

        selected = self._mc_value(pair_name) % width
        if self.opt_level == OPT_SCC:
            module.functions.append(
                ir.FunctionDef(
                    name=function_name,
                    params=["phv"],
                    body=[ir.Return(f"phv[{selected}]")],
                )
            )
            return f"{function_name}(phv)"
        return f"phv[{selected}]"

    def _output_mux_code(
        self,
        stage: int,
        container: int,
        stateless_outputs: List[str],
        stateful_outputs: List[str],
        module: ir.Module,
    ) -> str:
        spec = self.spec
        width = spec.width
        choices = spec.output_mux_choices
        pair_name = naming.output_mux_name(stage, container)
        function_name = output_mux_function_name(stage, container)
        candidate_params = (
            [f"stateless_{i}" for i in range(width)]
            + [f"stateful_{i}" for i in range(width)]
            + ["passthrough"]
        )
        call_args = list(stateless_outputs) + list(stateful_outputs) + [f"phv[{container}]"]

        if self.opt_level == OPT_UNOPTIMIZED:
            branches = [
                (f"opcode % {choices} == {value}", [ir.Return(candidate_params[value])])
                for value in range(choices - 1)
            ]
            module.functions.append(
                ir.FunctionDef(
                    name=function_name,
                    params=candidate_params + ["opcode"],
                    body=[ir.If(branches=branches, orelse=[ir.Return(candidate_params[-1])])],
                )
            )
            return f'{function_name}({", ".join(call_args)}, values["{pair_name}"])'

        selected = self._mc_value(pair_name) % choices
        if self.opt_level == OPT_SCC:
            module.functions.append(
                ir.FunctionDef(
                    name=function_name,
                    params=candidate_params,
                    body=[ir.Return(candidate_params[selected])],
                )
            )
            return f'{function_name}({", ".join(call_args)})'
        return call_args[selected]

    def _mc_value(self, pair_name: str) -> int:
        assert self._values is not None
        try:
            return int(self._values[pair_name])
        except KeyError:
            raise MissingMachineCodeError(pair_name) from None
