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
the stateless and then the stateful ALU calls, each taking its input
multiplexers' fragments as arguments, then the output multiplexers that
select the stage's result containers.

At optimisation level 3 ("fused pipeline") the generated module additionally
contains a ``run_trace(inputs, state, values)`` function: one loop over the
input trace whose body is every stage again, from the same stage emitter,
with each ALU's specialised DSL body lowered in place by
:meth:`~repro.dgen.codegen.ALUCode.inline`.  The simulation driver itself
becomes generated code, so the simulator's per-tick machinery (PHV objects,
read/write-half commits, slot shuffling) disappears from the hot path.  For
a feedforward pipeline this is semantically identical to the tick-accurate
model — each stage's state is touched in PHV arrival order either way —
which :mod:`repro.dsim.simulator` exploits as a fast path.  The peephole
pass (:mod:`repro.dgen.optimize.peephole`) is the one cleanup of the
assembled loop body: it folds constants and drops dead stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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

#: One stage's ALU code per slot: (stateless codes, stateful codes).
StageCodes = Tuple[List[ALUCode], List[ALUCode]]


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

        self._shared_alus = {}
        stage_codes: List[StageCodes] = []
        stage_function_names: List[str] = []
        for stage in range(spec.depth):
            stage_codes.append(self._alu_codes(stage))
            stage_function_names.append(self._generate_stage(stage, stage_codes[-1], module))
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
            module.functions.append(self._run_trace(stage_codes, module))
            module.trailer.append(ir.Assign("RUN_TRACE", RUN_TRACE_FUNCTION_NAME))
        return module

    # ------------------------------------------------------------------
    # Per-stage generation
    # ------------------------------------------------------------------
    def _generate_stage(self, stage: int, codes: StageCodes, module: ir.Module) -> str:
        body, result = self._stage_body(stage, codes, module)
        for kind_codes in codes:
            for slot, code in enumerate(kind_codes):
                if (code.stage, code.slot) == (stage, slot):  # its first caller emits it
                    module.functions.extend(code.helpers)
                    module.functions.append(code.function)

        stage_name = f"stage_{stage}"
        module.functions.append(
            ir.FunctionDef(
                name=stage_name,
                params=["phv", "state", "values"],
                body=body + [ir.Return(result)],
                docstring=(
                    f"Execute pipeline stage {stage}: reads the PHV read half, "
                    "updates the stage's stateful-ALU state vectors, and returns the "
                    "write-half container values as a tuple."
                ),
            )
        )
        return stage_name

    def _alu_codes(self, stage: int) -> StageCodes:
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
        self, stage: int, codes: StageCodes, module: ir.Module, fused: bool = False
    ) -> Tuple[List[ir.IRStmt], str]:
        """One stage's statements and the source of its result-container tuple.

        ``stage_k`` returns the tuple and the fused ``run_trace`` loop assigns
        it to ``phv``.  A tuple of ints, unlike a list, leaves the garbage
        collector's care at the first collection it survives, so a long
        trace's outputs add nothing to later collections.  The stateless and
        then the stateful ALUs run first, each taking its input multiplexers'
        fragments as arguments; the output multiplexers then fill the tuple.
        In the loop (``fused``) an ALU's body is inlined where
        :meth:`ALUCode.inline` can, its state vector is the hoisted
        ``state_<stage>_<slot>`` local, and a stateless ALU that no output
        multiplexer reads is not emitted: it is pure, so skipping it cannot
        change the trace.  Stateful ALUs always run, for their state updates.
        """
        width = self.spec.width
        outputs = {
            kind: [f"{kind}_output_{slot}" for slot in range(width)]
            for kind in (naming.STATELESS, naming.STATEFUL)
        }
        results = [
            self._output_mux_code(
                stage, container, outputs[naming.STATELESS], outputs[naming.STATEFUL], module
            )
            for container in range(width)
        ]
        body: List[ir.IRStmt] = []
        for kind, kind_codes in zip((naming.STATELESS, naming.STATEFUL), codes):
            body.append(ir.Comment(f"input multiplexers and {kind} ALUs"))
            for slot, code in enumerate(kind_codes):
                output: Optional[str] = outputs[kind][slot]
                if fused and output not in results:
                    if kind == naming.STATELESS:
                        continue
                    output = None
                operands = [
                    self._input_mux_code(stage, kind, slot, operand, module)
                    for operand in range(code.spec.num_operands)
                ]
                state = f"state_{stage}_{slot}" if fused else f"state[{slot}]"
                inlined = code.inline(operands, state, output) if fused else None
                if inlined is not None:
                    body.extend(inlined)
                elif output is None:
                    body.append(ir.ExprStmt(code.call(operands, state)))
                else:
                    body.append(ir.Assign(output, code.call(operands, state)))
        body.append(ir.Comment("output multiplexers select what each PHV container receives"))
        return body, "(" + ", ".join(results) + ",)"

    # ------------------------------------------------------------------
    # Fused trace loop (opt level 3)
    # ------------------------------------------------------------------
    def _run_trace(self, stage_codes: List[StageCodes], module: ir.Module) -> ir.FunctionDef:
        """The fused ``run_trace`` entry point.

        Every stage body is inlined into one loop over the input trace, so a
        PHV runs through the whole pipeline without any interpreter-side
        per-tick bookkeeping.  Each stateful slot's state vector is hoisted
        into a local before the loop.  Stage-body locals may be reassigned
        across stages inside one loop iteration; that is safe because every
        local is written before it is read within its stage.  The assembled
        loop body runs through the peephole pass, which folds the constant
        residue inlining leaves behind and drops dead stores.
        """
        spec = self.spec
        loop_body: List[ir.IRStmt] = []
        for stage, codes in enumerate(stage_codes):
            loop_body.append(ir.Comment(f"pipeline stage {stage}, inlined"))
            stage_body, result = self._stage_body(stage, codes, module, fused=True)
            loop_body.extend(stage_body)
            loop_body.append(ir.Assign("phv", result))
        loop_body.append(ir.ExprStmt("_append(phv)"))

        body: List[ir.IRStmt] = [
            ir.Comment("hoist loop-invariant state vectors out of the trace loop")
        ]
        for stage in range(spec.depth):
            for slot in range(spec.width):
                body.append(ir.Assign(f"state_{stage}_{slot}", f"state[{stage}][{slot}]"))
        body.append(ir.Assign("outputs", "[]"))
        body.append(ir.Assign("_append", "outputs.append"))
        body.append(ir.For("phv", "inputs", peephole_block(loop_body)))
        body.append(ir.Return("outputs"))
        return ir.FunctionDef(
            name=RUN_TRACE_FUNCTION_NAME,
            params=["inputs", "state", "values"],
            body=body,
            docstring=(
                "Fused trace loop (opt level 3): push every input PHV through all "
                f"{spec.depth} stages sequentially.  Mutates ``state`` in place and "
                "returns one output container tuple per input PHV.  Equivalent to the "
                "tick-accurate model for this feedforward pipeline."
            ),
        )

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
