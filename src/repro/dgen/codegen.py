"""ALU-level code generation.

This module lowers one analysed ALU DSL specification into the Python
functions of the pipeline description, at one of the three optimisation
levels of the paper (Figure 6):

* **level 0** (version 1, unoptimised): every hole-controlled primitive call
  site becomes a per-site helper function that takes its operands *and* an
  opcode argument and dispatches on the opcode with an ``if``/``elif`` chain;
  the ALU function fetches the opcodes from the ``values`` hash table of
  machine-code pairs at simulation time.
* **level 1** (version 2, SCC propagation): machine-code values are known at
  generation time, so each helper collapses to a single ``return`` of the
  behaviour its opcode selects, the opcode parameters disappear, and ``if``
  statements in the ALU body whose conditions fold to constants are pruned.
  The generated code depends only on the ALU's kind and its own hole
  values (:meth:`ALUFunctionGenerator.dedup_key`), so the pipeline builder
  emits one function and one set of helpers per distinct specialisation and
  lets every slot that shares it call it.
* **level 2** (version 3, SCC propagation + function inlining): the helper
  functions disappear entirely; their specialised bodies are inlined into the
  ALU function, which typically collapses to a handful of assignments.  Slots
  share ALU functions as at level 1.
* **level 3** (fused pipeline): ALU-level code is identical to level 2, but
  the pipeline builder additionally emits a generated ``run_trace`` function
  that loops over the whole input trace inline — one more rung on the paper's
  specialization ladder, moving the simulation driver itself into the
  generated code (see :mod:`repro.dgen.pipeline_builder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..alu_dsl import semantics
from ..alu_dsl.ast_nodes import (
    ALUSpec,
    ArithOpExpr,
    Assign,
    BinaryOp,
    BoolOpExpr,
    ConstExpr,
    Expr,
    If,
    MuxExpr,
    Number,
    OptExpr,
    RelOpExpr,
    Return,
    Stmt,
    UnaryOp,
    Var,
)
from ..errors import CodegenError, MissingMachineCodeError
from ..ir import nodes as ir
from ..machine_code import naming
from .optimize.constant_propagation import (
    specialize_expr,
    specialize_primitive_template,
    specialize_spec,
)
from .optimize.inlining import inline_call

#: Optimisation levels accepted throughout dgen.
OPT_UNOPTIMIZED = 0
OPT_SCC = 1
OPT_SCC_INLINE = 2
OPT_FUSED = 3
OPT_LEVELS = (OPT_UNOPTIMIZED, OPT_SCC, OPT_SCC_INLINE, OPT_FUSED)
OPT_LEVEL_NAMES = {
    OPT_UNOPTIMIZED: "unoptimized",
    OPT_SCC: "scc_propagation",
    OPT_SCC_INLINE: "scc_propagation_and_inlining",
    OPT_FUSED: "fused_pipeline",
}
#: Levels at which helper functions are inlined into the ALU functions.
_INLINE_LEVELS = (OPT_SCC_INLINE, OPT_FUSED)


def alu_function_name(stage: int, kind: str, slot: int) -> str:
    """Name of the generated function implementing one ALU instance."""
    return f"stage_{stage}_{kind}_alu_{slot}"


def helper_function_name(stage: int, kind: str, slot: int, hole: str) -> str:
    """Name of the generated helper function for one primitive call site."""
    return f"stage_{stage}_{kind}_alu_{slot}_{hole}"


def input_mux_function_name(stage: int, kind: str, slot: int, operand: int) -> str:
    """Name of the generated input-multiplexer helper function."""
    return f"stage_{stage}_{kind}_alu_{slot}_input_mux_{operand}"


def output_mux_function_name(stage: int, container: int) -> str:
    """Name of the generated output-multiplexer helper function."""
    return f"stage_{stage}_output_mux_phv_{container}"


@dataclass
class ALUCode:
    """Generated code for one ALU instance.

    ``helpers`` are the per-primitive-site helper functions (empty at the
    inlined level) and ``function`` is the ALU function itself.  ``call``
    renders a call to the ALU function given operand source fragments.
    ``stage`` and ``slot`` are those of the instance it was generated for;
    the pipeline builder lets other slots with the same
    :meth:`ALUFunctionGenerator.dedup_key` call it too.
    """

    stage: int
    kind: str
    slot: int
    spec: ALUSpec
    opt_level: int
    helpers: List[ir.FunctionDef] = field(default_factory=list)
    function: Optional[ir.FunctionDef] = None

    def call(self, operand_codes: Sequence[str], state_code: str = "state") -> str:
        """Python source for invoking this ALU with the given operand fragments.

        ``state_code`` is the source fragment for the ALU's state vector
        (ignored for stateless ALUs).
        """
        if self.function is None:  # pragma: no cover - defensive
            raise CodegenError("ALU function has not been generated")
        args = list(operand_codes)
        if self.kind == naming.STATEFUL:
            args.append(state_code)
        if self.opt_level == OPT_UNOPTIMIZED:
            args.append("values")
        return f"{self.function.name}({', '.join(args)})"


class ALUFunctionGenerator:
    """Generates the helper functions and ALU function for one ALU instance."""

    def __init__(
        self,
        spec: ALUSpec,
        stage: int,
        kind: str,
        slot: int,
        opt_level: int,
        machine_code: Optional[Mapping[str, int]] = None,
    ):
        if opt_level not in OPT_LEVELS:
            raise CodegenError(f"opt_level must be one of {OPT_LEVELS}, got {opt_level}")
        if opt_level != OPT_UNOPTIMIZED and machine_code is None:
            raise CodegenError(
                "SCC propagation and inlining require machine code at generation time (paper §3.4)"
            )
        if kind != spec.kind:
            raise CodegenError(f"ALU spec {spec.name!r} is {spec.kind}, requested kind {kind}")
        self.spec = spec
        self.stage = stage
        self.kind = kind
        self.slot = slot
        self.opt_level = opt_level
        self._machine_code = machine_code
        self._helpers: Dict[str, ir.FunctionDef] = {}
        #: Every hole of this ALU is named ``self._hole_prefix + hole``.
        self._hole_prefix = naming.alu_hole_prefix(stage, kind, slot)
        self._local_holes: Optional[Dict[str, int]] = None
        if machine_code is not None:
            self._local_holes = {}
            for hole in spec.holes:
                full = self._hole_prefix + hole
                if full in machine_code:
                    self._local_holes[hole] = int(machine_code[full])

    def dedup_key(self) -> Tuple:
        """Generators of one spec and opt level with equal keys emit the same code.

        The code differs only in its function names.  Above level 0 it depends
        on the kind and this ALU's own hole values alone, so slots that share
        them can share one function.  Level 0 reads its holes at run time by
        stage and slot, so its key is the slot itself.
        """
        if self.opt_level == OPT_UNOPTIMIZED:
            return (self.kind, self.stage, self.slot)
        return (self.kind, tuple((self._local_holes or {}).items()))

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def generate(self) -> ALUCode:
        """Generate this ALU instance's helpers and function.

        A hole missing from the machine code raises
        :class:`MissingMachineCodeError` with the hole's full pair name.
        """
        try:
            return self._generate()
        except MissingMachineCodeError as error:
            if error.name in self.spec.holes:
                raise MissingMachineCodeError(self._hole_prefix + error.name) from None
            raise

    def _generate(self) -> ALUCode:
        code = ALUCode(
            stage=self.stage,
            kind=self.kind,
            slot=self.slot,
            spec=self.spec,
            opt_level=self.opt_level,
        )
        body: List[ir.IRStmt] = []
        if self.spec.is_stateful and self.spec.state_vars:
            body.append(ir.Comment("default output: value of the first state variable before update"))
            body.append(ir.Assign("_default_output", "state[0]"))

        if self.opt_level in _INLINE_LEVELS:
            specialized = specialize_spec(self.spec, self._local_holes or {})
            body.extend(self._emit_stmts(specialized.body))
        else:
            body.extend(self._emit_stmts(self.spec.body))

        if self.spec.is_stateful and self.spec.state_vars:
            body.append(ir.Return("_default_output"))
        else:
            body.append(ir.Return("0"))

        params = list(self.spec.packet_fields)
        if self.spec.is_stateful:
            params.append("state")
        if self.opt_level == OPT_UNOPTIMIZED:
            params.append("values")

        code.function = ir.FunctionDef(
            name=alu_function_name(self.stage, self.kind, self.slot),
            params=params,
            body=body,
            docstring=(
                f"{self.spec.kind} ALU {self.spec.name!r} at stage {self.stage}, slot {self.slot} "
                f"({OPT_LEVEL_NAMES[self.opt_level]})"
            ),
        )
        code.helpers = list(self._helpers.values())
        return code

    # ------------------------------------------------------------------
    # Statement emission
    # ------------------------------------------------------------------
    def _emit_stmts(self, stmts: Sequence[Stmt]) -> List[ir.IRStmt]:
        emitted: List[ir.IRStmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                emitted.append(ir.Assign(self._target_code(stmt.target), self._expr_code(stmt.value)))
            elif isinstance(stmt, Return):
                emitted.append(ir.Return(self._expr_code(stmt.value)))
            elif isinstance(stmt, If):
                emitted.extend(self._emit_if(stmt))
            else:  # pragma: no cover - defensive
                raise CodegenError(f"unknown statement node {type(stmt).__name__}")
        return emitted

    def _emit_if(self, stmt: If) -> List[ir.IRStmt]:
        # At the SCC levels, conditions whose specialised form folds to a
        # constant are resolved at generation time (abstract interpretation of
        # control flow, paper §3.4).  At level 0 every branch is emitted.
        branches: List = []
        orelse_stmts: Sequence[Stmt] = stmt.orelse
        for condition, body in stmt.branches:
            if self.opt_level != OPT_UNOPTIMIZED:
                folded = specialize_expr(condition, self._local_holes or {}, self.spec.hole_vars)
                if isinstance(folded, Number):
                    if folded.value == 0:
                        continue
                    orelse_stmts = body
                    break
            branches.append((self._expr_code(condition), self._emit_stmts(body)))
        if not branches:
            return self._emit_stmts(orelse_stmts)
        return [ir.If(branches=branches, orelse=self._emit_stmts(orelse_stmts))]

    def _target_code(self, target: str) -> str:
        if target in self.spec.state_vars:
            return f"state[{self.spec.state_vars.index(target)}]"
        return target

    # ------------------------------------------------------------------
    # Expression emission
    # ------------------------------------------------------------------
    def _expr_code(self, expr: Expr) -> str:
        if isinstance(expr, Number):
            return str(expr.value)
        if isinstance(expr, Var):
            return self._var_code(expr.name)
        if isinstance(expr, UnaryOp):
            template = semantics.UNARY_OPS[expr.op][0]
            return template.format(a=self._expr_code(expr.operand))
        if isinstance(expr, BinaryOp):
            template = semantics.BINARY_OPS[expr.op][0]
            return template.format(a=self._expr_code(expr.left), b=self._expr_code(expr.right))
        if isinstance(expr, (MuxExpr, OptExpr, ConstExpr, RelOpExpr, ArithOpExpr, BoolOpExpr)):
            return self._primitive_code(expr)
        raise CodegenError(f"unknown expression node {type(expr).__name__}")

    def _var_code(self, name: str) -> str:
        if name in self.spec.packet_fields:
            return name
        if name in self.spec.state_vars:
            return f"state[{self.spec.state_vars.index(name)}]"
        if name in self.spec.hole_vars:
            if self.opt_level == OPT_UNOPTIMIZED:
                return f'values["{self._hole_prefix}{name}"]'
            return str(self._require_hole(name))
        return name  # local variable

    # ------------------------------------------------------------------
    # Hole-controlled primitives
    # ------------------------------------------------------------------
    def _primitive_code(self, expr) -> str:
        hole = expr.hole_name
        if hole is None:
            raise CodegenError(
                f"ALU {self.spec.name!r} has an unnamed primitive site; run analysis first"
            )
        operand_exprs = self._primitive_operands(expr)
        operand_codes = [self._expr_code(sub) for sub in operand_exprs]

        if self.opt_level == OPT_UNOPTIMIZED:
            helper = self._register_generic_helper(expr, hole, len(operand_codes))
            args = operand_codes + [f'values["{self._hole_prefix}{hole}"]']
            return f"{helper}({', '.join(args)})"

        template, _arity = specialize_primitive_template(expr, self._local_holes or {})
        if self.opt_level in _INLINE_LEVELS:
            return inline_call(template, operand_codes)
        # OPT_SCC: keep the helper-call structure of Figure 6 version 2, but the
        # helper body is the single specialised expression.  Immediates are an
        # exception: a constant needs no function call, it is simply propagated.
        if isinstance(expr, ConstExpr):
            return template
        helper = self._register_specialized_helper(hole, template, len(operand_codes))
        return f"{helper}({', '.join(operand_codes)})"

    @staticmethod
    def _primitive_operands(expr) -> Sequence[Expr]:
        if isinstance(expr, MuxExpr):
            return list(expr.inputs)
        if isinstance(expr, OptExpr):
            return [expr.operand]
        if isinstance(expr, ConstExpr):
            return []
        if isinstance(expr, (RelOpExpr, ArithOpExpr, BoolOpExpr)):
            return [expr.left, expr.right]
        raise CodegenError(f"{type(expr).__name__} is not a primitive")

    def _require_hole(self, hole: str) -> int:
        assert self._local_holes is not None
        if hole not in self._local_holes:
            raise MissingMachineCodeError(self._hole_prefix + hole)
        return self._local_holes[hole]

    # ------------------------------------------------------------------
    # Helper-function registration
    # ------------------------------------------------------------------
    def _register_specialized_helper(self, hole: str, template: str, arity: int) -> str:
        name = helper_function_name(self.stage, self.kind, self.slot, hole)
        if name not in self._helpers:
            params = [f"op{i}" for i in range(arity)]
            body_expr = template.format(**{f"op{i}": f"op{i}" for i in range(arity)})
            self._helpers[name] = ir.FunctionDef(
                name=name,
                params=params,
                body=[ir.Return(body_expr)],
            )
        return name

    def _register_generic_helper(self, expr, hole: str, arity: int) -> str:
        name = helper_function_name(self.stage, self.kind, self.slot, hole)
        if name in self._helpers:
            return name
        params = [f"op{i}" for i in range(arity)] + ["opcode"]
        body = self._generic_helper_body(expr, arity)
        self._helpers[name] = ir.FunctionDef(name=name, params=params, body=body)
        return name

    def _generic_helper_body(self, expr, arity: int) -> List[ir.IRStmt]:
        operand_names = {f"op{i}": f"op{i}" for i in range(arity)}
        if isinstance(expr, MuxExpr):
            width = expr.width
            branches = [
                (f"opcode % {width} == {i}", [ir.Return(f"op{i}")]) for i in range(width - 1)
            ]
            return [ir.If(branches=branches, orelse=[ir.Return(f"op{width - 1}")])]
        if isinstance(expr, OptExpr):
            return [
                ir.If(
                    branches=[("opcode % 2 == 0", [ir.Return("op0")])],
                    orelse=[ir.Return("0")],
                )
            ]
        if isinstance(expr, ConstExpr):
            # The "operation" of an immediate is simply to forward its machine
            # code value.
            return [ir.Return("opcode")]
        if isinstance(expr, RelOpExpr):
            table = semantics.REL_OPS
        elif isinstance(expr, ArithOpExpr):
            table = semantics.ARITH_OPS
        elif isinstance(expr, BoolOpExpr):
            table = semantics.BOOL_OPS
        else:  # pragma: no cover - defensive
            raise CodegenError(f"{type(expr).__name__} is not a primitive")
        size = len(table)
        branches = [
            (
                f"opcode % {size} == {opcode}",
                [ir.Return(table[opcode][0].format(a="{op0}", b="{op1}").format(**operand_names))],
            )
            for opcode in range(size - 1)
        ]
        orelse = [ir.Return(table[size - 1][0].format(a="{op0}", b="{op1}").format(**operand_names))]
        return [ir.If(branches=branches, orelse=orelse)]


def generate_alu(
    spec: ALUSpec,
    stage: int,
    kind: str,
    slot: int,
    opt_level: int,
    machine_code: Optional[Mapping[str, int]] = None,
) -> ALUCode:
    """Convenience wrapper around :class:`ALUFunctionGenerator`."""
    return ALUFunctionGenerator(
        spec=spec,
        stage=stage,
        kind=kind,
        slot=slot,
        opt_level=opt_level,
        machine_code=machine_code,
    ).generate()
