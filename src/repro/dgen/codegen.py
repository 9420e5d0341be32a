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
  expression its opcode selects, the opcode parameters disappear, and ``if``
  statements in the ALU body whose conditions fold to constants are pruned.
  The generated code depends only on the ALU's kind and its own hole
  values (:meth:`ALUFunctionGenerator.dedup_key`), so the pipeline builder
  emits one function and one set of helpers per distinct specialisation and
  lets every slot that shares it call it.
* **level 2** (version 3, SCC propagation + function inlining): the helper
  functions disappear entirely.  The inlining is done on the AST: the whole
  body is specialised first, which replaces each primitive by the expression
  its hole value selects over the primitive's own operands
  (:func:`repro.alu_dsl.semantics.select`), and the ALU function typically
  collapses to a handful of assignments.  Slots share ALU functions as at
  level 1.
* **level 3** (fused pipeline): ALU functions are identical to level 2, but
  the pipeline builder additionally emits a generated ``run_trace`` function
  that loops over the whole input trace inline — one more rung on the paper's
  specialization ladder, moving the simulation driver itself into the
  generated code (see :mod:`repro.dgen.pipeline_builder`).  The loop gets
  each ALU's work from :meth:`ALUCode.inline`, which lowers the same
  specialised DSL body a second time with the input-multiplexer fragments
  and the hoisted state vector in place of the function's parameters.
  Nothing rewrites the loop afterwards: the body is already folded, and
  ``inline`` itself skips an unread default output and an operand load a
  local still holds.

Every level lowers DSL statements through one routine, :func:`_lower_stmts`;
levels 2 and 3 specialise the whole body first
(:func:`~repro.dgen.optimize.constant_propagation.specialize_spec`).  An
``if`` test is lowered by :func:`_lower_condition` for its truth value only.
Every primitive resolves through :func:`repro.alu_dsl.semantics.select`:
a level-0 helper tests the opcode against each value of the domain, a
level-1 helper returns what the known value selects, and levels 2 and 3
get it from the specialiser.  A packet field or local must not take a name
the generated code binds (:meth:`ALUFunctionGenerator._check_names`).
"""

from __future__ import annotations

import keyword
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..alu_dsl import semantics
from ..alu_dsl.ast_nodes import (
    ALUSpec,
    Assign,
    BinaryOp,
    Expr,
    If,
    Number,
    Primitive,
    Return,
    Stmt,
    UnaryOp,
    Var,
    walk_stmts,
)
from ..errors import CodegenError, MissingMachineCodeError
from ..ir import nodes as ir
from ..machine_code import naming
from .optimize.constant_propagation import specialize_expr, specialize_spec
from .optimize.dce import remove_dead_local_assignments

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
#: Names the generated code binds (loop and stage variables, the default
#: output, every generated function) or calls (``int``, ``bool``), which an
#: ALU's packet fields and locals must not take.
_RESERVED_NAME = re.compile(
    r"phv|values|inputs|outputs|_append|_default_output|int|bool"
    r"|state_\d+_\d+|state(less|ful)_output_\d+|stage_\w*"
)


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


def _lower_expr(
    expr: Expr,
    var_code: Callable[[str], str],
    primitive_code: Optional[Callable[[Expr], str]] = None,
) -> str:
    """Python source for ``expr``.

    ``var_code`` renders variables and ``primitive_code`` the hole-controlled
    primitives (a specialised body has none left).
    """
    if isinstance(expr, Number):
        return str(expr.value)
    if isinstance(expr, Var):
        return var_code(expr.name)
    if isinstance(expr, UnaryOp):
        template = semantics.UNARY_OPS[expr.op][0]
        return template.format(a=_lower_expr(expr.operand, var_code, primitive_code))
    if isinstance(expr, BinaryOp):
        template = semantics.BINARY_OPS[expr.op][0]
        return template.format(
            a=_lower_expr(expr.left, var_code, primitive_code),
            b=_lower_expr(expr.right, var_code, primitive_code),
        )
    if primitive_code is None or not isinstance(expr, Primitive):
        raise CodegenError(f"unknown expression node {type(expr).__name__}")
    return primitive_code(expr)


#: DSL operators whose Python form, bare, already has the truth value the
#: ``int(...)``/``bool(...)``-wrapped template computes.
_CONDITION_OPS = {
    **{op: op for op in ("==", "!=", "<=", ">=", "<", ">")},
    "&&": "and",
    "||": "or",
}


def _lower_condition(
    expr: Expr,
    var_code: Callable[[str], str],
    primitive_code: Optional[Callable[[Expr], str]] = None,
) -> str:
    """Python source with the truth value of ``expr``, for an ``if`` test.

    Only truthiness matters there, so relational operators, ``&&``, ``||``
    and ``!`` lose their ``int(...)``/``bool(...)`` wrappers, and a literal
    operand of ``&&``/``||`` that cannot change the result (a nonzero one
    under ``&&``, zero under ``||``) is dropped.
    """
    if isinstance(expr, UnaryOp) and expr.op == "!":
        return f"not ({_lower_condition(expr.operand, var_code, primitive_code)})"
    if isinstance(expr, BinaryOp) and expr.op in _CONDITION_OPS:
        operands = [expr.left, expr.right]
        if expr.op in ("&&", "||"):
            identity = expr.op == "&&"
            kept = [
                operand
                for operand in operands
                if not (isinstance(operand, Number) and bool(operand.value) == identity)
            ]
            if len(kept) == 1:
                return _lower_condition(kept[0], var_code, primitive_code)
            lower = _lower_condition
        else:
            lower = _lower_expr
        left, right = (lower(operand, var_code, primitive_code) for operand in operands)
        return f"({left}) {_CONDITION_OPS[expr.op]} ({right})"
    return _lower_expr(expr, var_code, primitive_code)


def _lower_stmts(
    stmts: Sequence[Stmt],
    var_code: Callable[[str], str],
    primitive_code: Optional[Callable[[Expr], str]] = None,
    decide: Optional[Callable[[Expr], Optional[int]]] = None,
) -> List[ir.IRStmt]:
    """IR for ALU DSL statements, rendering variables as :func:`_lower_expr` does.

    ``decide`` gives an ``if`` condition's value when it is known at
    generation time (else ``None``): a false branch is dropped and a true
    one becomes its chain's ``else`` (paper §3.4).
    """
    lowered: List[ir.IRStmt] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            value = _lower_expr(stmt.value, var_code, primitive_code)
            lowered.append(ir.Assign(var_code(stmt.target), value))
        elif isinstance(stmt, Return):
            lowered.append(ir.Return(_lower_expr(stmt.value, var_code, primitive_code)))
        elif isinstance(stmt, If):
            branches = []
            orelse = stmt.orelse
            for condition, body in stmt.branches:
                value = decide(condition) if decide else None
                if value is None:
                    condition_code = _lower_condition(condition, var_code, primitive_code)
                    branches.append(
                        (condition_code, _lower_stmts(body, var_code, primitive_code, decide))
                    )
                elif value:
                    orelse = body
                    break
            orelse = _lower_stmts(orelse, var_code, primitive_code, decide)
            lowered.extend([ir.If(branches=branches, orelse=orelse)] if branches else orelse)
        else:  # pragma: no cover - defensive
            raise CodegenError(f"unknown statement node {type(stmt).__name__}")
    return lowered


def _count_reads(expr: Expr, reads: Counter, times: int = 1) -> None:
    """Add how often each variable occurs in the source of ``expr`` to ``reads``.

    Occurrences are counted as emitted: the ``/`` and ``%`` templates repeat
    their divisor to test it for zero.
    """
    if isinstance(expr, Var):
        reads[expr.name] += times
    elif isinstance(expr, UnaryOp):
        template = semantics.UNARY_OPS[expr.op][0]
        _count_reads(expr.operand, reads, times * template.count("{a}"))
    elif isinstance(expr, BinaryOp):
        template = semantics.BINARY_OPS[expr.op][0]
        _count_reads(expr.left, reads, times * template.count("{a}"))
        _count_reads(expr.right, reads, times * template.count("{b}"))


@dataclass
class ALUCode:
    """Generated code for one ALU instance.

    ``helpers`` are the per-primitive-site helper functions (empty at the
    inlined levels) and ``function`` is the ALU function itself.  ``call``
    renders a call to the ALU function given operand source fragments, and
    at the inlined levels ``inline`` lowers the specialised DSL ``body``
    straight into the fused loop instead.  ``stage`` and ``slot`` are those
    of the instance it was generated for; the pipeline builder lets other
    slots with the same :meth:`ALUFunctionGenerator.dedup_key` use it too.
    """

    stage: int
    kind: str
    slot: int
    spec: ALUSpec
    opt_level: int
    helpers: List[ir.FunctionDef] = field(default_factory=list)
    function: Optional[ir.FunctionDef] = None
    #: The DSL statements ``function`` was lowered from (specialised at the
    #: inlined levels), default output and final ``return`` included.
    body: Sequence[Stmt] = ()

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

    def inline(
        self,
        operand_codes: Sequence[str],
        state_code: str,
        output: Optional[str],
        bound: Dict[str, str],
    ) -> Optional[List[ir.IRStmt]]:
        """This ALU's statements for the fused loop, or ``None`` to keep the call.

        ``output`` is the variable that receives the ALU's output, ``None``
        when no output multiplexer reads it; then the locals only the output
        needed, such as the default output, are not computed.  A packet
        field read once is replaced by its operand fragment; one read more
        often is bound to a local first, unless ``bound`` shows that local
        already holds that fragment.  ``bound`` maps locals to the operand
        fragments they hold and is updated to the bindings that hold after
        these statements.  State variables index ``state_code``, the loop's
        hoisted state-vector local.  The first top-level ``return`` becomes
        the assignment to ``output`` and what follows it is unreachable.  A
        ``return`` inside a branch cannot become straight-line code, so such
        a body returns ``None``.
        """
        spec = self.spec
        prefix: List[Stmt] = []
        for stmt in self.body:
            if isinstance(stmt, Return):
                returned = stmt.value
                break
            if any(isinstance(inner, Return) for inner in walk_stmts([stmt])):
                return None
            prefix.append(stmt)
        if output is None:
            prefix = remove_dead_local_assignments(prefix, protected=set(spec.state_vars))

        reads: Counter = Counter()
        for stmt in walk_stmts(prefix):
            if isinstance(stmt, Assign):
                _count_reads(stmt.value, reads)
            elif isinstance(stmt, If):
                for condition, _body in stmt.branches:
                    _count_reads(condition, reads)
        if output is not None:
            _count_reads(returned, reads)

        stmts: List[ir.IRStmt] = []
        names: Dict[str, str] = {}
        for packet_field, operand in zip(spec.packet_fields, operand_codes):
            if bound.get(packet_field) == operand:
                continue
            if reads[packet_field] == 1:
                names[packet_field] = operand
            elif reads[packet_field] > 1:
                stmts.append(ir.Assign(packet_field, operand))
                bound[packet_field] = operand

        def var_code(name: str) -> str:
            if name in spec.state_vars:
                return f"{state_code}[{spec.state_vars.index(name)}]"
            return names.get(name, name)

        stmts.extend(_lower_stmts(prefix, var_code))
        for stmt in walk_stmts(prefix):
            if isinstance(stmt, Assign):
                bound.pop(stmt.target, None)
        if output is not None:
            stmts.append(ir.Assign(output, _lower_expr(returned, var_code)))
        return stmts


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
        self._check_names()
        code = ALUCode(
            stage=self.stage,
            kind=self.kind,
            slot=self.slot,
            spec=self.spec,
            opt_level=self.opt_level,
        )
        spec = self.spec
        stmts: Sequence[Stmt] = spec.body
        if self.opt_level in _INLINE_LEVELS:
            stmts = specialize_spec(spec, self._local_holes or {}).body
        body: List[ir.IRStmt] = []
        if spec.is_stateful and spec.state_vars:
            body.append(ir.Comment("default output: value of the first state variable before update"))
            default = "_default_output"
            stmts = [Assign(default, Var(spec.state_vars[0])), *stmts, Return(Var(default))]
        else:
            stmts = [*stmts, Return(Number(0))]
        decide = self._decided if self.opt_level == OPT_SCC else None
        body.extend(_lower_stmts(stmts, self._var_code, self._primitive_code, decide))
        code.body = stmts

        params = list(spec.packet_fields)
        if spec.is_stateful:
            params.append("state")
        if self.opt_level == OPT_UNOPTIMIZED:
            params.append("values")

        code.function = ir.FunctionDef(
            name=alu_function_name(self.stage, self.kind, self.slot),
            params=params,
            body=body,
            docstring=(
                f"{spec.kind} ALU {spec.name!r} at stage {self.stage}, slot {self.slot} "
                f"({OPT_LEVEL_NAMES[self.opt_level]})"
            ),
        )
        code.helpers = list(self._helpers.values())
        return code

    def _check_names(self) -> None:
        """Refuse a packet field or local that generated code binds or calls.

        Those DSL names become Python names in the ALU function and the fused
        loop, where one such as ``phv`` or ``_default_output`` would overwrite
        dgen's own variable.
        """
        spec = self.spec
        locals_ = [stmt.target for stmt in walk_stmts(spec.body) if isinstance(stmt, Assign)]
        for name in (*spec.packet_fields, *locals_):
            if name not in spec.state_vars and (
                _RESERVED_NAME.fullmatch(name) or keyword.iskeyword(name)
            ):
                raise CodegenError(
                    f"ALU {spec.name!r}: identifier {name!r} is reserved for generated code"
                )

    # ------------------------------------------------------------------
    # Lowering hooks
    # ------------------------------------------------------------------
    def _decided(self, condition: Expr) -> Optional[int]:
        """A condition's value if it folds to a constant under this ALU's holes."""
        folded = specialize_expr(condition, self._local_holes or {}, self.spec.hole_vars)
        return folded.value if isinstance(folded, Number) else None

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
    def _primitive_code(self, expr: Primitive) -> str:
        """A call site's code at levels 0 and 1, where primitives survive into lowering.

        Level 0 calls a helper that dispatches on the opcode it is passed;
        level 1 calls a helper whose body is the one expression the known
        hole value selects, and inlines a ``C()`` as its literal.
        """
        hole = expr.hole_name
        if hole is None:
            raise CodegenError(
                f"ALU {self.spec.name!r} has an unnamed primitive site; run analysis first"
            )
        operand_codes = [
            _lower_expr(sub, self._var_code, self._primitive_code) for sub in expr.args
        ]
        params = [f"op{i}" for i in range(len(expr.args))]
        placeholders = [Var(param) for param in params]
        name = helper_function_name(self.stage, self.kind, self.slot, hole)

        if self.opt_level == OPT_UNOPTIMIZED:
            if name not in self._helpers:
                self._helpers[name] = ir.FunctionDef(
                    name=name,
                    params=params + ["opcode"],
                    body=_opcode_dispatch(expr.name, placeholders),
                )
            args = operand_codes + [f'values["{self._hole_prefix}{hole}"]']
            return f"{name}({', '.join(args)})"

        selected = semantics.select(expr.name, self._require_hole(hole), placeholders)
        if not expr.args:
            return _lower_expr(selected, str)
        if name not in self._helpers:
            self._helpers[name] = ir.FunctionDef(
                name=name, params=params, body=[ir.Return(_lower_expr(selected, str))]
            )
        return f"{name}({', '.join(operand_codes)})"

    def _require_hole(self, hole: str) -> int:
        assert self._local_holes is not None
        if hole not in self._local_holes:
            raise MissingMachineCodeError(self._hole_prefix + hole)
        return self._local_holes[hole]


def _opcode_dispatch(name: str, placeholders: Sequence[Var]) -> List[ir.IRStmt]:
    """Body of a level-0 helper: what primitive ``name`` computes for each ``opcode``.

    An ``if`` chain tests the opcode modulo the domain against every value
    but the last, which is the ``else``; an immediate returns the opcode.
    """
    domain = semantics.PRIMITIVES[name].domain
    if domain == semantics.UNBOUNDED:
        return [ir.Return("opcode")]
    returns = [
        [ir.Return(_lower_expr(semantics.select(name, value, placeholders), str))]
        for value in range(domain)
    ]
    branches = [(f"opcode % {domain} == {value}", returns[value]) for value in range(domain - 1)]
    return [ir.If(branches=branches, orelse=returns[-1])]
