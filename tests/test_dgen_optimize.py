"""Unit tests for the dgen optimisation passes (SCC propagation, folding, DCE, inlining)."""

import ast

import pytest

from repro.alu_dsl import ALUInterpreter, parse_and_analyze
from repro.alu_dsl.ast_nodes import (
    ArithOpExpr,
    BinaryOp,
    ConstExpr,
    If,
    MuxExpr,
    Number,
    OptExpr,
    RelOpExpr,
    Var,
)
from repro.dgen.optimize import (
    constant_value,
    eliminate_dead_branches,
    fold_expr,
    inline_call,
    is_constant,
    max_placeholder_index,
    placeholder_count,
    remove_dead_local_assignments,
    specialize_expr,
    specialize_primitive_template,
    specialize_spec,
    specialize_stmts,
)
from repro.errors import CodegenError, MissingMachineCodeError

STATEFUL_TEMPLATE = """
type: stateful
state variables : {{state_0}}
hole variables : {{{holes}}}
packet fields : {{pkt_0, pkt_1}}
{body}
"""


def spec_of(body, holes=""):
    return parse_and_analyze(STATEFUL_TEMPLATE.format(body=body, holes=holes))


class TestFolding:
    def test_fold_constant_binary(self):
        assert fold_expr(BinaryOp("+", Number(2), Number(3))) == Number(5)

    def test_fold_nested(self):
        expr = BinaryOp("*", BinaryOp("+", Number(1), Number(2)), Number(4))
        assert fold_expr(expr) == Number(12)

    def test_fold_relational_to_flag(self):
        assert fold_expr(BinaryOp("<", Number(1), Number(2))) == Number(1)
        assert fold_expr(BinaryOp(">", Number(1), Number(2))) == Number(0)

    def test_non_constant_preserved(self):
        expr = BinaryOp("+", Var("pkt_0"), Number(3))
        assert fold_expr(expr) == expr

    def test_additive_identity_removed(self):
        assert fold_expr(BinaryOp("+", Var("x"), Number(0))) == Var("x")
        assert fold_expr(BinaryOp("+", Number(0), Var("x"))) == Var("x")

    def test_subtractive_identity_removed(self):
        assert fold_expr(BinaryOp("-", Var("x"), Number(0))) == Var("x")

    def test_multiplicative_identities(self):
        assert fold_expr(BinaryOp("*", Var("x"), Number(1))) == Var("x")
        assert fold_expr(BinaryOp("*", Number(0), Var("x"))) == Number(0)

    def test_division_by_zero_folds_to_zero(self):
        assert fold_expr(BinaryOp("/", Number(9), Number(0))) == Number(0)

    def test_is_constant_and_value(self):
        expr = BinaryOp("+", Number(2), Number(2))
        assert is_constant(expr)
        assert constant_value(expr) == 4
        with pytest.raises(ValueError):
            constant_value(Var("x"))


class TestDeadCodeElimination:
    def test_constant_true_first_branch_replaces_chain(self):
        from repro.alu_dsl.ast_nodes import Assign

        branches = [(Number(1), (Assign("state_0", Number(5)),))]
        result = eliminate_dead_branches(branches, (Assign("state_0", Number(9)),))
        assert result == [Assign("state_0", Number(5))]

    def test_constant_false_branch_removed(self):
        from repro.alu_dsl.ast_nodes import Assign

        branches = [(Number(0), (Assign("state_0", Number(5)),))]
        result = eliminate_dead_branches(branches, (Assign("state_0", Number(9)),))
        assert result == [Assign("state_0", Number(9))]

    def test_unknown_condition_preserved(self):
        from repro.alu_dsl.ast_nodes import Assign

        branches = [(Var("pkt_0"), (Assign("state_0", Number(5)),))]
        result = eliminate_dead_branches(branches, ())
        assert len(result) == 1 and isinstance(result[0], If)

    def test_constant_true_after_unknown_becomes_else(self):
        from repro.alu_dsl.ast_nodes import Assign

        branches = [
            (Var("pkt_0"), (Assign("state_0", Number(1)),)),
            (Number(1), (Assign("state_0", Number(2)),)),
            (Var("pkt_1"), (Assign("state_0", Number(3)),)),  # unreachable
        ]
        result = eliminate_dead_branches(branches, (Assign("state_0", Number(4)),))
        assert isinstance(result[0], If)
        assert len(result[0].branches) == 1
        assert result[0].orelse[0].value == Number(2)

    def test_remove_dead_local_assignment(self):
        from repro.alu_dsl.ast_nodes import Assign

        stmts = [Assign("tmp", Number(1)), Assign("state_0", Number(2))]
        cleaned = remove_dead_local_assignments(stmts, protected={"state_0"})
        assert cleaned == [Assign("state_0", Number(2))]

    def test_protected_assignment_kept_even_if_unread(self):
        from repro.alu_dsl.ast_nodes import Assign

        stmts = [Assign("state_0", Number(2))]
        assert remove_dead_local_assignments(stmts, protected={"state_0"}) == stmts

    def test_live_local_assignment_kept(self):
        from repro.alu_dsl.ast_nodes import Assign

        stmts = [Assign("tmp", Number(1)), Assign("state_0", BinaryOp("+", Var("tmp"), Number(1)))]
        assert remove_dead_local_assignments(stmts, protected={"state_0"}) == stmts


class TestPrimitiveTemplates:
    def test_mux_template_selects_input(self):
        template, arity = specialize_primitive_template(
            MuxExpr((Var("a"), Var("b"), Var("c")), hole_name="m"), {"m": 1}
        )
        assert template == "{op1}"
        assert arity == 3

    def test_mux_template_wraps_modulo(self):
        template, _ = specialize_primitive_template(
            MuxExpr((Var("a"), Var("b")), hole_name="m"), {"m": 5}
        )
        assert template == "{op1}"

    def test_opt_template(self):
        assert specialize_primitive_template(OptExpr(Var("s"), hole_name="o"), {"o": 0})[0] == "{op0}"
        assert specialize_primitive_template(OptExpr(Var("s"), hole_name="o"), {"o": 1})[0] == "0"

    def test_const_template_is_literal(self):
        template, arity = specialize_primitive_template(ConstExpr(hole_name="c"), {"c": 55})
        assert template == "55"
        assert arity == 0

    def test_rel_op_template(self):
        template, _ = specialize_primitive_template(
            RelOpExpr(Var("a"), Var("b"), hole_name="r"), {"r": 0}
        )
        assert "==" in template and "{op0}" in template and "{op1}" in template

    def test_arith_op_template(self):
        template, _ = specialize_primitive_template(
            ArithOpExpr(Var("a"), Var("b"), hole_name="r"), {"r": 1}
        )
        assert "-" in template

    def test_missing_hole_raises(self):
        with pytest.raises(MissingMachineCodeError):
            specialize_primitive_template(ConstExpr(hole_name="c"), {})

    def test_non_primitive_rejected(self):
        with pytest.raises(CodegenError):
            specialize_primitive_template(Number(1), {})


class TestSpecialization:
    def test_specialize_expr_removes_primitives(self):
        spec = spec_of("state_0 = arith_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()));")
        holes = {"opt_0": 0, "mux3_0": 2, "const_0": 9, "arith_op_0": 0}
        expr = spec.body[0].value
        result = specialize_expr(expr, holes)
        assert result == BinaryOp("+", Var("state_0"), Number(9))

    def test_specialize_expr_folds_constants(self):
        spec = spec_of("state_0 = arith_op(C(), C());")
        holes = {"const_0": 4, "const_1": 6, "arith_op_0": 0}
        assert specialize_expr(spec.body[0].value, holes) == Number(10)

    def test_hole_variable_substituted(self):
        spec = spec_of("state_0 = state_0 + imm;", holes="imm")
        result = specialize_expr(spec.body[0].value, {"imm": 3}, spec.hole_vars)
        assert result == BinaryOp("+", Var("state_0"), Number(3))

    def test_specialize_stmts_prunes_constant_branches(self):
        spec = spec_of(
            "if (rel_op(C(), C())) { state_0 = 1; } else { state_0 = 2; }"
        )
        # 5 == 5 is true -> keep the then branch only.
        holes = {"const_0": 5, "const_1": 5, "rel_op_0": 0}
        result = specialize_stmts(spec.body, holes)
        assert len(result) == 1
        assert result[0].value == Number(1)

    def test_specialize_stmts_keeps_data_dependent_branches(self):
        spec = spec_of("if (rel_op(state_0, pkt_0)) { state_0 = 1; } else { state_0 = 2; }")
        result = specialize_stmts(spec.body, {"rel_op_0": 1})
        assert isinstance(result[0], If)

    def test_specialize_spec_behaviour_preserved(self):
        """The specialised spec run with no holes equals the original run with holes."""
        spec = spec_of(
            "if (rel_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))) {\n"
            "    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());\n"
            "} else {\n"
            "    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());\n"
            "}"
        )
        holes = {
            "opt_0": 0, "const_0": 9, "mux3_0": 2, "rel_op_0": 0,
            "opt_1": 1, "const_1": 0, "mux3_1": 2,
            "opt_2": 0, "const_2": 1, "mux3_2": 2,
        }
        specialized = specialize_spec(spec, holes)
        original = ALUInterpreter(spec)
        reduced = ALUInterpreter(specialized)
        for operands, state in [([9, 0], [9]), ([1, 2], [3]), ([0, 0], [0]), ([5, 5], [9])]:
            expected = original.execute(operands, state, holes)
            actual = reduced.execute(operands, state, {})
            assert (expected.output, expected.state) == (actual.output, actual.state)

    def test_specialize_spec_clears_holes(self):
        spec = spec_of("state_0 = Opt(state_0) + C();")
        specialized = specialize_spec(spec, {"opt_0": 0, "const_0": 2})
        assert specialized.holes == []
        assert specialized.hole_vars == []


class TestInlining:
    def test_placeholder_count(self):
        assert placeholder_count("{op0} + {op1}") == 2
        assert placeholder_count("{op0} + {op0}") == 1
        assert placeholder_count("42") == 0

    def test_max_placeholder_index(self):
        assert max_placeholder_index("{op2} - {op0}") == 2
        assert max_placeholder_index("7") == -1

    def test_inline_simple_call(self):
        assert inline_call("{op0}", ["phv[1]"]) == "phv[1]"

    def test_inline_wraps_compound_arguments(self):
        result = inline_call("int(({op0}) == ({op1}))", ["a + b", "c"])
        assert "(a + b)" in result and "(c)" in result or "c" in result

    def test_inline_does_not_wrap_atoms(self):
        assert inline_call("{op0} + {op1}", ["x", "12"]) == "x + 12"

    def test_inline_missing_argument_rejected(self):
        with pytest.raises(CodegenError):
            inline_call("{op1}", ["only_one"])

    def test_inlined_expression_evaluates_correctly(self):
        template, _ = specialize_primitive_template(
            ArithOpExpr(Var("a"), Var("b"), hole_name="h"), {"h": 0}
        )
        code = inline_call(template, ["2 + 3", "4"])
        assert eval(code) == 9  # noqa: S307 - controlled generated code


class TestPeephole:
    """The IR-level constant-propagation/peephole pass over fused loop bodies."""

    def _exec_block(self, statements, env):
        from repro.ir import Module, to_source
        from repro.ir import nodes as ir

        module = Module(functions=[ir.FunctionDef(name="f", params=list(env), body=list(statements) + [ir.Return("0")])])
        namespace = {}
        exec(to_source(module), namespace)  # noqa: S102 - controlled generated code
        return namespace["f"]

    def test_fold_source_literals(self):
        from repro.dgen.optimize import fold_source

        assert fold_source("1 + 2 * 3") == ("7", 7)
        assert fold_source("int(bool(1) and bool(0))") == ("0", 0)
        source, value = fold_source("x + 0 * 5", {})
        assert value is None and "x" in source

    @pytest.mark.parametrize(
        "source",
        ["1 // 0", "5 % 0", "1 << -1", f"{10 ** 400} / 1"],
        ids=["floordiv-by-zero", "mod-by-zero", "negative-shift", "float-overflow"],
    )
    def test_failing_arithmetic_stays_unfolded(self, source):
        from repro.dgen.optimize import fold_source

        folded, value = fold_source(source)
        assert value is None
        assert folded == ast.unparse(ast.parse(source, mode="eval"))

    def test_non_arithmetic_error_while_folding_propagates(self):
        """Only arithmetic failures are swallowed; anything else is a folder bug."""
        from repro.dgen.optimize import fold_source

        with pytest.raises(TypeError):
            fold_source("min()")

    def test_fold_source_substitutes_environment(self):
        from repro.dgen.optimize import fold_source

        source, value = fold_source("int(bool(c) and bool(1))", {"c": 1})
        assert value == 1
        source, value = fold_source("a + b", {"a": 2, "b": 3})
        assert (source, value) == ("5", 5)

    def test_fold_source_keeps_division_by_zero_unfolded(self):
        from repro.dgen.optimize import fold_source

        source, value = fold_source("1 // 0")
        assert value is None
        assert "//" in source

    def test_condition_wrappers_stripped(self):
        from repro.dgen.optimize import fold_source

        source, _ = fold_source("int(bool(x) and bool(y))", condition=True)
        assert source == "x and y"

    def test_constant_propagation_through_straight_line_code(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.Assign("condition_1", "1"),
                ir.Assign("out", "int(bool(cond) and bool(condition_1))"),
                ir.ExprStmt("sink(out)"),
            ]
        )
        rendered = [(s.target, s.expression) for s in block if isinstance(s, ir.Assign)]
        # condition_1 was substituted and its store eliminated.
        assert rendered == [("out", "int(bool(cond))")]

    def test_dead_branches_pruned_and_decided_branches_inlined(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.Assign("flag", "0"),
                ir.If(
                    branches=[("flag", [ir.Assign("state[0]", "1")])],
                    orelse=[ir.Assign("state[0]", "2")],
                ),
            ]
        )
        assert not any(isinstance(s, ir.If) for s in block)
        stores = [s for s in block if isinstance(s, ir.Assign) and s.target == "state[0]"]
        assert [s.expression for s in stores] == ["2"]

    def test_identical_branches_collapse(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        body = [ir.Assign("state[0]", "state[0] + pkt")]
        block = peephole_block(
            [ir.If(branches=[("pkt > threshold", list(body))], orelse=list(body))]
        )
        assert not any(isinstance(s, ir.If) for s in block)
        assert any(
            isinstance(s, ir.Assign) and s.target == "state[0]" for s in block
        )

    def test_self_assignments_removed(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.If(
                    branches=[("cond", [ir.Assign("state[0]", "pkt")])],
                    orelse=[ir.Assign("state[0]", "state[0]")],
                ),
                ir.ExprStmt("sink(state)"),
            ]
        )
        statement = next(s for s in block if isinstance(s, ir.If))
        assert statement.orelse == []

    def test_redundant_loads_deduplicated_but_invalidated_by_writes(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.Assign("pkt_0", "phv[0]"),
                ir.Assign("state[0]", "state[0] + pkt_0"),
                ir.Assign("pkt_0", "phv[0]"),  # redundant: dropped
                ir.Assign("state[1]", "state[1] + pkt_0"),
                ir.Assign("phv", "[pkt_0, 2]"),
                ir.Assign("pkt_0", "phv[0]"),  # phv changed: kept
                ir.ExprStmt("sink(pkt_0, phv)"),
            ]
        )
        loads = [
            s
            for s in block
            if isinstance(s, ir.Assign) and s.target == "pkt_0" and s.expression == "phv[0]"
        ]
        assert len(loads) == 2

    def test_mutating_call_invalidates_copies(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.Assign("cached", "state_0[0]"),
                ir.ExprStmt("first_sink(cached)"),
                ir.ExprStmt("stage_fn(phv, state_0, values)"),
                ir.Assign("cached", "state_0[0]"),  # must be reloaded: kept
                ir.ExprStmt("sink(cached)"),
            ]
        )
        loads = [
            s for s in block if isinstance(s, ir.Assign) and s.target == "cached"
        ]
        assert len(loads) == 2

    def test_loop_carried_reads_keep_stores_alive(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        # ``total`` is read at the top of the body before being stored: the
        # store feeds the next iteration and must survive.
        block = peephole_block(
            [
                ir.Assign("state[0]", "state[0] + total"),
                ir.Assign("total", "phv[0]"),
            ]
        )
        assert any(
            isinstance(s, ir.Assign) and s.target == "total" for s in block
        )

    def test_dead_stores_without_readers_removed(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        block = peephole_block(
            [
                ir.Assign("condition_0", "int(state[0] == pkt)"),
                ir.Assign("state[0]", "state[0] + pkt"),
            ]
        )
        assert not any(
            isinstance(s, ir.Assign) and s.target == "condition_0" for s in block
        )

    def test_peephole_preserves_behaviour(self):
        from repro.dgen.optimize import peephole_block
        from repro.ir import nodes as ir

        statements = [
            ir.Assign("condition_1", "1"),
            ir.Assign("choice", "state[0] if int(bool(pkt > 3) and bool(condition_1)) else pkt"),
            ir.If(
                branches=[("int(bool(condition_1))", [ir.Assign("state[0]", "state[0] + choice")])],
                orelse=[ir.Assign("state[0]", "state[0]")],
            ),
            ir.Assign("out", "choice"),
            ir.Return("(out, state)"),
        ]
        optimized = peephole_block(list(statements))

        def outcome(block):
            from repro.ir import Module, to_source
            from repro.ir import nodes as irn

            module = Module(
                functions=[
                    irn.FunctionDef(name="f", params=["pkt", "state"], body=list(block))
                ]
            )
            namespace = {}
            exec(to_source(module), namespace)  # noqa: S102
            return namespace["f"]

        for pkt in (0, 3, 4, 10):
            assert outcome(statements)(pkt, [5]) == outcome(optimized)(pkt, [5])
