"""Unit tests for the dgen optimisation passes (SCC propagation, folding, DCE)."""

import pytest

from repro.alu_dsl import ALUInterpreter, parse_and_analyze
from repro import dgen
from repro.alu_dsl import semantics
from repro.alu_dsl.ast_nodes import Assign, BinaryOp, If, Number, Primitive, Var
from repro.dgen.optimize import (
    fold_expr,
    remove_dead_local_assignments,
    specialize_expr,
    specialize_spec,
    specialize_stmts,
)
from repro.dgen import ALUFunctionGenerator
from repro.errors import CodegenError, MissingMachineCodeError
from repro.ir import Module, to_source

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


class TestDeadCodeElimination:
    def test_constant_true_first_branch_replaces_chain(self):
        chain = If(((Number(1), (Assign("state_0", Number(5)),)),), (Assign("state_0", Number(9)),))
        assert specialize_stmts([chain], {}) == [Assign("state_0", Number(5))]

    def test_constant_false_branch_removed(self):
        chain = If(((Number(0), (Assign("state_0", Number(5)),)),), (Assign("state_0", Number(9)),))
        assert specialize_stmts([chain], {}) == [Assign("state_0", Number(9))]

    def test_unknown_condition_preserved(self):
        chain = If(((Var("pkt_0"), (Assign("state_0", Number(5)),)),), ())
        result = specialize_stmts([chain], {})
        assert len(result) == 1 and isinstance(result[0], If)

    def test_constant_true_after_unknown_becomes_else(self):
        branches = (
            (Var("pkt_0"), (Assign("state_0", Number(1)),)),
            (Number(1), (Assign("state_0", Number(2)),)),
            (Var("pkt_1"), (Assign("state_0", Number(3)),)),  # unreachable
        )
        result = specialize_stmts([If(branches, (Assign("state_0", Number(4)),))], {})
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


class TestPrimitiveSelect:
    """``semantics.select`` resolves a call site with a known hole value."""

    A, B, C = Var("a"), Var("b"), Var("c")

    def test_mux_selects_input(self):
        assert semantics.select("Mux3", 1, (self.A, self.B, self.C)) == self.B

    def test_mux_wraps_modulo(self):
        assert semantics.select("Mux2", 5, (self.A, self.B)) == self.B

    def test_opt(self):
        assert semantics.select("Opt", 0, (self.A,)) == self.A
        assert semantics.select("Opt", 1, (self.A,)) == Number(0)

    def test_const_is_literal(self):
        assert semantics.select("C", 55, ()) == Number(55)

    def test_rel_op(self):
        assert semantics.select("rel_op", 0, (self.A, self.B)) == BinaryOp("==", self.A, self.B)

    def test_arith_op(self):
        assert semantics.select("arith_op", 1, (self.A, self.B)) == BinaryOp("-", self.A, self.B)
        assert semantics.select("arith_op", 3, (self.A, self.B)) == BinaryOp("/", self.A, self.B)

    def test_missing_hole_raises(self):
        with pytest.raises(MissingMachineCodeError):
            specialize_expr(Primitive("C", (), hole_name="c"), {})

    def test_unnamed_hole_rejected(self):
        with pytest.raises(CodegenError):
            specialize_expr(Primitive("C", ()), {})


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


STATELESS_TEMPLATE = """
type: stateless
state variables : {{}}
hole variables : {{}}
packet fields : {{pkt_0, pkt_1}}
{body}
"""


def specialized_body(body, template=STATEFUL_TEMPLATE):
    """The body specialised with every hole 0 (``Opt`` keeps its operand)."""
    spec = parse_and_analyze(template.format(body=body, holes=""))
    return specialize_spec(spec, {hole: 0 for hole in spec.holes}).body


class TestSimplify:
    """The local propagation and clean-up :func:`specialize_spec` runs after folding."""

    def test_literal_locals_propagate_through_straight_line_code(self):
        body = specialized_body(
            "condition_1 = 1; if (pkt_0 < pkt_1 && condition_1) { state_0 = pkt_0; }"
        )
        condition = BinaryOp("&&", BinaryOp("<", Var("pkt_0"), Var("pkt_1")), Number(1))
        assert body == [If(((condition, (Assign("state_0", Var("pkt_0")),)),), ())]

    def test_branch_decided_by_propagated_local_is_inlined(self):
        body = specialized_body("flag = 0; if (flag) { state_0 = 1; } else { state_0 = 2; }")
        assert body == [Assign("state_0", Number(2))]

    def test_identical_arms_collapse(self):
        body = specialized_body(
            "if (pkt_0 > pkt_1) { state_0 = state_0 + pkt_0; } "
            "elif (pkt_0 == 3) { state_0 = pkt_1; } "
            "else { state_0 = state_0 + pkt_0; }"
        )
        update = Assign("state_0", BinaryOp("+", Var("state_0"), Var("pkt_0")))
        assert [type(stmt) for stmt in body] == [If]
        # The elif equals neither the else nor is trailing-equal to it, so it stays.
        assert len(body[0].branches) == 2 and body[0].orelse == (update,)

        body = specialized_body(
            "if (pkt_0 > pkt_1) { state_0 = state_0 + pkt_0; } "
            "elif (pkt_0 == 3) { state_0 = state_0 + pkt_0; } "
            "else { state_0 = state_0 + pkt_0; }"
        )
        assert body == [update]

    def test_trailing_arm_equal_to_else_dropped(self):
        body = specialized_body(
            "if (pkt_0 > pkt_1) { state_0 = pkt_1; } "
            "elif (pkt_0 == 3) { state_0 = 7; } "
            "else { state_0 = 7; }"
        )
        assert len(body) == 1 and len(body[0].branches) == 1
        assert body[0].orelse == (Assign("state_0", Number(7)),)

    def test_self_assignments_removed(self):
        body = specialized_body(
            "if (pkt_0 > 3) { state_0 = pkt_1; } else { state_0 = Opt(state_0) + 0; }"
        )
        assert len(body) == 1 and body[0].orelse == ()
        assert specialized_body("if (pkt_0 > 3) { state_0 = state_0; }") == []

    def test_constant_forgotten_after_branch_assigns_it(self):
        body = specialized_body("x = 1; if (pkt_0 > 3) { x = pkt_1; } state_0 = x;")
        assert body[-1] == Assign("state_0", Var("x"))

    def test_reassigned_local_keeps_every_update(self):
        """``x = x + 1`` twice is two updates, not one repeated copy."""
        body = specialized_body(
            "x = pkt_0 + pkt_1; x = x + 1; x = x + 1; return x;", STATELESS_TEMPLATE
        )
        increment = Assign("x", BinaryOp("+", Var("x"), Number(1)))
        assert body.count(increment) == 2

    @pytest.mark.parametrize(
        "body",
        [
            "condition_1 = 1; choice = Mux2(state_0, pkt_0); "
            "if (pkt_0 > 3 && condition_1) { state_0 = state_0 + choice; } "
            "else { state_0 = state_0; }",
            "x = 2; y = x * pkt_0; if (y > pkt_1 || 0) { state_0 = y; } elif (x) { state_0 = 1; }",
            "t = pkt_0; t = t + 1; t = t + 1; if (!(t == pkt_1)) { state_0 = t; } else { state_0 = t; }",
        ],
        ids=["decided-and", "decided-elif", "reassigned-local"],
    )
    def test_simplify_preserves_behaviour(self, body):
        spec = parse_and_analyze(STATEFUL_TEMPLATE.format(body=body, holes=""))
        holes = {hole: 0 for hole in spec.holes}
        specialized = specialize_spec(spec, holes)
        for pkt_0 in (0, 3, 4, 10):
            for pkt_1 in (0, 5, 12):
                expected = ALUInterpreter(spec).execute([pkt_0, pkt_1], [5], holes)
                actual = ALUInterpreter(specialized).execute([pkt_0, pkt_1], [5], {})
                assert (expected.output, expected.state) == (actual.output, actual.state)


class TestConditionLowering:
    """``if`` tests are lowered for their truth value only."""

    def condition_line(self, body):
        spec = parse_and_analyze(STATEFUL_TEMPLATE.format(body=body, holes=""))
        code = ALUFunctionGenerator(spec, 0, "stateful", 0, dgen.OPT_SCC_INLINE, {}).generate()
        source = to_source(Module(functions=[code.function]))
        return next(line.strip() for line in source.splitlines() if line.strip().startswith("if "))

    def test_condition_wrappers_stripped(self):
        line = self.condition_line(
            "if (pkt_0 < pkt_1 && pkt_1 != 2) { state_0 = 1; }"
        )
        assert line == "if ((pkt_0) < (pkt_1)) and ((pkt_1) != (2)):"

    def test_literal_that_cannot_decide_is_dropped(self):
        assert self.condition_line("c = 1; if (pkt_0 < pkt_1 && c) { state_0 = 1; }") == (
            "if (pkt_0) < (pkt_1):"
        )
        assert self.condition_line("if (0 || !(pkt_0 == 3)) { state_0 = 1; }") == (
            "if not ((pkt_0) == (3)):"
        )

    def test_literal_that_decides_folds_the_branch_away(self):
        assert fold_expr(BinaryOp("&&", Var("x"), Number(0))) == Number(0)
        assert fold_expr(BinaryOp("||", Number(5), Var("x"))) == Number(1)
        assert fold_expr(BinaryOp("&&", Var("x"), Number(1))) == BinaryOp(
            "&&", Var("x"), Number(1)
        )
        assert specialized_body("if (pkt_0 && 0) { state_0 = 1; } else { state_0 = 2; }") == [
            Assign("state_0", Number(2))
        ]
