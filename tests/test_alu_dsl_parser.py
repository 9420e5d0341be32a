"""Unit tests for the ALU DSL parser."""

import pytest

from repro.alu_dsl import parse
from repro.alu_dsl.ast_nodes import (
    Assign,
    BinaryOp,
    If,
    Number,
    Primitive,
    Return,
    UnaryOp,
    Var,
)
from repro.errors import ALUDSLSyntaxError

HEADER = """
type: stateful
state variables : {state_0}
hole variables : {}
packet fields : {pkt_0, pkt_1}
"""

STATELESS_HEADER = """
type: stateless
state variables : {}
hole variables : {}
packet fields : {pkt_0, pkt_1}
"""


def parse_body(body, header=HEADER):
    return parse(header + body).body


class TestHeader:
    def test_stateful_header(self):
        spec = parse(HEADER)
        assert spec.kind == "stateful"
        assert spec.state_vars == ["state_0"]
        assert spec.hole_vars == []
        assert spec.packet_fields == ["pkt_0", "pkt_1"]

    def test_stateless_header(self):
        spec = parse(STATELESS_HEADER + "return pkt_0;")
        assert spec.kind == "stateless"
        assert spec.state_vars == []

    def test_hole_variables_parsed(self):
        source = """
        type: stateful
        state variables : {s}
        hole variables : {imm_0, imm_1}
        packet fields : {pkt_0}
        """
        spec = parse(source)
        assert spec.hole_vars == ["imm_0", "imm_1"]

    def test_declarations_in_any_order(self):
        source = """
        packet fields : {pkt_0}
        type: stateless
        hole variables : {}
        state variables : {}
        return pkt_0;
        """
        spec = parse(source)
        assert spec.kind == "stateless"
        assert spec.packet_fields == ["pkt_0"]

    def test_missing_type_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse("packet fields : {pkt_0}\nreturn pkt_0;")

    def test_missing_packet_fields_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse("type: stateless\nreturn 0;")

    def test_duplicate_type_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse("type: stateful\ntype: stateless\npacket fields : {p}")

    def test_invalid_type_value_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse("type: hybrid\npacket fields : {p}")

    def test_name_passed_through(self):
        spec = parse(HEADER, name="my_alu")
        assert spec.name == "my_alu"


class TestStatements:
    def test_assignment(self):
        body = parse_body("state_0 = pkt_0 + 1;")
        assert isinstance(body[0], Assign)
        assert body[0].target == "state_0"
        assert isinstance(body[0].value, BinaryOp)

    def test_return_statement(self):
        body = parse_body("return pkt_0;", header=STATELESS_HEADER)
        assert isinstance(body[0], Return)

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse(HEADER + "state_0 = pkt_0")

    def test_if_else(self):
        body = parse_body(
            "if (pkt_0 == 1) { state_0 = 1; } else { state_0 = 2; }"
        )
        stmt = body[0]
        assert isinstance(stmt, If)
        assert len(stmt.branches) == 1
        assert len(stmt.orelse) == 1

    def test_if_without_else(self):
        stmt = parse_body("if (pkt_0 > 0) { state_0 = 1; }")[0]
        assert isinstance(stmt, If)
        assert stmt.orelse == ()

    def test_elif_chain(self):
        stmt = parse_body(
            "if (pkt_0 == 0) { state_0 = 0; } "
            "elif (pkt_0 == 1) { state_0 = 1; } "
            "else { state_0 = 2; }"
        )[0]
        assert len(stmt.branches) == 2
        assert len(stmt.orelse) == 1

    def test_else_if_alias_for_elif(self):
        stmt = parse_body(
            "if (pkt_0 == 0) { state_0 = 0; } "
            "else if (pkt_0 == 1) { state_0 = 1; } "
            "else { state_0 = 2; }"
        )[0]
        assert len(stmt.branches) == 2

    def test_nested_if(self):
        stmt = parse_body(
            "if (pkt_0 > 0) { if (pkt_1 > 0) { state_0 = 1; } } else { state_0 = 2; }"
        )[0]
        inner = stmt.branches[0][1][0]
        assert isinstance(inner, If)

    def test_multiple_statements(self):
        body = parse_body("tmp = pkt_0 + pkt_1; state_0 = tmp;")
        assert len(body) == 2


class TestExpressions:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_body("state_0 = pkt_0 + pkt_1 * 2;")[0].value
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_precedence_relational_over_logical(self):
        expr = parse_body("state_0 = pkt_0 == 1 && pkt_1 == 2;")[0].value
        assert expr.op == "&&"
        assert expr.left.op == "=="

    def test_or_lower_than_and(self):
        expr = parse_body("state_0 = pkt_0 && pkt_1 || 1;")[0].value
        assert expr.op == "||"
        assert expr.left.op == "&&"

    def test_parentheses_override_precedence(self):
        expr = parse_body("state_0 = (pkt_0 + pkt_1) * 2;")[0].value
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus(self):
        expr = parse_body("state_0 = -pkt_0;")[0].value
        assert isinstance(expr, UnaryOp)
        assert expr.op == "-"

    def test_unary_not(self):
        expr = parse_body("state_0 = !pkt_0;")[0].value
        assert isinstance(expr, UnaryOp)
        assert expr.op == "!"

    def test_number_literal(self):
        expr = parse_body("state_0 = 7;")[0].value
        assert expr == Number(7)

    def test_variable_reference(self):
        expr = parse_body("state_0 = pkt_1;")[0].value
        assert expr == Var("pkt_1")

    @pytest.mark.parametrize("op", ["==", "!=", "<=", ">=", "<", ">"])
    def test_relational_operators(self, op):
        expr = parse_body(f"state_0 = pkt_0 {op} pkt_1;")[0].value
        assert expr.op == op

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
    def test_arithmetic_operators(self, op):
        expr = parse_body(f"state_0 = pkt_0 {op} pkt_1;")[0].value
        assert expr.op == op


class TestPrimitiveCalls:
    def test_mux2(self):
        expr = parse_body("state_0 = Mux2(pkt_0, pkt_1);")[0].value
        assert expr == Primitive("Mux2", (Var("pkt_0"), Var("pkt_1")))

    def test_mux3_with_const(self):
        expr = parse_body("state_0 = Mux3(pkt_0, pkt_1, C());")[0].value
        assert expr == Primitive("Mux3", (Var("pkt_0"), Var("pkt_1"), Primitive("C", ())))

    def test_mux4(self):
        expr = parse_body("state_0 = Mux4(pkt_0, pkt_1, state_0, C());")[0].value
        assert expr.name == "Mux4" and len(expr.args) == 4

    def test_opt(self):
        expr = parse_body("state_0 = Opt(state_0);")[0].value
        assert expr == Primitive("Opt", (Var("state_0"),))

    def test_const(self):
        expr = parse_body("state_0 = C();")[0].value
        assert expr == Primitive("C", ())

    def test_rel_op(self):
        expr = parse_body("state_0 = rel_op(pkt_0, pkt_1);")[0].value
        assert expr == Primitive("rel_op", (Var("pkt_0"), Var("pkt_1")))

    def test_arith_op(self):
        expr = parse_body("state_0 = arith_op(pkt_0, pkt_1);")[0].value
        assert expr == Primitive("arith_op", (Var("pkt_0"), Var("pkt_1")))

    def test_bool_op(self):
        expr = parse_body("state_0 = bool_op(pkt_0, pkt_1);")[0].value
        assert expr == Primitive("bool_op", (Var("pkt_0"), Var("pkt_1")))

    def test_nested_primitives(self):
        expr = parse_body("state_0 = arith_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()));")[0].value
        assert expr.name == "arith_op"
        assert [arg.name for arg in expr.args] == ["Opt", "Mux3"]

    def test_wrong_arity_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse(HEADER + "state_0 = Mux2(pkt_0);")

    def test_too_many_arguments_rejected(self):
        with pytest.raises(ALUDSLSyntaxError):
            parse(HEADER + "state_0 = Opt(pkt_0, pkt_1);")

    def test_primitive_name_without_call_is_variable(self):
        # "Opt" not followed by '(' parses as an identifier reference.
        spec = parse(HEADER.replace("{pkt_0, pkt_1}", "{Opt, pkt_1}") + "state_0 = Opt;")
        assert spec.body[0].value == Var("Opt")


class TestFigure4Example:
    def test_paper_figure_4_parses(self):
        """The paper's If Else Raw atom (Figure 4) is accepted verbatim."""
        from repro.atoms import STATEFUL_SOURCES

        spec = parse(STATEFUL_SOURCES["if_else_raw"], name="if_else_raw")
        assert spec.kind == "stateful"
        assert spec.state_vars == ["state_0"]
        assert spec.packet_fields == ["pkt_0", "pkt_1"]
        assert isinstance(spec.body[0], If)
        condition = spec.body[0].branches[0][0]
        assert isinstance(condition, Primitive) and condition.name == "rel_op"


class TestUnicodeNames:
    """Numbers are ``\\d+`` and names are Python identifiers; anything else is a syntax error."""

    def test_superscript_digit_is_a_syntax_error(self):
        # str.isdigit() accepts '²' but int() does not.
        with pytest.raises(ALUDSLSyntaxError) as excinfo:
            parse(STATELESS_HEADER.replace("pkt_0", "a") + "return a + ²;\n")
        assert (excinfo.value.line, excinfo.value.column) == (6, 12)

    def test_accented_identifier_parses(self):
        spec = parse(STATELESS_HEADER.replace("pkt_0", "é") + "return é + 1;\n")
        assert spec.packet_fields == ["é", "pkt_1"]
        assert spec.body[0].value == BinaryOp("+", Var("é"), Number(1))
