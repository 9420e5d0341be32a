"""Tests for the ALU DSL pretty-printer (round-trip and formatting)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import atoms
from repro.alu_dsl import ALUInterpreter, format_expr, format_spec, format_stmts, parse_and_analyze
from repro.alu_dsl.ast_nodes import BinaryOp, Number, Primitive, UnaryOp, Var
from repro.dgen.optimize import specialize_spec


class TestExpressionFormatting:
    def test_number_and_variable(self):
        assert format_expr(Number(7)) == "7"
        assert format_expr(Var("pkt_0")) == "pkt_0"

    def test_binary_with_precedence_parentheses(self):
        expr = BinaryOp("*", BinaryOp("+", Var("a"), Var("b")), Number(2))
        assert format_expr(expr) == "(a + b) * 2"

    def test_no_redundant_parentheses(self):
        expr = BinaryOp("+", Var("a"), BinaryOp("*", Var("b"), Number(2)))
        assert format_expr(expr) == "a + b * 2"

    def test_unary(self):
        assert format_expr(UnaryOp("!", Var("x"))) == "!x"

    def test_primitive_calls(self):
        expr = Primitive("Mux2", (Var("pkt_0"), Var("pkt_1")))
        assert format_expr(expr) == "Mux2(pkt_0, pkt_1)"
        assert format_expr(Primitive("C", ())) == "C()"

    def test_statement_formatting(self):
        spec = atoms.get_atom("pred_raw")
        lines = format_stmts(spec.body)
        assert lines[0].startswith("if (rel_op(")
        assert lines[-1] == "}"


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", atoms.atom_names())
    def test_catalogue_atoms_round_trip_behaviourally(self, name):
        """parse(print(atom)) behaves exactly like the original atom."""
        original = atoms.get_atom(name)
        reparsed = parse_and_analyze(format_spec(original), name=name)
        assert reparsed.holes == original.holes
        holes = {hole: 1 for hole in original.holes}
        operands = [7] * original.num_operands
        state = [3] * original.num_state_vars
        a = ALUInterpreter(original).execute(operands, list(state), holes)
        b = ALUInterpreter(reparsed).execute(operands, list(state), holes)
        assert (a.output, a.state) == (b.output, b.state)

    def test_specialized_spec_prints_without_primitives(self):
        spec = atoms.get_atom("if_else_raw")
        holes = {hole: 0 for hole in spec.holes}
        text = format_spec(specialize_spec(spec, holes))
        assert "Mux3" not in text and "rel_op" not in text
        assert "state_0" in text

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_specialized_round_trip_random_holes(self, data):
        """Printing and reparsing a specialised atom preserves its behaviour."""
        spec = atoms.get_atom("sub")
        holes = {hole: data.draw(st.integers(min_value=0, max_value=7), label=hole)
                 for hole in spec.holes}
        specialized = specialize_spec(spec, holes)
        reparsed = parse_and_analyze(format_spec(specialized), name="sub_specialized")
        operands = [data.draw(st.integers(min_value=0, max_value=200)) for _ in range(2)]
        state = [data.draw(st.integers(min_value=0, max_value=200))]
        expected = ALUInterpreter(spec).execute(operands, list(state), holes)
        actual = ALUInterpreter(reparsed).execute(operands, list(state), {})
        assert (expected.output, expected.state) == (actual.output, actual.state)
