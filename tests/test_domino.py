"""Unit tests for the Domino-like packet-transaction frontend."""

import pytest

from repro.domino import (
    DominoInterpreter,
    DominoSpecification,
    PacketLayout,
    parse,
    parse_and_analyze,
)
from repro.alu_dsl.ast_nodes import BinaryOp, If
from repro.alu_dsl.lexer import TokenType
from repro.domino.ast_nodes import DAssign, DTernary
from repro.domino.lexer import tokenize
from repro.errors import DominoSemanticError, DominoSyntaxError, SpecificationError

SAMPLING = """
state count = 0;

transaction sampling {
    if (count == 9) {
        pkt.sample = 1;
        count = 0;
    } else {
        pkt.sample = 0;
        count = count + 1;
    }
}
"""


class TestLexer:
    def test_keywords_and_identifiers(self):
        types = [token.type for token in tokenize("state pkt transaction if else foo")][:-1]
        assert types == [
            TokenType.STATE,
            TokenType.PKT,
            TokenType.TRANSACTION,
            TokenType.IF,
            TokenType.ELSE,
            TokenType.IDENT,
        ]

    def test_operators(self):
        types = [token.type for token in tokenize("== != <= >= && || ? :")][:-1]
        assert TokenType.EQ in types and TokenType.QUESTION in types

    def test_comments_ignored(self):
        types = [token.type for token in tokenize("// hi\n# there\n42")][:-1]
        assert types == [TokenType.NUMBER]

    def test_bad_character_rejected(self):
        with pytest.raises(DominoSyntaxError):
            tokenize("@")


class TestParser:
    def test_state_declarations(self):
        program = parse("state a = 3; state b; transaction t { b = a; }")
        assert program.state_names == ["a", "b"]
        assert program.initial_state() == {"a": 3, "b": 0}

    def test_negative_initial_state(self):
        program = parse("state x = -5; transaction t { x = x + 1; }")
        assert program.initial_state() == {"x": -5}

    def test_bare_program_without_transaction(self):
        program = parse("state c = 0; c = c + 1;")
        assert program.name == "transaction"
        assert len(program.body) == 1

    def test_transaction_name(self):
        assert parse(SAMPLING).name == "sampling"

    def test_field_assignment_and_read(self):
        program = parse("transaction t { pkt.out = pkt.a + 1; }")
        stmt = program.body[0]
        assert isinstance(stmt, DAssign) and stmt.is_field and stmt.target == "out"

    def test_if_else_structure(self):
        program = parse(SAMPLING)
        stmt = program.body[0]
        assert isinstance(stmt, If)
        assert len(stmt.branches) == 1 and len(stmt.orelse) == 2

    def test_else_if_chain(self):
        program = parse(
            "transaction t { if (pkt.a == 0) { pkt.o = 0; } "
            "else if (pkt.a == 1) { pkt.o = 1; } else { pkt.o = 2; } }"
        )
        assert len(program.body[0].branches) == 2

    def test_ternary_expression(self):
        program = parse("transaction t { pkt.o = pkt.a > 3 ? 1 : 0; }")
        assert isinstance(program.body[0].value, DTernary)

    def test_operator_precedence(self):
        program = parse("transaction t { pkt.o = pkt.a + pkt.b * 2; }")
        expr = program.body[0].value
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert expr.right.op == "*"

    def test_missing_semicolon_rejected(self):
        with pytest.raises(DominoSyntaxError):
            parse("transaction t { pkt.o = 1 }")

    def test_unclosed_block_rejected(self):
        with pytest.raises(DominoSyntaxError):
            parse("transaction t { pkt.o = 1;")

    def test_superscript_digit_is_a_syntax_error(self):
        # str.isdigit() accepts '²' but int() does not.
        with pytest.raises(DominoSyntaxError) as excinfo:
            parse("transaction t {\n    pkt.o = pkt.a + ²;\n}")
        assert (excinfo.value.line, excinfo.value.column) == (2, 21)


class TestAnalysis:
    def test_field_usage_collected(self):
        program = parse_and_analyze("transaction t { pkt.out = pkt.a + pkt.b; }")
        assert program.packet_fields_read == ["a", "b"]
        assert program.packet_fields_written == ["out"]

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(DominoSemanticError):
            parse_and_analyze("transaction t { pkt.o = ghost; }")

    def test_local_temporary_allowed(self):
        program = parse_and_analyze("transaction t { tmp = pkt.a + 1; pkt.o = tmp; }")
        assert "tmp" not in program.state_names

    def test_duplicate_state_rejected(self):
        with pytest.raises(DominoSemanticError):
            parse_and_analyze("state x = 0; state x = 1; transaction t { x = x; }")

    def test_sampling_program_analyzes(self):
        program = parse_and_analyze(SAMPLING)
        assert program.packet_fields_written == ["sample"]
        assert program.state_names == ["count"]


class TestInterpreter:
    def test_sampling_behaviour(self):
        program = parse_and_analyze(SAMPLING)
        interpreter = DominoInterpreter(program)
        state = interpreter.initial_state()
        outputs = [interpreter.execute({}, state)["sample"] for _ in range(20)]
        assert outputs == [0] * 9 + [1] + [0] * 9 + [1]
        assert state["count"] == 0

    def test_field_reads_default_to_zero(self):
        program = parse_and_analyze("transaction t { pkt.o = pkt.missing + 1; }")
        assert DominoInterpreter(program).execute({}, {})["o"] == 1

    def test_ternary_and_logical_ops(self):
        program = parse_and_analyze(
            "transaction t { pkt.o = (pkt.a > 2 && pkt.b > 2) ? 1 : 0; }"
        )
        interp = DominoInterpreter(program)
        assert interp.execute({"a": 3, "b": 3}, {})["o"] == 1
        assert interp.execute({"a": 3, "b": 1}, {})["o"] == 0

    def test_division_by_zero_is_zero(self):
        program = parse_and_analyze("transaction t { pkt.o = pkt.a / pkt.b; }")
        assert DominoInterpreter(program).execute({"a": 5, "b": 0}, {})["o"] == 0

    def test_unary_operators(self):
        program = parse_and_analyze("transaction t { pkt.o = !pkt.a; pkt.n = -pkt.a; }")
        result = DominoInterpreter(program).execute({"a": 4}, {})
        assert result["o"] == 0 and result["n"] == -4

    def test_read_before_assignment_rejected_at_runtime(self):
        program = parse("transaction t { pkt.o = later; later = 1; }")
        with pytest.raises(DominoSemanticError):
            DominoInterpreter(program).execute({}, {})


class TestPacketLayout:
    def test_layout_round_trip(self):
        layout = PacketLayout(container_fields=["a", None], output_fields=[None, "o"])
        assert layout.num_containers == 2
        assert layout.relevant_containers == [1]
        assert layout.phv_to_packet([5, 9]) == {"a": 5}
        assert layout.packet_to_phv({"a": 5, "o": 7}, [5, 9]) == [5, 7]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpecificationError):
            PacketLayout(container_fields=["a"], output_fields=["a", "b"])


class TestDominoSpecification:
    def test_specification_matches_interpreter(self):
        layout = PacketLayout(container_fields=[None], output_fields=["sample"])
        spec = DominoSpecification.from_source(SAMPLING, layout)
        trace = spec.run([[0]] * 12)
        assert [outputs[0] for outputs in trace.outputs()] == [0] * 9 + [1, 0, 0]

    def test_specification_matches_function_spec_of_benchmark_program(self):
        """The Domino rendition of the sampling benchmark agrees with its Python spec."""
        from repro.programs import get_program

        program = get_program("sampling")
        layout = PacketLayout(container_fields=[None], output_fields=["sample"])
        domino_spec = DominoSpecification.from_source(program.domino_source, layout)
        function_spec = program.specification()
        inputs = [[i % 7] for i in range(40)]
        assert domino_spec.run(inputs).outputs() == function_spec.run(inputs).outputs()

    def test_heavy_hitter_domino_agrees_with_spec(self):
        from repro.programs import get_program

        program = get_program("snap_heavy_hitter")
        layout = PacketLayout(container_fields=["len"], output_fields=["count_out"])
        domino_spec = DominoSpecification.from_source(program.domino_source, layout)
        inputs = [[v] for v in (10, 20, 30, 40)]
        assert domino_spec.run(inputs).outputs() == program.specification().run(inputs).outputs()
