"""Unit tests for the ALU DSL reference interpreter."""

import pytest

from repro.alu_dsl import ALUInterpreter, parse_and_analyze
from repro.alu_dsl import semantics
from repro.errors import ALUDSLSemanticError, MissingMachineCodeError

STATEFUL_TEMPLATE = """
type: stateful
state variables : {{state_0}}
hole variables : {{{holes}}}
packet fields : {{pkt_0, pkt_1}}
{body}
"""

STATELESS_TEMPLATE = """
type: stateless
state variables : {{}}
hole variables : {{}}
packet fields : {{pkt_0, pkt_1}}
{body}
"""


def run_stateful(body, operands, state, holes=None, hole_vars=""):
    spec = parse_and_analyze(STATEFUL_TEMPLATE.format(body=body, holes=hole_vars))
    return ALUInterpreter(spec).execute(operands, state, holes or {})


def run_stateless(body, operands, holes=None):
    spec = parse_and_analyze(STATELESS_TEMPLATE.format(body=body))
    return ALUInterpreter(spec).execute(operands, [], holes or {})


class TestBasicExecution:
    def test_plain_assignment_updates_state(self):
        result = run_stateful("state_0 = pkt_0 + pkt_1;", [3, 4], [0])
        assert result.state == [7]

    def test_default_output_is_old_state(self):
        result = run_stateful("state_0 = pkt_0;", [99, 0], [5])
        assert result.output == 5
        assert result.state == [99]

    def test_explicit_return_overrides_default(self):
        result = run_stateful("state_0 = pkt_0; return 42;", [1, 2], [7])
        assert result.output == 42

    def test_return_stops_execution(self):
        result = run_stateful("return pkt_0; state_0 = 999;", [11, 0], [3])
        assert result.output == 11
        assert result.state == [3]

    def test_stateless_return(self):
        result = run_stateless("return pkt_0 * pkt_1;", [6, 7])
        assert result.output == 42
        assert result.state == []

    def test_local_variables(self):
        result = run_stateful("tmp = pkt_0 + 1; state_0 = tmp * 2;", [4, 0], [0])
        assert result.state == [10]

    def test_sequential_state_reads_see_updates(self):
        result = run_stateful("state_0 = state_0 + 1; state_0 = state_0 + 1;", [0, 0], [10])
        assert result.state == [12]

    def test_operand_count_checked(self):
        with pytest.raises(ALUDSLSemanticError):
            run_stateful("state_0 = pkt_0;", [1], [0])

    def test_state_count_checked(self):
        with pytest.raises(ALUDSLSemanticError):
            run_stateful("state_0 = pkt_0;", [1, 2], [0, 0])


class TestControlFlow:
    def test_if_true_branch(self):
        result = run_stateful(
            "if (pkt_0 > 5) { state_0 = 1; } else { state_0 = 2; }", [9, 0], [0]
        )
        assert result.state == [1]

    def test_if_false_branch(self):
        result = run_stateful(
            "if (pkt_0 > 5) { state_0 = 1; } else { state_0 = 2; }", [3, 0], [0]
        )
        assert result.state == [2]

    def test_elif_branch(self):
        body = (
            "if (pkt_0 == 0) { state_0 = 10; } "
            "elif (pkt_0 == 1) { state_0 = 20; } "
            "else { state_0 = 30; }"
        )
        assert run_stateful(body, [1, 0], [0]).state == [20]
        assert run_stateful(body, [5, 0], [0]).state == [30]

    def test_if_without_else_no_change(self):
        result = run_stateful("if (pkt_0 > 100) { state_0 = 1; }", [5, 0], [7])
        assert result.state == [7]

    def test_nested_if(self):
        body = (
            "if (pkt_0 > 0) { if (pkt_1 > 0) { state_0 = 3; } else { state_0 = 2; } } "
            "else { state_0 = 1; }"
        )
        assert run_stateful(body, [1, 1], [0]).state == [3]
        assert run_stateful(body, [1, 0], [0]).state == [2]
        assert run_stateful(body, [0, 9], [0]).state == [1]


class TestOperatorSemantics:
    def test_division_by_zero_is_zero(self):
        assert run_stateless("return pkt_0 / pkt_1;", [5, 0]).output == 0

    def test_modulo_by_zero_is_zero(self):
        assert run_stateless("return pkt_0 % pkt_1;", [5, 0]).output == 0

    def test_integer_division(self):
        assert run_stateless("return pkt_0 / pkt_1;", [7, 2]).output == 3

    def test_relational_produces_zero_or_one(self):
        assert run_stateless("return pkt_0 < pkt_1;", [1, 2]).output == 1
        assert run_stateless("return pkt_0 < pkt_1;", [2, 1]).output == 0

    def test_logical_operators(self):
        assert run_stateless("return pkt_0 && pkt_1;", [3, 0]).output == 0
        assert run_stateless("return pkt_0 || pkt_1;", [0, 2]).output == 1

    def test_unary_not(self):
        assert run_stateless("return !pkt_0;", [0, 9]).output == 1
        assert run_stateless("return !pkt_0;", [7, 9]).output == 0

    def test_unary_minus(self):
        assert run_stateless("return -pkt_0 + pkt_1;", [3, 10]).output == 7


class TestPrimitives:
    def test_mux2_selection(self):
        body = "state_0 = Mux2(pkt_0, pkt_1);"
        assert run_stateful(body, [5, 9], [0], {"mux2_0": 0}).state == [5]
        assert run_stateful(body, [5, 9], [0], {"mux2_0": 1}).state == [9]

    def test_mux_value_wraps_modulo_width(self):
        body = "state_0 = Mux2(pkt_0, pkt_1);"
        assert run_stateful(body, [5, 9], [0], {"mux2_0": 2}).state == [5]

    def test_mux3_const_input(self):
        body = "state_0 = Mux3(pkt_0, pkt_1, C());"
        holes = {"mux3_0": 2, "const_0": 77}
        assert run_stateful(body, [1, 2], [0], holes).state == [77]

    def test_opt_keeps_or_zeroes(self):
        body = "state_0 = Opt(state_0) + 1;"
        assert run_stateful(body, [0, 0], [10], {"opt_0": 0}).state == [11]
        assert run_stateful(body, [0, 0], [10], {"opt_0": 1}).state == [1]

    def test_const_returns_machine_code_value(self):
        body = "state_0 = C();"
        assert run_stateful(body, [0, 0], [0], {"const_0": 123}).state == [123]

    @pytest.mark.parametrize("opcode, expected", [(0, 1), (1, 0), (2, 0), (3, 0), (4, 1), (5, 1)])
    def test_rel_op_opcodes(self, opcode, expected):
        # operands equal: ==, <=, >= hold; <, >, != do not.
        body = "state_0 = rel_op(pkt_0, pkt_1);"
        assert run_stateful(body, [4, 4], [0], {"rel_op_0": opcode}).state == [expected]

    @pytest.mark.parametrize("opcode, expected", [(0, 10), (1, 4), (2, 21), (3, 2)])
    def test_arith_op_opcodes(self, opcode, expected):
        body = "state_0 = arith_op(pkt_0, pkt_1);"
        assert run_stateful(body, [7, 3], [0], {"arith_op_0": opcode}).state == [expected]

    @pytest.mark.parametrize("opcode, expected", [(0, 0), (1, 1)])
    def test_bool_op_opcodes(self, opcode, expected):
        body = "state_0 = bool_op(pkt_0, pkt_1);"
        assert run_stateful(body, [1, 0], [0], {"bool_op_0": opcode}).state == [expected]

    def test_hole_variable_value_injected(self):
        body = "state_0 = state_0 + imm;"
        result = run_stateful(body, [0, 0], [10], {"imm": 5}, hole_vars="imm")
        assert result.state == [15]

    def test_missing_hole_raises(self):
        body = "state_0 = Mux2(pkt_0, pkt_1);"
        with pytest.raises(MissingMachineCodeError) as excinfo:
            run_stateful(body, [1, 2], [0], {})
        assert excinfo.value.name == "mux2_0"


    def test_unselected_argument_is_still_evaluated(self):
        body = "state_0 = Mux2(pkt_0, C());"
        with pytest.raises(MissingMachineCodeError) as excinfo:
            run_stateful(body, [1, 2], [0], {"mux2_0": 0})
        assert excinfo.value.name == "const_0"


class TestOpcodeTables:
    @staticmethod
    def check_operator(name, a, b):
        """Hole value ``i`` of ``name`` computes its ``i``-th symbol, modulo the domain."""
        symbols = semantics.PRIMITIVES[name].symbols
        body = f"state_0 = {name}(pkt_0, pkt_1);"
        for index in range(2 * len(symbols)):
            result = run_stateful(body, [a, b], [0], {f"{name}_0": index})
            expected = semantics.apply_binary(symbols[index % len(symbols)], a, b)
            assert result.state == [expected], (name, index)

    def test_rel_symbols_match_functions(self):
        self.check_operator("rel_op", 3, 5)

    def test_arith_symbols_match_functions(self):
        self.check_operator("arith_op", 9, 4)
        self.check_operator("arith_op", 9, 0)

    def test_bool_symbols_match_functions(self):
        self.check_operator("bool_op", 1, 0)

    def test_primitive_symbols_are_binary_operators(self):
        for row in semantics.PRIMITIVES.values():
            assert set(row.symbols) <= set(semantics.BINARY_OPS), row.name

    def test_binary_table_templates_agree(self):
        for op, (template, function) in semantics.BINARY_OPS.items():
            code = template.format(a="9", b="4")
            assert eval(code) == function(9, 4)  # noqa: S307 - controlled template text
