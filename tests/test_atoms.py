"""Unit tests for the Banzai atom catalogue and its semantics."""

import pytest

from repro import atoms
from repro.alu_dsl import ALUInterpreter
from repro.errors import ALUDSLError


class TestCatalogue:
    def test_counts_match_paper(self):
        """Paper §3.1: 5 stateless and 6 stateful ALUs."""
        assert len(atoms.STATEFUL_SOURCES) == 6
        assert len(atoms.STATELESS_SOURCES) == 5

    def test_expected_atom_names_present(self):
        names = set(atoms.atom_names())
        assert {"raw", "if_else_raw", "pred_raw", "sub", "pair", "nested_if"} <= names
        assert {"stateless_arith", "stateless_rel", "stateless_mux", "stateless_const",
                "stateless_full"} <= names

    def test_table1_atoms_all_exist(self):
        """Every ALU name appearing in Table 1 is in the catalogue."""
        for name in ("sub", "pair", "if_else_raw", "pred_raw", "raw"):
            assert atoms.get_atom(name).is_stateful

    def test_get_atom_unknown_name(self):
        with pytest.raises(ALUDSLError):
            atoms.get_atom("quantum_alu")

    def test_stateful_atoms_have_two_operands(self):
        for name in atoms.STATEFUL_SOURCES:
            assert atoms.get_atom(name).num_operands == 2, name

    def test_pair_has_two_state_vars_others_one(self):
        for name in atoms.STATEFUL_SOURCES:
            expected = 2 if name == "pair" else 1
            assert atoms.get_atom(name).num_state_vars == expected


def run_atom(name, operands, state, holes):
    spec = atoms.get_atom(name)
    return ALUInterpreter(spec).execute(operands, state, holes)


class TestRawSemantics:
    def test_accumulate_packet_value(self):
        result = run_atom("raw", [7, 0], [10], {"opt_0": 0, "mux3_0": 0, "const_0": 0})
        assert result.state == [17]
        assert result.output == 10  # old state

    def test_overwrite_with_constant(self):
        result = run_atom("raw", [7, 0], [10], {"opt_0": 1, "mux3_0": 2, "const_0": 99})
        assert result.state == [99]


class TestIfElseRawSemantics:
    HOLES = {
        "opt_0": 0, "const_0": 9, "mux3_0": 2, "rel_op_0": 0,   # if state == 9
        "opt_1": 1, "const_1": 0, "mux3_1": 2,                   # then state = 0
        "opt_2": 0, "const_2": 1, "mux3_2": 2,                   # else state = state + 1
    }

    def test_wrapping_counter_increments(self):
        result = run_atom("if_else_raw", [0, 0], [3], self.HOLES)
        assert result.state == [4]
        assert result.output == 3

    def test_wrapping_counter_resets(self):
        result = run_atom("if_else_raw", [0, 0], [9], self.HOLES)
        assert result.state == [0]
        assert result.output == 9


class TestPredRawSemantics:
    def test_update_only_when_predicate_holds(self):
        holes = {
            "opt_0": 0, "const_0": 0, "mux3_0": 0, "rel_op_0": 1,  # if state < pkt_0
            "opt_1": 1, "const_1": 0, "mux3_1": 0, "arith_op_0": 0,  # state = 0 + pkt_0
        }
        grew = run_atom("pred_raw", [50, 0], [10], holes)
        assert grew.state == [50]
        unchanged = run_atom("pred_raw", [5, 0], [10], holes)
        assert unchanged.state == [10]


class TestSubSemantics:
    def test_subtraction_branch(self):
        holes = {
            "opt_0": 0, "const_0": 0, "mux3_0": 2, "rel_op_0": 2,      # if state > 0
            "opt_1": 0, "const_1": 4, "mux3_1": 2, "arith_op_0": 1,    # state = state - 4
            "opt_2": 0, "const_2": 0, "mux3_2": 2, "arith_op_1": 0,    # else unchanged
        }
        assert run_atom("sub", [0, 0], [10], holes).state == [6]
        assert run_atom("sub", [0, 0], [0], holes).state == [0]


class TestPairSemantics:
    ALWAYS_TRUE = {
        "mux2_0": 0, "const_0": 0, "mux3_0": 0, "rel_op_0": 0, "const_1": 1, "mux2_1": 1,
        "mux2_2": 0, "const_2": 0, "mux3_1": 0, "rel_op_1": 0, "const_3": 1, "mux2_3": 1,
        "bool_op_0": 0,
    }
    KEEP_ELSE = {
        "const_8": 0, "mux3_6": 0, "const_9": 0, "mux3_7": 2, "arith_op_2": 0,
        "const_10": 0, "mux3_8": 1, "const_11": 0, "mux3_9": 2, "arith_op_3": 0,
    }

    def test_dual_counter_update(self):
        holes = dict(self.ALWAYS_TRUE)
        holes.update({
            # state_0 = state_0 + 1
            "const_4": 0, "mux3_2": 0, "const_5": 1, "mux3_3": 2, "arith_op_0": 0,
            # state_1 = state_1 + pkt_0
            "const_6": 0, "mux3_4": 1, "const_7": 0, "mux3_5": 0, "arith_op_1": 0,
        })
        holes.update(self.KEEP_ELSE)
        result = run_atom("pair", [33, 0], [5, 100], holes)
        assert result.state == [6, 133]
        assert result.output == 5

    def test_condition_gates_updates(self):
        holes = dict(self.ALWAYS_TRUE)
        # Condition 0: state_0 > pkt_0, condition 1 forced true, combined with &&.
        holes.update({"mux2_1": 0, "mux2_0": 0, "mux3_0": 0, "rel_op_0": 2})
        holes.update({
            "const_4": 0, "mux3_2": 2, "const_5": 0, "mux3_3": 0, "arith_op_0": 0,  # state_0 = pkt_0
            "const_6": 0, "mux3_4": 2, "const_7": 0, "mux3_5": 1, "arith_op_1": 0,  # state_1 = pkt_1
        })
        holes.update(self.KEEP_ELSE)
        taken = run_atom("pair", [3, 44], [10, 0], holes)
        assert taken.state == [3, 44]
        not_taken = run_atom("pair", [30, 44], [10, 0], holes)
        assert not_taken.state == [10, 0]


class TestNestedIfSemantics:
    def test_three_way_behaviour(self):
        holes = {
            "opt_0": 0, "const_0": 0, "mux3_0": 0, "rel_op_0": 1,       # if state < pkt_0
            "opt_1": 0, "const_1": 0, "mux3_1": 2, "rel_op_1": 0,       #   if state == 0
            "opt_2": 1, "const_2": 0, "mux3_2": 0, "arith_op_0": 0,     #     state = pkt_0
            "opt_3": 0, "const_3": 1, "mux3_3": 2, "arith_op_1": 0,     #   else state = state + 1
            "opt_4": 0, "const_4": 0, "mux3_4": 2, "arith_op_2": 0,     # else unchanged
        }
        assert run_atom("nested_if", [50, 0], [0], holes).state == [50]
        assert run_atom("nested_if", [50, 0], [10], holes).state == [11]
        assert run_atom("nested_if", [5, 0], [10], holes).state == [10]
