"""Unit tests for ALU DSL semantic analysis (hole naming, domains, validation)."""

import pytest

from repro.alu_dsl import analyze, parse, parse_and_analyze
from repro.alu_dsl.semantics import UNBOUNDED
from repro.errors import ALUDSLSemanticError


def analyzed(source, name="alu"):
    return parse_and_analyze(source, name=name)


STATEFUL_TEMPLATE = """
type: stateful
state variables : {{state_0}}
hole variables : {{{holes}}}
packet fields : {{pkt_0, pkt_1}}
{body}
"""


def stateful(body, holes=""):
    return analyzed(STATEFUL_TEMPLATE.format(body=body, holes=holes))


class TestHoleNaming:
    def test_single_mux_hole(self):
        spec = stateful("state_0 = Mux2(pkt_0, pkt_1);")
        assert spec.holes == ["mux2_0"]
        assert spec.hole_domains["mux2_0"] == 2

    def test_hole_indices_increase_per_kind(self):
        spec = stateful("state_0 = Mux2(pkt_0, pkt_1) + Mux2(pkt_1, pkt_0);")
        assert spec.holes == ["mux2_0", "mux2_1"]

    def test_different_primitives_counted_separately(self):
        spec = stateful("state_0 = arith_op(Mux2(pkt_0, pkt_1), C());")
        assert set(spec.holes) == {"mux2_0", "const_0", "arith_op_0"}

    def test_hole_names_are_deterministic(self):
        source = STATEFUL_TEMPLATE.format(
            body="state_0 = arith_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()));", holes=""
        )
        assert analyzed(source).holes == analyzed(source).holes

    def test_declared_hole_variables_appended(self):
        spec = stateful("state_0 = state_0 + imm;", holes="imm")
        assert spec.holes == ["imm"]
        assert spec.hole_domains["imm"] == UNBOUNDED

    def test_figure4_hole_count(self):
        from repro.atoms import get_atom

        spec = get_atom("if_else_raw")
        # 3 Opt, 3 C, 3 Mux3 and 1 rel_op call sites.
        assert len(spec.holes) == 10

    def test_condition_holes_precede_branch_holes(self):
        from repro.atoms import get_atom

        holes = get_atom("if_else_raw").holes
        assert holes.index("rel_op_0") < holes.index("opt_1")


class TestDomains:
    @pytest.mark.parametrize(
        "body, hole, domain",
        [
            ("state_0 = Mux2(pkt_0, pkt_1);", "mux2_0", 2),
            ("state_0 = Mux3(pkt_0, pkt_1, pkt_0);", "mux3_0", 3),
            ("state_0 = Mux4(pkt_0, pkt_1, pkt_0, pkt_1);", "mux4_0", 4),
            ("state_0 = Opt(state_0);", "opt_0", 2),
            ("state_0 = C();", "const_0", UNBOUNDED),
            ("state_0 = rel_op(pkt_0, pkt_1);", "rel_op_0", 6),
            ("state_0 = arith_op(pkt_0, pkt_1);", "arith_op_0", 4),
            ("state_0 = bool_op(pkt_0, pkt_1);", "bool_op_0", 2),
        ],
    )
    def test_domain_per_primitive(self, body, hole, domain):
        spec = stateful(body)
        assert spec.hole_domains[hole] == domain


class TestValidation:
    def test_stateless_with_state_vars_rejected(self):
        source = """
        type: stateless
        state variables : {s}
        hole variables : {}
        packet fields : {pkt_0}
        return pkt_0;
        """
        with pytest.raises(ALUDSLSemanticError):
            analyzed(source)

    def test_stateful_without_state_vars_rejected(self):
        source = """
        type: stateful
        state variables : {}
        hole variables : {}
        packet fields : {pkt_0}
        pkt_out = pkt_0;
        """
        with pytest.raises(ALUDSLSemanticError):
            analyzed(source)

    def test_no_packet_fields_rejected(self):
        source = """
        type: stateful
        state variables : {s}
        hole variables : {}
        packet fields : {}
        s = 1;
        """
        with pytest.raises(ALUDSLSemanticError):
            analyzed(source)

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(ALUDSLSemanticError):
            stateful("state_0 = mystery;")

    def test_local_variable_allowed_after_assignment(self):
        spec = stateful("tmp = pkt_0 + pkt_1; state_0 = tmp;")
        assert spec.holes == []

    def test_local_read_before_assignment_rejected(self):
        with pytest.raises(ALUDSLSemanticError):
            stateful("state_0 = tmp; tmp = pkt_0;")

    def test_stateless_requires_return(self):
        source = """
        type: stateless
        state variables : {}
        hole variables : {}
        packet fields : {pkt_0}
        tmp = pkt_0;
        """
        with pytest.raises(ALUDSLSemanticError):
            analyzed(source)

    def test_assignment_to_packet_field_rejected(self):
        with pytest.raises(ALUDSLSemanticError):
            stateful("pkt_0 = 1;")

    def test_assignment_to_hole_variable_rejected(self):
        with pytest.raises(ALUDSLSemanticError):
            stateful("imm = 1;", holes="imm")

    def test_overlapping_declarations_rejected(self):
        source = """
        type: stateful
        state variables : {x}
        hole variables : {x}
        packet fields : {pkt_0}
        x = pkt_0;
        """
        with pytest.raises(ALUDSLSemanticError):
            analyzed(source)

    def test_locals_in_branch_do_not_leak_to_siblings(self):
        body = (
            "if (pkt_0 > 0) { tmp = 1; state_0 = tmp; } "
            "else { state_0 = tmp; }"
        )
        with pytest.raises(ALUDSLSemanticError):
            stateful(body)

    def test_original_spec_not_mutated(self):
        raw = parse(STATEFUL_TEMPLATE.format(body="state_0 = Mux2(pkt_0, pkt_1);", holes=""))
        analyzed_spec = analyze(raw)
        assert raw.holes == []
        assert analyzed_spec.holes == ["mux2_0"]

    def test_catalogue_atoms_all_analyze(self):
        from repro.atoms import atom_names, get_atom

        for name in atom_names():
            spec = get_atom(name)
            assert spec.holes or name in ()  # every atom has at least one hole
            assert spec.name == name
