"""Unit tests for the pipeline hardware specification."""

import pytest

from repro import atoms
from repro.errors import CodegenError
from repro.hardware import PipelineSpec, describe_pipeline
from repro.machine_code import naming


def make_spec(depth=2, width=2, stateful="if_else_raw", stateless="stateless_full"):
    return PipelineSpec(
        depth=depth,
        width=width,
        stateful_alu=atoms.get_atom(stateful),
        stateless_alu=atoms.get_atom(stateless),
        name="spec_under_test",
    )


class TestValidation:
    def test_zero_depth_rejected(self):
        with pytest.raises(CodegenError):
            make_spec(depth=0)

    def test_zero_width_rejected(self):
        with pytest.raises(CodegenError):
            make_spec(width=0)

    def test_stateful_slot_requires_stateful_atom(self):
        with pytest.raises(CodegenError):
            PipelineSpec(
                depth=1,
                width=1,
                stateful_alu=atoms.get_atom("stateless_full"),
                stateless_alu=atoms.get_atom("stateless_full"),
            )

    def test_stateless_slot_requires_stateless_atom(self):
        with pytest.raises(CodegenError):
            PipelineSpec(
                depth=1,
                width=1,
                stateful_alu=atoms.get_atom("raw"),
                stateless_alu=atoms.get_atom("raw"),
            )


class TestGeometry:
    def test_num_containers_equals_width(self):
        assert make_spec(width=5).num_containers == 5

    def test_num_state_vars_from_atom(self):
        assert make_spec(stateful="pair").num_state_vars == 2
        assert make_spec(stateful="raw").num_state_vars == 1

    def test_output_mux_choices(self):
        assert make_spec(width=3).output_mux_choices == 7

    def test_output_mux_values(self):
        spec = make_spec(width=2)
        assert spec.output_mux_value_for(naming.STATELESS, 0) == 0
        assert spec.output_mux_value_for(naming.STATELESS, 1) == 1
        assert spec.output_mux_value_for(naming.STATEFUL, 0) == 2
        assert spec.output_mux_value_for(naming.STATEFUL, 1) == 3
        assert spec.passthrough_value == 4

    def test_output_mux_value_out_of_range_slot(self):
        with pytest.raises(CodegenError):
            make_spec(width=2).output_mux_value_for(naming.STATEFUL, 5)

    def test_output_mux_value_bad_kind(self):
        with pytest.raises(CodegenError):
            make_spec().output_mux_value_for("weird", 0)


class TestMachineCodeContract:
    def test_expected_names_scale_with_geometry(self):
        small = len(make_spec(depth=1, width=1).expected_machine_code_names())
        large = len(make_spec(depth=4, width=5).expected_machine_code_names())
        assert large == 20 * small  # 4*5 ALU groups vs 1, plus proportional output muxes

    def test_passthrough_machine_code_is_complete(self):
        spec = make_spec()
        mc = spec.passthrough_machine_code()
        assert spec.validate_machine_code(mc) == []

    def test_passthrough_output_muxes_select_passthrough(self):
        spec = make_spec(width=3)
        mc = spec.passthrough_machine_code()
        for stage in range(spec.depth):
            for container in range(spec.width):
                assert mc[naming.output_mux_name(stage, container)] == spec.passthrough_value

    def test_validate_machine_code_reports_missing(self):
        spec = make_spec()
        mc = spec.passthrough_machine_code().without([naming.output_mux_name(0, 0)])
        assert spec.validate_machine_code(mc) == [naming.output_mux_name(0, 0)]

    def test_hole_domains_cover_every_pair(self):
        spec = make_spec(depth=1, width=2)
        domains = spec.hole_domains()
        assert set(domains) == set(spec.expected_machine_code_names())
        assert domains[naming.input_mux_name(0, naming.STATEFUL, 0, 0)] == 2
        assert domains[naming.output_mux_name(0, 1)] == spec.output_mux_choices


class TestHelpers:
    def test_describe_pipeline_mentions_geometry(self):
        text = describe_pipeline(make_spec(depth=3, width=4))
        assert "depth=3" in text
        assert "width=4" in text
