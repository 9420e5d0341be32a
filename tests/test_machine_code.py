"""Unit tests for machine-code naming and the MachineCode container."""

import json
import re

import pytest

from repro.errors import MachineCodeError, MachineCodeValueError
from repro.machine_code import (
    MachineCode,
    STATEFUL,
    STATELESS,
    alu_hole_name,
    expected_names,
    input_mux_name,
    output_mux_name,
)

#: The naming convention of every machine-code pair (see ``repro.machine_code.naming``).
VALID_NAME = re.compile(
    r"pipeline_stage_\d+_(output_mux_phv_\d+|(stateful|stateless)_alu_\d+_[A-Za-z_]\w*)"
)


class TestNaming:
    def test_alu_hole_name_format(self):
        assert (
            alu_hole_name(2, STATEFUL, 3, "rel_op_0")
            == "pipeline_stage_2_stateful_alu_3_rel_op_0"
        )

    def test_input_mux_name_format(self):
        assert (
            input_mux_name(0, STATELESS, 1, 2)
            == "pipeline_stage_0_stateless_alu_1_input_mux_2"
        )

    def test_output_mux_name_format(self):
        assert output_mux_name(3, 4) == "pipeline_stage_3_output_mux_phv_4"

    def test_invalid_kind_rejected(self):
        with pytest.raises(MachineCodeError):
            alu_hole_name(0, "hybrid", 0, "x")

    def test_input_mux_invalid_kind_rejected(self):
        with pytest.raises(MachineCodeError):
            input_mux_name(0, "hybrid", 0, 0)

    @pytest.mark.parametrize(
        "builder, kwargs, expected",
        [
            (alu_hole_name, dict(stage=1, kind=STATEFUL, slot=2, hole="mux3_1"),
             "pipeline_stage_1_stateful_alu_2_mux3_1"),
            (alu_hole_name, dict(stage=0, kind=STATELESS, slot=0, hole="const_0"),
             "pipeline_stage_0_stateless_alu_0_const_0"),
            (input_mux_name, dict(stage=4, kind=STATEFUL, slot=1, operand=0),
             "pipeline_stage_4_stateful_alu_1_input_mux_0"),
            (output_mux_name, dict(stage=2, container=3), "pipeline_stage_2_output_mux_phv_3"),
        ],
    )
    def test_builders_follow_the_convention(self, builder, kwargs, expected):
        name = builder(**kwargs)
        assert name == expected
        assert VALID_NAME.fullmatch(name)


class TestMachineCodeContainer:
    def test_mapping_protocol(self):
        mc = MachineCode({"a": 1, "b": 2})
        assert mc["a"] == 1
        assert len(mc) == 2
        assert set(mc) == {"a", "b"}
        assert dict(mc) == {"a": 1, "b": 2}

    def test_equality_with_dict_and_machine_code(self):
        assert MachineCode({"a": 1}) == {"a": 1}
        assert MachineCode({"a": 1}) == MachineCode({"a": 1})
        assert MachineCode({"a": 1}) != MachineCode({"a": 2})

    def test_hashable(self):
        assert len({MachineCode({"a": 1}), MachineCode({"a": 1})}) == 1

    def test_negative_value_rejected(self):
        with pytest.raises(MachineCodeValueError):
            MachineCode({"a": -1})

    def test_non_integer_value_rejected(self):
        with pytest.raises(MachineCodeValueError):
            MachineCode({"a": 1.5})

    def test_boolean_value_rejected(self):
        with pytest.raises(MachineCodeValueError):
            MachineCode({"a": True})

    def test_empty_name_rejected(self):
        with pytest.raises(MachineCodeError):
            MachineCode({"": 1})

    def test_with_pairs_overrides(self):
        mc = MachineCode({"a": 1}).with_pairs({"a": 5, "b": 2})
        assert mc.as_dict() == {"a": 5, "b": 2}

    def test_without_removes(self):
        mc = MachineCode({"a": 1, "b": 2}).without(["a"])
        assert mc.as_dict() == {"b": 2}

    def test_missing(self):
        mc = MachineCode({"a": 1, "z": 2})
        assert mc.missing(["a", "b"]) == ["b"]


class TestFileIO:
    def test_text_round_trip(self, tmp_path):
        mc = MachineCode({"pipeline_stage_0_output_mux_phv_0": 4, "pipeline_stage_0_output_mux_phv_1": 2})
        path = tmp_path / "machine_code.txt"
        path.write_text("".join(f"{name} {value}\n" for name, value in mc.items()))
        assert MachineCode.from_file(path) == mc

    def test_json_round_trip(self, tmp_path):
        mc = MachineCode({"a": 1, "b": 2})
        path = tmp_path / "machine_code.json"
        path.write_text(json.dumps(mc.as_dict()))
        assert MachineCode.from_file(path) == mc

    def test_text_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "mc.txt"
        path.write_text("# comment\n\nname_a 3\nname_b 4   # trailing\n")
        mc = MachineCode.from_file(path)
        assert mc.as_dict() == {"name_a": 3, "name_b": 4}

    def test_text_comma_separator_accepted(self, tmp_path):
        path = tmp_path / "mc.txt"
        path.write_text("name_a, 7\n")
        assert MachineCode.from_file(path)["name_a"] == 7

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "mc.txt"
        path.write_text("name_a 1 extra\n")
        with pytest.raises(MachineCodeError):
            MachineCode.from_file(path)

    def test_non_integer_value_rejected(self, tmp_path):
        path = tmp_path / "mc.txt"
        path.write_text("name_a seven\n")
        with pytest.raises(MachineCodeError):
            MachineCode.from_file(path)

    def test_json_non_integer_value_rejected(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"name_a": "seven"}))
        with pytest.raises(MachineCodeError):
            MachineCode.from_file(path)

    def test_json_must_be_object(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text("[1, 2]")
        with pytest.raises(MachineCodeError):
            MachineCode.from_file(path)


class TestExpectedNames:
    def test_counts(self):
        names = expected_names(
            depth=2,
            width=2,
            stateful_holes=["h0", "h1"],
            stateless_holes=["g0"],
            stateful_operands=2,
            stateless_operands=2,
        )
        # per stage: 2 slots * (2 stateless muxes + 1 stateless hole
        #            + 2 stateful muxes + 2 stateful holes) + 2 output muxes = 16
        assert len(names) == 2 * (2 * (2 + 1 + 2 + 2) + 2)
        assert len(set(names)) == len(names)

    def test_every_expected_name_is_valid(self):
        names = expected_names(1, 1, ["a"], ["b"], 1, 1)
        assert all(VALID_NAME.fullmatch(name) for name in names)

    def test_pipeline_spec_contract(self, small_pipeline_spec):
        names = small_pipeline_spec.expected_machine_code_names()
        assert len(names) == len(set(names))
        assert all(VALID_NAME.fullmatch(name) for name in names)
        domains = small_pipeline_spec.hole_domains()
        assert set(domains) == set(names)
