"""Tests for the 12 Table-1 benchmark programs and the parametric variants.

The central assertion — the reproduction's equivalent of the paper's case
study — is that every program's compiler-produced machine code passes the
fuzzing workflow against its high-level specification, at every dgen
optimisation level.
"""

import pytest

from repro import dgen
from repro.dsim import RMTSimulator
from repro.errors import DruzhbaError
from repro.programs import TABLE1_ORDER, all_programs, get_program, program_names
from repro.programs.variants import (
    make_accumulator_variant,
    make_blue_decrease_variant,
    make_sampling_variant,
    make_threshold_variant,
)
from repro.testing import FailureClass, FuzzConfig, FuzzTester

#: Table 1's (depth, width, ALU name) per program, straight from the paper.
TABLE1_DIMENSIONS = {
    "blue_decrease": (4, 2, "sub"),
    "blue_increase": (4, 2, "pair"),
    "sampling": (2, 1, "if_else_raw"),
    "marple_new_flow": (2, 2, "pred_raw"),
    "marple_tcp_nmo": (3, 2, "pred_raw"),
    "snap_heavy_hitter": (1, 1, "pair"),
    "stateful_firewall": (4, 5, "pred_raw"),
    "flowlets": (4, 5, "pred_raw"),
    "learn_filter": (3, 5, "raw"),
    "rcp": (3, 3, "pred_raw"),
    "conga": (1, 5, "pair"),
    "spam_detection": (1, 1, "pair"),
}


def fuzz_program(program, opt_level=dgen.OPT_SCC_INLINE, num_phvs=250, seed=11):
    tester = FuzzTester(
        program.pipeline_spec(),
        program.specification(),
        config=FuzzConfig(num_phvs=num_phvs, seed=seed, opt_level=opt_level),
        traffic_generator=program.traffic_generator(seed=seed),
        initial_state=program.initial_pipeline_state(),
    )
    return tester.test(program.machine_code())


class TestRegistry:
    def test_twelve_programs(self):
        assert len(all_programs()) == 12
        assert len(program_names()) == 12

    def test_order_matches_table1(self):
        assert program_names() == TABLE1_ORDER

    def test_unknown_program_rejected(self):
        with pytest.raises(DruzhbaError):
            get_program("quantum_forwarding")

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_dimensions_and_atom_match_table1(self, name):
        program = get_program(name)
        depth, width, atom = TABLE1_DIMENSIONS[name]
        assert (program.depth, program.width, program.stateful_atom) == (depth, width, atom)

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_machine_code_is_complete(self, name):
        program = get_program(name)
        assert program.pipeline_spec().validate_machine_code(program.machine_code()) == []

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_descriptions_and_docs_present(self, name):
        program = get_program(name)
        assert len(program.description) > 40
        assert program.relevant_containers

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_traffic_fits_the_pipeline(self, name):
        """Every generated PHV has one value per container, inside the traffic range."""
        program = get_program(name)
        phvs = program.traffic_generator(seed=3).generate(200)
        assert phvs == program.traffic_generator(seed=3).generate(200)
        for phv in phvs:
            assert len(phv) == program.width
            assert all(0 <= value <= program.traffic_max_value for value in phv)

    def test_initial_state_consistency_checked(self):
        program = get_program("conga")
        assert program.initial_pipeline_state()[0][0] == [1023, 0]


class TestProgramCorrectness:
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_fuzz_pass_at_optimised_level(self, name):
        outcome = fuzz_program(get_program(name))
        assert outcome.passed, outcome.describe()

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_fuzz_pass_at_other_levels(self, name, opt_level):
        outcome = fuzz_program(get_program(name), opt_level=opt_level, num_phvs=150)
        assert outcome.passed, outcome.describe()

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_missing_output_mux_pairs_detected(self, name):
        """Dropping the output-mux pairs reproduces §5.2 failure class 1 for every program."""
        program = get_program(name)
        machine_code = program.machine_code()
        broken = machine_code.without([n for n in machine_code if "output_mux" in n][:2])
        tester = FuzzTester(
            program.pipeline_spec(),
            program.specification(),
            config=FuzzConfig(num_phvs=50, seed=1),
            traffic_generator=program.traffic_generator(seed=1),
            initial_state=program.initial_pipeline_state(),
        )
        assert tester.test(broken).failure_class is FailureClass.MISSING_MACHINE_CODE


class TestProgramBehaviour:
    def test_sampling_marks_every_tenth_packet(self):
        program = get_program("sampling")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            [[0]] * 30
        )
        flags = [outputs[0] for outputs in result.outputs]
        assert flags == ([0] * 9 + [1]) * 3

    def test_blue_decrease_monotonically_drains(self):
        program = get_program("blue_decrease")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            [[0, 0]] * 10
        )
        marks = [outputs[1] for outputs in result.outputs]
        assert marks == [500 - 10 * i for i in range(10)]

    def test_conga_tracks_minimum_utilisation(self):
        program = get_program("conga")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        inputs = [[1, 700, 0, 0, 0], [2, 300, 0, 0, 0], [3, 900, 0, 0, 0], [4, 100, 0, 0, 0]]
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(inputs)
        best = [outputs[2] for outputs in result.outputs]
        assert best == [1023, 700, 300, 300]

    def test_marple_tcp_nmo_counts_reordering(self):
        program = get_program("marple_tcp_nmo")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        sequence = [[10, 0], [20, 0], [15, 0], [30, 0], [5, 0]]
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(sequence)
        flags = [outputs[1] for outputs in result.outputs]
        counts = [outputs[0] for outputs in result.outputs]
        assert flags == [0, 0, 1, 0, 1]
        assert counts == [0, 0, 0, 1, 1]

    def test_stateful_firewall_blocks_until_contact(self):
        program = get_program("stateful_firewall")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        # inbound, inbound, outbound, inbound
        inputs = [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(inputs)
        allowed = [outputs[4] for outputs in result.outputs]
        assert allowed == [0, 0, 1, 1]

    def test_learn_filter_accumulates_per_bank(self):
        program = get_program("learn_filter")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        inputs = [[1, 10, 100, 0, 0], [2, 20, 200, 0, 0], [3, 30, 300, 0, 0]]
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(inputs)
        assert [outputs[0] for outputs in result.outputs] == [0, 1, 3]
        assert [outputs[1] for outputs in result.outputs] == [0, 10, 30]
        assert [outputs[2] for outputs in result.outputs] == [0, 100, 300]


class TestVariants:
    @pytest.mark.parametrize("period", [2, 5, 17])
    def test_sampling_variant(self, period):
        program = make_sampling_variant(period)
        assert fuzz_program(program, num_phvs=5 * period).passed

    @pytest.mark.parametrize("increment", [0, 1, 13])
    def test_accumulator_variant(self, increment):
        assert fuzz_program(make_accumulator_variant(increment), num_phvs=100).passed

    @pytest.mark.parametrize("threshold", [10, 500, 1000])
    def test_threshold_variant(self, threshold):
        assert fuzz_program(make_threshold_variant(threshold), num_phvs=300).passed

    @pytest.mark.parametrize("delta", [1, 25])
    def test_blue_decrease_variant(self, delta):
        assert fuzz_program(make_blue_decrease_variant(delta), num_phvs=100).passed

    def test_threshold_variant_with_wrong_constant_fails(self):
        program = make_threshold_variant(400, machine_code_threshold=100)
        outcome = fuzz_program(program, num_phvs=400)
        assert outcome.failure_class is FailureClass.VALUE_RANGE

    def test_invalid_variant_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_sampling_variant(1)
        with pytest.raises(ValueError):
            make_accumulator_variant(-1)
        with pytest.raises(ValueError):
            make_blue_decrease_variant(-2)

    def test_bad_initial_state_location_rejected(self):
        program = make_blue_decrease_variant(5)
        program.initial_stateful_values = {(9, 9): [0]}
        with pytest.raises(DruzhbaError):
            program.initial_pipeline_state()
