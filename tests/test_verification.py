"""Tests for bounded formal verification of pipelines."""

import pytest

from repro import atoms
from repro.errors import SpecificationError
from repro.hardware import PipelineSpec
from repro.chipmunk import MachineCodeBuilder
from repro.machine_code import naming
from repro.programs import get_program
from repro.programs.variants import make_sampling_variant, make_threshold_variant
from repro.testing import FunctionSpecification
from repro.verification import (
    check_bounded_equivalence,
    check_optimization_equivalence,
    enumerate_traces,
)


class TestBoundedPipelineEquivalence:
    def test_sampling_variant_proven_on_bounded_domain(self):
        program = make_sampling_variant(3)
        result = check_bounded_equivalence(
            program.pipeline_spec(),
            program.machine_code(),
            program.specification(),
            value_domain=[0, 1],
            trace_length=4,
            initial_state=program.initial_pipeline_state(),
        )
        assert result.verified
        assert result.traces_checked == (2 ** 1) ** 4
        assert "PROVEN" in result.describe()

    def test_threshold_program_with_wrong_constant_refuted(self):
        program = make_threshold_variant(3, machine_code_threshold=1)
        result = check_bounded_equivalence(
            program.pipeline_spec(),
            program.machine_code(),
            program.specification(),
            value_domain=[0, 2, 4],
            trace_length=1,
        )
        assert not result.verified
        assert result.counterexample_trace == [[2]]
        assert "REFUTED" in result.describe()

    def test_snap_heavy_hitter_bounded_proof(self):
        program = get_program("snap_heavy_hitter")
        result = check_bounded_equivalence(
            program.pipeline_spec(),
            program.machine_code(),
            program.specification(),
            value_domain=[0, 1, 7],
            trace_length=3,
            initial_state=program.initial_pipeline_state(),
        )
        assert result.verified

    def test_wrong_specification_refuted_with_counterexample(self):
        spec = PipelineSpec(
            depth=1, width=1,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="bounded",
        )
        builder = MachineCodeBuilder(spec)
        builder.configure_stateless_full(0, 0, mode="arith", op="+", a=("pkt", 0), b=("const", 1),
                                         input_containers=[0, 0])
        builder.route_output(0, 0, kind=naming.STATELESS, slot=0)
        wrong_spec = FunctionSpecification(
            function=lambda phv, state: [phv[0] + 2], num_containers=1, relevant_containers=[0]
        )
        result = check_bounded_equivalence(
            spec, builder.build(), wrong_spec, value_domain=[0, 1, 2], trace_length=1
        )
        assert not result.verified
        assert result.counterexample_report.first_mismatch.expected == 2

    def test_domain_guards(self):
        program = get_program("snap_heavy_hitter")
        with pytest.raises(SpecificationError):
            check_bounded_equivalence(
                program.pipeline_spec(), program.machine_code(), program.specification(),
                value_domain=[], trace_length=1,
            )
        with pytest.raises(SpecificationError):
            check_bounded_equivalence(
                program.pipeline_spec(), program.machine_code(), program.specification(),
                value_domain=range(100), trace_length=4, max_traces=10,
            )

    def test_enumerate_traces_counts(self):
        traces = list(enumerate_traces([0, 1], width=2, trace_length=2))
        assert len(traces) == (2 ** 2) ** 2
        assert traces[0] == [[0, 0], [0, 0]]


class TestOptimizationEquivalenceProof:
    def test_levels_agree_on_bounded_domain(self):
        program = get_program("sampling")
        result = check_optimization_equivalence(
            program.pipeline_spec(),
            program.machine_code(),
            value_domain=[0, 5],
            trace_length=3,
            initial_state=program.initial_pipeline_state(),
        )
        assert result.verified
        assert result.traces_checked == (2 ** 1) ** 3
