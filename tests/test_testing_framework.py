"""Unit tests for the compiler-testing workflow: specs, equivalence, fuzzing, reports."""

import pytest

from repro import atoms, dgen
from repro.chipmunk import MachineCodeBuilder
from repro.dsim import Trace, TrafficGenerator
from repro.errors import EquivalenceError, SpecificationError
from repro.hardware import PipelineSpec
from repro.machine_code import naming
from repro.programs import case_study, get_program
from repro.testing import (
    CampaignSummary,
    FailureClass,
    FunctionSpecification,
    FuzzConfig,
    FuzzOutcome,
    FuzzTester,
    compare_traces,
)


def identity(num_containers):
    return FunctionSpecification(function=lambda phv, state: phv, num_containers=num_containers)


def fuzz(pipeline_spec, machine_code, specification, num_phvs, seed=0, opt_level=2):
    """One verdict from a fresh :class:`FuzzTester`."""
    config = FuzzConfig(num_phvs=num_phvs, seed=seed, opt_level=opt_level)
    return FuzzTester(pipeline_spec, specification, config=config).test(machine_code)


def trace_of(records):
    """A trace over ``(inputs, outputs)`` pairs, PHV ids in list order."""
    return Trace([inputs for inputs, _ in records], [outputs for _, outputs in records])


class TestSpecifications:
    def test_function_specification_runs_trace(self):
        spec = FunctionSpecification(
            function=lambda phv, state: [phv[0] + state.setdefault("total", 0)],
            num_containers=1,
        )
        trace = spec.run([[1], [2], [3]])
        assert trace.outputs() == [(1,), (2,), (3,)]

    def test_function_specification_state_threading(self):
        def accumulate(phv, state):
            old = state["total"]
            state["total"] += phv[0]
            return [old]

        spec = FunctionSpecification(function=accumulate, num_containers=1, state_template={"total": 0})
        trace = spec.run([[5], [6], [7]])
        assert trace.outputs() == [(0,), (5,), (11,)]
        assert trace.spec_state == {"total": 18}

    def test_fresh_state_per_run(self):
        spec = FunctionSpecification(
            function=lambda phv, state: [state.__setitem__("n", state["n"] + 1) or state["n"]],
            num_containers=1,
            state_template={"n": 0},
        )
        assert spec.run([[0]]).outputs() == spec.run([[0]]).outputs()

    def test_container_count_mismatch_rejected(self):
        spec = FunctionSpecification(function=lambda phv, state: list(phv), num_containers=2)
        with pytest.raises(SpecificationError):
            spec.run([[1]])

    def test_wrong_output_width_rejected(self):
        spec = FunctionSpecification(function=lambda phv, state: [0], num_containers=2)
        with pytest.raises(SpecificationError):
            spec.run([[1, 2]])

    def test_passthrough_specification(self):
        spec = identity(3)
        assert spec.run([[1, 2, 3]]).outputs() == [(1, 2, 3)]

    def test_run_equals_a_record_by_record_trace(self):
        def accumulate(phv, state):
            state["total"] += phv[0]
            return [state["total"], phv[1]]

        spec = FunctionSpecification(function=accumulate, num_containers=2, state_template={"total": 0})
        inputs = [[3, 1], [4, 1], [5, 9]]
        state = spec.initial_state()
        expected = Trace(inputs, [spec.process(phv, state) for phv in inputs], spec_state=state)

        trace = spec.run(inputs)
        assert trace.records == expected.records
        assert trace.spec_state == expected.spec_state == {"total": 12}

    def test_run_keeps_its_own_copy_of_the_inputs(self):
        inputs = [[1, 2], [3, 4]]
        trace = identity(2).run(inputs)
        inputs[0][0] = 99
        inputs.append([5, 6])
        assert trace.inputs() == [(1, 2), (3, 4)]
        assert trace.outputs() == [(1, 2), (3, 4)]


class TestEquivalence:
    def test_equivalent_traces(self):
        a = trace_of([(([1, 2]), [3, 4])])
        b = trace_of([(([1, 2]), [3, 4])])
        report = compare_traces(a, b)
        assert report.equivalent
        assert report.first_mismatch is None

    def test_mismatch_reported_with_location(self):
        pipeline = trace_of([([1], [5]), ([2], [6])])
        spec = trace_of([([1], [5]), ([2], [9])])
        report = compare_traces(pipeline, spec)
        assert not report.equivalent
        mismatch = report.first_mismatch
        assert mismatch.phv_id == 1
        assert mismatch.container == 0
        assert (mismatch.expected, mismatch.actual) == (9, 6)

    def test_container_restriction(self):
        pipeline = trace_of([([1, 1], [5, 100])])
        spec = trace_of([([1, 1], [5, 200])])
        assert compare_traces(pipeline, spec, containers=[0]).equivalent
        assert not compare_traces(pipeline, spec, containers=[1]).equivalent

    def test_length_mismatch_rejected(self):
        with pytest.raises(EquivalenceError):
            compare_traces(trace_of([([1], [1])]), trace_of([]))

    def test_describe_mentions_counts(self):
        pipeline = trace_of([([1], [5])])
        spec = trace_of([([1], [6])])
        text = compare_traces(pipeline, spec).describe()
        assert "1 mismatch" in text


class TestReports:
    def test_outcome_describe_per_class(self):
        assert "PASS" in FuzzOutcome(FailureClass.CORRECT, phvs_tested=10).describe()
        assert "missing" in FuzzOutcome(
            FailureClass.MISSING_MACHINE_CODE, 0, missing_pairs=["x"]
        ).describe()
        assert "limited range" in FuzzOutcome(FailureClass.VALUE_RANGE, 10, max_value=1023).describe()
        assert "mismatch" in FuzzOutcome(FailureClass.OUTPUT_MISMATCH, 10).describe()
        assert "error" in FuzzOutcome(
            FailureClass.SIMULATION_ERROR, 0, error_message="boom"
        ).describe()

    def test_campaign_summary_counts(self):
        summary = CampaignSummary()
        summary.add(FuzzOutcome(FailureClass.CORRECT, 10))
        summary.add(FuzzOutcome(FailureClass.CORRECT, 10))
        summary.add(FuzzOutcome(FailureClass.VALUE_RANGE, 10))
        assert summary.total == 3
        assert summary.passed == 2
        assert summary.failed == 1
        assert summary.count(FailureClass.VALUE_RANGE) == 1
        assert "programs tested" in summary.describe()


@pytest.fixture(scope="module")
def threshold_setup():
    """A 1x1 stateless pipeline computing flag = (value > 100) plus its spec."""
    spec = PipelineSpec(
        depth=1,
        width=1,
        stateful_alu=atoms.get_atom("raw"),
        stateless_alu=atoms.get_atom("stateless_full"),
        name="threshold",
    )
    builder = MachineCodeBuilder(spec)
    builder.configure_stateless_full(0, 0, mode="rel", op=">", a=("pkt", 0), b=("const", 100),
                                     input_containers=[0, 0])
    builder.route_output(0, 0, kind=naming.STATELESS, slot=0)
    machine_code = builder.build()
    specification = FunctionSpecification(
        function=lambda phv, state: [1 if phv[0] > 100 else 0],
        num_containers=1,
        relevant_containers=[0],
    )
    return spec, machine_code, specification


class TestFuzzTester:
    def test_correct_machine_code_passes(self, threshold_setup):
        spec, machine_code, specification = threshold_setup
        outcome = fuzz(spec, machine_code, specification, num_phvs=300, seed=1)
        assert outcome.passed
        assert outcome.failure_class is FailureClass.CORRECT
        assert outcome.phvs_tested == 300

    def test_missing_pairs_detected_before_simulation(self, threshold_setup):
        spec, machine_code, specification = threshold_setup
        broken = machine_code.without([naming.output_mux_name(0, 0)])
        outcome = fuzz(spec, broken, specification, num_phvs=100)
        assert outcome.failure_class is FailureClass.MISSING_MACHINE_CODE
        assert outcome.missing_pairs == [naming.output_mux_name(0, 0)]

    def test_value_range_failure_classified(self, threshold_setup):
        spec, _machine_code, specification = threshold_setup
        # Machine code thresholds at 50: correct for values <= 100 region only
        # where both sides agree (values <= 50 and > 100 both agree is false;
        # actually values in (50, 100] disagree) — so use spec threshold > small range.
        builder = MachineCodeBuilder(spec)
        builder.configure_stateless_full(0, 0, mode="rel", op=">", a=("pkt", 0), b=("const", 400),
                                         input_containers=[0, 0])
        builder.route_output(0, 0, kind=naming.STATELESS, slot=0)
        wrong = builder.build()
        specification_high = FunctionSpecification(
            function=lambda phv, state: [1 if phv[0] > 500 else 0],
            num_containers=1,
            relevant_containers=[0],
        )
        tester = FuzzTester(
            spec,
            specification_high,
            config=FuzzConfig(num_phvs=400, seed=3, small_max_value=100),
        )
        outcome = tester.test(wrong)
        assert outcome.failure_class is FailureClass.VALUE_RANGE

    def test_output_mismatch_classified(self, threshold_setup):
        spec, machine_code, _specification = threshold_setup
        inverted = FunctionSpecification(
            function=lambda phv, state: [0 if phv[0] > 100 else 1],
            num_containers=1,
            relevant_containers=[0],
        )
        outcome = fuzz(spec, machine_code, inverted, num_phvs=200, seed=2)
        assert outcome.failure_class is FailureClass.OUTPUT_MISMATCH
        assert outcome.counterexample is not None

    def test_all_levels_agree(self, threshold_setup):
        spec, machine_code, specification = threshold_setup
        for level in dgen.OPT_LEVELS:
            assert fuzz(spec, machine_code, specification, 150, seed=5, opt_level=level).passed

    def test_custom_traffic_generator_respected(self, threshold_setup):
        spec, machine_code, specification = threshold_setup
        traffic = TrafficGenerator(num_containers=1, seed=0, min_value=0, max_value=10)
        tester = FuzzTester(
            spec, specification, config=FuzzConfig(num_phvs=100, seed=1), traffic_generator=traffic
        )
        outcome = tester.test(machine_code)
        assert outcome.passed


def exposing_seed(traffic, threshold, num_phvs):
    """First even seed whose fuzz trace holds a value in ``(cap, threshold]``.

    An injected value-range fault shows only on such a trace; the search
    mirrors ``FuzzTester._make_traffic`` at the default value range (even
    seeds only, because the re-fuzz uses ``seed + 1``).
    """
    seed = 0
    while True:
        trace = TrafficGenerator(
            num_containers=traffic.num_containers,
            seed=seed,
            min_value=traffic.min_value,
            max_value=min(traffic.max_value, FuzzConfig().max_value),
            field_generators=traffic.field_generators,
        ).generate(num_phvs)
        if any(case_study.VALUE_RANGE_CAP < phv[0] <= threshold for phv in trace):
            return seed
        seed += 2


def corpus_tester(entry, seed, num_phvs=150, opt_level=2):
    program = entry.program
    return FuzzTester(
        program.pipeline_spec(),
        program.specification(),
        config=FuzzConfig(num_phvs=num_phvs, seed=seed, opt_level=opt_level),
        traffic_generator=program.traffic_generator(),
        initial_state=program.initial_pipeline_state(),
    )


class TestFuzzVerdictCodegen:
    """One ``dgen.generate`` per verdict, and the verdicts it must keep."""

    def test_value_range_verdict_generates_once(self, monkeypatch):
        entry = next(e for e in case_study.build_corpus() if e.family == "injected_value_range")
        threshold = case_study.VALUE_RANGE_THRESHOLDS[0]
        seed = exposing_seed(entry.program.traffic_generator(), threshold, 150)
        calls = []
        generate = dgen.generate

        def counting_generate(*args, **kwargs):
            calls.append(kwargs.get("validate_machine_code", True))
            return generate(*args, **kwargs)

        monkeypatch.setattr(dgen, "generate", counting_generate)
        outcome = corpus_tester(entry, seed).test(entry.machine_code)
        assert outcome.failure_class is FailureClass.VALUE_RANGE
        assert calls == [False]  # once, and test() has validated already

    def test_all_levels_keep_every_corpus_verdict(self):
        thresholds = iter(case_study.VALUE_RANGE_THRESHOLDS)
        for entry in case_study.build_corpus():
            seed = 0
            if entry.family == "injected_value_range":
                seed = exposing_seed(entry.program.traffic_generator(), next(thresholds), 150)
            classes = {
                level: corpus_tester(entry, seed, opt_level=level).test(entry.machine_code).failure_class
                for level in dgen.OPT_LEVELS
            }
            assert classes == dict.fromkeys(dgen.OPT_LEVELS, entry.expected), entry.program.name


class TestRefuzzWithEmptySmallRange:
    """The §5.2 re-fuzz is skipped when no value fits under ``small_max_value``."""

    @pytest.fixture(scope="class")
    def sampling_with_wrong_output_mux(self):
        program = get_program("sampling")
        machine_code = program.machine_code()
        name = naming.output_mux_name(0, 0)
        return program, machine_code.with_pairs({name: machine_code[name] + 1})

    def test_config_minimum_above_small_range(self, sampling_with_wrong_output_mux):
        program, bad = sampling_with_wrong_output_mux
        tester = FuzzTester(
            program.pipeline_spec(),
            program.specification(),
            FuzzConfig(num_phvs=50, min_value=200),
        )
        outcome = tester.test(bad)
        assert outcome.failure_class is FailureClass.OUTPUT_MISMATCH
        assert outcome.max_value == FuzzConfig().max_value

    def test_traffic_generator_minimum_above_small_range(self, sampling_with_wrong_output_mux):
        program, bad = sampling_with_wrong_output_mux
        tester = FuzzTester(
            program.pipeline_spec(),
            program.specification(),
            FuzzConfig(num_phvs=50),
            traffic_generator=TrafficGenerator(num_containers=1, seed=0, min_value=200),
        )
        outcome = tester.test(bad)
        assert outcome.failure_class is FailureClass.OUTPUT_MISMATCH
