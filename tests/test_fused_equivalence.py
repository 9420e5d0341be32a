"""Fused (opt level 3) vs tick-accurate equivalence, and synthesis caching.

The fused ``run_trace`` entry point must be bit-for-bit identical to the
paper's tick model — same output trace, same final state vectors, same tick
count — for every benchmark program and arbitrary seeds, because the
simulator silently dispatches to it.  The synthesis-side regression tests
pin down that the CEGIS hot-path rework (spec-trace caching, shared
candidate evaluator, early-exit scoring) does not change synthesis results
for fixed seeds.
"""

from __future__ import annotations

import pytest

from repro import atoms, dgen
from repro.alu_dsl import parse_and_analyze
from repro.chipmunk import Sketch, SynthesisConfig, SynthesisEngine
from repro.dsim import RMTSimulator, Trace
from repro.errors import SimulationError, SynthesisError
from repro.hardware import PipelineSpec
from repro.machine_code import naming
from repro.programs import TABLE1_ORDER, get_program
from repro.testing import FunctionSpecification, compare_traces


def run_both(program, seed, phvs=300):
    """Run one program fused and tick-accurate on the same random trace."""
    description = dgen.generate(
        program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
    )
    assert description.fused_function is not None
    inputs = program.traffic_generator(seed=seed).generate(phvs)
    fused = RMTSimulator(
        description, initial_state=program.initial_pipeline_state()
    ).run(inputs)
    tick = RMTSimulator(
        description, initial_state=program.initial_pipeline_state()
    ).run(inputs, tick_accurate=True)
    return fused, tick


class TestFusedEquivalence:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_fused_matches_tick_accurate(self, program_name, seed):
        """Outputs, inputs, final state and tick count match bit for bit."""
        fused, tick = run_both(get_program(program_name), seed)
        assert fused.outputs == tick.outputs
        assert fused.input_trace == tick.input_trace
        assert fused.final_state == tick.final_state
        assert fused.ticks == tick.ticks
        assert [record.phv_id for record in fused.output_trace] == [
            record.phv_id for record in tick.output_trace
        ]

    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_fused_matches_level2(self, program_name):
        """Opt level 3 output equals opt level 2 output on the same trace."""
        program = get_program(program_name)
        inputs = program.traffic_generator(seed=99).generate(200)
        results = {}
        for level in (dgen.OPT_SCC_INLINE, dgen.OPT_FUSED):
            description = dgen.generate(
                program.pipeline_spec(), program.machine_code(), opt_level=level
            )
            results[level] = RMTSimulator(
                description, initial_state=program.initial_pipeline_state()
            ).run(inputs)
        assert results[dgen.OPT_FUSED].outputs == results[dgen.OPT_SCC_INLINE].outputs
        assert (
            results[dgen.OPT_FUSED].final_state
            == results[dgen.OPT_SCC_INLINE].final_state
        )

    def test_fused_empty_trace(self):
        program = get_program("sampling")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        result = RMTSimulator(description).run([])
        assert result.ticks == 0
        assert len(result.output_trace) == 0

    def test_fused_rejects_wrong_width(self):
        program = get_program("sampling")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        width = program.pipeline_spec().width
        with pytest.raises(SimulationError):
            RMTSimulator(description).run([[0] * (width + 1)])

    @pytest.mark.parametrize("engine", ["tick", "generic", "fused"])
    def test_fused_does_not_mutate_caller_initial_state(self, engine):
        program = get_program("flowlets")
        initial = program.initial_pipeline_state()
        snapshot = [[list(alu) for alu in stage] for stage in initial]
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        inputs = program.traffic_generator(seed=3).generate(50)
        RMTSimulator(description, initial_state=initial, engine=engine).run(inputs)
        assert initial == snapshot, engine

    def test_lower_levels_have_no_fused_function(self):
        program = get_program("sampling")
        for level in (dgen.OPT_UNOPTIMIZED, dgen.OPT_SCC, dgen.OPT_SCC_INLINE):
            description = dgen.generate(
                program.pipeline_spec(), program.machine_code(), opt_level=level
            )
            assert description.fused_function is None


#: A stateless ALU that updates one local from itself twice.
INCREMENT_TWICE = """
type: stateless
state variables : {}
hole variables : {}
packet fields : {pkt_0, pkt_1}

x = pkt_0 + pkt_1;
x = x + 1;
x = x + 1;
return x;
"""


class TestReassignedLocal:
    """A local reassigned from itself keeps every update at every level.

    The second ``x = x + 1`` reads the first one's result, so it is a new
    value, not a repeat of the first store.
    """

    @pytest.fixture(scope="class")
    def increment_twice(self):
        spec = PipelineSpec(
            depth=1,
            width=2,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=parse_and_analyze(INCREMENT_TWICE, name="increment_twice"),
            name="increment_twice_pipeline",
        )
        machine_code = spec.passthrough_machine_code().with_pairs(
            {
                naming.input_mux_name(0, naming.STATELESS, 0, 1): 1,
                naming.output_mux_name(0, 0): spec.output_mux_value_for(naming.STATELESS, 0),
            }
        )
        return spec, machine_code

    def test_every_driver_and_level_adds_two(self, increment_twice):
        spec, machine_code = increment_twice
        inputs = [[a, b] for a in (0, 1, 7) for b in (0, 5)]
        expected = [(a + b + 2, b) for a, b in inputs]
        runs = [(level, "generic") for level in dgen.OPT_LEVELS]
        runs += [(dgen.OPT_UNOPTIMIZED, "tick"), (dgen.OPT_FUSED, "fused")]
        for level, engine in runs:
            description = dgen.generate(spec, machine_code, opt_level=level)
            result = RMTSimulator(description, engine=engine).run(inputs)
            assert result.engine == engine
            assert [tuple(out) for out in result.outputs] == expected, (level, engine)


def accumulator_engine(seed=3):
    """The accumulator synthesis problem used as a deterministic fixture."""
    spec = PipelineSpec(
        depth=1,
        width=1,
        stateful_alu=atoms.get_atom("raw"),
        stateless_alu=atoms.get_atom("stateless_rel"),
        name="synthesis_cache_test",
    )
    freeze = {naming.output_mux_name(0, 0): spec.output_mux_value_for(naming.STATEFUL, 0)}
    for kind, alu in (
        (naming.STATEFUL, spec.stateful_alu),
        (naming.STATELESS, spec.stateless_alu),
    ):
        for operand in range(alu.num_operands):
            freeze[naming.input_mux_name(0, kind, 0, operand)] = 0
    search = [
        naming.alu_hole_name(0, naming.STATEFUL, 0, hole)
        for hole in atoms.get_atom("raw").holes
    ]

    def accumulate(phv, state):
        old = state["total"]
        state["total"] += phv[0]
        return [old]

    specification = FunctionSpecification(
        function=accumulate,
        num_containers=1,
        state_template={"total": 0},
        relevant_containers=[0],
    )
    sketch = Sketch.from_pipeline(
        spec, constant_pool=[0, 1], freeze=freeze, search_names=search
    )
    return SynthesisEngine(spec, specification, sketch, SynthesisConfig(seed=seed))


class TestSynthesisCachingRegression:
    def test_spec_cache_does_not_change_results(self):
        """Two engines with the same seed stay bit-for-bit deterministic,
        and the cached spec outputs equal a fresh specification run."""
        first = accumulator_engine().synthesize()
        second = accumulator_engine().synthesize()
        assert first.success and second.success
        assert first.machine_code.as_dict() == second.machine_code.as_dict()
        assert first.iterations == second.iterations
        assert first.candidates_evaluated == second.candidates_evaluated
        assert first.examples_used == second.examples_used

        engine = accumulator_engine()
        engine.synthesize()
        for inputs, cached in [
            (list(map(list, key)), value) for key, value in engine._spec_cache.items()
        ]:
            assert engine.specification.run(inputs).outputs() == cached

    def test_synthesized_code_verified_by_full_trace_comparison(self):
        """The engine's verdict agrees with an independent, uncached check."""
        engine = accumulator_engine()
        result = engine.synthesize()
        assert result.success

        program_spec = engine.pipeline_spec
        description = dgen.generate(
            program_spec, result.machine_code, opt_level=dgen.OPT_SCC_INLINE
        )
        inputs = engine._make_traffic(1023, seed=77).generate(500)
        simulated = RMTSimulator(description).run(inputs)
        spec_trace = engine.specification.run(inputs)
        report = compare_traces(
            simulated.output_trace,
            spec_trace,
            containers=engine.specification.relevant_containers,
        )
        assert report.equivalent

    def test_oversized_sketch_refused(self):
        """A sketch above ``exhaustive_limit`` fails loudly, naming its size."""
        spec = PipelineSpec(
            depth=1,
            width=2,
            stateful_alu=atoms.get_atom("if_else_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="fallback_test",
        )
        specification = FunctionSpecification(
            function=lambda phv, state: [phv[0] * 3 + 7, phv[1]],
            num_containers=2,
            relevant_containers=[0],
        )
        sketch = Sketch.from_pipeline(spec, constant_pool=[0, 1, 2, 3])
        config = SynthesisConfig(seed=5, exhaustive_limit=10)
        with pytest.raises(SynthesisError, match=f"{sketch.space_size()} candidates"):
            SynthesisEngine(spec, specification, sketch, config).synthesize()


def corrupted(trace, indices):
    """``trace`` with every container of the PHVs at ``indices`` incremented."""
    outputs = trace.outputs()
    for index in indices:
        outputs[index] = tuple(value + 1 for value in outputs[index])
    return Trace(trace.inputs(), outputs, trace.final_state)


class TestCompareTracesModes:
    def _traces(self):
        program = get_program("sampling")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        inputs = program.traffic_generator(seed=1).generate(100)
        pipeline_trace = RMTSimulator(
            description, initial_state=program.initial_pipeline_state()
        ).run(inputs).output_trace
        spec_trace = program.specification().run(inputs)
        return pipeline_trace, spec_trace

    def test_count_only_matches_full_comparison(self):
        pipeline_trace, spec_trace = self._traces()
        # Corrupt one PHV's outputs to force mismatches.
        pipeline_trace = corrupted(pipeline_trace, [5])
        full = compare_traces(pipeline_trace, spec_trace)
        counted = compare_traces(pipeline_trace, spec_trace, count_only=True)
        assert not counted.mismatches
        assert counted.mismatch_count == len(full.mismatches) == full.mismatch_count
        assert counted.equivalent == full.equivalent == False  # noqa: E712

    def test_limit_early_exit(self):
        pipeline_trace, spec_trace = self._traces()
        pipeline_trace = corrupted(pipeline_trace, [3, 4, 5])
        limited = compare_traces(pipeline_trace, spec_trace, limit=0)
        assert limited.truncated
        assert limited.mismatch_count == 1
        assert limited.first_mismatch is not None
        assert limited.first_mismatch.phv_id == 3
        clean = compare_traces(pipeline_trace, spec_trace, limit=10**6)
        assert not clean.truncated

    def test_equivalent_traces_unaffected_by_modes(self):
        pipeline_trace, spec_trace = self._traces()
        containers = get_program("sampling").specification().relevant_containers
        assert compare_traces(pipeline_trace, spec_trace, containers=containers).equivalent
        assert compare_traces(
            pipeline_trace, spec_trace, containers=containers, count_only=True, limit=0
        ).equivalent
