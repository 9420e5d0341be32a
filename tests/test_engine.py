"""The unified execution-engine layer: selection rules and driver equivalence.

The tentpole guarantee of the engine layer is that one compiled program
produces bit-for-bit identical results under every RMT driver: the tick,
generic and fused drivers touch every stage's state in packet arrival
order, so outputs and final state cannot differ.  The big parametrised test
below pins that down for all 12 Table-1 programs over 3 seeds.
"""

from __future__ import annotations

import pytest

from repro import dgen
from repro.dsim import RMTSimulator
from repro.engine import ENGINE_CHOICES, ExecutionEngine, resolve_engine
from repro.errors import SimulationError
from repro.programs import TABLE1_ORDER, get_program

SEEDS = (0, 7, 1234)
PHVS = 120


@pytest.fixture(scope="module")
def descriptions():
    """Opt-level-3 descriptions per program (generated once, reused by every engine)."""
    cache = {}
    for name in TABLE1_ORDER:
        program = get_program(name)
        cache[name] = (
            program,
            dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED),
        )
    return cache


class TestCrossArchitectureEquivalence:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_engines_agree(self, descriptions, program_name, seed):
        """12 programs x 3 seeds: the RMT tick, generic and fused drivers agree."""
        program, description = descriptions[program_name]
        inputs = program.traffic_generator(seed=seed).generate(PHVS)

        results = {}
        for engine in ("tick", "generic", "fused"):
            results[f"rmt-{engine}"] = RMTSimulator(
                description,
                initial_state=program.initial_pipeline_state(),
                engine=engine,
            ).run(inputs)

        reference = results["rmt-tick"]
        for label, result in results.items():
            assert result.outputs == reference.outputs, label
            assert result.final_state == reference.final_state, label
            assert result.input_trace == reference.input_trace, label
            assert [record.phv_id for record in result.output_trace] == [
                record.phv_id for record in reference.output_trace
            ], label

    def test_engine_attribute_names_driver(self, descriptions):
        program, description = descriptions["sampling"]
        inputs = program.traffic_generator(seed=1).generate(10)
        state = program.initial_pipeline_state()
        assert RMTSimulator(description, initial_state=state).run(inputs).engine == "fused"
        assert (
            RMTSimulator(description, initial_state=state, engine="generic").run(inputs).engine
            == "generic"
        )
        assert (
            RMTSimulator(description, initial_state=state).run(inputs, tick_accurate=True).engine
            == "tick"
        )


class TestSelectionRules:
    def test_resolve_engine_auto_prefers_fused(self):
        assert resolve_engine("auto", fused_available=True) == "fused"
        assert resolve_engine("auto", fused_available=False) == "generic"

    def test_tick_accurate_always_wins(self):
        for requested in ENGINE_CHOICES:
            assert resolve_engine(requested, fused_available=True, tick_accurate=True) == "tick"

    def test_explicit_fused_requires_fused_entry_point(self):
        with pytest.raises(SimulationError, match="fused"):
            resolve_engine("fused", fused_available=False)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            resolve_engine("warp", fused_available=True)

    def test_simulator_rejects_fused_below_level3(self):
        program = get_program("sampling")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_SCC_INLINE
        )
        with pytest.raises(SimulationError):
            RMTSimulator(description, engine="fused").run([[0] * program.width])

    def test_generic_driver_serves_every_level(self):
        program = get_program("rcp")
        inputs = program.traffic_generator(seed=3).generate(60)
        outputs = None
        for level in dgen.OPT_LEVELS:
            description = dgen.generate(
                program.pipeline_spec(), program.machine_code(), opt_level=level
            )
            result = RMTSimulator(
                description,
                initial_state=program.initial_pipeline_state(),
                engine="generic",
            ).run(inputs)
            assert result.engine == "generic"
            if outputs is None:
                outputs = result.outputs
            else:
                assert result.outputs == outputs, f"level {level} diverged"


class TestDriverTickCounts:
    """Every RMT driver reports the tick model's latency, not its own."""

    @pytest.mark.parametrize("engine", ("tick", "generic", "fused"))
    def test_empty_trace(self, descriptions, engine):
        _program, description = descriptions["sampling"]
        result = RMTSimulator(description, engine=engine).run([])
        assert result.ticks == 0
        assert len(result.output_trace) == 0
        assert result.engine == engine

    @pytest.mark.parametrize("engine", ("tick", "generic", "fused"))
    def test_tick_count_is_inputs_plus_drain(self, descriptions, engine):
        program, description = descriptions["snap_heavy_hitter"]
        inputs = program.traffic_generator(seed=2).generate(25)
        result = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine=engine
        ).run(inputs)
        # The last PHV enters at tick 24 and leaves the pipeline after its
        # final stage, ``depth`` ticks later.
        assert result.ticks == 25 + description.spec.depth


class TestProtocolConformance:
    def test_simulators_satisfy_execution_engine_protocol(self, descriptions):
        program, description = descriptions["sampling"]
        assert isinstance(RMTSimulator(description), ExecutionEngine)

        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        assert isinstance(DRMTSimulator(bundle), ExecutionEngine)


class TestTestOnlySurfacesAreGone:
    """The RMT observed twin and the run-to-completion facade stay deleted."""

    def test_level3_module_has_one_trace_loop(self, descriptions):
        _program, description = descriptions["sampling"]
        assert callable(description.namespace["RUN_TRACE"])
        assert "RUN_TRACE_OBSERVED" not in description.namespace
        assert "run_trace_observed" not in description.source
        assert description.source.count("def run_trace(") == 1

    def test_run_fused_takes_no_observer(self, descriptions):
        from repro.engine import rmt

        program, description = descriptions["sampling"]
        with pytest.raises(TypeError, match="observer"):
            rmt.run_fused(
                description,
                [[0] * program.width],
                None,
                None,
                observer=lambda *args: None,
            )

    def test_facade_and_recorder_exports_are_gone(self):
        import repro.debugger
        import repro.engine

        assert not hasattr(repro.engine, "RunToCompletionSimulator")
        assert "RunToCompletionSimulator" not in repro.engine.__all__
        assert not hasattr(repro.debugger, "record_fused_execution")
        assert "record_fused_execution" not in repro.debugger.__all__
        with pytest.raises(ImportError):
            __import__("repro.engine.rtc")
