"""Column-backed output traces and the one-copy input preparation behind them.

A sequential RMT driver coerces the caller's trace once and uses that list
both as the loop input and as the result's ``input_trace``; its output trace
keeps the input and output columns and builds :class:`TraceRecord` objects
only when ``records`` is read.  Two invariants make that sound and are
pinned here:

* no driver mutates the PHV lists it loops over (generic stage loop, fused
  ``run_trace``, the tick driver), for every Table-1 program at every opt
  level that has the driver;
* a column-backed trace is indistinguishable from a record-built one: the
  same records as the tick model's, record edits visible through every
  accessor, the same width errors and the same integer coercion.
"""

from __future__ import annotations

import pytest

from repro import dgen
from repro.dsim import RMTSimulator
from repro.dsim import trace as trace_module
from repro.engine.rmt import run_stage_loop
from repro.errors import SimulationError
from repro.programs import TABLE1_ORDER, get_program
from repro.testing import compare_traces

PHVS = 60


@pytest.fixture(scope="module")
def descriptions():
    """(program, description) per (Table-1 program, opt level), generated once."""
    cache = {}
    for name in TABLE1_ORDER:
        program = get_program(name)
        for level in dgen.OPT_LEVELS:
            cache[name, level] = (
                program,
                dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=level),
            )
    return cache


def sequential_simulator(description, engine):
    """A simulator whose run goes through ``prepare_inputs``.

    ``sharded`` runs one shard: the passthrough pipeline writes state, which
    a block-partitioned multi-shard run correctly refuses.
    """
    if engine == "sharded":
        return RMTSimulator(description, engine=engine, shards=1)
    return RMTSimulator(description, engine=engine)


class TestDriversDoNotMutateInputs:
    @pytest.mark.parametrize("level", dgen.OPT_LEVELS)
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_sequential_loops_leave_input_lists_alone(self, descriptions, program_name, level):
        program, description = descriptions[program_name, level]
        work = [list(map(int, phv)) for phv in program.traffic_generator(seed=5).generate(PHVS)]
        expected = [list(phv) for phv in work]
        values = description.runtime_values()

        run_stage_loop(description.stage_functions, work, program.initial_pipeline_state(), values)
        assert work == expected, "generic stage loop"
        if level == dgen.OPT_FUSED:
            description.fused_function(work, program.initial_pipeline_state(), values)
            assert work == expected, "fused run_trace"

        # The tick driver loops over the list it returns as ``input_trace``.
        result = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="tick"
        ).run(work)
        assert work == expected, "tick driver"
        assert result.input_trace == expected, "tick driver"
        assert result.output_trace.inputs() == [tuple(phv) for phv in expected]


class TestColumnBackedTrace:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_fused_records_equal_tick_records(self, descriptions, program_name):
        program, description = descriptions[program_name, dgen.OPT_FUSED]
        inputs = program.traffic_generator(seed=11).generate(PHVS)
        runs = {
            tick_accurate: RMTSimulator(
                description, initial_state=program.initial_pipeline_state()
            ).run(inputs, tick_accurate=tick_accurate)
            for tick_accurate in (False, True)
        }
        assert runs[False].engine == "fused" and runs[True].engine == "tick"
        assert runs[False].output_trace.records == runs[True].output_trace.records

    def test_record_edits_after_materialisation_show_everywhere(self, descriptions):
        program, description = descriptions["sampling", dgen.OPT_FUSED]
        inputs = program.traffic_generator(seed=1).generate(PHVS)
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            inputs
        )
        specification = program.specification()
        spec_trace = specification.run(inputs)
        trace = result.output_trace
        assert compare_traces(
            trace, spec_trace, containers=specification.relevant_containers
        ).equivalent

        records = trace.records
        edited = records[5]._replace(outputs=tuple(value + 1 for value in records[5].outputs))
        records[5] = edited
        assert trace.outputs()[5] == result.outputs[5] == edited.outputs
        assert trace[5] == edited
        assert trace.container_series(0)[5] == edited.outputs[0]
        report = compare_traces(trace, spec_trace, containers=specification.relevant_containers)
        assert report.first_mismatch is not None
        assert report.first_mismatch.phv_id == 5
        assert report.first_mismatch.inputs == tuple(inputs[5])

        trace.append(PHVS, [0] * len(inputs[0]), [0] * len(inputs[0]))
        assert len(trace) == len(trace.outputs()) == PHVS + 1

    def test_equivalent_verdict_builds_no_records(self, descriptions, monkeypatch):
        program, description = descriptions["sampling", dgen.OPT_FUSED]
        inputs = program.traffic_generator(seed=2).generate(PHVS)
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            inputs
        )
        specification = program.specification()
        spec_trace = specification.run(inputs)

        def no_records(*args, **kwargs):
            raise AssertionError("the verdict built a TraceRecord")

        monkeypatch.setattr(trace_module, "TraceRecord", no_records)
        report = compare_traces(
            result.output_trace, spec_trace, containers=specification.relevant_containers
        )
        assert report.equivalent
        assert len(result.output_trace) == PHVS

    @pytest.mark.parametrize("engine", ["tick", "generic", "fused", "sharded"])
    def test_width_error_names_first_bad_phv(self, passthrough_descriptions, engine):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        inputs = [[1, 2], [3, 4], [5], [6, 7, 8]]
        simulator = sequential_simulator(description, engine)
        with pytest.raises(SimulationError, match=r"^PHV 2 has 1 containers, pipeline width is 2$"):
            simulator.run(inputs)

    @pytest.mark.parametrize("engine", ["tick", "generic", "fused", "sharded"])
    def test_bool_and_str_values_are_coerced_to_int(self, passthrough_descriptions, engine):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        inputs = [[True, "7"], [False, "-3"]]
        simulator = sequential_simulator(description, engine)
        result = simulator.run(inputs)
        assert result.outputs == [(1, 7), (0, -3)]
        assert result.input_trace == [[1, 7], [0, -3]]
        for trace_values in (result.outputs, result.input_trace, result.output_trace.inputs()):
            assert all(type(value) is int for phv in trace_values for value in phv)
