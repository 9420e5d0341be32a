"""Column-backed output traces and the one-copy input preparation behind them.

Every RMT driver, tick included, coerces the caller's trace once into a
column of int tuples and uses that column as the loop input, as the output
trace's input column and as the source of the result's ``input_trace``; the
output trace builds :class:`TraceRecord` objects from its columns on every
read and caches none.  Three invariants make that sound and are pinned here:

* no driver mutates the PHV lists it loops over (generic stage loop, fused
  ``run_trace``, the tick driver), for every Table-1 program at every opt
  level that has the driver;
* a trace's records are the tick model's under every driver, editing a
  returned ``records``, ``inputs()``, ``outputs()`` or ``input_trace`` list
  changes no accessor, width errors name the same PHV and ``bool`` values
  read as exact ints;
* every driver accepts the same input trace shapes — list or tuple rows,
  ``bool``/``IntEnum``/``numpy.int64`` values, ``range`` and one-shot
  iterator rows, a one-shot trace — gives the plain-int trace's result for
  each, and keeps its result apart from the caller's rows and from
  ``input_trace`` edits.
"""

from __future__ import annotations

from enum import IntEnum

import numpy
import pytest

from repro import dgen
from repro.dsim import RMTSimulator
from repro.dsim import trace as trace_module
from repro.dsim.trace import Trace
from repro.dsim.pipeline import Pipeline
from repro.engine import rmt as rmt_module
from repro.engine.result import SimulationResult, sequential_result
from repro.engine.rmt import run_stage_loop
from repro.engine.sharded import ShardedRmtDriver
from repro.errors import SimulationError
from repro.programs import TABLE1_ORDER, get_program
from repro.programs.variants import make_flow_counters_variant
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


def sequential_simulator(description, engine, **options):
    """A simulator whose run goes through ``prepare_inputs``.

    ``sharded`` runs one shard: the passthrough pipeline writes state, which
    a block-partitioned multi-shard run correctly refuses.
    """
    if engine == "sharded":
        options["shards"] = 1
    return RMTSimulator(description, engine=engine, **options)


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

    @pytest.mark.parametrize("tick_accurate", [False, True])
    def test_edits_to_returned_lists_change_no_accessor(self, descriptions, tick_accurate):
        program, description = descriptions["sampling", dgen.OPT_FUSED]
        inputs = program.traffic_generator(seed=1).generate(PHVS)
        result = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(
            inputs, tick_accurate=tick_accurate
        )
        specification = program.specification()
        spec_trace = specification.run(inputs)
        trace = result.output_trace

        def views():
            return (
                trace.records, list(trace), trace.inputs(), trace.outputs(),
                result.input_trace, result.outputs, trace.format(limit=PHVS), len(trace),
            )

        before = views()
        records = trace.records
        assert trace.records is not records
        records[5] = records[5]._replace(outputs=tuple(value + 1 for value in records[5].outputs))
        records.append(records[0])
        input_trace = result.input_trace
        input_trace[5][0] += 1
        input_trace.append(list(input_trace[0]))
        outputs = trace.outputs()
        outputs[5] = tuple(value + 1 for value in outputs[5])
        trace.inputs().pop()

        assert views() == before
        assert trace[5] == before[0][5]
        assert trace[5].inputs == tuple(inputs[5])
        assert compare_traces(
            trace, spec_trace, containers=specification.relevant_containers
        ).equivalent

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
    def test_bool_values_are_coerced_to_int(self, passthrough_descriptions, engine):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        inputs = [[True, 7], [False, -3]]
        simulator = sequential_simulator(description, engine)
        result = simulator.run(inputs)
        assert result.outputs == [(1, 7), (0, -3)]
        assert result.input_trace == [[1, 7], [0, -3]]
        for trace_values in (result.outputs, result.input_trace, result.output_trace.inputs()):
            assert all(type(value) is int for phv in trace_values for value in phv)



class TestTickDriverChecks:
    """The tick driver builds its result like the others and checks the pipeline."""

    def _run(self, descriptions):
        program, description = descriptions["sampling", dgen.OPT_FUSED]
        return RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="tick"
        ).run(program.traffic_generator(seed=3).generate(PHVS))

    def test_result_comes_from_sequential_result(self, descriptions, monkeypatch):
        built = []

        def recording(*args):
            built.append(sequential_result(*args))
            return built[-1]

        monkeypatch.setattr(rmt_module, "sequential_result", recording)
        result = self._run(descriptions)
        assert built == [result] and result.engine == "tick"
        assert result.ticks == PHVS + descriptions["sampling", dgen.OPT_FUSED][1].spec.depth

    def test_out_of_order_exit_raises_naming_the_phv(self, descriptions, monkeypatch):
        process = Pipeline.process

        def swapped(pipeline, phv_values):
            exited = process(pipeline, phv_values)
            exited[4], exited[5] = exited[5], exited[4]
            return exited

        monkeypatch.setattr(Pipeline, "process", swapped)
        with pytest.raises(SimulationError, match=r"^PHV 5 exited the pipeline in position 4$"):
            self._run(descriptions)

    def test_extra_drain_tick_raises(self, descriptions, monkeypatch):
        drain = Pipeline.drain

        def one_tick_more(pipeline):
            drained = drain(pipeline)
            pipeline.tick(None)
            return drained

        monkeypatch.setattr(Pipeline, "drain", one_tick_more)
        depth = descriptions["sampling", dgen.OPT_FUSED][1].spec.depth
        with pytest.raises(
            SimulationError,
            match=rf"^pipeline ran {PHVS + depth + 1} ticks for {PHVS} inputs, "
            rf"expected {PHVS + depth}$",
        ):
            self._run(descriptions)

ENGINES = ["tick", "generic", "fused", "sharded"]

#: Every row of :func:`contract_rows` differs from the plain-int trace only in
#: how its values are carried; each shape replaces one row (``mixed``: all).
ROW_SHAPES = ["tuple", "bool", "intenum", "numpy", "range", "iterator", "mixed"]


def plain_rows(width):
    """Six int-list PHVs; rows 0 and 3 suit the ``bool`` and ``range`` shapes."""
    return [
        [(1, 0)[container % 2] for container in range(width)],
        [(3, 17, 250, 9, 1023)[container] for container in range(width)],
        [40 + container for container in range(width)],
        list(range(4, 4 + width)),
        [(11, 0, 7, 1023, 5)[container] for container in range(width)],
        [(2, 8, 6, 4, 12)[container] for container in range(width)],
    ]


def contract_rows(width, shape):
    """The plain trace with one (``mixed``: every) row carried in ``shape``."""
    rows = plain_rows(width)
    fields = IntEnum("Fields", [(f"V{value}", value) for value in sorted(set(rows[1]))])
    reshape = {
        "tuple": (5, tuple),
        "bool": (0, lambda row: [bool(value) for value in row]),
        "intenum": (1, lambda row: [fields(value) for value in row]),
        "numpy": (2, lambda row: [numpy.int64(value) for value in row]),
        "range": (3, lambda row: range(row[0], row[0] + len(row))),
        "iterator": (4, iter),
    }
    for name, (index, convert) in reshape.items():
        if shape in (name, "mixed"):
            rows[index] = convert(rows[index])
    return rows


class TestInputContract:
    """Every driver takes the same input trace shapes and isolates its result."""

    PROGRAM = "flowlets"

    def run(self, descriptions, engine, rows):
        program, description = descriptions[self.PROGRAM, dgen.OPT_FUSED]
        return sequential_simulator(
            description, engine, initial_state=program.initial_pipeline_state()
        ).run(rows)

    def width(self, descriptions):
        return descriptions[self.PROGRAM, dgen.OPT_FUSED][1].spec.width

    @pytest.mark.parametrize("shape", ROW_SHAPES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_row_shapes_give_the_plain_trace_result(self, descriptions, engine, shape):
        width = self.width(descriptions)
        plain = self.run(descriptions, engine, plain_rows(width))
        result = self.run(descriptions, engine, contract_rows(width, shape))
        assert result.outputs == plain.outputs
        assert result.final_state == plain.final_state
        assert result.input_trace == plain.input_trace == plain_rows(width)
        assert result.output_trace.inputs() == [tuple(row) for row in plain_rows(width)]
        assert result.output_trace.records == plain.output_trace.records
        for column in (result.input_trace, result.output_trace.inputs(), result.outputs):
            assert all(type(value) is int for phv in column for value in phv)
        assert all(type(phv) is list for phv in result.input_trace)

    @pytest.mark.parametrize("row_type", [list, tuple])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_caller_edits_after_run_leave_the_result_alone(self, descriptions, engine, row_type):
        width = self.width(descriptions)
        rows = [row_type(row) for row in plain_rows(width)]
        result = self.run(descriptions, engine, rows)
        if row_type is list:
            for row in rows:
                row[0] += 100
        rows[1] = row_type([0] * width)
        rows.append(row_type([5] * width))
        assert result.input_trace == plain_rows(width)
        assert result.output_trace.inputs() == [tuple(row) for row in plain_rows(width)]
        assert len(result.output_trace) == len(plain_rows(width))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_input_trace_edits_leave_the_output_trace_alone(self, descriptions, engine):
        width = self.width(descriptions)
        result = self.run(descriptions, engine, plain_rows(width))
        result.input_trace[0][0] += 100
        result.input_trace[1] = [0] * width
        result.input_trace.append([5] * width)
        assert result.output_trace.inputs() == [tuple(row) for row in plain_rows(width)]
        assert [record.inputs for record in result.output_trace.records] == [
            tuple(row) for row in plain_rows(width)
        ]
        assert len(result.output_trace) == len(plain_rows(width))

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharded_driver_takes_a_one_shot_trace(self, shards):
        # ShardedRmtDriver.run, unlike RMTSimulator.run, takes len() of
        # nothing before preparing its inputs, so a generator reaches
        # prepare_inputs as is and must be read exactly once.
        program = make_flow_counters_variant(4)
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        generator = program.traffic_generator(seed=3)

        def run(rows):
            return ShardedRmtDriver(
                description,
                initial_state=program.initial_pipeline_state(),
                shards=shards,
                workers=1,
                key=[0],
            ).run(rows)

        plain = run(generator.generate(PHVS))
        result = run(generator.iter_phvs(PHVS))
        assert len(result.output_trace) == PHVS
        assert result.outputs == plain.outputs
        assert result.final_state == plain.final_state
        assert result.input_trace == plain.input_trace == generator.generate(PHVS)

    def test_result_builds_its_input_trace_on_each_read(self):
        trace = Trace([(1, 2), (3, 4)], [(5, 6), (7, 8)])
        built = SimulationResult(trace, 2, "fused")
        assert built.input_trace == [[1, 2], [3, 4]] and built.engine == "fused"
        assert built.input_trace is not built.input_trace
        built.input_trace[0][0] = 9
        assert built.input_trace == [[1, 2], [3, 4]]
        assert trace.inputs() == [(1, 2), (3, 4)]

    @pytest.mark.parametrize(
        "engine, options",
        [("auto", {}), ("tick", {}), ("generic", {}), ("fused", {}), ("auto", {"shards": 2})],
    )
    def test_simulator_takes_a_one_shot_trace(self, descriptions, engine, options):
        # RMTSimulator.run reads the trace's length for the auto-shard rule;
        # a generator is read into rows once before that.
        program, description = descriptions["sampling", dgen.OPT_FUSED]
        generator = program.traffic_generator(seed=1)

        def run(rows):
            return RMTSimulator(
                description,
                initial_state=program.initial_pipeline_state(),
                engine=engine,
                **options,
            ).run(rows)

        plain = run(generator.generate(5))
        result = run(generator.iter_phvs(5))
        assert result.engine == plain.engine
        assert result.outputs == plain.outputs
        assert result.final_state == plain.final_state
        assert result.ticks == plain.ticks
        assert result.input_trace == generator.generate(5)
