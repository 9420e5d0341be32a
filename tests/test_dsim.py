"""Unit tests for dsim: PHVs, the pipeline, the traffic generator and the simulator."""

import pytest

from repro import atoms, dgen
from repro.dsim import (
    PHV,
    Pipeline,
    RMTSimulator,
    Trace,
    TraceRecord,
    TrafficGenerator,
    choice_field,
)
from repro.dsim.pipeline import copy_state
from repro.errors import MissingMachineCodeError, SimulationError
from repro.hardware import PipelineSpec
from repro.machine_code import naming


class TestPHV:
    def test_from_values_copies(self):
        values = [1, 2, 3]
        phv = PHV.from_values(7, values)
        values[0] = 99
        assert phv.read == [1, 2, 3]
        assert phv.phv_id == 7

    def test_commit_moves_write_to_read(self):
        phv = PHV.from_values(0, [1, 2])
        phv.set_write([5, 6])
        assert phv.read == [1, 2]
        phv.commit()
        assert phv.read == [5, 6]

    def test_set_write_length_checked(self):
        phv = PHV.from_values(0, [1, 2])
        with pytest.raises(SimulationError):
            phv.set_write([1])

    def test_snapshot_is_a_copy(self):
        phv = PHV.from_values(0, [4])
        snap = phv.snapshot()
        snap[0] = 9
        assert phv.read == [4]


class TestTrafficGenerator:
    def test_deterministic_for_same_seed(self):
        a = TrafficGenerator(num_containers=3, seed=5).generate(10)
        b = TrafficGenerator(num_containers=3, seed=5).generate(10)
        assert a == b

    def test_different_seeds_differ(self):
        a = TrafficGenerator(num_containers=3, seed=1).generate(10)
        b = TrafficGenerator(num_containers=3, seed=2).generate(10)
        assert a != b

    def test_value_range_respected(self):
        phvs = TrafficGenerator(num_containers=2, seed=0, min_value=5, max_value=9).generate(50)
        assert all(5 <= value <= 9 for phv in phvs for value in phv)

    def test_default_range_is_ten_bits(self):
        phvs = TrafficGenerator(num_containers=1, seed=0).generate(200)
        assert all(0 <= value <= 1023 for phv in phvs for value in phv)

    def test_field_generators(self):
        generator = TrafficGenerator(
            num_containers=3,
            seed=0,
            field_generators=[lambda rng: 7, choice_field([1, 2]), None],
        )
        phvs = generator.generate(30)
        assert all(phv[0] == 7 for phv in phvs)
        assert all(phv[1] in (1, 2) for phv in phvs)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SimulationError):
            TrafficGenerator(num_containers=0)
        with pytest.raises(SimulationError):
            TrafficGenerator(num_containers=1, min_value=5, max_value=1)
        with pytest.raises(SimulationError):
            TrafficGenerator(num_containers=2, field_generators=[None])

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            TrafficGenerator(num_containers=1).generate(-1)

    def test_iter_phvs_matches_generate(self):
        generator = TrafficGenerator(num_containers=2, seed=3)
        assert list(generator.iter_phvs(5)) == generator.generate(5)


class TestTrace:
    def test_columns_and_access(self):
        trace = Trace([[1, 2], (5, 6)], [[3, 4], (7, 8)])
        assert len(trace) == 2
        assert trace[1] == trace[-1] == TraceRecord(1, (5, 6), (7, 8))
        assert trace.records == list(trace) == [trace[0], trace[1]]
        assert trace.outputs() == [(3, 4), (7, 8)]
        assert trace.inputs() == [(1, 2), (5, 6)]
        with pytest.raises(IndexError):
            trace[2]

    def test_format_truncates(self):
        trace = Trace([[index] for index in range(30)], [[index] for index in range(30)])
        rendered = trace.format(limit=5)
        assert rendered.count("->") == 6  # the header and five records
        assert "... (25 more records)" in rendered


@pytest.fixture(scope="module")
def counter_description():
    """A 2x1 pipeline: stage 0 accumulates the packet value, stage 1 passes through."""
    spec = PipelineSpec(
        depth=2,
        width=1,
        stateful_alu=atoms.get_atom("raw"),
        stateless_alu=atoms.get_atom("stateless_arith"),
        name="counter",
    )
    from repro.chipmunk import MachineCodeBuilder

    builder = MachineCodeBuilder(spec)
    builder.configure_raw(0, 0, use_state=True, rhs=("pkt", 0), input_containers=[0, 0])
    builder.route_output(0, 0, kind=naming.STATEFUL, slot=0)
    return dgen.generate(spec, builder.build(), opt_level=2)


class TestPipeline:
    def test_latency_equals_depth(self, counter_description):
        pipeline = Pipeline(counter_description)
        assert pipeline.tick(PHV.from_values(0, [5])) is None
        assert pipeline.tick(PHV.from_values(1, [6])) is None
        exited = pipeline.tick(PHV.from_values(2, [7]))
        assert exited is not None and exited.phv_id == 0

    def test_single_stage_per_tick(self, counter_description):
        """A PHV must traverse exactly one stage per tick (read/write halves)."""
        pipeline = Pipeline(counter_description)
        phv = PHV.from_values(0, [5])
        pipeline.tick(phv)
        # After one tick the PHV has only been processed by stage 0: its READ
        # half still holds the input value; the stage-0 result sits in the
        # write half until the next tick's commit.
        assert phv.read == [5]
        assert phv.write == [0]  # old state (0) forwarded by stage 0

    def test_state_persists_across_phvs(self, counter_description):
        pipeline = Pipeline(counter_description)
        outputs = [phv.read[0] for phv in pipeline.process([[10], [20], [30]])]
        # Stage 0 outputs the accumulator value before adding the packet value.
        assert outputs == [0, 10, 30]
        assert pipeline.state[0][0] == [60]

    def test_drain_empties_pipeline(self, counter_description):
        pipeline = Pipeline(counter_description)
        pipeline.tick(PHV.from_values(0, [1]))
        assert pipeline.in_flight == 1
        drained = pipeline.drain()
        assert [phv.phv_id for phv in drained] == [0]
        assert pipeline.in_flight == 0

    def test_initial_state_shape_validated(self, counter_description):
        with pytest.raises(SimulationError):
            Pipeline(counter_description, initial_state=[[[0]]])  # depth mismatch

    def test_wrong_width_input_rejected(self, counter_description):
        pipeline = Pipeline(counter_description)
        with pytest.raises(SimulationError):
            pipeline.process([[1, 2]])

    def test_state_snapshot_is_deep_copy(self, counter_description):
        pipeline = Pipeline(counter_description)
        snapshot = copy_state(pipeline.state)
        snapshot[0][0][0] = 999
        assert pipeline.state[0][0][0] == 0
        assert copy_state(None) is None


class TestSimulator:
    def test_outputs_in_input_order(self, counter_description):
        result = RMTSimulator(counter_description).run([[1], [2], [3], [4]])
        assert [record.phv_id for record in result.output_trace] == [0, 1, 2, 3]
        assert result.outputs == [(0,), (1,), (3,), (6,)]

    def test_tick_count_includes_drain(self, counter_description):
        result = RMTSimulator(counter_description).run([[1], [2]])
        assert result.ticks == 2 + counter_description.spec.depth

    def test_final_state_recorded(self, counter_description):
        result = RMTSimulator(counter_description).run([[5], [6]])
        assert result.final_state[0][0] == [11]

    def test_initial_state_honoured(self, counter_description):
        initial = [[[100]], [[0]]]
        result = RMTSimulator(counter_description, initial_state=initial).run([[1]])
        assert result.outputs == [(100,)]

    def test_initial_state_not_mutated_between_runs(self, counter_description):
        initial = [[[100]], [[0]]]
        simulator = RMTSimulator(counter_description, initial_state=initial)
        first = simulator.run([[1], [2]])
        second = simulator.run([[1], [2]])
        assert first.outputs == second.outputs
        assert initial[0][0] == [100]

    def test_run_traffic_checks_width(self, counter_description):
        simulator = RMTSimulator(counter_description)
        with pytest.raises(SimulationError):
            simulator.run_traffic(TrafficGenerator(num_containers=3), 5)

    def test_missing_runtime_machine_code_classified(self):
        spec = PipelineSpec(
            depth=1,
            width=1,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_arith"),
            name="missing",
        )
        description = dgen.generate(spec, None, opt_level=0)
        simulator = RMTSimulator(description, runtime_values={})
        with pytest.raises(MissingMachineCodeError):
            simulator.run([[1]])

    def test_passthrough_pipeline_is_identity(self, passthrough_descriptions):
        inputs = [[3, 4], [5, 6], [7, 8]]
        for description in passthrough_descriptions.values():
            result = RMTSimulator(description).run(inputs)
            assert result.outputs == [tuple(v) for v in inputs]
