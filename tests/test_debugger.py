"""Tests for the time-travel debugger (recording, cursor, breakpoints, tracing)."""

import pytest

from repro import dgen
from repro.debugger import TimeTravelDebugger, container_breakpoint, record_execution
from repro.errors import SimulationError
from repro.programs import get_program


@pytest.fixture(scope="module")
def sampling_recording():
    program = get_program("sampling")
    description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
    inputs = [[i] for i in range(15)]
    return record_execution(
        description, inputs, initial_state=program.initial_pipeline_state()
    ), inputs


class TestRecording:
    def test_tick_count_includes_drain(self, sampling_recording):
        recording, inputs = sampling_recording
        assert recording.num_ticks == len(inputs) + recording.description.spec.depth

    def test_every_phv_exits_with_recorded_output(self, sampling_recording):
        recording, inputs = sampling_recording
        for phv_id in range(len(inputs)):
            assert recording.exit_tick(phv_id) is not None
            assert len(recording.phv_output(phv_id)) == 1

    def test_outputs_match_plain_simulation(self, sampling_recording):
        recording, inputs = sampling_recording
        program = get_program("sampling")
        from repro.dsim import RMTSimulator

        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
        plain = RMTSimulator(description, initial_state=program.initial_pipeline_state()).run(inputs)
        for phv_id, expected in enumerate(plain.outputs):
            assert tuple(recording.phv_output(phv_id)) == expected

    def test_state_series_is_the_wrapping_counter(self, sampling_recording):
        recording, _inputs = sampling_recording
        series = [snapshot.state[0][0][0] for snapshot in recording.snapshots]
        assert series[:11] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]

    def test_phv_journey_covers_every_stage(self, sampling_recording):
        recording, _inputs = sampling_recording
        journey = recording.phv_journey(3)
        assert [occupancy.stage for occupancy in journey] == [0, 1]

    def test_snapshot_range_checked(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            recording.snapshot(recording.num_ticks)

    def test_describe_tick_mentions_stages_and_state(self, sampling_recording):
        recording, _inputs = sampling_recording
        text = recording.describe_tick(2)
        assert "stage 0" in text and "state[0]" in text

    def test_unknown_phv_output_rejected(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            recording.phv_output(999)


class TestDebuggerCursor:
    def test_rewind_from_a_breakpoint(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value == 1))
        hit = debugger.run_forward().tick
        assert debugger.current_tick == hit
        assert debugger.rewind(2).tick == hit - 2 == debugger.current_tick

    def test_rewind_clamps_at_start(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.rewind(5)
        assert debugger.current_tick == 0

    def test_state_at_cursor_and_describe(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value == 1))
        snapshot = debugger.run_forward()
        assert debugger.state_at_cursor(0, 0) == list(snapshot.state[0][0])
        assert f"tick {snapshot.tick}" in debugger.describe()


class TestBreakpoints:
    def test_container_breakpoint_catches_sample_flag(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value == 1))
        snapshot = debugger.run_forward()
        assert snapshot is not None
        assert snapshot.stages[1].write[0] == 1

    def test_run_without_breakpoints_rejected(self, sampling_recording):
        recording, _inputs = sampling_recording
        with pytest.raises(SimulationError):
            TimeTravelDebugger(recording).run_forward()

    def test_run_forward_resumes_after_the_previous_hit(self, sampling_recording):
        """Fifteen sampled packets flag only the tenth, so a second run finds nothing."""
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value == 1))
        hit = debugger.run_forward().tick
        assert debugger.run_forward() is None
        assert debugger.current_tick == hit
        debugger.rewind(3)
        assert debugger.run_forward().tick == hit

    def test_any_registered_breakpoint_stops(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value > 100))
        debugger.add_breakpoint(container_breakpoint(0, 0, lambda value: value == 5))
        snapshot = debugger.run_forward()
        assert snapshot.stages[0].write[0] == 5

    def test_run_forward_returns_none_when_no_match(self, sampling_recording):
        recording, _inputs = sampling_recording
        debugger = TimeTravelDebugger(recording)
        debugger.add_breakpoint(container_breakpoint(1, 0, lambda value: value > 100))
        assert debugger.run_forward() is None

    def test_trace_origin(self, sampling_recording):
        recording, _inputs = sampling_recording
        trace = TimeTravelDebugger(recording).trace_origin(9)
        assert any("stage 0" in line for line in trace)
        assert trace[-1].startswith("exited at tick")


class TestRecordingLevel0:
    def test_recording_with_runtime_values(self):
        """Recording also works for unoptimised descriptions with runtime machine code."""
        program = get_program("snap_heavy_hitter")
        description = dgen.generate(program.pipeline_spec(), None, opt_level=0)
        recording = record_execution(
            description,
            [[5], [6]],
            runtime_values=program.machine_code().as_dict(),
        )
        assert recording.phv_output(1) == [1]  # old packet count after one packet


class TestRecordingLevel3:
    """The tick recorder on the description the production fast path runs."""

    @pytest.fixture(scope="class")
    def level3_recording(self):
        from repro.dsim import RMTSimulator

        program = get_program("flowlets")
        description = dgen.generate(
            program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        inputs = program.traffic_generator(seed=11).generate(30)
        recording = record_execution(
            description, inputs, initial_state=program.initial_pipeline_state()
        )
        fused = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="fused"
        ).run(inputs)
        return recording, fused, description

    def test_one_occupancy_per_phv_stage(self, level3_recording):
        recording, _fused, description = level3_recording
        occupied = [
            occupancy
            for snapshot in recording.snapshots
            for occupancy in snapshot.stages
            if occupancy.phv_id is not None
        ]
        assert len(occupied) == len(recording.inputs) * description.spec.depth

    def test_phv_p_is_in_stage_s_at_tick_p_plus_s(self, level3_recording):
        recording, _fused, description = level3_recording
        for phv_id in range(len(recording.inputs)):
            for stage in range(description.spec.depth):
                occupancy = recording.snapshot(phv_id + stage).stages[stage]
                assert occupancy.phv_id == phv_id

    def test_outputs_and_final_state_match_fused_run(self, level3_recording):
        recording, fused, _description = level3_recording
        for phv_id, expected in enumerate(fused.outputs):
            assert tuple(recording.phv_output(phv_id)) == expected
        final = recording.snapshot(recording.num_ticks - 1).state
        assert [[list(alu) for alu in stage] for stage in final] == fused.final_state
        assert recording.num_ticks == fused.ticks

    def test_journey_and_state_series_queries(self, level3_recording):
        recording, _fused, description = level3_recording
        journey = recording.phv_journey(4)
        assert [occupancy.stage for occupancy in journey] == list(
            range(description.spec.depth)
        )
        series = [snapshot.state[0][0][0] for snapshot in recording.snapshots]
        assert len(series) == len(recording.inputs) + description.spec.depth

    def test_unknown_phv_rejected(self, level3_recording):
        recording, _fused, _description = level3_recording
        with pytest.raises(SimulationError):
            recording.phv_output(10_000)

    def test_recording_does_not_mutate_caller_initial_state(self, level3_recording):
        _recording, _fused, description = level3_recording
        program = get_program("flowlets")
        initial = program.initial_pipeline_state()
        snapshot = [[list(alu) for alu in stage] for stage in initial]
        inputs = program.traffic_generator(seed=1).generate(20)
        first = record_execution(description, inputs, initial_state=initial)
        second = record_execution(description, inputs, initial_state=initial)
        assert initial == snapshot
        assert first.snapshots[-1].state == second.snapshots[-1].state
