"""Unit tests for the dRMT scheduler (greedy and MILP back ends)."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.drmt import (
    ACTION_OP,
    MATCH_OP,
    DrmtHardwareParams,
    GreedyScheduler,
    MilpScheduler,
    schedule_program,
    validate_schedule,
)
from repro.cli import drmt_main
from repro.errors import SchedulingError
from repro.p4 import build_dependency_graph, parse, samples


def scheduled(program, hardware=None, use_milp=False):
    hardware = hardware or DrmtHardwareParams()
    graph = build_dependency_graph(program)
    return schedule_program(program, graph, hardware, use_milp=use_milp), graph


class TestHardwareParams:
    def test_defaults_valid(self):
        params = DrmtHardwareParams()
        assert params.num_processors >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_processors": 0},
            {"ticks_per_match": 0},
            {"ticks_per_action": 0},
            {"matches_per_cycle": 0},
            {"actions_per_cycle": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(SchedulingError):
            DrmtHardwareParams(**kwargs)


class TestGreedyScheduler:
    def test_schedule_is_feasible(self):
        program = samples.simple_router()
        schedule, graph = scheduled(program)
        assert validate_schedule(schedule, program, graph) == []

    def test_every_operation_scheduled(self):
        program = samples.simple_router()
        schedule, _ = scheduled(program)
        for table in program.table_order():
            assert (table, MATCH_OP) in schedule.start_times
            assert (table, ACTION_OP) in schedule.start_times

    def test_action_follows_own_match(self):
        program = samples.simple_router()
        hardware = DrmtHardwareParams(ticks_per_match=3)
        schedule, _ = scheduled(program, hardware)
        for table in program.table_order():
            assert schedule.start(table, ACTION_OP) >= schedule.start(table, MATCH_OP) + 3

    def test_match_dependency_enforced(self):
        program = samples.simple_router()
        schedule, graph = scheduled(program)
        # forward -> acl is a match dependency: acl's match waits for forward's action.
        assert graph.edges["forward", "acl"]["kind"] == "match"
        assert schedule.start("acl", MATCH_OP) >= (
            schedule.start("forward", ACTION_OP) + schedule.hardware.ticks_per_action
        )

    def test_independent_matches_can_overlap_with_higher_issue_limit(self):
        program = samples.simple_router()
        relaxed = DrmtHardwareParams(matches_per_cycle=4, actions_per_cycle=4)
        schedule, _ = scheduled(program, relaxed)
        # forward and flow_stats are independent: both matches can launch at cycle 0.
        assert schedule.start("forward", MATCH_OP) == 0
        assert schedule.start("flow_stats", MATCH_OP) == 0

    def test_issue_limit_serialises_matches(self):
        program = samples.simple_router()
        strict = DrmtHardwareParams(matches_per_cycle=1, actions_per_cycle=1)
        schedule, _ = scheduled(program, strict)
        assert schedule.start("forward", MATCH_OP) != schedule.start("flow_stats", MATCH_OP)

    def test_makespan_reflects_latencies(self):
        program = samples.simple_router()
        fast = scheduled(program, DrmtHardwareParams(ticks_per_match=1, ticks_per_action=1))[0]
        slow = scheduled(program, DrmtHardwareParams(ticks_per_match=5, ticks_per_action=3))[0]
        assert slow.makespan > fast.makespan

    def test_operations_at_and_describe(self):
        program = samples.simple_router()
        schedule, _ = scheduled(program)
        launched = [op for cycle in range(schedule.makespan) for op in schedule.operations_at(cycle)]
        assert len(launched) == 2 * len(program.table_order())
        assert "cycle" in schedule.describe()

    def test_single_table_program(self):
        source = """
        header_type h_t { fields { a : 8; } }
        header h_t h;
        action nothing() { no_op(); }
        table only { reads { h.a : exact; } actions { nothing; } }
        control ingress { apply(only); }
        """
        program = parse(source)
        schedule, graph = scheduled(program)
        assert validate_schedule(schedule, program, graph) == []
        assert schedule.makespan == DrmtHardwareParams().ticks_per_match + DrmtHardwareParams().ticks_per_action


    def test_default_action_writes_order_later_matches(self):
        """``second`` matches the field only ``first``'s default action writes.

        The match must wait for that action: launched earlier, it would read
        the stale field on every miss of ``first``.
        """
        source = """
        header_type pkt_t { fields { f : 8; } }
        header_type meta_t { fields { tmp : 8; out : 8; } }
        header pkt_t pkt;
        metadata meta_t meta;
        action nop() { no_op(); }
        action setm() { modify_field(meta.tmp, 7); }
        action mark() { modify_field(meta.out, 1); }
        table first { reads { pkt.f : exact; } actions { nop; } default_action : setm; }
        table second { reads { meta.tmp : exact; } actions { mark; } }
        control ingress { apply(first); apply(second); }
        """
        program = parse(source)
        schedule, graph = scheduled(program)
        assert graph.edges["first", "second"]["kind"] == "match"
        assert validate_schedule(schedule, program, graph) == []
        assert schedule.start_times == {
            ("first", MATCH_OP): 0,
            ("first", ACTION_OP): 2,
            ("second", MATCH_OP): 3,
            ("second", ACTION_OP): 5,
        }


class TestMilpScheduler:
    def test_milp_schedule_feasible_and_no_worse(self):
        pytest.importorskip("scipy")
        program = samples.simple_router()
        graph = build_dependency_graph(program)
        hardware = DrmtHardwareParams()
        greedy = GreedyScheduler(program, graph, hardware).schedule()
        milp = MilpScheduler(program, graph, hardware).schedule(greedy.makespan)
        assert milp.backend == "milp"
        assert validate_schedule(milp, program, graph) == []
        assert milp.makespan <= greedy.makespan

    def test_schedule_program_with_milp_flag(self):
        pytest.importorskip("scipy")
        program = samples.telemetry_pipeline()
        graph = build_dependency_graph(program)
        schedule = schedule_program(program, graph, DrmtHardwareParams(), use_milp=True)
        assert schedule.backend == "milp"
        assert validate_schedule(schedule, program, graph) == []

    def test_schedule_program_schedules_greedily_once(self, monkeypatch):
        pytest.importorskip("scipy")
        calls = []
        greedy_schedule = GreedyScheduler.schedule

        def counted(scheduler):
            calls.append(scheduler)
            return greedy_schedule(scheduler)

        monkeypatch.setattr(GreedyScheduler, "schedule", counted)
        program = samples.telemetry_pipeline()
        graph = build_dependency_graph(program)
        schedule = schedule_program(program, graph, DrmtHardwareParams(), use_milp=True)
        assert schedule.backend == "milp"
        assert len(calls) == 1

    def test_oversized_instance_fails_loudly(self, monkeypatch):
        pytest.importorskip("scipy")
        monkeypatch.setattr(MilpScheduler, "MAX_VARIABLES", 1)
        program = samples.simple_router()
        graph = build_dependency_graph(program)
        with pytest.raises(SchedulingError, match="MAX_VARIABLES=1"):
            schedule_program(program, graph, DrmtHardwareParams(), use_milp=True)

    def test_failed_solve_fails_loudly(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")

        class Failed:
            success = False
            x = None
            message = "infeasible"

        monkeypatch.setattr(optimize, "milp", lambda **_kwargs: Failed())
        program = samples.simple_router()
        graph = build_dependency_graph(program)
        with pytest.raises(SchedulingError, match="MILP solve failed: infeasible"):
            schedule_program(program, graph, DrmtHardwareParams(), use_milp=True)

    def test_missing_scipy_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        program = samples.simple_router()
        graph = build_dependency_graph(program)
        with pytest.raises(SchedulingError, match="needs scipy"):
            schedule_program(program, graph, DrmtHardwareParams(), use_milp=True)
        assert drmt_main(["--milp", "--packets", "5"]) == 1


class TestScheduleProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        ticks_per_match=st.integers(min_value=1, max_value=4),
        ticks_per_action=st.integers(min_value=1, max_value=4),
        matches_per_cycle=st.integers(min_value=1, max_value=3),
        actions_per_cycle=st.integers(min_value=1, max_value=3),
    )
    def test_greedy_schedule_always_feasible(
        self, ticks_per_match, ticks_per_action, matches_per_cycle, actions_per_cycle
    ):
        """For any hardware parameters, the greedy schedule violates no constraint."""
        program = samples.simple_router()
        graph = build_dependency_graph(program)
        hardware = DrmtHardwareParams(
            ticks_per_match=ticks_per_match,
            ticks_per_action=ticks_per_action,
            matches_per_cycle=matches_per_cycle,
            actions_per_cycle=actions_per_cycle,
        )
        schedule = GreedyScheduler(program, graph, hardware).schedule()
        assert validate_schedule(schedule, program, graph) == []
        assert schedule.makespan >= ticks_per_match + ticks_per_action
