"""dRMT benchmarks (paper §4): scheduling and disaggregated simulation.

The paper describes the dRMT flow (dgen → scheduler → dsim) as ongoing work
and reports no numbers for it; these benchmarks characterise the
reproduction's implementation: scheduler cost and quality, and simulation
throughput as the number of match+action processors grows (the scaling that
motivates the disaggregated design).
"""

from __future__ import annotations

import pytest

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    GreedyScheduler,
    generate_bundle,
    validate_schedule,
)
from repro.traffic import PacketGenerator, values_field
from repro.p4 import build_dependency_graph, samples

PROGRAMS = {
    "simple_router": (samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
    "telemetry_pipeline": (samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
}


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_dependency_analysis_and_scheduling(benchmark, program_name):
    """Benchmark dRMT dgen: dependency DAG extraction plus greedy scheduling."""
    build_program, _entries = PROGRAMS[program_name]
    program = build_program()
    hardware = DrmtHardwareParams()

    def run():
        graph = build_dependency_graph(program)
        return GreedyScheduler(program, graph, hardware).schedule(), graph

    schedule, graph = benchmark(run)
    assert validate_schedule(schedule, program, graph) == []
    benchmark.extra_info["makespan_cycles"] = schedule.makespan
    benchmark.extra_info["tables"] = len(program.tables)


@pytest.mark.parametrize("engine", ["tick", "fused"])
@pytest.mark.parametrize("num_processors", [1, 2, 4])
def test_drmt_simulation_throughput(benchmark, num_processors, engine, drmt_packets, bench_rounds):
    """Packets/tick as processors are added (round-robin dispatch, shared tables)."""
    program = samples.simple_router()
    bundle = generate_bundle(program, DrmtHardwareParams(num_processors=num_processors))
    generator = PacketGenerator(
        program,
        seed=5,
        field_overrides={
            "ipv4.srcAddr": values_field([42, 77, 5]),
            "ipv4.dstAddr": values_field([167772161, 3232235777, 12345]),
            "ipv4.protocol": values_field([6, 17]),
        },
    )
    packets = generator.generate(drmt_packets)

    def run():
        simulator = DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine=engine
        )
        return simulator.run_packets(packets)

    result = benchmark.pedantic(run, rounds=bench_rounds, iterations=1, warmup_rounds=0)
    assert result.packets_processed == drmt_packets
    assert result.engine == engine
    benchmark.extra_info["processors"] = num_processors
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["packets_per_tick"] = round(result.throughput(), 3)
    benchmark.extra_info["ticks"] = result.ticks


def test_milp_vs_greedy_schedule_quality(capsys):
    """Compare the MILP scheduler against the greedy one (no regression)."""
    pytest.importorskip("scipy")
    from repro.drmt import MilpScheduler

    rows = []
    for program_name, (build_program, _entries) in sorted(PROGRAMS.items()):
        program = build_program()
        graph = build_dependency_graph(program)
        hardware = DrmtHardwareParams()
        greedy = GreedyScheduler(program, graph, hardware).schedule()
        milp = MilpScheduler(program, graph, hardware).schedule(greedy.makespan)
        assert validate_schedule(milp, program, graph) == []
        assert milp.makespan <= greedy.makespan
        rows.append((program_name, greedy.makespan, milp.makespan))

    with capsys.disabled():
        print("\ndRMT scheduler quality (makespan in cycles)")
        print(f"{'program':22s} {'greedy':>8s} {'milp':>8s}")
        for name, greedy_makespan, milp_makespan in rows:
            print(f"{name:22s} {greedy_makespan:>8d} {milp_makespan:>8d}")
