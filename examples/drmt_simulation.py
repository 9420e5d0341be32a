#!/usr/bin/env python3
"""dRMT simulation end to end (paper §4).

Takes the bundled P4-14-like "simple router" program through the dRMT flow:

1. dgen parses the program, extracts the table-dependency DAG and runs the
   dRMT scheduler under explicit hardware constraints;
2. the table store is populated from the table-entry configuration format;
3. dsim dispatches randomly generated packets to match+action processors in
   round-robin order and executes matches and actions at their scheduled
   cycles;
4. the run is repeated with more processors to show the throughput scaling
   the disaggregated design is built for.

Run with:  python examples/drmt_simulation.py
"""

from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle, validate_schedule
from repro.traffic import PacketGenerator, values_field
from repro.p4 import build_dependency_graph, samples


def traffic(program, seed: int) -> PacketGenerator:
    """Traffic whose addresses actually hit the installed table entries."""
    return PacketGenerator(
        program,
        seed=seed,
        field_overrides={
            "ipv4.srcAddr": values_field([42, 77, 5, 9]),
            "ipv4.dstAddr": values_field([167772161, 3232235777, 12345]),
            "ipv4.protocol": values_field([6, 17]),
        },
    )


def main() -> None:
    program = samples.simple_router()
    graph = build_dependency_graph(program)

    print("=== dRMT dgen: dependency analysis and scheduling ===")
    for processors in (1, 2, 4):
        hardware = DrmtHardwareParams(num_processors=processors, ticks_per_match=2, ticks_per_action=1)
        bundle = generate_bundle(program, hardware)
        violations = validate_schedule(bundle.schedule, program, graph)
        print(f"\n--- {processors} processor(s) ---")
        print(bundle.describe())
        print(bundle.schedule.describe())
        print(f"schedule constraint violations: {violations or 'none'}")

        simulator = DRMTSimulator(bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets(traffic(program, seed=4).generate(200))
        print(result.describe(limit=3))
        print(f"flow_counter register: {result.register_dump['flow_counter'][:8]}")


if __name__ == "__main__":
    main()
