"""Command-line entry points.

Four console scripts mirror the paper's tooling:

* ``druzhba-dgen`` — generate a pipeline description from a hardware spec and
  machine code and write the Python source to a file (or stdout);
* ``druzhba-dsim`` — simulate a pipeline on randomly generated PHVs and print
  the output trace;
* ``druzhba-fuzz`` — run the full compiler-testing workflow (Figure 5) for a
  benchmark program, comparing the pipeline trace against its specification;
* ``druzhba-drmt`` — run dRMT dgen + dsim on a P4-14-like program.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import atoms, dgen
from .alu_dsl import grammar, parse_and_analyze
from .dsim import RMTSimulator, TrafficGenerator
from .drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
from .engine.base import ENGINE_CHOICES, ENGINE_GENERIC
from .errors import DruzhbaError, SimulationError
from .hardware import PipelineSpec, describe_pipeline
from .machine_code import MachineCode
from .programs import all_programs, get_program, program_names
from .testing import FuzzConfig, FuzzTester


def _load_alu(name_or_path: str, kind: str):
    """Resolve an ALU argument: a catalogue atom name or a path to a DSL file."""
    if name_or_path in atoms.atom_names():
        return atoms.get_atom(name_or_path)
    with open(name_or_path) as handle:
        return parse_and_analyze(handle.read(), name=name_or_path)


def _build_pipeline_spec(args: argparse.Namespace) -> PipelineSpec:
    return PipelineSpec(
        depth=args.depth,
        width=args.width,
        stateful_alu=_load_alu(args.stateful_alu, "stateful"),
        stateless_alu=_load_alu(args.stateless_alu, "stateless"),
        name=args.name,
    )


# ----------------------------------------------------------------------
# druzhba-dgen
# ----------------------------------------------------------------------
def dgen_main(argv: Optional[List[str]] = None) -> int:
    """Generate a pipeline description."""
    parser = argparse.ArgumentParser(
        prog="druzhba-dgen", description="Generate a Druzhba pipeline description (dgen)."
    )
    parser.add_argument("--depth", type=int, default=2, help="number of pipeline stages")
    parser.add_argument("--width", type=int, default=2, help="ALUs and PHV containers per stage")
    parser.add_argument(
        "--stateful-alu", default="if_else_raw", help="catalogue atom name or ALU DSL file"
    )
    parser.add_argument(
        "--stateless-alu", default="stateless_full", help="catalogue atom name or ALU DSL file"
    )
    parser.add_argument("--machine-code", help="machine code file ('name value' lines or JSON)")
    parser.add_argument(
        "--opt-level", type=int, default=2, choices=(0, 1, 2, 3),
        help="dgen optimisation level (3 = fused trace loop, fastest simulation)",
    )
    parser.add_argument("--name", default="pipeline")
    parser.add_argument("--output", help="write the generated source here (default: stdout)")
    parser.add_argument("--grammar", action="store_true", help="print the ALU DSL grammar and exit")
    args = parser.parse_args(argv)

    if args.grammar:
        print(grammar.describe())
        return 0

    try:
        spec = _build_pipeline_spec(args)
        machine_code = None
        if args.machine_code:
            machine_code = MachineCode.from_file(args.machine_code)
        elif args.opt_level != dgen.OPT_UNOPTIMIZED:
            machine_code = spec.passthrough_machine_code()
        description = dgen.generate(spec, machine_code, opt_level=args.opt_level)
    except DruzhbaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(describe_pipeline(spec), file=sys.stderr)
    if args.output:
        description.save_source(args.output)
        print(f"pipeline description written to {args.output}", file=sys.stderr)
    else:
        print(description.source)
    return 0


# ----------------------------------------------------------------------
# druzhba-dsim
# ----------------------------------------------------------------------
def dsim_main(argv: Optional[List[str]] = None) -> int:
    """Simulate a pipeline on random PHVs."""
    parser = argparse.ArgumentParser(
        prog="druzhba-dsim", description="Simulate a Druzhba pipeline on random PHVs (dsim)."
    )
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--width", type=int, default=2)
    parser.add_argument("--stateful-alu", default="if_else_raw")
    parser.add_argument("--stateless-alu", default="stateless_full")
    parser.add_argument("--machine-code", help="machine code file; defaults to all-pass-through")
    parser.add_argument(
        "--opt-level", type=int, default=2, choices=(0, 1, 2, 3),
        help="dgen optimisation level (3 = fused trace loop, fastest simulation)",
    )
    parser.add_argument("--phvs", type=int, default=20, help="number of PHVs to simulate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-value", type=int, default=1023)
    parser.add_argument("--name", default="pipeline")
    parser.add_argument(
        "--engine", default="auto", choices=ENGINE_CHOICES,
        help="execution driver (auto = fused when available, else the generic "
             "sequential driver; tick = the paper's per-tick model; sharded = "
             "partition the trace per flow and run the shards in parallel — "
             "see --shards/--workers/--shard-key)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the sharded engine (default 4); with --engine auto, "
             "setting this enables sharding for large traces",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sharded engine (default: min(shards, cores))",
    )
    parser.add_argument(
        "--shard-key",
        help="comma-separated PHV container indices identifying a flow (the "
             "state-indexing fields); omit for contiguous blocks, which the "
             "state-conflict check only admits for state-free workloads",
    )
    args = parser.parse_args(argv)

    try:
        spec = _build_pipeline_spec(args)
        if args.machine_code:
            machine_code = MachineCode.from_file(args.machine_code)
        else:
            machine_code = spec.passthrough_machine_code()
        description = dgen.generate(spec, machine_code, opt_level=args.opt_level)
        traffic = TrafficGenerator(
            num_containers=spec.width, seed=args.seed, max_value=args.max_value
        )
        shard_key = None
        if args.shard_key:
            try:
                shard_key = [int(container) for container in args.shard_key.split(",")]
            except ValueError:
                raise SimulationError(
                    "--shard-key takes comma-separated PHV container indices, "
                    f"got {args.shard_key!r}"
                ) from None
        simulator = RMTSimulator(
            description,
            engine=args.engine,
            shards=args.shards,
            workers=args.workers,
            shard_key=shard_key,
        )
        result = simulator.run_traffic(traffic, args.phvs)
    except DruzhbaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(f"engine: {result.engine}", file=sys.stderr)
    print(result.output_trace.format(limit=args.phvs))
    return 0


# ----------------------------------------------------------------------
# druzhba-fuzz
# ----------------------------------------------------------------------
def fuzz_main(argv: Optional[List[str]] = None) -> int:
    """Fuzz-test a benchmark program's machine code against its specification."""
    parser = argparse.ArgumentParser(
        prog="druzhba-fuzz",
        description="Run the compiler-testing workflow (Figure 5) for a benchmark program.",
    )
    parser.add_argument(
        "--program",
        default="sampling",
        choices=program_names() + ["all"],
        help="benchmark program name, or 'all'",
    )
    parser.add_argument("--phvs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--opt-level", type=int, default=2, choices=(0, 1, 2, 3),
        help="dgen optimisation level (3 = fused trace loop, fastest simulation)",
    )
    parser.add_argument(
        "--drop-pairs", type=int, default=0,
        help="drop this many output-mux machine-code pairs before testing (failure injection)",
    )
    parser.add_argument(
        "--engine", default="auto", choices=ENGINE_CHOICES,
        help="execution driver for the simulation leg of the workflow",
    )
    args = parser.parse_args(argv)

    programs = all_programs() if args.program == "all" else [get_program(args.program)]
    exit_code = 0
    for program in programs:
        spec = program.pipeline_spec()
        machine_code = program.machine_code()
        if args.drop_pairs:
            output_pairs = [
                name for name in machine_code if "output_mux" in name
            ][: args.drop_pairs]
            machine_code = machine_code.without(output_pairs)
        tester = FuzzTester(
            spec,
            program.specification(),
            config=FuzzConfig(
                num_phvs=args.phvs,
                seed=args.seed,
                opt_level=args.opt_level,
                engine=args.engine,
            ),
            traffic_generator=program.traffic_generator(seed=args.seed),
            initial_state=program.initial_pipeline_state(),
        )
        outcome = tester.test(machine_code)
        print(f"{program.display_name:22s} {outcome.describe()}")
        if not outcome.passed:
            exit_code = 1
    return exit_code


# ----------------------------------------------------------------------
# druzhba-drmt
# ----------------------------------------------------------------------
def drmt_main(argv: Optional[List[str]] = None) -> int:
    """Run dRMT dgen and dsim on a P4-14-like program."""
    parser = argparse.ArgumentParser(
        prog="druzhba-drmt", description="dRMT dgen + dsim on a P4-14-like program."
    )
    parser.add_argument("--p4", help="P4-14-like source file (defaults to the bundled simple router)")
    parser.add_argument("--entries", help="table-entries configuration file")
    parser.add_argument("--processors", type=int, default=2)
    parser.add_argument("--packets", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ticks-per-match", type=int, default=2)
    parser.add_argument("--ticks-per-action", type=int, default=1)
    parser.add_argument("--milp", action="store_true", help="use the MILP scheduler when available")
    parser.add_argument(
        "--engine", default="auto",
        choices=[engine for engine in ENGINE_CHOICES if engine != ENGINE_GENERIC],
        help="execution driver (auto = the generated fused run_trace when it builds, "
             "tick = the paper's per-tick processor loop; sharded = partition the "
             "packet trace per flow and run the shards in parallel)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the sharded engine (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sharded engine (default: min(shards, cores))",
    )
    parser.add_argument(
        "--shard-key",
        help="comma-separated packet field names identifying a flow; defaults to "
             "the fields the program's register accesses index by",
    )
    parser.add_argument(
        "--dump-fused", action="store_true",
        help="print the generated fused dRMT program source and exit",
    )
    args = parser.parse_args(argv)

    from .p4 import samples

    try:
        if args.p4:
            with open(args.p4) as handle:
                source = handle.read()
            entries = None
            if args.entries:
                with open(args.entries) as handle:
                    entries = handle.read()
        else:
            source = samples.SIMPLE_ROUTER
            entries = args.entries or samples.SIMPLE_ROUTER_ENTRIES
        hardware = DrmtHardwareParams(
            num_processors=args.processors,
            ticks_per_match=args.ticks_per_match,
            ticks_per_action=args.ticks_per_action,
        )
        bundle = generate_bundle(source, hardware, use_milp=args.milp)
        if args.dump_fused:
            print(bundle.fused_program().source)
            return 0
        print(bundle.describe())
        print(bundle.schedule.describe())
        shard_key = args.shard_key.split(",") if args.shard_key else None
        simulator = DRMTSimulator(
            bundle,
            table_entries=entries,
            engine=args.engine,
            shards=args.shards,
            workers=args.workers,
            shard_key=shard_key,
        )
        result = simulator.run_traffic(args.packets, seed=args.seed)
    except DruzhbaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(result.describe())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(dgen_main())
