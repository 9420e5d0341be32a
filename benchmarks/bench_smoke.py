"""bench_smoke: a scaled-down benchmark sweep that records the perf trajectory.

Runs every Table-1 benchmark program at every dgen optimisation level and
writes per-(program, level) throughput (PHVs/sec) to the JSON file named by
the required ``--output``.  The committed trajectory is one
``BENCH_PR<N>.json`` per recorded change, starting at ``BENCH_PR1.json``.
Two headline ratios are reported per program:

* ``fused vs tick`` — the generated ``run_trace`` loop (opt level 3)
  against the paper's tick-accurate interpreter driving the opt-level-2
  description.  This is the like-for-like continuation of
  the PR-1 trajectory, whose level-0..2 cells ran the tick interpreter.
* ``fused vs inlining`` — against the opt-level-2 description under the
  engine layer's *generic sequential driver* (the new default below level
  3), i.e. the remaining win of generating the driver itself.

Each fused cell also records a non-gating ``facade_ratio``: the whole
``RMTSimulator`` call time divided by the bare generated ``run_trace`` time
on the same trace, prepared by ``repro.engine.rmt.prepare_inputs``, i.e. what
input preparation and result assembly add.

The sweep also covers the dRMT engine: packets/sec for the bundled P4
programs under its two sequential drivers, tick and fused (the fused loop
probes exact tables through a dict and the others through masked rows).
A dRMT cell times ``DRMTSimulator.run_packets`` alone: each round's
simulator, with its parsed table entries, is built before the timed
region.  Each fused dRMT cell records its own non-gating ``facade_ratio``:
that ``run_packets`` time divided by the bare generated ``run_trace`` on
prepared packet rows.

Since PR 3 the sweep adds the *sharded* 1M-PHV cell: the flow-counters
workload (per-flow state, flow id in container 0) once under the generic
driver, once under the single-threaded fused loop, and once under the
sharded meta-driver with 4 shards across a worker pool — the scaling
headline for >1M-PHV traces.  ``--sharded-phvs 0`` skips it.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py [--phvs 3000] [--rounds 3]
        [--programs sampling,conga] [--sharded-phvs 1000000]
        --output BENCH_PR<N>.json

``--rounds`` defaults to the ``DRUZHBA_BENCH_ROUNDS`` environment variable
(default 1); each cell keeps the best of that many rounds.  A pytest-marked
wrapper lives in ``test_bench_smoke.py``; run it with
``pytest -m bench_smoke``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import dgen
from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
from repro.engine.drmt import prepare_packets
from repro.engine.rmt import prepare_inputs
from repro.traffic import PacketGenerator
from repro.dsim import RMTSimulator
from repro.p4 import samples
from repro.programs import TABLE1_ORDER, get_program
from repro.programs.variants import make_flow_counters_variant

#: Levels swept, in ladder order.
LEVELS: Dict[int, str] = {level: dgen.OPT_LEVEL_NAMES[level] for level in dgen.OPT_LEVELS}
#: Extra cell: the opt-level-2 description under the tick-accurate driver
#: (the PR-1 baseline, where levels 0-2 always ran the tick interpreter).
TICK_BASELINE = "tick_level2"

#: dRMT programs swept (name -> (program factory, table entries)).
DRMT_PROGRAMS = {
    "simple_router": (samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
    "telemetry_pipeline": (samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
}
DRMT_ENGINES = ("tick", "fused")

#: Default timing rounds (CI can raise via the environment).
DEFAULT_ROUNDS = max(1, int(os.environ.get("DRUZHBA_BENCH_ROUNDS", "1")))


def _best_of(rounds: int, run) -> float:
    """Best-of-``rounds`` wall time of ``run`` with the GC kept out.

    Sub-5ms cells are otherwise at the mercy of collections triggered by
    garbage the rest of a test session left behind (a single gen-2 pause can
    dwarf the fused loop's whole runtime).
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(rounds):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_cell(
    program, level: int, phvs: int, rounds: int, tick_accurate: bool = False
) -> Dict[str, float]:
    """Best-of-``rounds`` simulation throughput for one (program, level) cell."""
    description = dgen.generate(
        program.pipeline_spec(), program.machine_code(), opt_level=level
    )
    inputs = program.traffic_generator(seed=42).generate(phvs)
    engine = None

    def run():
        nonlocal engine
        simulator = RMTSimulator(
            description, initial_state=program.initial_pipeline_state()
        )
        result = simulator.run(inputs, tick_accurate=tick_accurate)
        assert len(result.output_trace) == phvs
        engine = result.engine

    best = _best_of(rounds, run)
    cell = {"seconds": best, "phvs_per_sec": phvs / best, "engine": engine}
    if engine == "fused":
        cell["facade_ratio"] = best / measure_raw_run_trace(description, program, inputs, rounds)
    return cell


def measure_raw_run_trace(description, program, inputs, rounds: int) -> float:
    """Best-of-``rounds`` time of the bare generated ``run_trace`` loop.

    Runs on the column :func:`~repro.engine.rmt.prepare_inputs` builds, the
    one the whole simulator hands its loop.  The denominator of the fused
    cell's ``facade_ratio``; recorded, never gated.
    """
    work = prepare_inputs(description, inputs)
    values = description.runtime_values()
    states = [program.initial_pipeline_state() for _ in range(rounds)]
    return _best_of(rounds, lambda: description.fused_function(work, states.pop(), values))


def measure_drmt_cell(name: str, engine: str, packets: int, rounds: int) -> Dict[str, float]:
    """Best-of-``rounds`` dRMT throughput for one (program, engine) cell."""
    build_program, entries = DRMT_PROGRAMS[name]
    bundle = generate_bundle(build_program(), DrmtHardwareParams(num_processors=4))
    if engine == "fused":
        bundle.fused_program()  # build outside the measured region
    trace = PacketGenerator(bundle.program, seed=42).generate(packets)
    simulators = [
        DRMTSimulator(bundle, table_entries=entries, engine=engine) for _ in range(rounds)
    ]

    def run():
        result = simulators.pop().run_packets(trace)
        assert result.packets_processed == packets
        assert result.engine == engine

    best = _best_of(rounds, run)
    cell = {"seconds": best, "packets_per_sec": packets / best}
    if engine == "fused":
        cell["facade_ratio"] = best / measure_raw_drmt_run_trace(bundle, entries, trace, rounds)
    return cell


def measure_raw_drmt_run_trace(bundle, entries, trace, rounds: int) -> float:
    """Best-of-``rounds`` time of the bare generated dRMT ``run_trace`` loop.

    Runs on the rows ``repro.engine.drmt.prepare_packets`` reads (the loop
    never mutates them, so every round shares one copy) with fresh tables
    and registers each round.  The denominator of the fused dRMT cell's
    ``facade_ratio``; recorded, never gated.
    """
    run_trace = bundle.fused_program().run_trace
    rows, _ragged = prepare_packets(trace, bundle.fields)
    simulators = [DRMTSimulator(bundle, table_entries=entries) for _ in range(rounds)]

    def run():
        simulator = simulators.pop()
        run_trace(rows, simulator.tables.tables, simulator.registers.arrays())

    return _best_of(rounds, run)


#: The sharded cell's workload: per-flow accumulators, flow id in container 0.
SHARDED_FLOWS = 8
SHARDED_SHARDS = 4
SHARDED_ENGINES = ("generic", "fused", "sharded")


def measure_sharded_cells(
    phvs: int, rounds: int, workers: int = 4, shards: int = SHARDED_SHARDS
) -> Dict[str, object]:
    """The >1M-PHV scaling cell: generic vs fused vs sharded on one workload.

    The flow-counters program keeps one accumulator per flow (state cells
    flow-owned by construction), so hash-partitioning the trace on the flow
    container is bit-for-bit safe and the sharded meta-driver can fan the
    shards across a process pool.  ``workers`` caps the pool; the recorded
    ``cpu_count`` tells readers how much parallelism the machine offered.
    """
    program = make_flow_counters_variant(SHARDED_FLOWS)
    description = dgen.generate(
        program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
    )
    inputs = program.traffic_generator(seed=42).generate(phvs)
    simulators = {
        "generic": RMTSimulator(description, engine="generic"),
        "fused": RMTSimulator(description, engine="fused"),
        "sharded": RMTSimulator(
            description, engine="sharded", shards=shards, workers=workers, shard_key=[0]
        ),
    }
    cells: Dict[str, Dict[str, float]] = {}
    for label, simulator in simulators.items():
        engine_seen = None

        def run():
            nonlocal engine_seen
            result = simulator.run(inputs)
            assert len(result.output_trace) == phvs
            engine_seen = result.engine

        best = _best_of(rounds, run)
        cells[label] = {"seconds": best, "phvs_per_sec": phvs / best, "engine": engine_seen}
    return {
        "program": program.name,
        "phvs": phvs,
        "flows": SHARDED_FLOWS,
        "shards": shards,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "speedup_sharded_vs_fused": cells["fused"]["seconds"] / cells["sharded"]["seconds"],
        "speedup_sharded_vs_generic": cells["generic"]["seconds"] / cells["sharded"]["seconds"],
    }


def _ratios(programs: Dict[str, Dict[str, Dict[str, float]]], baseline: str) -> dict:
    if not programs:
        return {"per_program": {}, "geomean": 1.0, "aggregate": 1.0}
    fused = LEVELS[dgen.OPT_FUSED]
    per_program = {
        name: cells[baseline]["seconds"] / cells[fused]["seconds"]
        for name, cells in programs.items()
    }
    total_baseline = sum(cells[baseline]["seconds"] for cells in programs.values())
    total_fused = sum(cells[fused]["seconds"] for cells in programs.values())
    return {
        "per_program": per_program,
        "geomean": math.exp(
            sum(math.log(ratio) for ratio in per_program.values()) / len(per_program)
        ),
        "aggregate": total_baseline / total_fused,
    }


def run_sweep(
    phvs: int,
    rounds: int,
    program_names: Optional[Sequence[str]] = None,
    drmt_packets: int = 2000,
    drmt_names: Optional[Sequence[str]] = None,
    sharded_phvs: int = 0,
    sharded_workers: int = 4,
) -> dict:
    """Sweep programs × levels (plus the dRMT engines) and assemble the record.

    ``program_names``/``drmt_names`` default (``None``) to the full program
    sets; pass an explicit empty list to skip that side of the sweep.
    ``sharded_phvs`` > 0 adds the sharded scaling cell at that trace length.
    """
    names: List[str] = (
        list(program_names) if program_names is not None else list(TABLE1_ORDER)
    )
    programs: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in names:
        program = get_program(name)
        cells = {
            label: measure_cell(program, level, phvs, rounds)
            for level, label in LEVELS.items()
        }
        cells[TICK_BASELINE] = measure_cell(
            program, dgen.OPT_SCC_INLINE, phvs, rounds, tick_accurate=True
        )
        programs[name] = cells

    drmt: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in drmt_names if drmt_names is not None else sorted(DRMT_PROGRAMS):
        drmt[name] = {
            engine: measure_drmt_cell(name, engine, drmt_packets, rounds)
            for engine in DRMT_ENGINES
        }

    record = {
        "benchmark": "table1_smoke",
        "phvs_per_program": phvs,
        "rounds": rounds,
        "levels": list(LEVELS.values()) + [TICK_BASELINE],
        "programs": programs,
        "speedup_fused_vs_tick": _ratios(programs, TICK_BASELINE),
        "speedup_fused_vs_inlining": _ratios(programs, LEVELS[dgen.OPT_SCC_INLINE]),
        "drmt": {
            "packets_per_program": drmt_packets,
            "num_processors": 4,
            "programs": drmt,
        },
    }
    if drmt:
        record["drmt"]["speedup_fused_vs_tick"] = {
            name: cells["tick"]["seconds"] / cells["fused"]["seconds"]
            for name, cells in drmt.items()
        }
    if sharded_phvs > 0:
        record["sharded"] = measure_sharded_cells(
            sharded_phvs, rounds, workers=sharded_workers
        )
    return record


_SHORT_LABELS = {
    "unoptimized": "unopt",
    "scc_propagation": "scc",
    "scc_propagation_and_inlining": "scc+inline",
    "fused_pipeline": "fused",
    TICK_BASELINE: "tick(lvl2)",
}


def format_table(record: dict) -> str:
    """Human-readable rendering of a sweep record."""
    lines = [
        f"bench_smoke: {record['phvs_per_program']} PHVs/program, "
        f"best of {record['rounds']} round(s)",
        f"{'Program':20s} "
        + "".join(f"{_SHORT_LABELS.get(label, label):>14s}" for label in record["levels"])
        + f"{'fused/tick':>12s}",
    ]
    speedups = record["speedup_fused_vs_tick"]["per_program"]
    for name, cells in record["programs"].items():
        rates = "".join(f"{cells[label]['phvs_per_sec']:>12.0f}/s" for label in record["levels"])
        lines.append(f"{name:20s} {rates}{speedups[name]:>11.2f}x")
    tick_summary = record["speedup_fused_vs_tick"]
    inline_summary = record["speedup_fused_vs_inlining"]
    lines.append(
        f"fused vs tick(level 2):  geomean {tick_summary['geomean']:.2f}x, "
        f"aggregate {tick_summary['aggregate']:.2f}x"
    )
    lines.append(
        f"fused vs scc+inlining:   geomean {inline_summary['geomean']:.2f}x, "
        f"aggregate {inline_summary['aggregate']:.2f}x"
    )
    drmt = record.get("drmt", {})
    if drmt.get("programs"):
        lines.append(
            f"dRMT ({drmt['packets_per_program']} packets, "
            f"{drmt['num_processors']} processors):"
        )
        for name, cells in drmt["programs"].items():
            rates = "".join(
                f"{engine} {cells[engine]['packets_per_sec']:>8.0f}/s  "
                for engine in DRMT_ENGINES
            )
            ratio = drmt["speedup_fused_vs_tick"][name]
            lines.append(
                f"  {name:20s} {rates}fused/tick {ratio:.2f}x, "
                f"facade {cells['fused']['facade_ratio']:.2f}x"
            )
    sharded = record.get("sharded")
    if sharded:
        lines.append(
            f"sharded scaling cell ({sharded['program']}, {sharded['phvs']} PHVs, "
            f"{sharded['shards']} shards, {sharded['workers']} workers, "
            f"{sharded['cpu_count']} cores):"
        )
        rates = "".join(
            f"{engine} {sharded['cells'][engine]['phvs_per_sec']:>9.0f}/s  "
            for engine in SHARDED_ENGINES
        )
        lines.append(
            f"  {rates}sharded/fused {sharded['speedup_sharded_vs_fused']:.2f}x, "
            f"sharded/generic {sharded['speedup_sharded_vs_generic']:.2f}x"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_smoke",
        description="Scaled-down benchmark sweep (all opt levels, both engines).",
    )
    parser.add_argument("--phvs", type=int, default=3000, help="PHVs per RMT program")
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help="timing rounds, best kept (default: DRUZHBA_BENCH_ROUNDS or 1)",
    )
    parser.add_argument(
        "--programs", help="comma-separated Table-1 program subset (default: all 12)"
    )
    parser.add_argument(
        "--drmt-packets", type=int, default=2000, help="packets per dRMT program"
    )
    parser.add_argument(
        "--sharded-phvs", type=int, default=1_000_000,
        help="trace length for the sharded scaling cell (0 skips it)",
    )
    parser.add_argument(
        "--sharded-workers", type=int, default=4,
        help="worker processes for the sharded scaling cell",
    )
    parser.add_argument(
        "--output", required=True,
        help="output JSON path (the committed trajectory is BENCH_PR<N>.json)",
    )
    args = parser.parse_args(argv)

    names = args.programs.split(",") if args.programs else None
    record = run_sweep(
        args.phvs,
        args.rounds,
        names,
        drmt_packets=args.drmt_packets,
        sharded_phvs=args.sharded_phvs,
        sharded_workers=args.sharded_workers,
    )
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(format_table(record))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
