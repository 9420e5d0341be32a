"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next call starts after
the previous one returned, all in one process.  One *call* builds the facade
on an already-compiled program and runs one trace through it
(``FuzzTester(...).test``, ``RMTSimulator(...).run`` or
``DRMTSimulator(...).run_packets``).  A *round* is one pass over the
workload's calls; rounds repeat until the run's time is up.

Phases, and which of them are timed:

* ``import_modules`` + ``compile`` -- the set-up, timed as ``setup_s``;
* ``prepare`` -- inputs and references from the seed, untimed;
* ``call`` -- timed, one call at a time;
* ``check`` -- untimed; compares one call's output with the reference.

Every ``repro`` import happens inside ``import_modules``, so the runner can
drop the package from ``sys.modules`` and time a fresh import per set-up
round.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

#: Trace lengths at scale 1.
FUZZ_PHVS = 150
TABLE1_PHVS = 50_000
DRMT_PACKETS = 50_000
SHARDED_PHVS = 250_000
#: Flows of the sharded workload's flow-counters program.
SHARDED_FLOWS = 8
#: dRMT processors (the paper's Figure-4 configuration).
DRMT_PROCESSORS = 4


def host_cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rmt_digest(result) -> int:
    """Fingerprint of a result's outputs, final state and tick count.

    Hashes of ints and tuples of ints are not salted per process, so the
    fingerprint is the same in every run and cheap next to a ``repr``.
    """
    final_state = tuple(tuple(map(tuple, stage)) for stage in result.final_state)
    return hash((tuple(result.outputs), final_state, result.ticks))


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.workers = 1
        #: Failures found while building references (reported, never timed).
        self.reference_errors: List[str] = []

    def size(self, full: int) -> int:
        return max(1, int(full * self.scale))

    def import_modules(self) -> None:
        raise NotImplementedError

    def compile(self) -> None:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def round_items(self, round_index: int) -> Sequence:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def inputs_of(self, item) -> int:
        raise NotImplementedError

    def generated_loops(self) -> Tuple[dict, ...]:
        """Namespaces whose generated ``RUN_TRACE`` the tracer wraps."""
        return ()

    def config(self) -> Dict[str, object]:
        return {}


# ----------------------------------------------------------------------
# fuzz_corpus: the §5.2 case study, verdict after verdict
# ----------------------------------------------------------------------
class FuzzCorpus(Workload):
    """Every case-study corpus entry through ``FuzzTester.test``, pass after pass.

    Each pass uses fresh fuzz seeds.  The reference is the entry's
    ``CorpusEntry.expected`` class.  An injected value-range fault is visible
    only if the 150-PHV trace holds a value in ``(cap, threshold]``; for
    those six entries the seed is advanced (untimed) to the first one whose
    trace holds such a value, so every pass runs the §5.2 re-fuzz and no
    verdict depends on luck.
    """

    name = "fuzz_corpus"

    def import_modules(self) -> None:
        from repro.programs import case_study
        from repro.testing import fuzzer, report
        from repro import traffic

        self._case_study, self._fuzzer, self._report, self._traffic = (
            case_study, fuzzer, report, traffic
        )

    def compile(self) -> None:
        case_study = self._case_study
        self.entries = []
        thresholds = iter(case_study.VALUE_RANGE_THRESHOLDS)
        for entry in case_study.build_corpus():
            program = entry.program
            threshold = (
                next(thresholds) if entry.family == "injected_value_range" else None
            )
            self.entries.append(
                (
                    entry,
                    program.pipeline_spec(),
                    program.specification(),
                    program.traffic_generator(),
                    program.initial_pipeline_state(),
                    threshold,
                )
            )
        failure = self._report.FailureClass
        self._phvs = self.size(FUZZ_PHVS)
        self._simulated = {
            failure.CORRECT: self._phvs,
            failure.VALUE_RANGE: 2 * self._phvs,  # the §5.2 re-fuzz
            failure.MISSING_MACHINE_CODE: 0,
        }

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def _exposes(self, base_traffic, seed: int, threshold: int) -> bool:
        """Would a fuzz trace with ``seed`` expose the capped constant?

        Mirrors ``FuzzTester._make_traffic`` at the default value range.
        """
        cap = self._case_study.VALUE_RANGE_CAP
        traffic = self._traffic.TrafficGenerator(
            num_containers=base_traffic.num_containers,
            seed=seed,
            min_value=base_traffic.min_value,
            max_value=min(base_traffic.max_value, self._fuzzer.FuzzConfig().max_value),
            field_generators=base_traffic.field_generators,
        )
        return any(cap < phv[0] <= threshold for phv in traffic.generate(self._phvs))

    def round_items(self, round_index: int) -> Sequence:
        items = []
        for index, entry in enumerate(self.entries):
            # Even seeds only: the re-fuzz uses seed + 1.
            seed = (self.seed * 100_000 + round_index) * 1000 + 2 * index
            threshold = entry[5]
            if threshold is not None:
                while not self._exposes(entry[3], seed, threshold):
                    seed += 2 * len(self.entries)
            items.append((entry, seed))
        return items

    def call(self, item):
        (entry, pipeline_spec, specification, traffic, state, _threshold), seed = item
        fuzzer = self._fuzzer
        tester = fuzzer.FuzzTester(
            pipeline_spec,
            specification,
            config=fuzzer.FuzzConfig(num_phvs=self._phvs, seed=seed),
            traffic_generator=traffic,
            initial_state=state,
        )
        return tester.test(entry.machine_code)

    def check(self, item, outcome) -> bool:
        return outcome.failure_class is item[0][0].expected

    def inputs_of(self, item) -> int:
        return self._simulated[item[0][0].expected]

    def config(self) -> Dict[str, object]:
        return {
            "corpus_entries": len(self.entries),
            "phvs_per_verdict": self._phvs,
            "opt_level": self._fuzzer.FuzzConfig().opt_level,
        }


# ----------------------------------------------------------------------
# rmt_table1_long: the 12 Table-1 programs, 50,000-PHV calls
# ----------------------------------------------------------------------
class RmtTable1Long(Workload):
    """Repeated 50,000-PHV calls through ``RMTSimulator`` (``auto`` -> fused).

    Reference: each program's ``specification()`` on its relevant
    containers, checked once on an untimed call, whose output/final-state
    digest every timed call must then repeat.
    """

    name = "rmt_table1_long"

    def import_modules(self) -> None:
        from repro import dgen, programs
        from repro.dsim import RMTSimulator
        from repro.testing.equivalence import compare_traces

        self._dgen, self._programs = dgen, programs
        self._simulator, self._compare = RMTSimulator, compare_traces

    def compile(self) -> None:
        dgen, programs = self._dgen, self._programs
        self.cells = []
        for name in programs.TABLE1_ORDER:
            program = programs.get_program(name)
            description = dgen.generate(
                program.pipeline_spec(), program.machine_code(), opt_level=dgen.OPT_FUSED
            )
            self.cells.append((name, program, description, program.initial_pipeline_state()))

    def prepare(self, seed: int) -> None:
        phvs = self.size(TABLE1_PHVS)
        self.items = []
        for index, (name, program, description, state) in enumerate(self.cells):
            inputs = program.traffic_generator(seed=seed * 1000 + index).generate(phvs)
            specification = program.specification()
            result = self.call((name, description, state, inputs, None))
            report = self._compare(
                result.output_trace,
                specification.run(inputs),
                containers=specification.relevant_containers,
                limit=0,
            )
            if not report.equivalent:
                self.reference_errors.append(f"{name}: {report.describe()}")
            self.items.append((name, description, state, inputs, rmt_digest(result)))

    def round_items(self, round_index: int) -> Sequence:
        return self.items

    def call(self, item):
        _name, description, state, inputs, _digest = item
        return self._simulator(description, initial_state=state).run(inputs)

    def check(self, item, result) -> bool:
        return rmt_digest(result) == item[4]

    def inputs_of(self, item) -> int:
        return len(item[3])

    def generated_loops(self) -> Tuple[dict, ...]:
        return tuple(description.namespace for _name, _program, description, _state in self.cells)

    def config(self) -> Dict[str, object]:
        return {"programs": len(self.cells), "phvs_per_call": self.size(TABLE1_PHVS)}


# ----------------------------------------------------------------------
# drmt_long: two P4 programs on 4 dRMT processors, 50,000-packet calls
# ----------------------------------------------------------------------
class DrmtLong(Workload):
    """Repeated 50,000-packet calls through ``DRMTSimulator.run_packets``.

    Reference: the tick interpreter (``tick_accurate=True``) on the same
    trace -- records, register dump, table hits and tick count must match.
    """

    name = "drmt_long"

    def import_modules(self) -> None:
        from repro import drmt, traffic
        from repro.p4 import samples

        self._drmt, self._traffic, self._samples = drmt, traffic, samples

    def compile(self) -> None:
        drmt, samples = self._drmt, self._samples
        hardware = drmt.DrmtHardwareParams(num_processors=DRMT_PROCESSORS)
        self.cells = []
        for name, build, entries in (
            ("simple_router", samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
            ("telemetry_pipeline", samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
        ):
            bundle = drmt.generate_bundle(build(), hardware)
            bundle.fused_program()
            self.cells.append((name, bundle, entries))

    def prepare(self, seed: int) -> None:
        packets = self.size(DRMT_PACKETS)
        self.items = []
        for index, (name, bundle, entries) in enumerate(self.cells):
            trace = self._traffic.PacketGenerator(
                bundle.program, seed=seed * 1000 + index
            ).generate(packets)
            reference = self._drmt.DRMTSimulator(bundle, table_entries=entries).run_packets(
                trace, tick_accurate=True
            )
            self.items.append((name, bundle, entries, trace, reference))

    def round_items(self, round_index: int) -> Sequence:
        return self.items

    def call(self, item):
        _name, bundle, entries, trace, _reference = item
        return self._drmt.DRMTSimulator(bundle, table_entries=entries).run_packets(trace)

    def check(self, item, result) -> bool:
        reference = item[4]
        return (
            result.records == reference.records
            and result.register_dump == reference.register_dump
            and result.table_hits == reference.table_hits
            and result.ticks == reference.ticks
        )

    def inputs_of(self, item) -> int:
        return len(item[3])

    def config(self) -> Dict[str, object]:
        return {
            "programs": len(self.cells),
            "packets_per_call": self.size(DRMT_PACKETS),
            "processors": DRMT_PROCESSORS,
        }


# ----------------------------------------------------------------------
# sharded_flows: auto-sharded flow counters above the 200k threshold
# ----------------------------------------------------------------------
class ShardedFlows(Workload):
    """Flow counters through ``RMTSimulator(engine="auto", shards=nproc, ...)``.

    Calls hold more inputs than the 200k auto-shard threshold, so ``auto``
    picks the sharded meta-driver with the default pickle transport.
    Reference: the unsharded fused result, bit for bit (digest of outputs,
    final state and ticks).
    """

    name = "sharded_flows"

    #: Overrides the facade's auto-shard threshold; only the self-test sets it,
    #: so scaled-down traces still reach the sharded driver.
    shard_threshold: Optional[int] = None

    def import_modules(self) -> None:
        from repro import dgen
        from repro.dsim import RMTSimulator
        from repro.programs.variants import make_flow_counters_variant

        self._dgen, self._simulator = dgen, RMTSimulator
        self._variant = make_flow_counters_variant

    def compile(self) -> None:
        dgen = self._dgen
        self.program = self._variant(SHARDED_FLOWS)
        self.description = dgen.generate(
            self.program.pipeline_spec(), self.program.machine_code(), opt_level=dgen.OPT_FUSED
        )
        self.workers = host_cores()

    def prepare(self, seed: int) -> None:
        inputs = self.program.traffic_generator(seed=seed).generate(self.size(SHARDED_PHVS))
        reference = self._simulator(self.description, engine="fused").run(inputs)
        self.item = (inputs, rmt_digest(reference))

    def round_items(self, round_index: int) -> Sequence:
        return (self.item,)

    def call(self, item):
        options = {}
        if self.shard_threshold is not None:
            options["shard_threshold"] = self.shard_threshold
        simulator = self._simulator(
            self.description,
            engine="auto",
            shards=self.workers,
            workers=self.workers,
            shard_key=[0],
            **options,
        )
        return simulator.run(item[0])

    def check(self, item, result) -> bool:
        return rmt_digest(result) == item[1]

    def inputs_of(self, item) -> int:
        return len(item[0])

    def generated_loops(self) -> Tuple[dict, ...]:
        return (self.description.namespace,)

    def config(self) -> Dict[str, object]:
        return {
            "phvs_per_call": self.size(SHARDED_PHVS),
            "flows": SHARDED_FLOWS,
            "shards": self.workers,
            "transport": "pickle",
        }


WORKLOADS = {
    workload.name: workload
    for workload in (FuzzCorpus, RmtTable1Long, DrmtLong, ShardedFlows)
}
