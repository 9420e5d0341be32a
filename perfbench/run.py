"""perfbench: the repository benchmark (one workload per run).

Usage, from the repository root::

    python3 perfbench/run.py --workload rmt_table1_long --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
(self time per layer, exact counts, GC activity, tracing overhead).  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, with the host description, goes to ``perfbench/results/``.

The program under test is imported from ``src/`` next to this directory and
nowhere else; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from tracing import RUN_TRACE_SPAN, SPAN_NAMES, GcMonitor, Tracer  # noqa: E402
from workloads import WORKLOADS, host_cores  # noqa: E402

#: Set-up rounds per run, spread over its measured time; ``setup_s`` is their median.
SETUP_ROUNDS = 10

#: Seconds the calibration loop takes on the 2-core reference host at its full
#: speed; timings are reported as they would read at that speed.
CALIBRATION_NOMINAL_S = 0.005
#: Calls that start closer together than this share one calibration.
CALIBRATION_PERIOD_S = 0.05

#: Linux process status and the file whose "5" resets the peak-RSS mark.
PROC_STATUS = Path("/proc/self/status")
PROC_CLEAR_REFS = Path("/proc/self/clear_refs")

#: Drivers a call can report (``result.engine``, brackets made dashes).
DRIVERS = ("tick", "generic", "fused", "sharded-generic", "sharded-fused")

#: Counts reported per round (set-up round plus call round) in a traced run.
COUNTS = (
    "dgen.generate.calls",
    "dgen.source_bytes",
    "drmt.fused.source_bytes",
    "drmt.tables.hits",
    "drmt.tables.misses",
    "engine.transport.fallbacks",
    "python.gc.collections_gen2",
) + tuple(f"engine.driver.{driver}.calls" for driver in DRIVERS)


class HarnessError(RuntimeError):
    """The benchmark itself is broken (not the program under test)."""


def purge_repro() -> None:
    for name in [name for name in sys.modules if name.split(".")[0] == "repro"]:
        del sys.modules[name]


def check_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program sources at {SRC}/repro; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise HarnessError(f"repro was imported from {repro.__file__}, not from {SRC}")


def calibration_loop() -> int:
    """Fixed pure-Python work: dict updates, tuple building, a generator sum."""
    table: Dict[int, int] = {}
    for index in range(30_000):
        key = index & 1023
        table[key] = table.get(key, 0) + (index ^ key)
    rows = [(value, value * 3) for value in range(10_000)]
    return sum(first + second for first, second in rows) + len(table)


class HostSpeed:
    """How fast the host runs plain Python right now, next to its full speed.

    The shared host runs at about 1.0x, 1.5x or 1.75x of its best time, in
    phases that can outlast a whole run, and the slowdown applies to every
    Python loop alike.  A fixed calibration loop is timed between calls; a
    call's time divided by the mean of the calibrations just before and just
    after it, times :data:`CALIBRATION_NOMINAL_S`, is the time it would take
    at full speed.  The raw times stay in the record.
    """

    def __init__(self):
        #: (perf_counter when taken, calibration seconds), in order.
        self.samples: List[Tuple[float, float]] = []

    def measure(self) -> int:
        """Time the calibration loop (best of three); return the sample's index."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - start)
        self.samples.append((time.perf_counter(), best))
        return len(self.samples) - 1

    def refresh(self) -> int:
        """Index of a sample no older than :data:`CALIBRATION_PERIOD_S`."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CALIBRATION_PERIOD_S:
            return self.measure()
        return len(self.samples) - 1

    def normalise(self, seconds: float, before: int) -> float:
        """``seconds`` at full speed; sample ``before`` preceded the work, the next one follows it."""
        after = min(before + 1, len(self.samples) - 1)
        calibration = (self.samples[before][1] + self.samples[after][1]) / 2
        return seconds * CALIBRATION_NOMINAL_S / calibration


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond.

    With eleven samples or fewer no percentile has ten beyond it, and the
    rule degrades to the smallest sample, which has the most beyond it.
    """
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def status_mb(field: str) -> float:
    """``VmRSS`` (resident now) or ``VmHWM`` (resident peak) of this process, in MB."""
    match = re.search(rf"^{field}:\s+(\d+) kB", PROC_STATUS.read_text(), re.MULTILINE)
    return int(match.group(1)) / 1024


def reset_peak_rss() -> None:
    """Lower this process's ``VmHWM`` to what is resident now."""
    try:
        PROC_CLEAR_REFS.write_text("5")
    except OSError as error:
        raise HarnessError(f"cannot reset the peak-RSS mark ({error}); perfbench needs Linux")


class Memory:
    """Peak resident memory of the timed calls, apart from the harness's own phases.

    The mark is reset right before each call, so set-up, reference runs and
    set-up rounds between calls never set the peak.  A forked pool child's
    RSS starts with the parent pages it inherited; the parent's RSS at each
    fork is subtracted from the largest child's peak, so what is added is
    the child's own growth.
    """

    def __init__(self):
        self.before_loop_mb = status_mb("VmRSS")
        self.through_prepare_mb = status_mb("VmHWM")
        self.call_peak_mb = 0.0
        self.fork_rss_mb = 0.0
        self.tracking = False
        os.register_at_fork(before=self._before_fork)

    def _before_fork(self) -> None:
        if self.tracking:
            self.fork_rss_mb = max(self.fork_rss_mb, status_mb("VmRSS"))

    def start_call(self) -> None:
        reset_peak_rss()
        self.tracking = True

    def end_call(self) -> None:
        self.tracking = False
        self.call_peak_mb = max(self.call_peak_mb, status_mb("VmHWM"))

    def summary(self) -> Dict[str, float]:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB
        extra = max(children - self.fork_rss_mb, 0.0) if self.fork_rss_mb else 0.0
        return {
            "rss_before_loop_mb": self.before_loop_mb,
            "peak_through_prepare_mb": self.through_prepare_mb,
            "call_peak_mb": self.call_peak_mb,
            "children_peak_mb": children,
            "rss_at_fork_mb": self.fork_rss_mb,
            "child_growth_mb": extra,
            "peak_rss_mb": self.call_peak_mb + extra,
        }


def host() -> Dict[str, object]:
    return {
        "nproc": host_cores(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def set_up(workload, tracer) -> float:
    """Time one fresh import + compilation of ``workload``; return its seconds."""
    purge_repro()
    gc.collect()
    start = time.perf_counter()
    workload.import_modules()
    if tracer is not None:
        tracer.call_id = f"setup{len(tracer.setup_counts)}"
        tracer.install()
    try:
        workload.compile()
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.setup_counts.append(tracer.take_counts())
    return elapsed


def timed_set_up(workload, tracer, speed: HostSpeed, aside: bool) -> Tuple[float, float]:
    """(seconds, seconds at full host speed) of one set-up round."""
    before = speed.measure()
    seconds = (set_up_aside if aside else set_up)(workload, tracer)
    speed.measure()
    return seconds, speed.normalise(seconds, before)


def set_up_aside(workload, tracer) -> float:
    """One more set-up round, on a throwaway workload, between timed rounds.

    The run's own ``repro`` modules are put back afterwards, so the calls
    keep using the program they were prepared with.
    """
    saved = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "repro"}
    try:
        return set_up(type(workload)(workload.scale), tracer)
    finally:
        purge_repro()
        sys.modules.update(saved)


class Loop:
    """The timed closed loop plus everything it measures."""

    def __init__(self, workload, tracer, speed: HostSpeed, setup_times: List[Tuple[float, float]]):
        self.workload = workload
        self.tracer = tracer
        self.speed = speed
        #: (seconds, seconds at full speed) per set-up round.
        self.setup_times = setup_times
        self.gc_monitor = GcMonitor()
        self.memory = Memory()
        # Untraced calls: duration, the same at full host speed, position in
        # the round, simulated inputs.
        self.durations: List[float] = []
        self.normalised: List[float] = []
        self.calibrations: List[int] = []
        self.call_positions: List[int] = []
        self.call_inputs: List[int] = []
        self.traced_durations: List[float] = []
        self.traced_calibrations: List[int] = []
        self.traced_positions: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.round_counts: List[Dict[str, int]] = []
        self.traced_calls = 0

    def run_round(self, round_index: int, traced: bool) -> None:
        workload, tracer, monitor = self.workload, self.tracer, self.gc_monitor
        items = workload.round_items(round_index)
        if traced:
            tracer.install(
                tuple((namespace, "RUN_TRACE", RUN_TRACE_SPAN) for namespace in workload.generated_loops())
            )
            gen2_before = monitor.gen2
        try:
            for position, item in enumerate(items):
                gc.collect()  # a clean heap per call; collections inside it stay on
                result, error = None, None
                calibration = self.speed.refresh()
                self.memory.start_call()
                monitor.active = traced
                start = time.perf_counter()
                try:
                    if traced:
                        tracer.call_id = (round_index, position)
                        result = tracer.run("call", workload.call, item)
                    else:
                        result = workload.call(item)
                except Exception as exc:  # a failing call is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                monitor.active = False
                self.memory.end_call()
                self.attempted += 1
                if error is None and not workload.check(item, result):
                    error = "output differs from the reference"
                if traced:
                    self.traced_durations.append(elapsed)
                    self.traced_calibrations.append(calibration)
                    self.traced_positions.append(position)
                else:
                    self.durations.append(elapsed)
                    self.calibrations.append(calibration)
                    self.call_positions.append(position)
                    self.call_inputs.append(0 if error else workload.inputs_of(item))
                if error is not None:
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"round {round_index} call {position}: {error}")
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            self.traced_calls += len(items)
            counts = tracer.take_counts()
            counts["python.gc.collections_gen2"] = monitor.gen2 - gen2_before
            self.round_counts.append(counts)

    def run(self, seconds: float) -> None:
        """Run rounds for ``seconds``, with the remaining set-up rounds spread among them.

        Host speed drifts over seconds; set-up rounds taken back to back all
        land in one phase of it.  Time spent in set-up rounds extends the
        deadline, so the calls get their full ``seconds``.
        """
        start = time.perf_counter()
        aside = 0.0
        round_index = 0
        with self.gc_monitor:
            while True:
                traced = self.tracer is not None and round_index % 2 == 1
                self.run_round(round_index, traced)
                round_index += 1
                calls_time = time.perf_counter() - start - aside
                due = 1 + math.ceil((SETUP_ROUNDS - 1) * min(calls_time / seconds, 1.0))
                while len(self.setup_times) < due:
                    begin = time.perf_counter()
                    self.setup_times.append(
                        timed_set_up(self.workload, self.tracer, self.speed, aside=True)
                    )
                    aside += time.perf_counter() - begin
                enough = self.tracer is None or round_index >= 2
                if enough and calls_time >= seconds:
                    break
        self.speed.measure()  # the calibration after the last call
        self.normalised = [
            self.speed.normalise(duration, calibration)
            for duration, calibration in zip(self.durations, self.calibrations)
        ]
        self.traced_normalised = [
            self.speed.normalise(duration, calibration)
            for duration, calibration in zip(self.traced_durations, self.traced_calibrations)
        ]
        self.rounds = round_index


def position_medians(values: Sequence[float], positions: Sequence[int]) -> Dict[int, float]:
    """Median of ``values`` per call position."""
    by_position: Dict[int, List[float]] = {}
    for position, value in zip(positions, values):
        by_position.setdefault(position, []).append(value)
    return {position: statistics.median(samples) for position, samples in by_position.items()}


def end_to_end(loop: Loop):
    """The end-to-end metrics plus the details the record keeps about them.

    Timings are taken at full host speed (see :class:`HostSpeed`).  Each call
    position (one program, or one corpus entry) contributes its median call;
    a round of median calls gives the throughputs.  The raw median and tail
    over all calls are reported and recorded beside them.
    """
    inputs: Dict[int, int] = {}
    for position, simulated in zip(loop.call_positions, loop.call_inputs):
        inputs[position] = max(inputs.get(position, 0), simulated)
    medians = position_medians(loop.normalised, loop.call_positions)
    round_seconds = sum(medians.values())
    tail_value, percentile, beyond = tail(loop.durations)
    memory = loop.memory.summary()
    metrics = {
        "setup_s": (statistics.median(normalised for _raw, normalised in loop.setup_times), "s"),
        "sim_inputs_per_s": (sum(inputs.values()) / round_seconds, "1/s"),
        "verdicts_per_s": (len(medians) / round_seconds, "1/s"),
        "call_ms_p50": (
            math.exp(statistics.fmean(math.log(value) for value in medians.values())) * 1000,
            "ms",
        ),
        "peak_rss_mb": (memory.pop("peak_rss_mb"), "MB"),
    }
    details = {
        "memory_mb": memory,
        "calibration_ms": [round(seconds * 1000, 3) for _at, seconds in loop.speed.samples],
        "raw_call_ms_p50": statistics.median(loop.durations) * 1000,
        "raw_call_ms_tail": tail_value * 1000,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "calls": len(loop.durations),
        "run_sim_inputs_per_s": sum(loop.call_inputs) / sum(loop.durations),
        "call_ms": [round(duration * 1000, 3) for duration in loop.durations],
        "call_calibration": loop.calibrations,
        "call_positions": loop.call_positions,
    }
    return metrics, details


def count_drift(loop: Loop) -> List[str]:
    """Exact counts must repeat in every traced round; a drift is a harness bug."""
    drift = []
    for phase, rounds in (("set-up", loop.tracer.setup_counts), ("call", loop.round_counts)):
        drift += [
            f"{phase} counts drifted: {rounds[0]} then {later}"
            for later in rounds[1:]
            if later != rounds[0]
        ][:1]
    return drift


def per_layer(loop: Loop, workload) -> Dict[str, Tuple[float, str]]:
    tracer = loop.tracer
    counts = dict(tracer.setup_counts[0])
    first = loop.round_counts[0]
    for name, value in first.items():
        counts[name] = counts.get(name, 0) + value
    calls = max(loop.traced_calls, 1)
    setup_self = tracer.self_seconds(lambda call_id: isinstance(call_id, str))
    call_self = tracer.self_seconds(lambda call_id: not isinstance(call_id, str))
    metrics: Dict[str, Tuple[float, str]] = {}
    for span in SPAN_NAMES:
        value = setup_self.get(span, 0.0) / len(loop.setup_times) + call_self.get(span, 0.0) / calls
        metrics[f"{span}.self_s"] = (value, "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    round_calls = len(workload.round_items(0))
    refuzz = 0.0
    if workload.name == "fuzz_corpus":
        refuzz = first.get("dgen.generate.calls", 0) / round_calls - 1
    metrics["testing.refuzz_ratio"] = (refuzz, "ratio")
    metrics["engine.sharded.shard_imbalance"] = (max(tracer.imbalance, default=0.0), "ratio")
    metrics["python.gc.pause_s"] = (loop.gc_monitor.pause_s / calls, "s")
    # Per position: the calls of a round differ too much for one median.
    untraced = position_medians(loop.normalised, loop.call_positions)
    traced = position_medians(loop.traced_normalised, loop.traced_positions)
    extra = sum(traced[position] - untraced[position] for position in traced)
    metrics["tracing.overhead_ms"] = (extra / len(traced) * 1000, "ms")
    metrics["tracing.overhead_share"] = (
        extra / sum(untraced[position] for position in traced),
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace-length factor (the self-test uses < 1)"
    )
    args = parser.parse_args(argv)

    try:
        check_source_tree()
        # Third-party and standard-library modules load once, before set-up.
        import networkx  # noqa: F401
        import multiprocessing.pool  # noqa: F401

        workload = WORKLOADS[args.workload](args.scale)
        tracer = Tracer() if args.trace else None
        speed = HostSpeed()
        setup_times = [timed_set_up(workload, tracer, speed, aside=False)]
        gc.collect()
        workload.prepare(args.seed)
        # Inputs, references and compiled programs live for the whole run:
        # keep them out of the collections the timed calls trigger.
        gc.collect()
        gc.freeze()
        loop = Loop(workload, tracer, speed, setup_times)
        loop.run(args.seconds)
        if tracer is None:
            metrics, timing = end_to_end(loop)
        else:
            metrics = per_layer(loop, workload)
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    failed = loop.failed + len(workload.reference_errors)
    drift = count_drift(loop) if tracer else []
    correct = failed == 0 and not drift
    ratio_base = loop.attempted
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": dict(host(), workers=workload.workers),
        "config": workload.config(),
        "setup_rounds_s": [raw for raw, _normalised in setup_times],
        "setup_rounds_full_speed_s": [normalised for _raw, normalised in setup_times],
        "rounds": loop.rounds,
        "calls": loop.attempted,
        "failed_ratio": {"value": failed / ratio_base, "failed": failed, "attempted": ratio_base},
        "errors": workload.reference_errors + loop.errors + drift,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if tracer is None:
        record["timing"] = timing
    else:
        record["round_counts"] = loop.round_counts[0]
        record["setup_counts"] = tracer.setup_counts[0]
        record["shard_imbalance"] = tracer.imbalance[:1]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        spans = {"fields": ["call_id", "name", "start", "end", "parent"], "spans": tracer.spans}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    hosts = record["host"]
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"nproc={hosts['nproc']} python={hosts['python']} workers={hosts['workers']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if tracer is None:
        print(
            f"  raw, over all {timing['calls']} calls: median {timing['raw_call_ms_p50']:.6g} ms, "
            f"tail {timing['raw_call_ms_tail']:.6g} ms "
            f"(p{timing['tail_percentile']:.1f}, {timing['tail_beyond']} beyond), "
            f"sim_inputs_per_s {timing['run_sim_inputs_per_s']:.6g} 1/s"
        )
    print(f"  failed_ratio = {failed}/{ratio_base} = {failed / ratio_base:g}")
    for error in record["errors"]:
        print(f"  error: {error}")
    print(f"  record: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
