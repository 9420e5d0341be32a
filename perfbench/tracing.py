"""Layer tracing from outside the program: spans around public entry points.

Nothing in ``src/`` knows about this module.  A :class:`Tracer` wraps the
public functions and methods listed in :data:`LAYERS` (and any extra
namespace entries a workload adds, such as a description's generated
``RUN_TRACE``) with a span recorder, and unwraps them again, so a traced run
can alternate traced and untraced calls in one process.

A span is ``(call_id, name, start, end, parent)``.  Spans stay in memory and
are written out once, when the run ends.  A layer's *self* time is its span
duration minus the time its child spans cover.

Counts (exact integers: generated source bytes, table hits, driver names,
shard sizes, gen-2 collections) are gathered by hooks that look at a wrapped
call's arguments and result; they never time anything.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: A hook sees (tracer, positional args, result) after a wrapped call returns.
Hook = Callable[["Tracer", tuple, object], None]


def _driver_label(engine: str) -> str:
    """``sharded[fused]`` -> ``sharded-fused`` (metric names allow no brackets)."""
    return engine.replace("[", "-").replace("]", "")


def _count_source(tracer: "Tracer", args: tuple, description) -> None:
    tracer.count("dgen.generate.calls")
    tracer.count("dgen.source_bytes", len(description.source))


def _count_fused_source(tracer: "Tracer", args: tuple, fused) -> None:
    tracer.count("drmt.fused.source_bytes", len(fused.source))


def _count_rmt_driver(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count(f"engine.driver.{_driver_label(result.engine)}.calls")


def _count_drmt_result(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count(f"engine.driver.{_driver_label(result.engine)}.calls")
    for hits, misses in result.table_hits.values():
        tracer.count("drmt.tables.hits", hits)
        tracer.count("drmt.tables.misses", misses)


def _count_shards(tracer: "Tracer", args: tuple, plan) -> None:
    sizes = [len(assignment) for assignment in plan.assignments]
    tracer.count("engine.sharded.plans")
    for index, size in enumerate(sizes):
        tracer.count(f"engine.sharded.shard{index}.inputs", size)
    if sizes:
        tracer.imbalance.append(max(sizes) / (sum(sizes) / len(sizes)))


def _count_transport_fallback(tracer: "Tracer", args: tuple, result) -> None:
    # Only the shm transport can fall back (to pickle); it records why.
    if getattr(args[0], "last_fallback_reason", None):
        tracer.count("engine.transport.fallbacks")


#: (span name, module, attribute path, hook).  An attribute path with a dot
#: names a method on a class; a plain name is a module-level function, which
#: is replaced in every ``repro`` module that imported it by name.  A ``None``
#: span name installs the hook alone, so the entry's time stays with its
#: caller's span.
LAYERS: Tuple[Tuple[Optional[str], str, str, Optional[Hook]], ...] = (
    ("dgen.generate", "repro.dgen", "generate", _count_source),
    ("traffic.generate", "repro.traffic", "TrafficGenerator.generate", None),
    ("testing.spec_run", "repro.testing.spec", "Specification.run", None),
    ("testing.compare_traces", "repro.testing.equivalence", "compare_traces", None),
    ("dsim.rmt_simulator_run", "repro.dsim.simulator", "RMTSimulator.run", _count_rmt_driver),
    ("engine.rmt.prepare_inputs", "repro.engine.rmt", "prepare_inputs", None),
    ("engine.rmt.run_stage_loop", "repro.engine.rmt", "run_stage_loop", None),
    ("engine.result.sequential_result", "repro.engine.result", "sequential_result", None),
    ("drmt.generate_bundle", "repro.drmt.codegen", "generate_bundle", None),
    ("drmt.fused_program", "repro.drmt.codegen", "DrmtProgramBundle.fused_program", None),
    # fused_program() caches; count bytes only where generation really runs.
    (None, "repro.drmt.fused", "generate_fused", _count_fused_source),
    ("drmt.drmt_simulator_init", "repro.drmt.simulator", "DRMTSimulator.__init__", None),
    (
        "drmt.drmt_simulator_run_packets",
        "repro.drmt.simulator",
        "DRMTSimulator.run_packets",
        _count_drmt_result,
    ),
    ("engine.drmt.prepare_packets", "repro.engine.drmt", "prepare_packets", None),
    ("engine.drmt.run_fused", "repro.engine.drmt", "run_fused", None),
    ("engine.drmt.assemble_result", "repro.engine.drmt", "assemble_result", None),
    ("engine.sharded.plan_shards", "repro.engine.sharded", "plan_shards", _count_shards),
    ("engine.sharded.merge_pipeline_states", "repro.engine.sharded", "merge_pipeline_states", None),
    ("engine.sharded.gather", "repro.engine.sharded", "ShardPlan.gather", None),
    (
        "engine.transport.run_rmt_shards",
        "repro.engine.transport",
        "ShardTransport.run_rmt_shards",
        _count_transport_fallback,
    ),
)

#: Spans a workload adds around generated code (see ``Tracer.install``).
RUN_TRACE_SPAN = "engine.rmt.run_trace"

#: Every span name a traced run reports a ``self_s`` for.
SPAN_NAMES: Tuple[str, ...] = tuple(
    sorted({name for name, _module, _path, _hook in LAYERS if name} | {RUN_TRACE_SPAN, "call"})
)


class Tracer:
    """Span recorder plus the patch table that puts it around each layer."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self.call_id: object = None
        self.counts: Dict[str, int] = defaultdict(int)
        #: Counts of each traced set-up round, in order.
        self.setup_counts: List[Dict[str, int]] = []
        self.imbalance: List[float] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: Optional[str], function: Callable, hook: Optional[Hook] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            result = function(*args, **kwargs)
            hook(self, args, result)
            return result

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.call_id, name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper = hooked if name is None else traced
        wrapper.__wrapped__ = function
        return wrapper

    def run(self, name: str, function: Callable, *args):
        """Call ``function`` under a span named ``name`` (the per-call root)."""
        return self.wrap(name, function)(*args)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self, extra: Tuple[Tuple[dict, str, str], ...] = ()) -> None:
        """Wrap every layer entry point; ``extra`` adds (dict, key, span) entries."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, hook in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attribute = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._set(owner, attribute, self.wrap(name, original, hook), original)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, hook)
            # Rebind every ``from x import f`` copy inside the package too.
            for module_key, loaded in list(sys.modules.items()):
                if module_key.split(".")[0] != "repro" or loaded is None:
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attribute, wrapped, original)
        for namespace, key, name in extra:
            original = namespace[key]
            namespace[key] = self.wrap(name, original)
            self._restore.append((namespace, key, original))

    def _set(self, owner, attribute: str, value, original) -> None:
        setattr(owner, attribute, value)
        self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_seconds(self, select: Callable[[object], bool]) -> Dict[str, float]:
        """Total self time per span name over the spans whose call id passes ``select``."""
        child_time = [0.0] * len(self.spans)
        for _call_id, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (call_id, name, start, end, _parent) in enumerate(self.spans):
            if select(call_id):
                totals[name] += (end - start) - child_time[index]
        return totals

    def take_counts(self) -> Dict[str, int]:
        """Return the counts gathered since the last call and reset them."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts


class GcMonitor:
    """Collections and pause time seen through ``gc.callbacks`` while active."""

    def __init__(self):
        self.active = False
        self.gen2 = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
