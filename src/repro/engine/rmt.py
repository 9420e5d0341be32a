"""RMT drivers: tick-accurate, generic sequential, and fused.

All three drivers execute the same compiled pipeline description and — for
the feedforward pipelines dgen generates — produce bit-for-bit identical
results: each stage's state is touched in PHV arrival order under every
driver.  Each reads its inputs through :func:`prepare_inputs` and returns
through :func:`~repro.engine.result.sequential_result`; they differ only in
how much interpreter machinery sits on the hot path:

* :func:`run_tick` drives :class:`repro.dsim.pipeline.Pipeline`, the paper's
  §3.3 per-tick model (PHV objects, read/write-half commits, slot
  shuffling);
* :func:`run_generic` loops over the description's ``STAGE_FUNCTIONS``
  sequentially, one PHV at a time — no per-tick machinery, works at every
  optimisation level (this is the driver that speeds up opt levels 0-2 and
  the fuzzing workflow);
* :func:`run_fused` hands the whole trace to the generated ``run_trace``
  loop (opt level 3), where the driver itself is generated code.

The module-level helpers :func:`stage_pairs`, :func:`push_phv` and
:func:`run_stage_loop` are the generic driver's core; the Chipmunk CEGIS
candidate evaluator reuses them so synthesis and simulation share one
sequential execution path.

:class:`RmtShardHandle` is the sharded meta-driver's picklable view of a
compiled description: a :class:`~repro.dgen.emit.PipelineDescription` itself
carries an executed module namespace (functions created by ``exec``) and
cannot cross a process boundary, but its *source text* can — a handle ships
the source plus the resolved runtime values, and every worker compiles it
once into a process-local namespace cache.  The worker pool
(:mod:`repro.engine.transport`) pickles it next to each shard's trace slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..dgen.emit import PipelineDescription
from ..dsim.phv import PHV
from ..dsim.pipeline import Pipeline
from ..errors import MissingMachineCodeError, SimulationError
from .base import ENGINE_FUSED, ENGINE_GENERIC, ENGINE_TICK
from .result import SimulationResult, sequential_result, validate_widths

#: One stage's compiled function paired with its (mutable) state vectors.
StagePair = Tuple[Callable, List[List[int]]]


# ----------------------------------------------------------------------
# Generic-driver core (shared with the Chipmunk candidate evaluator)
# ----------------------------------------------------------------------
def stage_pairs(
    stage_functions: Sequence[Callable], state: List[List[List[int]]]
) -> List[StagePair]:
    """Pair each stage function with its state vectors for fast iteration."""
    return list(zip(stage_functions, state))


def push_phv(
    pairs: Sequence[StagePair], phv: Sequence[int], values: Optional[Dict[str, int]]
) -> Sequence[int]:
    """Push one PHV through every stage sequentially and return its outputs."""
    for function, stage_state in pairs:
        phv = function(phv, stage_state, values)
    return phv


def run_stage_loop(
    stage_functions: Sequence[Callable],
    inputs: Sequence[Sequence[int]],
    state: List[List[List[int]]],
    values: Optional[Dict[str, int]],
) -> List[Sequence[int]]:
    """The generic sequential driver: all PHVs through all stages, in order.

    Mutates ``state`` in place and returns one output container tuple per
    input PHV (each generated stage function returns a tuple).  Equivalent
    to the tick-accurate model for a feedforward pipeline, without any
    per-tick allocation.
    """
    pairs = stage_pairs(stage_functions, state)
    outputs: List[Sequence[int]] = []
    append = outputs.append
    try:
        for phv in inputs:
            for function, stage_state in pairs:
                phv = function(phv, stage_state, values)
            append(phv)
    except KeyError as error:
        # Unoptimised descriptions look machine code up at runtime; a missing
        # pair surfaces here (§5.2 failure class 1), as in the tick model.
        raise MissingMachineCodeError(str(error.args[0])) from error
    return outputs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_tick(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Tick-accurate driver: the paper's §3.3 per-tick pipeline model.

    The input trace is read by :func:`prepare_inputs` and the result built
    by :func:`sequential_result`, as under the sequential drivers; the
    exited PHVs become the output column.  The pipeline stays an
    independent reference: a PHV that exits out of input order, or a tick
    count other than the one the builder derives, raises
    :class:`SimulationError`.
    """
    inputs = prepare_inputs(description, phv_values)
    pipeline = Pipeline(
        description, runtime_values=runtime_values, initial_state=initial_state
    )
    exited: List[PHV] = pipeline.process(inputs)
    if len(exited) != len(inputs):
        raise SimulationError(
            f"pipeline emitted {len(exited)} PHVs for {len(inputs)} inputs"
        )
    for position, phv in enumerate(exited):
        if phv.phv_id != position:
            raise SimulationError(
                f"PHV {phv.phv_id} exited the pipeline in position {position}"
            )
    result = sequential_result(
        inputs, [phv.read for phv in exited], pipeline.state, description.spec.depth, ENGINE_TICK
    )
    if pipeline.current_tick != result.ticks:
        raise SimulationError(
            f"pipeline ran {pipeline.current_tick} ticks for {len(inputs)} inputs, "
            f"expected {result.ticks}"
        )
    return result


def prepare_inputs(
    description: PipelineDescription, phv_values: Sequence[Iterable[int]]
) -> List[Tuple[int, ...]]:
    """Read the input trace as one tuple of exact ``int`` per PHV and check widths.

    This is the one place an RMT input value is decided: a value is accepted
    when :func:`operator.index` accepts it (``int``, ``bool``, ``IntEnum``,
    ``numpy.int64``, ...) and stored as an exact ``int``; any other value
    (``float``, ``str``, ``None``, ``Decimal``) raises
    :class:`SimulationError` naming the PHV and the container.

    The column is the loop input, the output trace's input column and the
    source of the result's ``input_trace``.  Tuples keep it immutable, so the
    caller's rows can change after the run without touching the result, and
    a tuple of ints leaves the garbage collector's care at the first
    collection it survives, so a long trace adds nothing to later ones.

    When the trace is a ``list`` or ``tuple`` of ``list`` or ``tuple`` rows
    and every value's type is exactly ``int`` — the traffic generators'
    output — both checks and the copy run at C speed.  The container checks
    run first, so neither a one-shot trace nor a one-shot row is ever drained
    by the value-type check; any other trace (a generator, ``bool`` or
    ``IntEnum`` values, ``range`` or iterator rows, ...) is read into rows
    once and takes the single ``operator.index`` pass, and only a trace that
    fails it is scanned for the value to name.
    """
    if (
        type(phv_values) in (list, tuple)
        and set(map(type, phv_values)) <= {list, tuple}
        and set(map(type, chain.from_iterable(phv_values))) <= {int}
    ):
        work = list(map(tuple, phv_values))
    else:
        rows = list(map(tuple, phv_values))
        try:
            work = [tuple(map(index, values)) for values in rows]
        except TypeError:
            for number, values in enumerate(rows):
                for container, value in enumerate(values):
                    try:
                        index(value)
                    except TypeError:
                        raise SimulationError(
                            f"PHV {number} container {container}: "
                            f"{value!r} ({type(value).__name__}) is not an integer"
                        ) from None
            raise
    validate_widths(work, description.spec.width)
    return work


def run_generic(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Generic sequential driver over the description's stage functions."""
    work = prepare_inputs(description, phv_values)
    state = initial_state if initial_state is not None else description.initial_state()
    values = runtime_values if runtime_values is not None else description.runtime_values()
    outputs = run_stage_loop(description.stage_functions, work, state, values)
    return sequential_result(
        work, outputs, state, description.spec.depth, ENGINE_GENERIC
    )


def run_fused(
    description: PipelineDescription,
    phv_values: Sequence[Sequence[int]],
    runtime_values: Optional[Dict[str, int]],
    initial_state: Optional[List[List[List[int]]]],
) -> SimulationResult:
    """Fused driver: the generated ``run_trace`` loop (opt level 3)."""
    fused = description.fused_function
    if fused is None:
        raise SimulationError(
            "description carries no fused run_trace entry point "
            f"(opt level {description.opt_level})"
        )
    work = prepare_inputs(description, phv_values)
    state = initial_state if initial_state is not None else description.initial_state()
    values = runtime_values if runtime_values is not None else description.runtime_values()
    outputs = fused(work, state, values)
    return sequential_result(
        work, outputs, state, description.spec.depth, ENGINE_FUSED
    )


# ----------------------------------------------------------------------
# Shard-local execution (the sharded meta-driver's per-shard entry point)
# ----------------------------------------------------------------------
#: Process-local cache of executed description namespaces, keyed by source
#: text.  Seeded by the parent with the already-executed namespace, so the
#: in-process path (and, on fork platforms, every pool worker) never
#: recompiles; a spawn-started worker compiles each distinct source once.
_NAMESPACE_CACHE: Dict[str, Dict[str, object]] = {}


def _namespace_for(source: str) -> Dict[str, object]:
    namespace = _NAMESPACE_CACHE.get(source)
    if namespace is None:
        namespace = {"__name__": "druzhba_shard_description"}
        exec(compile(source, "<druzhba_shard_description>", "exec"), namespace)  # noqa: S102
        _NAMESPACE_CACHE[source] = namespace
    return namespace


@dataclass(frozen=True)
class RmtShardHandle:
    """Picklable handle to one compiled pipeline description.

    ``mode`` names the sequential driver the shard runs under
    (:data:`ENGINE_GENERIC` or :data:`ENGINE_FUSED`); ``values`` is the
    resolved runtime-values dict (needed by unoptimised descriptions that
    look machine code up at runtime).
    """

    source: str
    mode: str
    values: Dict[str, int] = field(default_factory=dict)

    def run(
        self, work: List[Tuple[int, ...]], state: List[List[List[int]]]
    ) -> Tuple[List[Sequence[int]], List[List[List[int]]]]:
        """Run one shard's PHVs to completion; returns (outputs, final state).

        ``work`` must already be width-validated and integer-coerced (the
        parent's :func:`prepare_inputs` did both before partitioning) and
        ``state`` is the shard's private state copy, mutated in place.
        """
        namespace = _namespace_for(self.source)
        if self.mode == ENGINE_FUSED:
            fused = namespace.get("RUN_TRACE")
            if not callable(fused):  # pragma: no cover - guarded at plan time
                raise SimulationError("shard handle source carries no RUN_TRACE")
            outputs = fused(work, state, self.values)
        else:
            functions = namespace.get("STAGE_FUNCTIONS")
            if not isinstance(functions, list):  # pragma: no cover - guarded at plan time
                raise SimulationError("shard handle source carries no STAGE_FUNCTIONS")
            outputs = run_stage_loop(functions, work, state, self.values)
        return outputs, state


def shard_handle(
    description: PipelineDescription,
    mode: str,
    values: Optional[Dict[str, int]] = None,
) -> RmtShardHandle:
    """Build the picklable shard handle for a description and seed the cache."""
    if mode not in (ENGINE_GENERIC, ENGINE_FUSED):
        raise SimulationError(f"shards run under generic or fused drivers, not {mode!r}")
    if mode == ENGINE_FUSED and description.fused_function is None:
        raise SimulationError(
            "description carries no fused run_trace entry point "
            f"(opt level {description.opt_level})"
        )
    _NAMESPACE_CACHE.setdefault(description.source, description.namespace)
    return RmtShardHandle(
        source=description.source,
        mode=mode,
        values=values if values is not None else description.runtime_values(),
    )
