"""Execution-engine protocol and driver-selection rules.

An *execution engine* runs a compiled program on an input trace.  The layer
recognises four drivers, forming a ladder from most faithful to fastest:

``tick``
    The cycle-accurate interpreter of the paper (§3.3 for RMT, §4.2 for
    dRMT).  Always available; the only driver the time-travel debugger's
    per-tick recorder can follow.
``generic``
    A sequential driver that loops over the compiled per-stage /
    per-operation functions with no per-tick bookkeeping.  Available at
    every optimisation level.
``fused``
    The generated ``run_trace`` loop (the driver itself is generated code).
    Available when the program was generated with a fused entry point.
``sharded``
    A meta-driver (:mod:`repro.engine.sharded`) that partitions the input
    trace into per-flow shards, runs every shard under the fastest
    sequential driver (fused, else generic) — across a ``multiprocessing``
    pool when the trace is large enough and the program picklable — and
    deterministically merges the per-shard results under the read-tracked
    state-conflict rule.  Available when the simulator facade was
    configured with sharding knobs (a :class:`ShardingConfig`).

:func:`resolve_engine` is the one selection rule every facade calls:
``auto`` resolves to the fastest available driver (sharded when configured
and the trace is at least :data:`DEFAULT_SHARD_AUTO_THRESHOLD` inputs long,
else fused, else generic, else tick); ``tick_accurate=True`` on a ``run``
call always forces the tick driver, no matter which engine the simulator was
configured with.  :func:`run_sharded_or_fall_back` is the one place ``auto``
recovers from a shard-state conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Tuple, TypeVar, runtime_checkable

from ..errors import SimulationError

#: Engine names accepted by every simulator facade.
ENGINE_AUTO = "auto"
ENGINE_TICK = "tick"
ENGINE_GENERIC = "generic"
ENGINE_FUSED = "fused"
ENGINE_SHARDED = "sharded"
ENGINE_CHOICES = (ENGINE_AUTO, ENGINE_TICK, ENGINE_GENERIC, ENGINE_FUSED, ENGINE_SHARDED)

#: ``auto`` only reaches for the sharded meta-driver at or above this many
#: inputs: below it the partition/merge overhead (and, across a pool, the
#: per-worker program compilation) dominates any win.
DEFAULT_SHARD_AUTO_THRESHOLD = 200_000

#: Shard count used when a facade enables sharding without choosing one.
DEFAULT_SHARDS = 4

#: Below this many inputs the pool is never engaged: shards run in process
#: (same partition, same merge — bit-for-bit the pool path's result).
DEFAULT_POOL_THRESHOLD = 100_000


@runtime_checkable
class ExecutionEngine(Protocol):
    """The common contract every simulator facade satisfies.

    ``run`` takes the architecture's input trace (PHV container lists for
    RMT, packet field dicts for dRMT) and returns a simulation result whose
    ``engine`` attribute names the driver that actually executed the trace.
    """

    def run(self, inputs: Sequence, tick_accurate: bool = False):  # pragma: no cover - protocol
        """Simulate ``inputs``; ``tick_accurate=True`` forces the tick driver."""
        ...


class ShardStateConflictError(SimulationError):
    """Two shards touched the same state cell (or a blind partition saw a write).

    ``key`` addresses the conflicting cell (``(stage, slot, var)`` on the RMT
    side, ``(register, index)`` on the dRMT side); ``shards`` are the shard
    indices involved.
    """

    def __init__(self, message: str, key: Tuple = (), shards: Tuple[int, ...] = ()):
        super().__init__(message)
        self.key = key
        self.shards = shards


@dataclass(frozen=True)
class ShardingConfig:
    """A facade's sharding knobs, validated and defaulted once.

    ``configured`` says whether the sharded driver is available to the
    facade: some knob was set, or ``engine="sharded"`` was requested.
    ``key`` is the flow key (PHV containers on RMT, packet fields on dRMT);
    ``None`` lets the driver derive one (dRMT) or block-partition (RMT).
    ``threshold`` is the input count at which ``auto`` starts sharding and
    ``pool_threshold`` the count below which shards run in process.
    """

    configured: bool
    shards: int
    workers: Optional[int]
    key: Optional[Tuple]
    threshold: int
    pool_threshold: int

    @classmethod
    def from_knobs(
        cls,
        engine: str,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        key: Optional[Sequence] = None,
        threshold: Optional[int] = None,
        pool_threshold: Optional[int] = None,
    ) -> "ShardingConfig":
        """Validate a facade's keyword knobs (``None`` = default)."""
        if shards is not None and shards < 1:
            raise SimulationError(f"shard count must be at least 1, got {shards}")
        if workers is not None and workers < 1:
            raise SimulationError(f"worker count must be at least 1, got {workers}")
        return cls(
            configured=engine == ENGINE_SHARDED
            or any(knob is not None for knob in (shards, workers, key)),
            shards=DEFAULT_SHARDS if shards is None else shards,
            workers=workers,
            key=None if key is None else tuple(key),
            threshold=DEFAULT_SHARD_AUTO_THRESHOLD if threshold is None else threshold,
            pool_threshold=DEFAULT_POOL_THRESHOLD if pool_threshold is None else pool_threshold,
        )


Result = TypeVar("Result")


def run_sharded_or_fall_back(
    simulator, run_sharded: Callable[[], Result], rerun: Callable[[], Result]
) -> Result:
    """The one auto-conflict fallback, shared by every sharding facade.

    An explicit ``engine="sharded"`` propagates a
    :class:`ShardStateConflictError`.  Under ``auto`` the conflict is
    remembered on ``simulator._auto_shard_conflict`` — later runs skip the
    doomed sharded attempt — and ``rerun`` executes the trace unsharded.
    """
    try:
        return run_sharded()
    except ShardStateConflictError:
        if simulator.engine != ENGINE_AUTO:
            raise
        simulator._auto_shard_conflict = True
    return rerun()


def available_engines(
    fused_available: bool, sharded_available: bool = False
) -> tuple:
    """The drivers a compiled program can actually run under, in ladder order."""
    available = [ENGINE_TICK, ENGINE_GENERIC]
    if fused_available:
        available.append(ENGINE_FUSED)
    if sharded_available:
        available.append(ENGINE_SHARDED)
    return tuple(available)


def resolve_engine(
    requested: str,
    fused_available: bool,
    tick_accurate: bool = False,
    context: str = "pipeline",
    sharded_available: bool = False,
    input_size: Optional[int] = None,
    shard_threshold: int = DEFAULT_SHARD_AUTO_THRESHOLD,
    generic_available: bool = True,
) -> str:
    """Resolve a requested engine name to a concrete driver.

    Selection rules:

    * ``tick_accurate=True`` always wins and selects ``tick``;
    * ``auto`` selects ``sharded`` when the facade carries a sharding
      configuration (``sharded_available``), the trace is known to hold at
      least ``shard_threshold`` inputs and a sequential driver exists for the
      shards; else ``fused`` when the compiled program carries a fused entry
      point; else ``generic`` when ``generic_available`` (dRMT gates it on
      the run-to-completion hazard analysis); otherwise ``tick``;
    * ``fused`` or ``sharded`` requested explicitly raises
      :class:`SimulationError` when unavailable (instead of silently
      degrading), naming the drivers that *are* available for the program.
      ``generic_available`` gates ``auto`` only: an explicit ``generic``
      request reaches the driver, which refuses an unsafe program itself
      and names the hazard.
    """
    if requested not in ENGINE_CHOICES:
        raise SimulationError(
            f"unknown engine {requested!r}; choose one of {', '.join(ENGINE_CHOICES)}"
        )
    if tick_accurate:
        return ENGINE_TICK
    if requested == ENGINE_AUTO:
        if (
            sharded_available
            and (fused_available or generic_available)
            and input_size is not None
            and input_size >= shard_threshold
        ):
            return ENGINE_SHARDED
        if fused_available:
            return ENGINE_FUSED
        return ENGINE_GENERIC if generic_available else ENGINE_TICK
    available = available_engines(fused_available, sharded_available)
    if requested not in available:
        hint = (
            "generate at opt level 3, or use engine='auto'"
            if requested == ENGINE_FUSED
            else "configure the simulator with shards=/workers=, or use engine='auto'"
        )
        reason = (
            "carries no fused run_trace entry point"
            if requested == ENGINE_FUSED
            else "has no sharding configuration"
        )
        raise SimulationError(
            f"the {requested} engine was requested but this {context} {reason} "
            f"({hint}); available drivers for this {context}: {', '.join(available)}"
        )
    return requested
