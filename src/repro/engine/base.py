"""Execution-engine protocol and driver-selection rules.

An *execution engine* runs a compiled program on an input trace.  The layer
recognises four drivers, forming a ladder from most faithful to fastest:

``tick``
    The cycle-accurate interpreter of the paper (§3.3 for RMT, §4.2 for
    dRMT).  Always available; the only driver the time-travel debugger's
    per-tick recorder can follow.
``generic``
    A sequential driver that loops over the compiled per-stage functions
    with no per-tick bookkeeping.  Available for RMT pipeline descriptions
    at every optimisation level; dRMT has no generic driver.
``fused``
    The generated ``run_trace`` loop (the driver itself is generated code).
    Available when the program was generated with a fused entry point: an
    RMT description at opt level 3, a dRMT bundle whose schedule proves
    running each packet to completion safe (no register hazard).
``sharded``
    A meta-driver (:mod:`repro.engine.sharded`) that partitions an RMT input
    trace into per-flow shards, runs every shard under the fastest
    sequential driver (fused, else generic) — across a ``multiprocessing``
    pool when the trace is large enough — and deterministically merges the
    per-shard results under the read-tracked state-conflict rule.  Available
    only on :class:`repro.dsim.RMTSimulator`, once configured with sharding
    knobs (a :class:`ShardingConfig`); dRMT has no sharded driver.

:func:`resolve_engine` is the one selection rule every facade calls:
``auto`` resolves to the fastest available driver (sharded when configured
and the trace is at least :data:`DEFAULT_SHARD_AUTO_THRESHOLD` inputs long,
else fused, else generic where the architecture has one, else tick);
``tick_accurate=True`` on a ``run`` call always forces the tick driver, no
matter which engine the simulator was configured with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple, runtime_checkable

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

    ``key`` addresses the conflicting ``(stage, slot, var)`` cell; ``shards``
    are the shard indices involved.
    """

    def __init__(self, message: str, key: Tuple = (), shards: Tuple[int, ...] = ()):
        super().__init__(message)
        self.key = key
        self.shards = shards


@dataclass(frozen=True)
class ShardingConfig:
    """The RMT facade's sharding knobs, validated and defaulted once.

    ``configured`` says whether the sharded driver is available to the
    facade: some knob was set, or ``engine="sharded"`` was requested.
    ``key`` is the flow key (PHV container indices, checked against the
    pipeline width by :func:`check_flow_key`); ``None`` block-partitions.
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
        """Validate the facade's keyword knobs (``None`` = default)."""
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


def check_flow_key(key: Optional[Sequence[int]], width: int) -> Optional[Tuple[int, ...]]:
    """An RMT flow key as PHV container indices, checked against ``width``.

    ``None`` (no key: block partitioning) passes through.  The facade calls
    this at construction and the sharded driver again on its own ``key``, so
    a bad key fails before any trace runs.
    """
    if key is None:
        return None
    containers = tuple(int(container) for container in key)
    for container in containers:
        if not 0 <= container < width:
            raise SimulationError(
                f"flow-key container {container} out of range for width {width}"
            )
    if not containers:
        raise SimulationError("an explicit flow key needs at least one container")
    return containers


def available_engines(
    fused_available: bool, sharded_available: bool = False, generic_available: bool = True
) -> tuple:
    """The drivers a compiled program can actually run under, in ladder order."""
    available = [ENGINE_TICK]
    if generic_available:
        available.append(ENGINE_GENERIC)
    if fused_available:
        available.append(ENGINE_FUSED)
    if sharded_available:
        available.append(ENGINE_SHARDED)
    return tuple(available)


#: Why an explicitly requested driver is unavailable, and what to do instead.
_UNAVAILABLE = {
    ENGINE_GENERIC: ("has no generic driver", "use engine='fused', or engine='auto'"),
    ENGINE_FUSED: (
        "carries no fused run_trace entry point",
        "generate at opt level 3, or use engine='auto'",
    ),
    ENGINE_SHARDED: (
        "has no sharding configuration",
        "only RMTSimulator shards traces; use engine='auto'",
    ),
}


def resolve_engine(
    requested: str,
    fused_available: bool,
    tick_accurate: bool = False,
    context: str = "pipeline",
    sharded_available: bool = False,
    input_size: Optional[int] = None,
    shard_threshold: int = DEFAULT_SHARD_AUTO_THRESHOLD,
    generic_available: bool = True,
    fused_unavailable_reason: Optional[str] = None,
) -> str:
    """Resolve a requested engine name to a concrete driver.

    Selection rules:

    * ``tick_accurate=True`` always wins and selects ``tick``;
    * ``auto`` selects ``sharded`` when the facade carries a sharding
      configuration (``sharded_available``), the trace is known to hold at
      least ``shard_threshold`` inputs and a sequential driver exists for the
      shards; else ``fused`` when the compiled program carries a fused entry
      point; else ``generic`` when ``generic_available``; otherwise ``tick``;
    * ``generic``, ``fused`` or ``sharded`` requested explicitly raises
      :class:`SimulationError` when unavailable (instead of silently
      degrading), naming the drivers that *are* available for the program.

    ``generic_available`` says whether the architecture has a generic driver
    at all: RMT facades leave it ``True``, dRMT passes ``False``.
    ``fused_unavailable_reason`` is why ``fused_available`` is false when the
    facade knows (a dRMT register hazard); it replaces the RMT opt-level
    hint in the error.
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
    available = available_engines(fused_available, sharded_available, generic_available)
    if requested not in available:
        reason, hint = _UNAVAILABLE[requested]
        if requested == ENGINE_FUSED and fused_unavailable_reason is not None:
            reason, hint = f"has no fused driver: {fused_unavailable_reason}", "use engine='auto'"
        raise SimulationError(
            f"the {requested} engine was requested but this {context} {reason} "
            f"({hint}); available drivers for this {context}: {', '.join(available)}"
        )
    return requested
