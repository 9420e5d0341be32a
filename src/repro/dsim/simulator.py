"""dsim: the RMT simulation driver (paper §3.3).

:class:`RMTSimulator` glues the pieces together: it takes a compiled pipeline
description (from dgen), an input PHV trace (usually from the traffic
generator), runs the feedforward pipeline, and returns the output trace
together with the final state vectors.

Execution is delegated to the unified engine layer (:mod:`repro.engine`),
whose :func:`~repro.engine.base.resolve_engine` picks one of four drivers:

* **tick** — the paper's §3.3 model: one PHV enters per tick, PHVs in flight
  advance one stage per tick with read/write-half commits.  Always
  available; the debugger records from this driver.  ``tick_accurate=True``
  forces it.
* **generic** — a sequential loop over the generated stage functions, one
  PHV at a time.  Bit-for-bit equivalent to the tick model for a
  feedforward pipeline and much faster (no per-tick allocation); available
  at every optimisation level and therefore the default below level 3.
* **fused** — the generated ``run_trace`` loop carried by descriptions
  produced at opt level 3, where the simulation driver itself is generated
  code.  The default whenever available.
* **sharded** — the meta-driver of :mod:`repro.engine.sharded`: the trace is
  partitioned into per-flow shards (``shard_key`` names the flow-identifying
  containers; without one, contiguous blocks valid only for state-free
  workloads), each shard runs under the fastest sequential driver — across a
  ``multiprocessing`` pool for large traces — and the results are merged
  back into input order under a state-conflict check.  ``engine="auto"``
  reaches for it automatically once the trace exceeds ``shard_threshold``
  inputs *and* sharding knobs (``shards=``/``workers=``/``shard_key=``) were
  configured, falling back to the unsharded driver when the merge detects a
  state conflict; ``engine="sharded"`` requests it explicitly and raises on
  conflict instead.

The ``engine`` constructor argument pins a driver explicitly (``"tick"``,
``"generic"``, ``"fused"``, ``"sharded"``) or leaves the choice to the
selection rules (``"auto"``).
"""

from __future__ import annotations

from collections.abc import Sized
from typing import Dict, List, Optional, Sequence

from ..engine.base import (
    DEFAULT_SHARD_AUTO_THRESHOLD,
    ENGINE_AUTO,
    ENGINE_GENERIC,
    ENGINE_SHARDED,
    ENGINE_TICK,
    ShardStateConflictError,
    ShardingConfig,
    check_flow_key,
    resolve_engine,
)
from ..engine.result import SimulationResult
from ..errors import SimulationError
from ..traffic import TrafficGenerator
from .pipeline import copy_state

__all__ = ["RMTSimulator", "SimulationResult"]


class RMTSimulator:
    """Runs PHV traces through a compiled pipeline description.

    ``shards``/``workers``/``shard_key`` configure the sharded meta-driver
    (see the module docstring); ``shard_threshold`` is the input count at
    which ``engine="auto"`` starts sharding and ``shard_pool_threshold`` the
    count below which shards run in process rather than across a pool.
    Knobs, ``shard_key`` included, are validated here rather than on the
    first trace long enough to shard.
    """

    def __init__(
        self,
        description,
        runtime_values: Optional[Dict[str, int]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        engine: str = ENGINE_AUTO,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        shard_key: Optional[Sequence[int]] = None,
        shard_threshold: int = DEFAULT_SHARD_AUTO_THRESHOLD,
        shard_pool_threshold: Optional[int] = None,
    ):
        self.description = description
        self.engine = engine
        self._runtime_values = runtime_values
        self._initial_state = initial_state
        self.sharding = ShardingConfig.from_knobs(
            engine, shards, workers, shard_key, shard_threshold, shard_pool_threshold
        )
        if shard_key is not None:
            check_flow_key(shard_key, description.spec.width)
        # Set once a conflict forced a fallback: auto stops attempting the
        # doomed sharded run (and its full-trace rerun) for this simulator.
        self._auto_shard_conflict = False

    def _run_sharded(self, phv_values: Sequence[Sequence[int]]) -> SimulationResult:
        from ..engine.sharded import ShardedRmtDriver

        sharding = self.sharding
        return ShardedRmtDriver(
            self.description,
            runtime_values=self._runtime_values,
            initial_state=copy_state(self._initial_state),
            shards=sharding.shards,
            workers=sharding.workers,
            key=sharding.key,
            pool_threshold=sharding.pool_threshold,
        ).run(phv_values)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self, phv_values: Sequence[Sequence[int]], tick_accurate: bool = False
    ) -> SimulationResult:
        """Simulate the pipeline on an explicit input trace.

        The driver follows the engine layer's selection rules: ``auto``
        dispatches to the description's fused ``run_trace`` entry point when
        one exists (opt level 3) and to the generic sequential driver
        otherwise; pass ``tick_accurate=True`` to force the per-tick model
        (used by the fused-vs-tick equivalence tests and the debugger).
        """
        from ..engine import rmt as drivers

        if not isinstance(phv_values, Sized):
            # The auto-shard rule needs the trace's length: read a one-shot
            # trace into rows once, before any driver sees it.
            phv_values = list(phv_values)
        mode = resolve_engine(
            self.engine,
            fused_available=self.description.fused_function is not None,
            tick_accurate=tick_accurate,
            context="pipeline description",
            sharded_available=self.sharding.configured,
            # A remembered conflict disables the auto selection (input size
            # unknown) without making an explicit request unavailable.
            input_size=None if self._auto_shard_conflict else len(phv_values),
            shard_threshold=self.sharding.threshold,
        )
        if mode == ENGINE_SHARDED:
            try:
                return self._run_sharded(phv_values)
            except ShardStateConflictError:
                if self.engine != ENGINE_AUTO:
                    raise
                # Remembered: later auto runs skip the doomed sharded attempt.
                self._auto_shard_conflict = True
            return self.run(phv_values)
        if mode == ENGINE_TICK:
            runner = drivers.run_tick
        elif mode == ENGINE_GENERIC:
            runner = drivers.run_generic
        else:
            runner = drivers.run_fused
        return runner(
            self.description, phv_values, self._runtime_values, copy_state(self._initial_state)
        )

    def run_traffic(self, generator: TrafficGenerator, count: int) -> SimulationResult:
        """Generate ``count`` random PHVs with ``generator`` and simulate them."""
        if generator.num_containers != self.description.spec.width:
            raise SimulationError(
                f"traffic generator produces {generator.num_containers} containers, "
                f"pipeline width is {self.description.spec.width}"
            )
        return self.run(generator.generate(count))
