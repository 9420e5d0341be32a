"""The unified execution-engine layer.

Both switch architectures of the paper — the RMT pipeline (§3) and dRMT's
run-to-completion processors (§4) — execute compiled programs through the
same driver ladder:

* **tick** — the paper's cycle-accurate interpreters (``dsim.Pipeline`` for
  RMT, the round-robin processor loop for dRMT).  Always available; the
  debugger records from this driver.
* **generic** — a sequential driver that loops over the compiled stage
  functions without any per-tick machinery.  RMT only: it works at every
  optimisation level (it is what speeds up opt levels 0-2 and the fuzzing
  workflow) and produces bit-for-bit the tick driver's results for
  feedforward programs.  dRMT has no generic driver.
* **fused** — the generated ``run_trace`` loop emitted by dgen (RMT opt
  level 3, and the dRMT fused program), where the driver itself is generated
  code.
* **sharded** — RMT only: a meta-driver (:mod:`repro.engine.sharded`) that
  hash-partitions the trace per flow, runs each shard under fused (or
  generic below opt level 3), in process or across a worker pool, and
  merges the results under a state-conflict check.

:func:`repro.engine.base.resolve_engine` is the one selection rule both
facades call (``auto`` prefers sharded when the RMT facade is configured
for it and the trace is large, then fused, then generic where it exists,
then tick; ``tick_accurate=True`` always forces the tick driver).  Both
facades — :class:`repro.dsim.RMTSimulator` and
:class:`repro.drmt.DRMTSimulator` — satisfy the
:class:`~repro.engine.base.ExecutionEngine` protocol: a common
``run(inputs, tick_accurate=False)`` contract returning a simulation result
that names the driver that produced it.
"""

from .base import (
    DEFAULT_SHARD_AUTO_THRESHOLD,
    ENGINE_AUTO,
    ENGINE_CHOICES,
    ENGINE_FUSED,
    ENGINE_GENERIC,
    ENGINE_SHARDED,
    ENGINE_TICK,
    ExecutionEngine,
    ShardingConfig,
    available_engines,
    resolve_engine,
)
from .result import SimulationResult, sequential_result
from .rmt import push_phv, run_stage_loop, stage_pairs
from .sharded import (
    ShardedRmtDriver,
    ShardPlan,
    ShardStateConflictError,
    plan_shards,
    stable_flow_hash,
)
from .transport import ShardTransport

__all__ = [
    "ENGINE_AUTO",
    "ENGINE_TICK",
    "ENGINE_GENERIC",
    "ENGINE_FUSED",
    "ENGINE_SHARDED",
    "ENGINE_CHOICES",
    "DEFAULT_SHARD_AUTO_THRESHOLD",
    "ExecutionEngine",
    "ShardingConfig",
    "available_engines",
    "resolve_engine",
    "SimulationResult",
    "sequential_result",
    "stage_pairs",
    "push_phv",
    "run_stage_loop",
    "ShardPlan",
    "ShardStateConflictError",
    "ShardedRmtDriver",
    "plan_shards",
    "stable_flow_hash",
    "ShardTransport",
]
