"""Shard execution: in process, or across a fork-preferred worker pool.

The sharded meta-driver (:mod:`repro.engine.sharded`) hands every shard's
trace slice and private state copy to :class:`ShardTransport`, which runs
them either sequentially in process or across a ``multiprocessing`` pool
whose pickle channel carries each payload (program handle + trace slice +
state copy) out and each result home.  Both paths produce bit-for-bit the
same per-shard results; the pool is a scheduling choice, never a semantics
choice.  A payload that fails to pickle is a bug and raises from the pool.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Sequence, Tuple

__all__ = ["ShardTransport"]


def _pool_map(function, payloads: Sequence, workers: int) -> List:
    """Run ``function`` over ``payloads`` across a fork-preferred pool."""
    methods = multiprocessing.get_all_start_methods()
    # Fork inherits the parent's compiled-namespace caches, sparing every
    # worker the per-process recompilation that spawn pays once per source.
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with context.Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(function, payloads, chunksize=1)


def _execute_shard(payload: Tuple) -> Tuple:
    """Pool entry point: run one shard through its handle."""
    handle, work, state = payload
    return handle.run(work, state)


class ShardTransport:
    """Runs RMT shards in process or across a pool, behind one entry point.

    The pool engages only when more than one shard and worker are available
    and the trace is at least ``pool_threshold`` inputs long; otherwise the
    shards run sequentially in process — same partition, same merge,
    bit-for-bit the same result.
    """

    def run_rmt_shards(
        self,
        handle,
        works: Sequence[List[Tuple[int, ...]]],
        states: Sequence[List[List[List[int]]]],
        workers: int,
        total: int,
        pool_threshold: int,
    ) -> List[Tuple]:
        """Run every RMT shard; returns one ``(outputs, final_state)`` per shard."""
        if len(works) > 1 and workers > 1 and total >= pool_threshold:
            payloads = [(handle, work, state) for work, state in zip(works, states)]
            return _pool_map(_execute_shard, payloads, workers)
        return [handle.run(work, state) for work, state in zip(works, states)]
