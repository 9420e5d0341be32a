"""Shard execution: in process, or across a fork-preferred worker pool.

The sharded meta-driver (:mod:`repro.engine.sharded`) hands every shard's
trace slice and private state copy to :class:`ShardTransport`, which runs
them either sequentially in process or across a ``multiprocessing`` pool
whose pickle channel carries each payload (program handle + trace slice +
state copy) out and each result home.  Both paths produce bit-for-bit the
same per-shard results; the pool is a scheduling choice, never a semantics
choice.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Dict, List, Sequence, Tuple

__all__ = ["ShardTransport"]


def _picklable(handle) -> bool:
    try:
        pickle.dumps(handle)
        return True
    except Exception:
        return False


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
    handle, args = payload
    return handle.run(*args)


class ShardTransport:
    """Runs shards in process or across a pool, behind one entry point each.

    The pool engages only when more than one shard and worker are available,
    the trace is at least ``pool_threshold`` inputs long and the program
    handle is picklable; otherwise the shards run sequentially in process —
    same partition, same merge, bit-for-bit the same result.
    """

    @staticmethod
    def _run(handle, shard_args: List[Tuple], workers: int, total: int, pool_threshold: int):
        if (
            len(shard_args) > 1
            and workers > 1
            and total >= pool_threshold
            and _picklable(handle)
        ):
            payloads = [(handle, args) for args in shard_args]
            return _pool_map(_execute_shard, payloads, workers)
        return [handle.run(*args) for args in shard_args]

    def run_rmt_shards(
        self,
        handle,
        works: Sequence[List[List[int]]],
        states: Sequence[List[List[List[int]]]],
        workers: int,
        total: int,
        pool_threshold: int,
    ) -> List[Tuple]:
        """Run every RMT shard; returns one ``(outputs, final_state)`` per shard."""
        return self._run(handle, list(zip(works, states)), workers, total, pool_threshold)

    def run_drmt_shards(
        self,
        handle,
        works: Sequence[List[Dict[str, int]]],
        tables: Sequence[Dict[str, object]],
        arrays: Sequence[Dict[str, List[int]]],
        workers: int,
        total: int,
        pool_threshold: int,
    ) -> List[Tuple]:
        """Run every dRMT shard; returns ``(fields, dropped, arrays, hits)`` per shard."""
        return self._run(
            handle, list(zip(works, tables, arrays)), workers, total, pool_threshold
        )
