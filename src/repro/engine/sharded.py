"""The sharded meta-driver: per-flow partitioning for very large traces.

``run_trace`` — under every sequential driver — is single-threaded, so a
>1M-PHV workload is bounded by one core.  This module adds a scaling seam:
a driver satisfying the :class:`ExecutionEngine` contract that

1. **partitions** the input trace into shards — by a stable hash of the
   *state-indexing fields* (the flow key) so each shard owns its slice of
   the program state, or into contiguous blocks when no key applies;
2. **fans the shards out** across a ``multiprocessing`` pool, each shard
   running under a wrapped sequential driver (generic or fused on RMT, the
   fused loop on dRMT) on a private copy of the program state — with a
   sequential in-process fallback for unpicklable programs and for traces
   below a configurable size threshold, where pool overhead would dominate;
3. **deterministically merges** the per-shard results: output PHVs/packets
   are restored to input order, and the per-stage / per-register state is
   merged cell by cell under a conflict check.

The conflict check is the driver's safety net against common contract
violations, not a proof: it compares every shard's *final* state against
the initial state, so it observes neither reads nor writes that net back to
a cell's initial value (a shard that writes 7 and later restores 0 looks
untouched).  A flow key therefore carries a real contract — every read and
write of a state cell happens in the cell's owner flow — and the merge
rules below reject the violations that final values can reveal.

* Under a **flow key**, a cell changed by two different shards means two
  flows share that state — their tick/generic interleaving cannot be
  reproduced shard-locally, so the merge raises
  :class:`ShardStateConflictError` (which a facade running under
  ``engine="auto"`` turns into an unsharded rerun, see
  :func:`repro.engine.base.run_sharded_or_fall_back`).
* A shard that merely *reads* state another shard wrote is invisible to a
  write-based check, so on the RMT side the merge consults the static
  read-set analysis (:mod:`repro.machine_code.readsets`): a state cell whose
  value the machine code routes into a PHV container is read by *every*
  packet, and any write to such an exposed cell by any shard is a conflict.
  Cells the machine code never exposes keep the one-writer flow rule, so
  programs that expose only read-only cells (configuration thresholds)
  shard legally.  On the dRMT side the read-set analysis lives in shard-key
  derivation: accesses to registers no action writes are ignored
  (read-only cells cannot change), and an *explicit* ``shard_key`` carries
  the contract that register cells are flow-owned for reads as well as
  writes; the automatically derived key needs no contract at all — it is
  restricted to the single-field, uniform-size case where cell-sharing
  packets co-shard by construction.
* Under **block partitioning** (no key), there is no ownership contract at
  all, so *any* state write is a conflict: only programs whose state
  provably never changes (stateless workloads) may be split blindly.

A shard of one — or an empty trace — degrades to the wrapped driver running
in process, so ``sharded`` is always safe to request explicitly.  Whether
the shards run in process or across a pool is
:class:`repro.engine.transport.ShardTransport`'s decision.
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import DruzhbaError, SimulationError
from ..machine_code import readsets
from .base import (
    DEFAULT_POOL_THRESHOLD,
    DEFAULT_SHARDS,
    ENGINE_FUSED,
    ENGINE_GENERIC,
    ENGINE_SHARDED,
    ShardStateConflictError,
)
from . import drmt as drmt_drivers
from . import rmt as rmt_drivers
from .result import SimulationResult, sequential_result
from .transport import ShardTransport

__all__ = [
    "DEFAULT_POOL_THRESHOLD",
    "DEFAULT_SHARDS",
    "ShardPlan",
    "ShardStateConflictError",
    "ShardedRmtDriver",
    "ShardedDrmtDriver",
    "plan_shards",
    "stable_flow_hash",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stable_flow_hash(values: Sequence[int]) -> int:
    """FNV-1a over the flow-key values, stable across processes and runs.

    ``hash()`` is salted per interpreter (``PYTHONHASHSEED``), which would
    make the shard assignment — and therefore any conflict diagnostics —
    irreproducible; this fold is deterministic everywhere.
    """
    folded = _FNV_OFFSET
    for value in values:
        value = int(value) & _MASK64
        while True:
            folded = ((folded ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
            value >>= 8
            if not value:
                break
    return folded


class ShardPlan:
    """One partitioning decision: which original indices each shard owns."""

    def __init__(self, mode: str, assignments: Sequence[Sequence[int]]):
        self.mode = mode  # "flow" (keyed) or "block" (contiguous)
        self.assignments: List[Tuple[int, ...]] = [
            tuple(assignment) for assignment in assignments if assignment
        ]

    def __len__(self) -> int:
        return len(self.assignments)

    def scatter(self, items: Sequence) -> List[List]:
        """Per-shard item lists, preserving each shard's original order."""
        return [[items[index] for index in assignment] for assignment in self.assignments]

    def gather(self, total: int, per_shard: Sequence[Sequence]) -> List:
        """Restore per-shard outputs to original input order."""
        merged: List = [None] * total
        for assignment, outputs in zip(self.assignments, per_shard):
            if len(assignment) != len(outputs):
                raise SimulationError(
                    f"shard returned {len(outputs)} outputs for {len(assignment)} inputs"
                )
            for index, output in zip(assignment, outputs):
                merged[index] = output
        return merged


def plan_shards(
    total: int, shards: int, keys: Optional[Sequence[int]] = None
) -> ShardPlan:
    """Partition ``total`` inputs into at most ``shards`` shards.

    With ``keys`` (one stable hash per input), inputs bucket by
    ``key % shards`` — every input of one flow lands in one shard, in trace
    order, however its packets interleave with other flows.  Without keys
    the trace splits into contiguous blocks.
    """
    if shards < 1:
        raise SimulationError(f"shard count must be at least 1, got {shards}")
    if keys is None:
        block = max(1, math.ceil(total / shards))
        return ShardPlan(
            "block", [range(start, min(start + block, total)) for start in range(0, total, block)]
        )
    if len(keys) != total:
        raise SimulationError("one flow key per input is required")
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for index, key in enumerate(keys):
        buckets[key % shards].append(index)
    return ShardPlan("flow", buckets)


# ----------------------------------------------------------------------
# State merging
# ----------------------------------------------------------------------
def _merge_cells(
    initial_cells: Dict[Tuple, int],
    shard_cells: Sequence[Dict[Tuple, int]],
    strict_reason: Optional[str],
    context: str,
    exposed_slots: FrozenSet[Tuple[int, int]] = frozenset(),
) -> Dict[Tuple, int]:
    """Merge per-shard final cell values under the conflict check.

    With ``strict_reason`` set, *any* changed cell is a conflict (the reason
    explains why other shards may have observed the cell).  Otherwise the
    read-tracked flow-key rule applies per cell: a cell whose ``key[:2]``
    prefix appears in ``exposed_slots`` (the static read set — its value is
    routed into packet outputs, so every shard reads it) must not change at
    all, and every other cell may change in at most one shard.
    """
    merged = dict(initial_cells)
    owners: Dict[Tuple, int] = {}
    for shard, cells in enumerate(shard_cells):
        for key, value in cells.items():
            if value == initial_cells[key]:
                continue
            if strict_reason is not None:
                raise ShardStateConflictError(
                    f"shard {shard} changed {context} state cell {key}, but "
                    f"{strict_reason}; run unsharded (engine='auto' falls back "
                    "automatically)",
                    key=key,
                    shards=(shard,),
                )
            if key[:2] in exposed_slots:
                raise ShardStateConflictError(
                    f"shard {shard} changed {context} state cell {key}, but the "
                    "machine code routes stateful ALU outputs of that cell into a "
                    "PHV container, so packets in every shard read it into their "
                    "outputs; run unsharded (engine='auto' falls back "
                    "automatically)",
                    key=key,
                    shards=(shard,),
                )
            owner = owners.get(key)
            if owner is not None:
                raise ShardStateConflictError(
                    f"{context} state cell {key} was written by shards {owner} and "
                    f"{shard}: the flow key does not partition this program's "
                    "state, so a sharded run cannot reproduce the sequential "
                    "interleaving; run unsharded (engine='auto' falls back "
                    "automatically)",
                    key=key,
                    shards=(owner, shard),
                )
            owners[key] = shard
            merged[key] = value
    return merged


#: Strict-merge reason used when the trace was split without a flow key.
BLOCK_PARTITION_REASON = (
    "block partitioning (no flow key) gives no shard ownership of state, so "
    "other shards may have read the cell"
)


def _pipeline_cells(state: Sequence[Sequence[Sequence[int]]]) -> Dict[Tuple, int]:
    """Flatten ``[stage][slot][var]`` pipeline state into addressed cells."""
    return {
        (stage, slot, var): value
        for stage, vectors in enumerate(state)
        for slot, variables in enumerate(vectors)
        for var, value in enumerate(variables)
    }


def merge_pipeline_states(
    initial: List[List[List[int]]],
    shard_states: Sequence[Sequence[Sequence[Sequence[int]]]],
    strict_reason: Optional[str],
    exposed_slots: FrozenSet[Tuple[int, int]] = frozenset(),
) -> List[List[List[int]]]:
    """Merge RMT per-stage state vectors; raises on a shard conflict.

    ``exposed_slots`` is the static read set (:mod:`repro.machine_code.readsets`):
    ``(stage, slot)`` cells whose state the machine code routes into PHV
    containers.  Writes to them conflict regardless of the flow key.
    """
    merged_cells = _merge_cells(
        _pipeline_cells(initial), [_pipeline_cells(state) for state in shard_states],
        strict_reason, "pipeline", exposed_slots,
    )
    return [
        [
            [merged_cells[(stage, slot, var)] for var in range(len(variables))]
            for slot, variables in enumerate(vectors)
        ]
        for stage, vectors in enumerate(initial)
    ]


def _register_cells(arrays: Dict[str, Sequence[int]]) -> Dict[Tuple, int]:
    """Flatten register arrays into addressed cells."""
    return {
        (name, index): value
        for name, array in arrays.items()
        for index, value in enumerate(array)
    }


def merge_register_states(
    initial: Dict[str, List[int]],
    shard_arrays: Sequence[Dict[str, Sequence[int]]],
    strict_reason: Optional[str],
) -> Dict[str, List[int]]:
    """Merge dRMT register arrays; raises on a shard conflict."""
    merged_cells = _merge_cells(
        _register_cells(initial), [_register_cells(arrays) for arrays in shard_arrays],
        strict_reason, "register",
    )
    return {
        name: [merged_cells[(name, index)] for index in range(len(array))]
        for name, array in initial.items()
    }


# ----------------------------------------------------------------------
# Shard execution (pool or in-process; see repro.engine.transport)
# ----------------------------------------------------------------------
def resolve_workers(workers: Optional[int], shards: int) -> int:
    """Effective worker count: never more than shards or available cores."""
    if workers is not None:
        if workers < 1:
            raise SimulationError(f"worker count must be at least 1, got {workers}")
        return min(workers, shards)
    return max(1, min(shards, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# RMT sharded driver
# ----------------------------------------------------------------------
class ShardedRmtDriver:
    """Sharded execution of a compiled pipeline description.

    Satisfies the :class:`~repro.engine.base.ExecutionEngine` contract and
    wraps the fastest sequential driver available for the description (the
    fused ``run_trace`` at opt level 3, else the generic stage loop).

    ``key`` names the PHV containers whose values identify a flow (the
    state-indexing fields); ``key=None`` selects contiguous block
    partitioning, valid only for workloads that never write state (the merge
    enforces this).  A merge conflict raises
    :class:`ShardStateConflictError`.
    """

    def __init__(
        self,
        description,
        runtime_values: Optional[Dict[str, int]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        shards: int = DEFAULT_SHARDS,
        workers: Optional[int] = None,
        key: Optional[Sequence[int]] = None,
        pool_threshold: int = DEFAULT_POOL_THRESHOLD,
    ):
        self.description = description
        self.shards = shards
        self.workers = resolve_workers(workers, shards)
        self.pool_threshold = pool_threshold
        self._values = (
            runtime_values if runtime_values is not None else description.runtime_values()
        )
        # The exposure check must see the machine code that actually executes:
        # baked-in pairs at opt levels 1+, the runtime dict at level 0.
        self._exposure_values = dict(description.runtime_values())
        self._exposure_values.update(self._values or {})
        self._initial_state = initial_state
        self.inner_mode = (
            ENGINE_FUSED if description.fused_function is not None else ENGINE_GENERIC
        )
        width = description.spec.width
        if key is not None:
            key = tuple(int(container) for container in key)
            for container in key:
                if not 0 <= container < width:
                    raise SimulationError(
                        f"flow-key container {container} out of range for width {width}"
                    )
            if not key:
                raise SimulationError("an explicit flow key needs at least one container")
        self.key = key

    @property
    def engine_name(self) -> str:
        """The driver name reported on results (``sharded[<inner>]``)."""
        return f"{ENGINE_SHARDED}[{self.inner_mode}]"

    def _run_unsharded(self, phv_values, initial_state) -> SimulationResult:
        runner = (
            rmt_drivers.run_fused
            if self.inner_mode == ENGINE_FUSED
            else rmt_drivers.run_generic
        )
        return runner(self.description, phv_values, self._values, initial_state)

    def run(
        self, phv_values: Sequence[Sequence[int]], tick_accurate: bool = False
    ) -> SimulationResult:
        """Simulate the trace sharded; bit-for-bit the wrapped driver's result."""
        if tick_accurate:
            raise SimulationError(
                "the sharded driver has no tick-accurate mode; request the tick engine"
            )
        description = self.description
        inputs, work = rmt_drivers.prepare_inputs(description, phv_values)
        base_state = (
            self._initial_state
            if self._initial_state is not None
            else description.initial_state()
        )
        keys = None
        if self.key is not None:
            keys = [
                stable_flow_hash([phv[container] for container in self.key])
                for phv in work
            ]
        plan = plan_shards(len(work), self.shards, keys)
        if len(plan) <= 1:
            result = self._run_unsharded(inputs, _copy_state(base_state))
            result.engine = self.engine_name
            return result

        handle = rmt_drivers.shard_handle(description, self.inner_mode, self._values)
        shard_works = plan.scatter(work)
        shard_states = [_copy_state(base_state) for _ in range(len(plan))]
        results = ShardTransport().run_rmt_shards(
            handle, shard_works, shard_states, self.workers, len(work), self.pool_threshold
        )
        if keys is None:
            strict_reason: Optional[str] = BLOCK_PARTITION_REASON
            exposed_slots: FrozenSet[Tuple[int, int]] = frozenset()
        else:
            strict_reason = None
            # The static read set: cells whose state the machine code routes
            # into packet outputs.  Writes to them conflict under any key.
            exposed_slots = readsets.exposed_state_slots(
                description.spec, self._exposure_values
            )
        merged_state = merge_pipeline_states(
            base_state,
            [state for _outputs, state in results],
            strict_reason,
            exposed_slots,
        )
        outputs = plan.gather(len(work), [outputs for outputs, _state in results])
        return sequential_result(
            inputs, outputs, merged_state, description.spec.depth, self.engine_name
        )


def _copy_state(state: List[List[List[int]]]) -> List[List[List[int]]]:
    return [[list(variables) for variables in vectors] for vectors in state]


# ----------------------------------------------------------------------
# dRMT sharded driver
# ----------------------------------------------------------------------
class ShardedDrmtDriver:
    """Sharded execution of one dRMT bundle's packet trace.

    The flow key defaults to the program's provably safe derived key
    (:func:`repro.engine.drmt.derive_auto_shard_key`): a single
    input-determined register-index field, reduced modulo the uniform
    register size so packets that can touch the same cell always land in
    one shard.  A program with no such key (parameter/constant/rewritten
    indices, several index fields, mixed register sizes) runs as one shard
    unless the caller supplies an explicit ``shard_key`` — which carries
    the caller's contract that register cells are flow-owned for reads as
    well as writes, and must name fields the program declares.

    Every shard runs the bundle's fused loop; a bundle the fused generator
    refuses cannot be sharded (the facade's ``auto`` runs it on the tick
    interpreter instead).

    ``run`` executes the shards and **applies** the merged state: register
    arrays and table hit/miss counters are folded back into the caller's
    ``registers``/``tables`` (exactly what a sequential run would have left
    behind), and the mutated packet field dicts plus drop flags are returned
    for the facade to assemble into its result record.  On a merge conflict
    nothing is applied.
    """

    def __init__(
        self,
        bundle,
        tables,
        registers,
        shards: int = DEFAULT_SHARDS,
        workers: Optional[int] = None,
        key: Optional[Sequence[str]] = None,
        pool_threshold: int = DEFAULT_POOL_THRESHOLD,
    ):
        self.bundle = bundle
        self.tables = tables
        self.registers = registers
        self.shards = shards
        self.workers = resolve_workers(workers, shards)
        self.pool_threshold = pool_threshold
        self.key: Optional[Tuple[str, ...]]
        #: Reduce key values modulo the register size before hashing (set only
        #: for the derived single-field key, where it makes cell sharing
        #: across shards impossible — see derive_auto_shard_key).
        self.key_modulus: Optional[int] = None
        if key is not None:
            self.key = tuple(key)
            known = set(bundle.program.all_fields())
            for field in self.key:
                if field not in known:
                    raise SimulationError(
                        f"flow-key field {field!r} is not a field of program "
                        f"{bundle.program.name!r}"
                    )
        else:
            derived = drmt_drivers.derive_auto_shard_key(bundle.program)
            if derived is None:
                self.key = None
            else:
                self.key, self.key_modulus = derived
        try:
            bundle.fused_program()
        except DruzhbaError as error:  # a generator refusal; any other error is a bug
            raise SimulationError(
                f"the sharded dRMT driver runs the fused loop per shard, but fused "
                f"generation refused this bundle: {error}"
            ) from error

    @property
    def engine_name(self) -> str:
        """The driver name reported on results."""
        return f"{ENGINE_SHARDED}[{ENGINE_FUSED}]"

    def run(
        self, work: List[Dict[str, int]]
    ) -> Tuple[List[Dict[str, int]], List[bool]]:
        """Run prepared packet dicts sharded; returns (fields, drop flags)."""
        keys = None
        if self.key:  # an empty derived key means "stateless": block partition
            key_fields = self.key
            modulus = self.key_modulus
            if modulus is not None:
                keys = [
                    stable_flow_hash(
                        [packet.get(field, 0) % modulus for field in key_fields]
                    )
                    for packet in work
                ]
            else:
                keys = [
                    stable_flow_hash([packet.get(field, 0) for field in key_fields])
                    for packet in work
                ]
        shard_count = self.shards if self.key is not None else 1
        plan = plan_shards(len(work), shard_count, keys)
        handle = drmt_drivers.drmt_shard_handle(self.bundle)
        base_arrays = {
            name: list(array) for name, array in self.registers.arrays().items()
        }
        shard_works = plan.scatter(work)
        shard_tables = [
            drmt_drivers.clone_tables(self.tables.tables) for _ in range(len(plan))
        ]
        shard_arrays = [
            {name: list(array) for name, array in base_arrays.items()}
            for _ in range(len(plan))
        ]
        results = ShardTransport().run_drmt_shards(
            handle,
            shard_works,
            shard_tables,
            shard_arrays,
            self.workers,
            len(work),
            self.pool_threshold,
        )
        # A single shard is exactly the sequential run: nothing to prove.
        strict_reason = None if (keys or len(plan) <= 1) else BLOCK_PARTITION_REASON
        merged_arrays = merge_register_states(
            base_arrays,
            [arrays for _work, _dropped, arrays, _hits in results],
            strict_reason=strict_reason,
        )
        # Conflict-free: fold the merged state back into the live simulator.
        live_arrays = self.registers.arrays()
        for name, merged in merged_arrays.items():
            live_arrays[name][:] = merged
        for _work, _dropped, _arrays, hits in results:
            for name, (hit_count, miss_count) in hits.items():
                table = self.tables.tables[name]
                table.hit_count += hit_count
                table.miss_count += miss_count
        fields = plan.gather(len(work), [shard_work for shard_work, _d, _a, _h in results])
        dropped = plan.gather(len(work), [flags for _w, flags, _a, _h in results])
        return fields, dropped
