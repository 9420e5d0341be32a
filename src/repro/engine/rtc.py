"""dRMT-style run-to-completion execution of compiled pipeline descriptions.

The paper's two architectures differ in *where* a program executes, not in
*what* it computes: RMT lays the stages out as a feedforward pipeline, while
dRMT "moves the match+action processing into run-to-completion processors"
that each execute the whole program for the packets assigned to them
round-robin, against shared memories (§4).  This module runs the *same*
compiled pipeline description under the dRMT execution model, which is what
makes cross-architecture equivalence testable: for a feedforward program,
every stage's state is touched in packet arrival order under both models, so
outputs and final state are bit-for-bit identical.

Drivers (the same ladder as everywhere else in the engine layer):

* **tick** — each processor advances each of its in-flight packets one stage
  per tick (a packet injected at tick ``p`` executes stage ``s`` at tick
  ``p + s``, exactly the pipeline's skew);
* **generic** — each packet runs to completion through all stage functions
  in arrival order (the per-processor split only affects bookkeeping);
* **fused** — the description's generated ``run_trace`` loop executes the
  arrival-order trace (available at opt level 3).

The per-stage state vectors play the role of dRMT's centralised register
memories: one shared copy, not per-processor copies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dgen.emit import PipelineDescription
from ..errors import SimulationError
from .base import ENGINE_GENERIC, ENGINE_TICK, resolve_engine
from .rmt import prepare_inputs, run_fused, run_generic
from .result import SimulationResult, sequential_result


class RunToCompletionSimulator:
    """Runs a compiled pipeline description on dRMT-style processors."""

    def __init__(
        self,
        description: PipelineDescription,
        num_processors: int = 4,
        runtime_values: Optional[Dict[str, int]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        engine: str = "auto",
    ):
        if num_processors < 1:
            raise SimulationError("run-to-completion execution needs at least one processor")
        self.description = description
        self.num_processors = num_processors
        self.engine = engine
        self._runtime_values = runtime_values
        self._initial_state = initial_state

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self, phv_values: Sequence[Sequence[int]], tick_accurate: bool = False
    ) -> SimulationResult:
        """Simulate an explicit input trace under the run-to-completion model."""
        mode = resolve_engine(
            self.engine,
            fused_available=self.description.fused_function is not None,
            tick_accurate=tick_accurate,
            context="pipeline description",
        )
        if mode == ENGINE_TICK:
            result = self._run_tick(phv_values)
        else:
            runner = run_generic if mode == ENGINE_GENERIC else run_fused
            result = runner(
                self.description,
                phv_values,
                self._runtime_values,
                self._initial_state_copy(),
            )
        result.engine = f"rtc-{mode}"
        # Run-to-completion latency: the last packet (injected at tick n-1)
        # finishes its final stage at tick n+depth-2, one tick earlier than
        # the pipeline's exit-after-commit model.
        depth = self.description.spec.depth
        result.ticks = len(result.input_trace) + depth - 1 if result.input_trace else 0
        return result

    def processor_of(self, packet_index: int) -> int:
        """Round-robin processor assignment of one packet."""
        return packet_index % self.num_processors

    # ------------------------------------------------------------------
    # Tick-accurate run-to-completion model
    # ------------------------------------------------------------------
    def _run_tick(self, phv_values: Sequence[Sequence[int]]) -> SimulationResult:
        """Per-tick model: every processor advances its packets one stage per tick.

        A packet injected at tick ``p`` executes stage ``s`` at tick
        ``p + s`` — the same (tick, stage) schedule as the RMT pipeline, so
        the shared per-stage state is touched in an identical order and the
        results match the other drivers bit for bit.
        """
        state = self._initial_state_copy()
        if state is None:
            state = self.description.initial_state()
        values = self._runtime_values
        if values is None:
            values = self.description.runtime_values()
        inputs, work = prepare_inputs(self.description, phv_values)
        stage_functions = self.description.stage_functions
        depth = self.description.spec.depth
        total = len(work)

        # Per-processor queues of (packet index, current containers, next stage).
        in_flight: List[List[Tuple[int, Sequence[int], int]]] = [
            [] for _ in range(self.num_processors)
        ]
        outputs: List[Optional[Sequence[int]]] = [None] * total
        injected = 0
        while injected < total or any(in_flight):
            if injected < total:
                in_flight[self.processor_of(injected)].append((injected, work[injected], 0))
                injected += 1
            for queue in in_flight:
                retained: List[Tuple[int, Sequence[int], int]] = []
                for packet, phv, stage in queue:
                    phv = stage_functions[stage](phv, state[stage], values)
                    if stage + 1 == depth:
                        outputs[packet] = phv
                    else:
                        retained.append((packet, phv, stage + 1))
                queue[:] = retained

        return sequential_result(inputs, outputs, state, depth, ENGINE_TICK)

    def _initial_state_copy(self) -> Optional[List[List[List[int]]]]:
        if self._initial_state is None:
            return None
        return [[list(alu) for alu in stage] for stage in self._initial_state]
