"""The unified simulation result shared by every RMT-side driver.

Every driver of a compiled pipeline description that
:class:`repro.dsim.RMTSimulator` dispatches — tick, generic, fused and
sharded — returns the same :class:`SimulationResult`, so downstream
consumers (equivalence checking, fuzzing, benchmarks, the CLI) never care
which driver ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dsim.trace import Trace
from ..errors import SimulationError


@dataclass
class SimulationResult:
    """Everything a simulation run produces.

    Attributes
    ----------
    input_trace:
        The PHV values fed into the pipeline, in input order.
    output_trace:
        The output trace: one record per input PHV (same order), plus the
        final per-stage state vectors.
    ticks:
        Number of simulation ticks executed (inputs + pipeline drain).
    engine:
        Name of the driver that produced this result (``tick``, ``generic``,
        ``fused``, or ``sharded[generic]``/``sharded[fused]`` for a sharded run).
    """

    input_trace: List[List[int]]
    output_trace: Trace
    ticks: int
    engine: str = "tick"

    @property
    def outputs(self) -> List[tuple]:
        """Output container tuples in input order."""
        return self.output_trace.outputs()

    @property
    def final_state(self) -> Optional[List[List[List[int]]]]:
        """Final state vectors, indexed ``[stage][slot][state_var]``."""
        return self.output_trace.final_state


def validate_widths(inputs: Sequence[Sequence[int]], width: int) -> None:
    """Raise :class:`SimulationError` when any PHV has the wrong width."""
    # One pass at C speed; the indexed loop below only names the first bad PHV.
    if set(map(len, inputs)) <= {width}:
        return
    for index, values in enumerate(inputs):
        if len(values) != width:
            raise SimulationError(
                f"PHV {index} has {len(values)} containers, pipeline width is {width}"
            )


def sequential_result(
    inputs: List[List[int]],
    outputs: Sequence[Sequence[int]],
    final_state: List[List[List[int]]],
    depth: int,
    engine: str,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` for a sequential (non-tick) driver.

    The tick model runs one tick per input plus ``depth`` drain ticks; the
    sequential drivers do no ticking of their own but report the equivalent
    count so results stay comparable across drivers.  ``inputs`` becomes
    both the result's ``input_trace`` and the output trace's input column;
    the trace's records are built only when read (see
    :class:`~repro.dsim.trace.Trace`).
    """
    trace = Trace.from_columns(inputs, list(map(tuple, outputs)), final_state)
    ticks = len(inputs) + depth if inputs else 0
    return SimulationResult(
        input_trace=inputs, output_trace=trace, ticks=ticks, engine=engine
    )
