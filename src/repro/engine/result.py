"""The unified simulation result shared by every RMT-side driver.

Every driver of a compiled pipeline description that
:class:`repro.dsim.RMTSimulator` dispatches — tick, generic, fused and
sharded — returns the same :class:`SimulationResult`, built by
:func:`sequential_result` from the run's input and output columns, so
downstream consumers (equivalence checking, fuzzing, benchmarks, the CLI)
never care which driver ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dsim.trace import Trace
from ..errors import SimulationError


@dataclass
class SimulationResult:
    """Everything a simulation run produces.

    Attributes
    ----------
    output_trace:
        The output trace: the input and output columns (one entry per input
        PHV, same order), plus the final per-stage state vectors.
    ticks:
        Number of simulation ticks executed (inputs + pipeline drain).
    engine:
        Name of the driver that produced this result (``tick``, ``generic``,
        ``fused``, or ``sharded[generic]``/``sharded[fused]`` for a sharded run).
    """

    output_trace: Trace
    ticks: int
    engine: str = "tick"

    @property
    def input_trace(self) -> List[List[int]]:
        """The PHV values fed into the pipeline as integer lists, in input order.

        Built from the output trace's input column on every read, so the
        result holds one copy of the inputs and editing the returned lists
        changes nothing.
        """
        return list(map(list, self.output_trace.inputs()))

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
    inputs: List[Tuple[int, ...]],
    outputs: Sequence[Sequence[int]],
    final_state: List[List[List[int]]],
    depth: int,
    engine: str,
) -> SimulationResult:
    """Assemble the :class:`SimulationResult` of an RMT run, whatever its driver.

    The tick model runs one tick per input plus ``depth`` drain ticks; the
    sequential drivers do no ticking of their own but report the equivalent
    count so results stay comparable across drivers (the tick driver checks
    that its pipeline counted the same).  ``inputs`` (the
    :func:`~repro.engine.rmt.prepare_inputs` column) becomes the output
    trace's input column and ``outputs`` its output column; see
    :class:`~repro.dsim.trace.Trace`.
    """
    ticks = len(inputs) + depth if inputs else 0
    return SimulationResult(
        output_trace=Trace(inputs, outputs, final_state), ticks=ticks, engine=engine
    )
