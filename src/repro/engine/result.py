"""The unified simulation result shared by every RMT-side driver.

Every driver of a compiled pipeline description that
:class:`repro.dsim.RMTSimulator` dispatches — tick, generic, fused and
sharded — returns the same :class:`SimulationResult`, so downstream
consumers (equivalence checking, fuzzing, benchmarks, the CLI) never care
which driver ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dsim.trace import Trace
from ..errors import SimulationError


@dataclass
class SimulationResult:
    """Everything a simulation run produces.

    Attributes
    ----------
    input_trace:
        The PHV values fed into the pipeline, in input order, as integer
        lists, built from the output trace's input column on first read and
        cached, as :attr:`Trace.records <repro.dsim.trace.Trace.records>` is,
        so a result holds one copy of the inputs until they are read, and
        editing them does not change the output trace.
    output_trace:
        The output trace: one record per input PHV (same order), plus the
        final per-stage state vectors.
    ticks:
        Number of simulation ticks executed (inputs + pipeline drain).
    engine:
        Name of the driver that produced this result (``tick``, ``generic``,
        ``fused``, or ``sharded[generic]``/``sharded[fused]`` for a sharded run).
    """

    output_trace: Trace
    ticks: int
    engine: str = "tick"
    _input_trace: Optional[List[List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def input_trace(self) -> List[List[int]]:
        """The PHV values fed into the pipeline as integer lists, in input order."""
        if self._input_trace is None:
            self._input_trace = list(map(list, self.output_trace.inputs()))
        return self._input_trace

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
    """Assemble a :class:`SimulationResult` for a sequential (non-tick) driver.

    The tick model runs one tick per input plus ``depth`` drain ticks; the
    sequential drivers do no ticking of their own but report the equivalent
    count so results stay comparable across drivers.  ``inputs`` (the
    :func:`~repro.engine.rmt.prepare_inputs` column) becomes the output
    trace's input column, from which the result builds its ``input_trace``
    on first read; the trace's records too are built only when read (see
    :class:`~repro.dsim.trace.Trace`).  Generated stage functions and
    ``run_trace`` already yield tuples, which ``map(tuple, ...)`` passes
    through without copying.
    """
    trace = Trace.from_columns(inputs, list(map(tuple, outputs)), final_state)
    ticks = len(inputs) + depth if inputs else 0
    return SimulationResult(output_trace=trace, ticks=ticks, engine=engine)
