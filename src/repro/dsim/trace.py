"""Input and output traces.

"Following simulation, an output trace shows the modified PHVs and the state
vectors" (paper §3.3).  Traces are the artefacts the compiler-testing
workflow compares: the pipeline's output trace against the trace produced by
the high-level specification on the same input trace (Figure 5).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence


class TraceRecord(NamedTuple):
    """One PHV's journey: its identifier, input values and output values.

    A named tuple rather than a dataclass: a record is built on every read
    of a trace's records, so its construction should stay cheap.
    """

    phv_id: int
    inputs: tuple
    outputs: tuple

class Trace:
    """The input and output tuple columns of a run plus its final state.

    PHV ``i`` has id ``i``: ``inputs[i]`` went in and ``outputs[i]`` came
    out.  ``final_state`` is indexed ``[stage][slot][state_var]`` for
    pipeline traces; specification traces store their own state
    representation in ``spec_state`` (a plain dictionary) since a
    specification has no notion of stages.

    The columns are the trace's only data.  The input column is kept as
    passed, without a copy, so callers hand over a column they no longer
    mutate; the output column is read into tuples.  :attr:`records`,
    iteration, ``trace[i]``, :meth:`inputs`, :meth:`outputs` and
    :meth:`format` build what they return from the columns on every read
    and cache nothing, so editing what they return changes no trace.
    """

    def __init__(
        self,
        inputs: Sequence[Sequence[int]],
        outputs: Sequence[Sequence[int]],
        final_state: Optional[List[List[List[int]]]] = None,
        spec_state: Optional[Dict[str, int]] = None,
    ):
        self._inputs = inputs
        self._outputs: List[tuple] = list(map(tuple, outputs))
        self.final_state = final_state
        self.spec_state = spec_state

    @property
    def records(self) -> List[TraceRecord]:
        """One record per PHV, built from the columns."""
        return list(
            map(TraceRecord, range(len(self._outputs)), map(tuple, self._inputs), self._outputs)
        )

    def __len__(self) -> int:
        return len(self._outputs)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        phv_id = range(len(self._outputs))[index]
        return TraceRecord(phv_id, tuple(self._inputs[phv_id]), self._outputs[phv_id])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.inputs(), self._outputs, self.final_state, self.spec_state) == (
            other.inputs(), other._outputs, other.final_state, other.spec_state
        )

    __hash__ = None  # type: ignore[assignment]

    def outputs(self) -> List[tuple]:
        """All output container tuples in input order."""
        return list(self._outputs)

    def inputs(self) -> List[tuple]:
        """All input container tuples in input order."""
        return list(map(tuple, self._inputs))

    def format(self, limit: int = 20) -> str:
        """Human-readable rendering of the first ``limit`` records (CLI output)."""
        lines = ["phv_id  inputs -> outputs"]
        for record in map(self.__getitem__, range(min(limit, len(self)))):
            lines.append(f"{record.phv_id:6d}  {list(record.inputs)} -> {list(record.outputs)}")
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more records)")
        if self.final_state is not None:
            lines.append(f"final state: {self.final_state}")
        if self.spec_state is not None:
            lines.append(f"final state: {self.spec_state}")
        return "\n".join(lines)
