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

    A named tuple rather than a dataclass: traces hold one record per PHV,
    so record construction sits on the simulation hot path (tuple
    construction is several times cheaper than frozen-dataclass ``__init__``).
    """

    phv_id: int
    inputs: tuple
    outputs: tuple

class Trace:
    """An ordered collection of :class:`TraceRecord` plus final state vectors.

    ``final_state`` is indexed ``[stage][slot][state_var]`` for pipeline
    traces; specification traces store their own state representation in
    ``spec_state`` (a plain dictionary) since a specification has no notion
    of stages.

    A sequential driver's trace is column-backed (:meth:`from_columns`): it
    keeps the input and the output tuples, and builds the records only
    when :attr:`records` is first read.  From then on the records list is
    authoritative, so edits through it (``append``, ``records[i] = ...``)
    show in every accessor.  ``len()``, :meth:`outputs`, :meth:`inputs` and
    :meth:`container_series` read the columns while no records exist.
    """

    def __init__(
        self,
        records: Optional[List[TraceRecord]] = None,
        final_state: Optional[List[List[List[int]]]] = None,
        spec_state: Optional[Dict[str, int]] = None,
    ):
        self._records: Optional[List[TraceRecord]] = records if records is not None else []
        self._inputs: Sequence[Sequence[int]] = ()
        self._outputs: List[tuple] = []
        self.final_state = final_state
        self.spec_state = spec_state

    @classmethod
    def from_columns(
        cls,
        inputs: Sequence[Sequence[int]],
        outputs: List[tuple],
        final_state: Optional[List[List[List[int]]]] = None,
    ) -> "Trace":
        """A trace over one input and one output tuple per PHV, ids ``0..n-1``.

        The trace keeps both columns without copying them; callers hand over
        lists they no longer mutate.
        """
        trace = cls(final_state=final_state)
        trace._records = None
        trace._inputs = inputs
        trace._outputs = outputs
        return trace

    @property
    def records(self) -> List[TraceRecord]:
        """One record per PHV, built from the columns on first access."""
        if self._records is None:
            self._records = list(
                map(TraceRecord, range(len(self._outputs)), map(tuple, self._inputs), self._outputs)
            )
            self._inputs, self._outputs = (), []
        return self._records

    def append(self, phv_id: int, inputs: Sequence[int], outputs: Sequence[int]) -> None:
        """Record one PHV's input and output container values."""
        self.records.append(
            TraceRecord(phv_id=phv_id, inputs=tuple(inputs), outputs=tuple(outputs))
        )

    def __len__(self) -> int:
        if self._records is None:
            return len(self._outputs)
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.records, self.final_state, self.spec_state) == (
            other.records, other.final_state, other.spec_state
        )

    __hash__ = None  # type: ignore[assignment]

    def outputs(self) -> List[tuple]:
        """All output container tuples in input order."""
        if self._records is None:
            return list(self._outputs)
        return [record.outputs for record in self._records]

    def inputs(self) -> List[tuple]:
        """All input container tuples in input order."""
        if self._records is None:
            return list(map(tuple, self._inputs))
        return [record.inputs for record in self._records]

    def format(self, limit: int = 20) -> str:
        """Human-readable rendering of the first ``limit`` records (CLI output)."""
        lines = ["phv_id  inputs -> outputs"]
        for record in self.records[:limit]:
            lines.append(f"{record.phv_id:6d}  {list(record.inputs)} -> {list(record.outputs)}")
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more records)")
        if self.final_state is not None:
            lines.append(f"final state: {self.final_state}")
        if self.spec_state is not None:
            lines.append(f"final state: {self.spec_state}")
        return "\n".join(lines)
