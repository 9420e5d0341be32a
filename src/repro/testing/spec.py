"""High-level specifications (the testing oracle of Figure 5).

A *specification* captures "the intended algorithmic behavior on both PHVs
and state values" (paper §3.3).  It consumes the same input trace that the
pipeline consumes and produces its own expected output trace; the fuzzing
workflow then asserts that the two traces are equivalent.

Because PHVs traverse a feedforward pipeline in order and all switch state is
stage-local, the end-to-end behaviour of a pipeline equals processing the
PHVs one at a time, in order — so a specification is simply a sequential
function from (PHV values, mutable state) to output PHV values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..dsim.trace import Trace
from ..errors import SpecificationError


class Specification(ABC):
    """Interface of a high-level specification.

    Subclasses implement :meth:`initial_state` and :meth:`process`; the base
    class provides :meth:`run`, which turns an input trace into the expected
    output trace.
    """

    #: Number of PHV containers the specification expects per input PHV.
    num_containers: int = 0

    #: Containers whose values the specification actually defines.  The
    #: equivalence check compares only these containers; the pipeline is free
    #: to scribble anything into the rest (they are scratch space for the
    #: compiler).  ``None`` means "compare every container".
    relevant_containers: Optional[Sequence[int]] = None

    @abstractmethod
    def initial_state(self) -> Dict[str, int]:
        """Fresh algorithm state (e.g. ``{"count": 0}``)."""

    @abstractmethod
    def process(self, phv: Sequence[int], state: Dict[str, int]) -> List[int]:
        """Process one PHV: mutate ``state`` and return the expected output containers."""

    def run(self, input_trace: Sequence[Sequence[int]]) -> Trace:
        """Run the specification over a whole input trace.

        The trace is column-backed (:meth:`Trace.from_columns`) and holds its
        own copy of the inputs, so the caller may reuse its lists.
        """
        state = self.initial_state()
        outputs_column: List[tuple] = []
        for index, phv in enumerate(input_trace):
            if self.num_containers and len(phv) != self.num_containers:
                raise SpecificationError(
                    f"specification expects {self.num_containers} containers, "
                    f"PHV {index} has {len(phv)}"
                )
            outputs = self.process(list(phv), state)
            if self.num_containers and len(outputs) != self.num_containers:
                raise SpecificationError(
                    f"specification produced {len(outputs)} containers for PHV {index}, "
                    f"expected {self.num_containers}"
                )
            outputs_column.append(tuple(outputs))
        trace = Trace.from_columns(list(map(tuple, input_trace)), outputs_column)
        trace.spec_state = dict(state)
        return trace


@dataclass
class FunctionSpecification(Specification):
    """Wrap a plain function as a specification.

    ``function(phv, state) -> outputs`` receives a copy of the PHV container
    values and the mutable state dictionary, and returns the expected output
    container values.  This is the most convenient way to express the
    "program spec" box of Figure 5 in Python.
    """

    function: Callable[[List[int], Dict[str, int]], List[int]]
    num_containers: int = 0
    state_template: Dict[str, int] = field(default_factory=dict)
    relevant_containers: Optional[Sequence[int]] = None
    name: str = "spec"

    def initial_state(self) -> Dict[str, int]:
        return dict(self.state_template)

    def process(self, phv: Sequence[int], state: Dict[str, int]) -> List[int]:
        outputs = self.function(list(phv), state)
        return [int(v) for v in outputs]


@dataclass
class PassthroughSpecification(Specification):
    """The identity specification: every container passes through unchanged.

    Matches a pipeline configured with pass-through output multiplexers
    everywhere (the :meth:`repro.hardware.PipelineSpec.passthrough_machine_code`
    baseline); used in tests and as the simplest possible example.
    """

    num_containers: int = 1
    relevant_containers: Optional[Sequence[int]] = None

    def initial_state(self) -> Dict[str, int]:
        return {}

    def process(self, phv: Sequence[int], state: Dict[str, int]) -> List[int]:
        return list(phv)
