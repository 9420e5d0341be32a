"""Infrastructure for the Table-1 benchmark programs.

Each of the 12 packet-processing programs of the paper's evaluation (§5.1,
Table 1) is expressed as a :class:`BenchmarkProgram`: the pipeline dimensions
and stateful atom from Table 1, a high-level specification of the intended
algorithm, the machine code a compiler targeting Druzhba would emit for it
(produced here by the grid allocator in :mod:`repro.chipmunk.allocation`),
plus the traffic model and initial state the workload needs.

The machine code of every program is validated against its specification by
the fuzzing workflow in the test suite (``tests/test_programs.py``) — this is
the reproduction's equivalent of the paper's case-study validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import atoms
from ..chipmunk.allocation import MachineCodeBuilder
from ..traffic import TrafficGenerator
from ..errors import DruzhbaError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from ..testing.spec import FunctionSpecification, Specification

#: Signature of a program's spec function: (phv values, mutable state) -> outputs.
SpecFunction = Callable[[List[int], Dict[str, int]], List[int]]
#: Signature of a program's machine-code builder hook.
BuilderFunction = Callable[[MachineCodeBuilder], None]


@dataclass
class BenchmarkProgram:
    """One packet-processing program of Table 1.

    Attributes
    ----------
    name / display_name:
        Registry key and the name used in the paper's Table 1.
    depth / width / stateful_atom:
        Pipeline dimensions and ALU name exactly as reported in Table 1.
    description:
        One-paragraph statement of the algorithm.  Where the program
        departs from the paper's algorithm so that it fits the Table 1
        pipeline and atom, the description says what was substituted.
    spec_function / state_template / relevant_containers:
        The high-level specification (Figure 5's "program spec").
    build_machine_code:
        Hook that places the program onto the pipeline grid.
    initial_stateful_values:
        Initial state for specific stateful ALUs, keyed by (stage, slot);
        unspecified ALUs start at zero.  The specification's
        ``state_template`` must be consistent with these values.
    field_generators:
        Optional per-container traffic model (defaults to uniform values).
    traffic_max_value:
        Upper bound of uniformly generated container values.
    domino_source:
        Optional Domino rendition of the program (used by documentation, the
        chipmunk example and the Domino-vs-spec consistency tests).
    """

    name: str
    display_name: str
    depth: int
    width: int
    stateful_atom: str
    description: str
    spec_function: SpecFunction
    build_machine_code: BuilderFunction
    state_template: Dict[str, int] = field(default_factory=dict)
    relevant_containers: Sequence[int] = ()
    initial_stateful_values: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    field_generators: Optional[Sequence] = None
    traffic_max_value: int = (1 << 10) - 1
    stateless_atom: str = "stateless_full"
    domino_source: Optional[str] = None

    # ------------------------------------------------------------------
    # Derived artefacts
    # ------------------------------------------------------------------
    def pipeline_spec(self) -> PipelineSpec:
        """The hardware configuration of Table 1 for this program."""
        return PipelineSpec(
            depth=self.depth,
            width=self.width,
            stateful_alu=atoms.get_atom(self.stateful_atom),
            stateless_alu=atoms.get_atom(self.stateless_atom),
            name=self.name,
        )

    def machine_code(self) -> MachineCode:
        """The compiler-produced machine code for this program."""
        builder = MachineCodeBuilder(self.pipeline_spec())
        self.build_machine_code(builder)
        return builder.build()

    def specification(self) -> Specification:
        """The executable high-level specification of the intended behaviour."""
        return FunctionSpecification(
            function=self.spec_function,
            num_containers=self.width,
            state_template=dict(self.state_template),
            relevant_containers=list(self.relevant_containers) or None,
            name=self.name,
        )

    def traffic_generator(self, seed: int = 0) -> TrafficGenerator:
        """A traffic generator producing this program's workload."""
        return TrafficGenerator(
            num_containers=self.width,
            seed=seed,
            max_value=self.traffic_max_value,
            field_generators=self.field_generators,
        )

    def initial_pipeline_state(self) -> List[List[List[int]]]:
        """Per-stage, per-slot initial state vectors matching the spec's initial state."""
        spec = self.pipeline_spec()
        state = [
            [[0] * spec.num_state_vars for _ in range(spec.width)] for _ in range(spec.depth)
        ]
        for (stage, slot), values in self.initial_stateful_values.items():
            if stage >= spec.depth or slot >= spec.width:
                raise DruzhbaError(
                    f"program {self.name!r}: initial state refers to ALU ({stage}, {slot}) "
                    f"outside a {spec.depth}x{spec.width} pipeline"
                )
            if len(values) != spec.num_state_vars:
                raise DruzhbaError(
                    f"program {self.name!r}: initial state for ALU ({stage}, {slot}) has "
                    f"{len(values)} values, atom has {spec.num_state_vars} state variables"
                )
            state[stage][slot] = list(values)
        return state
