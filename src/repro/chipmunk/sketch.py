"""Sketch construction for program synthesis.

Chipmunk (paper §5.2) "generates machine code in the form of constant
integers from a given Domino file through the use of program synthesis".  In
synthesis terms the machine-code pairs are *holes*; a sketch enumerates the
holes to be solved for and the candidate values each may take.

The reproduction has no SMT solver available offline, so the search operates
over explicit finite domains: bounded holes (multiplexers, opcodes) use their
natural domain and unbounded holes (immediates) draw from a *constant pool*
derived from the program being compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SynthesisError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode

#: Default immediates offered to unbounded holes when no pool is supplied.
DEFAULT_CONSTANT_POOL: Tuple[int, ...] = (0, 1, 2)


@dataclass
class Sketch:
    """A finite search space over machine-code pairs.

    Attributes
    ----------
    pipeline_spec:
        The hardware configuration the machine code targets.
    search_names:
        The machine-code pair names being synthesised, in a fixed order (an
        *assignment* is a list of indices parallel to this list).
    domains:
        Candidate values for each searched name.
    frozen:
        Values for every pair that is **not** being searched (the baseline is
        the all-pass-through program, possibly overridden by the caller —
        e.g. a compiler front end that has already decided the routing).
    """

    pipeline_spec: PipelineSpec
    search_names: List[str]
    domains: Dict[str, List[int]]
    frozen: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pipeline(
        cls,
        pipeline_spec: PipelineSpec,
        constant_pool: Sequence[int] = DEFAULT_CONSTANT_POOL,
        freeze: Optional[Mapping[str, int]] = None,
        search_names: Optional[Iterable[str]] = None,
    ) -> "Sketch":
        """Build a sketch for ``pipeline_spec``.

        ``freeze`` pins specific pairs to fixed values (they are excluded
        from the search); ``search_names`` restricts the search to a subset
        of pairs (defaults to every pair not frozen).  Unbounded holes get
        the ``constant_pool`` as their domain.
        """
        if not constant_pool:
            raise SynthesisError("constant pool must not be empty")
        pool = sorted({int(value) for value in constant_pool})
        if any(value < 0 for value in pool):
            raise SynthesisError("constant pool values must be unsigned")

        baseline = pipeline_spec.passthrough_machine_code().as_dict()
        frozen = dict(baseline)
        if freeze:
            unknown = set(freeze) - set(baseline)
            if unknown:
                raise SynthesisError(
                    f"freeze refers to unknown machine-code pairs: {sorted(unknown)[:3]}"
                )
            frozen.update({name: int(value) for name, value in freeze.items()})

        hole_domains = pipeline_spec.hole_domains()
        if search_names is None:
            names = [name for name in baseline if name not in (freeze or {})]
        else:
            names = list(search_names)
            unknown = set(names) - set(baseline)
            if unknown:
                raise SynthesisError(
                    f"search_names refers to unknown machine-code pairs: {sorted(unknown)[:3]}"
                )

        domains: Dict[str, List[int]] = {}
        for name in names:
            domain_size = hole_domains[name]
            if domain_size == 0:
                domains[name] = list(pool)
            else:
                domains[name] = list(range(domain_size))
            frozen.pop(name, None)

        return cls(
            pipeline_spec=pipeline_spec,
            search_names=names,
            domains=domains,
            frozen=frozen,
        )

    # ------------------------------------------------------------------
    # Search-space queries
    # ------------------------------------------------------------------
    def space_size(self) -> int:
        """Total number of candidate assignments."""
        size = 1
        for name in self.search_names:
            size *= len(self.domains[name])
        return size

    def domain_sizes(self) -> List[int]:
        """Domain cardinality per searched name (parallel to ``search_names``)."""
        return [len(self.domains[name]) for name in self.search_names]

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------

    def enumerate_assignments(self) -> Iterable[List[int]]:
        """Yield every assignment in lexicographic order (use only for small spaces)."""
        sizes = self.domain_sizes()
        if not sizes:
            yield []
            return
        assignment = [0] * len(sizes)
        while True:
            yield list(assignment)
            position = len(sizes) - 1
            while position >= 0:
                assignment[position] += 1
                if assignment[position] < sizes[position]:
                    break
                assignment[position] = 0
                position -= 1
            if position < 0:
                return

    def to_machine_code(self, assignment: Sequence[int]) -> MachineCode:
        """Materialise an assignment as a complete machine-code program."""
        if len(assignment) != len(self.search_names):
            raise SynthesisError(
                f"assignment has {len(assignment)} entries, sketch has {len(self.search_names)} holes"
            )
        pairs = dict(self.frozen)
        for name, index in zip(self.search_names, assignment):
            domain = self.domains[name]
            pairs[name] = domain[index % len(domain)]
        return MachineCode(pairs)

    def to_values(self, assignment: Sequence[int]) -> Dict[str, int]:
        """Like :meth:`to_machine_code` but returning a plain dict (runtime ``values``).

        This sits on the CEGIS inner loop (one call per candidate), so it
        builds the dict directly: the frozen pairs and domain values were
        already validated when the sketch was constructed, making the
        :class:`MachineCode` re-validation redundant.
        """
        if len(assignment) != len(self.search_names):
            raise SynthesisError(
                f"assignment has {len(assignment)} entries, sketch has {len(self.search_names)} holes"
            )
        values = dict(self.frozen)
        for name, index in zip(self.search_names, assignment):
            domain = self.domains[name]
            values[name] = domain[index % len(domain)]
        return values
