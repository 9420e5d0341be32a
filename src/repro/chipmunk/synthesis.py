"""Counterexample-guided synthesis of machine code.

The paper's case-study compiler, Chipmunk, uses SKETCH-style program
synthesis to find machine code implementing a Domino program.  Offline and
without an SMT solver, this reproduction uses counterexample-guided inductive
synthesis (CEGIS) with an explicit-search inner loop:

1. draw a small set of example PHVs;
2. enumerate the sketch for an assignment whose pipeline behaviour matches
   the specification on every example (a sketch with more candidates than
   :attr:`SynthesisConfig.exhaustive_limit` is refused: freeze pairs or
   narrow ``search_names`` to shrink it);
3. verify the candidate against the specification on a much larger random
   trace; a disagreeing PHV becomes a new example and the loop repeats.

The inner loop evaluates candidates with the *unoptimised* (level-0) pipeline
description, which accepts machine code as runtime values — precisely the
pre-optimisation dgen/dsim split the paper describes in §3.4 — so the
(comparatively expensive) code generation runs only once per sketch.

Because the inner loop checks thousands of candidates against the *same*
example set, three hot-path optimisations apply (none changes results):

* the specification trace is computed once per distinct input trace and
  cached (:meth:`SynthesisEngine._spec_outputs`) instead of being re-run for
  every candidate;
* one :class:`_CandidateEvaluator` pushes example PHVs through the stage
  functions sequentially — semantically identical to the tick model for a
  feedforward pipeline — instead of constructing a fresh simulator, pipeline
  and trace per candidate;
* a candidate is rejected at its first mismatching PHV.

The §5.2 failure mode "the synthesis engine failed to find machine code to
satisfy 10-bit inputs in the allotted time thus only returning machine code
that only satisfied a limited range of values" is reproduced faithfully: when
the CEGIS loop exhausts its iteration budget, the engine returns the last
candidate that satisfied its examples, flagged as unverified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import dgen
from ..dgen.emit import PipelineDescription
from ..dsim import TrafficGenerator
from ..dsim.pipeline import copy_state
from ..engine.rmt import prepare_inputs, push_phv, stage_pairs
from ..errors import MissingMachineCodeError, SynthesisError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from ..testing.spec import Specification
from .sketch import Sketch


class _CandidateEvaluator:
    """Scores machine-code candidates against cached specification outputs.

    Built once per synthesis run from the level-0 pipeline description and
    reused for every candidate.  Execution is the engine layer's *generic
    sequential driver* (:mod:`repro.engine.rmt`): PHVs are pushed through
    the stage functions one at a time, in order — for a feedforward pipeline
    this produces exactly the tick model's outputs and state, without
    per-candidate simulator construction, PHV objects or trace records.
    Checking keeps its own inner loop on top of the shared
    :func:`~repro.engine.rmt.stage_pairs` layout so a candidate can be
    rejected mid-trace.
    """

    def __init__(
        self,
        description: PipelineDescription,
        initial_state: Optional[List[List[List[int]]]],
        containers: Optional[Sequence[int]],
    ):
        self._stage_functions = list(description.stage_functions)
        self._initial_state = (
            initial_state if initial_state is not None else description.initial_state()
        )
        self._containers = list(containers) if containers is not None else None

    def matches(
        self,
        values: Dict[str, int],
        inputs: Sequence[Sequence[int]],
        expected_outputs: Sequence[Sequence[int]],
    ) -> bool:
        """True when the candidate produces every expected output.

        Stops at the first mismatching PHV.  ``inputs`` must come from
        :func:`~repro.engine.rmt.prepare_inputs`.
        """
        pairs = stage_pairs(self._stage_functions, copy_state(self._initial_state))
        containers = self._containers
        try:
            for outputs, expected in zip(inputs, expected_outputs):
                for function, stage_state in pairs:
                    outputs = function(outputs, stage_state, values)
                if containers is None:
                    if any(actual != want for actual, want in zip(outputs, expected)):
                        return False
                elif any(outputs[container] != expected[container] for container in containers):
                    return False
        except KeyError as error:
            raise MissingMachineCodeError(str(error.args[0])) from error
        return True

    def first_counterexample(
        self,
        values: Dict[str, int],
        inputs: Sequence[Sequence[int]],
        expected_outputs: Sequence[Sequence[int]],
    ) -> Optional[List[int]]:
        """The first input PHV on which the candidate diverges, or ``None``.

        ``inputs`` must come from :func:`~repro.engine.rmt.prepare_inputs`.
        """
        pairs = stage_pairs(self._stage_functions, copy_state(self._initial_state))
        containers = self._containers
        try:
            for phv, expected in zip(inputs, expected_outputs):
                outputs = push_phv(pairs, phv, values)
                if containers is None:
                    if list(outputs) != list(expected):
                        return list(phv)
                elif any(
                    outputs[container] != expected[container] for container in containers
                ):
                    return list(phv)
        except KeyError as error:
            raise MissingMachineCodeError(str(error.args[0])) from error
        return None


@dataclass
class SynthesisConfig:
    """Tuning knobs of the CEGIS loop."""

    #: Number of CEGIS iterations before giving up.
    max_iterations: int = 8
    #: Example PHVs used by the inner search loop.
    num_examples: int = 12
    #: Maximum container value used for the initial examples (synthesis input range).
    example_max_value: int = 100
    #: PHVs used by the verification step of each CEGIS iteration.
    verify_phvs: int = 400
    #: Maximum container value used for verification (10-bit by default, §5.2).
    verify_max_value: int = (1 << 10) - 1
    #: The most candidates a sketch may have; the search enumerates them all.
    exhaustive_limit: int = 50_000
    #: PRNG seed.
    seed: int = 0


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    machine_code: Optional[MachineCode]
    success: bool
    iterations: int
    candidates_evaluated: int
    message: str = ""
    examples_used: List[List[int]] = field(default_factory=list)

class SynthesisEngine:
    """CEGIS driver for one (pipeline, specification, sketch) triple."""

    def __init__(
        self,
        pipeline_spec: PipelineSpec,
        specification: Specification,
        sketch: Sketch,
        config: Optional[SynthesisConfig] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        traffic_generator: Optional[TrafficGenerator] = None,
    ):
        self.pipeline_spec = pipeline_spec
        self.specification = specification
        self.sketch = sketch
        self.config = config or SynthesisConfig()
        self._initial_state = initial_state
        self._traffic_generator = traffic_generator
        self._candidates_evaluated = 0
        # Level-0 description: machine code is a runtime input, so one
        # generation serves every candidate.
        self._description = dgen.generate(
            pipeline_spec, machine_code=None, opt_level=dgen.OPT_UNOPTIMIZED
        )
        # One evaluator serves every candidate; specification outputs are
        # cached per example set (the inner search scores thousands of
        # candidates against the same examples).
        self._evaluator = _CandidateEvaluator(
            self._description,
            initial_state,
            specification.relevant_containers,
        )
        self._spec_cache: Dict[Tuple[Tuple[int, ...], ...], List[tuple]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisResult:
        """Run the CEGIS loop and return the best machine code found.

        A failed run returns the last assignment that satisfied its example
        set, if any (paper §5.2).
        """
        config = self.config
        size = self.sketch.space_size()
        if size > config.exhaustive_limit:
            raise SynthesisError(
                f"the sketch has {size} candidates, more than exhaustive_limit="
                f"{config.exhaustive_limit}; freeze pairs or narrow search_names"
            )
        examples = self._initial_examples()
        candidate: Optional[MachineCode] = None

        for iteration in range(1, config.max_iterations + 1):
            assignment = self._search(examples)
            if assignment is None:
                return SynthesisResult(
                    machine_code=candidate,
                    success=False,
                    iterations=iteration,
                    candidates_evaluated=self._candidates_evaluated,
                    message="inner search could not satisfy the current example set",
                    examples_used=[list(e) for e in examples],
                )
            candidate = self.sketch.to_machine_code(assignment)
            counterexample = self._verify(assignment, seed=config.seed + iteration)
            if counterexample is None:
                return SynthesisResult(
                    machine_code=candidate,
                    success=True,
                    iterations=iteration,
                    candidates_evaluated=self._candidates_evaluated,
                    message="verified against the specification",
                    examples_used=[list(e) for e in examples],
                )
            examples.append(counterexample)

        return SynthesisResult(
            machine_code=candidate,
            success=False,
            iterations=config.max_iterations,
            candidates_evaluated=self._candidates_evaluated,
            message=(
                "iteration budget exhausted; returning machine code that satisfies only a "
                "limited range of values (paper §5.2 failure class)"
            ),
            examples_used=[list(e) for e in examples],
        )

    # ------------------------------------------------------------------
    # CEGIS pieces
    # ------------------------------------------------------------------
    def _initial_examples(self) -> List[List[int]]:
        generator = self._make_traffic(self.config.example_max_value, self.config.seed)
        return generator.generate(self.config.num_examples)

    def _make_traffic(self, max_value: int, seed: int) -> TrafficGenerator:
        base = self._traffic_generator
        if base is not None:
            return TrafficGenerator(
                num_containers=base.num_containers,
                seed=seed,
                min_value=base.min_value,
                max_value=min(base.max_value, max_value),
                field_generators=base.field_generators,
            )
        return TrafficGenerator(
            num_containers=self.pipeline_spec.width,
            seed=seed,
            max_value=max_value,
        )

    def _spec_outputs(self, inputs: List[Tuple[int, ...]]) -> List[tuple]:
        """Expected output containers per input PHV, cached per example set.

        The inner search evaluates thousands of candidates against the same
        example set; the specification runs once per set and ``_search``
        threads the result through every candidate evaluation.  The cache
        additionally serves repeated ``synthesize()`` calls; verification traces are *not* cached (each
        CEGIS iteration draws a fresh one, so entries would never be reused
        and the 400-PHV expected outputs would only accumulate memory).
        """
        key = tuple(inputs)
        cached = self._spec_cache.get(key)
        if cached is None:
            cached = self.specification.run(inputs).outputs()
            self._spec_cache[key] = cached
        return cached

    def _matches(
        self, values: Dict[str, int], inputs: Sequence[Sequence[int]], expected: Sequence[tuple]
    ) -> bool:
        """True when one candidate produces ``expected`` on ``inputs``."""
        self._candidates_evaluated += 1
        return self._evaluator.matches(values, inputs, expected)

    def _search(self, examples: Sequence[Sequence[int]]) -> Optional[List[int]]:
        """Find an assignment with zero mismatches on ``examples`` (or ``None``)."""
        sketch = self.sketch
        prepared = prepare_inputs(self._description, examples)
        expected = self._spec_outputs(prepared)
        if not sketch.search_names:
            return [] if self._matches(sketch.to_values([]), prepared, expected) else None
        for assignment in sketch.enumerate_assignments():
            if self._matches(sketch.to_values(assignment), prepared, expected):
                return assignment
        return None

    def _verify(self, assignment: Sequence[int], seed: int) -> Optional[List[int]]:
        """Fuzz the candidate over the full value range; return a counterexample PHV or None."""
        config = self.config
        generator = self._make_traffic(config.verify_max_value, seed)
        prepared = prepare_inputs(self._description, generator.generate(config.verify_phvs))
        values = self.sketch.to_values(assignment)
        # Fresh trace every iteration (seed varies), so no point caching it.
        expected = self.specification.run(prepared).outputs()
        return self._evaluator.first_counterexample(values, prepared, expected)
