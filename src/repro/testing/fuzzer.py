"""Fuzzing-based compiler testing (the workflow of Figure 5).

A :class:`FuzzTester` owns a pipeline configuration and a high-level
specification.  Given a machine-code program (typically produced by a
compiler under test), it:

1. validates that every machine-code pair the pipeline expects is present;
2. generates a pipeline description with dgen at the requested optimisation
   level (once per verdict) and an input trace of random PHVs with the
   traffic generator;
3. simulates the pipeline and runs the specification on the same input
   trace;
4. asserts equivalence of the two output traces, and — when they diverge —
   classifies the failure (output mismatch vs. limited-value-range, the
   paper's §5.2 failure classes).  The value-range re-fuzz simulates the
   same description on a second trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import dgen
from ..dsim import DEFAULT_MAX_VALUE, RMTSimulator, TrafficGenerator
from ..errors import DruzhbaError, MissingMachineCodeError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from .equivalence import compare_traces
from .report import CampaignSummary, FailureClass, FuzzOutcome
from .spec import Specification


@dataclass
class FuzzConfig:
    """Knobs of a fuzzing run.

    ``small_max_value`` is the threshold used to distinguish the paper's
    "insufficient machine code values" failures: a program that matches the
    specification for container values up to ``small_max_value`` but diverges
    over the full range is classified as :attr:`FailureClass.VALUE_RANGE`.
    """

    num_phvs: int = 1000
    seed: int = 0
    min_value: int = 0
    max_value: int = DEFAULT_MAX_VALUE
    small_max_value: int = 100
    opt_level: int = dgen.OPT_SCC_INLINE
    #: Execution engine for the simulation leg ("auto" picks the fastest
    #: available driver: fused at opt level 3, the generic sequential driver
    #: otherwise; "tick" forces the paper's per-tick model).
    engine: str = "auto"


class FuzzTester:
    """Fuzz-tests machine-code programs against a high-level specification."""

    def __init__(
        self,
        pipeline_spec: PipelineSpec,
        specification: Specification,
        config: Optional[FuzzConfig] = None,
        traffic_generator: Optional[TrafficGenerator] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
    ):
        self.pipeline_spec = pipeline_spec
        self.specification = specification
        self.config = config or FuzzConfig()
        self._traffic_generator = traffic_generator
        self._initial_state = initial_state

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def test(self, machine_code: MachineCode) -> FuzzOutcome:
        """Fuzz one machine-code program and classify the outcome."""
        config = self.config
        missing = self.pipeline_spec.validate_machine_code(machine_code)
        if missing:
            return FuzzOutcome(
                failure_class=FailureClass.MISSING_MACHINE_CODE,
                phvs_tested=0,
                missing_pairs=missing,
                seed=config.seed,
                max_value=config.max_value,
            )

        # Validated above, so dgen need not validate again.  One description
        # serves both the first run and the re-fuzz.
        try:
            description = dgen.generate(
                self.pipeline_spec,
                machine_code,
                opt_level=config.opt_level,
                validate_machine_code=False,
            )
        except DruzhbaError as error:
            return self._error_outcome(error, config.seed, config.max_value)

        outcome = self._run_once(description, config.max_value, config.seed)
        if (
            outcome.failure_class is FailureClass.OUTPUT_MISMATCH
            and self._min_value() <= config.small_max_value
        ):
            # Distinguish "wrong everywhere" from "only correct on small values"
            # (paper §5.2): re-fuzz with values restricted to the small range.
            # When the traffic's minimum lies above that range there is no
            # small value to re-fuzz with, and the mismatch stands.
            small = self._run_once(description, config.small_max_value, config.seed + 1)
            if small.failure_class is FailureClass.CORRECT:
                outcome.failure_class = FailureClass.VALUE_RANGE
        return outcome

    def test_all_levels(self, machine_code: MachineCode) -> Dict[int, FuzzOutcome]:
        """Fuzz the same machine code at every dgen optimisation level.

        Because the optimisation passes must not change behaviour, a compiler
        bug shows up identically at every level; a disagreement *between*
        levels would indicate a dgen bug instead.  Both properties are useful
        to compiler developers, so this returns the per-level outcomes.
        """
        outcomes: Dict[int, FuzzOutcome] = {}
        original_level = self.config.opt_level
        try:
            for level in dgen.OPT_LEVELS:
                self.config.opt_level = level
                outcomes[level] = self.test(machine_code)
        finally:
            self.config.opt_level = original_level
        return outcomes

    def campaign(self, machine_codes: Sequence[MachineCode]) -> CampaignSummary:
        """Fuzz a corpus of machine-code programs and aggregate the outcomes."""
        summary = CampaignSummary()
        for machine_code in machine_codes:
            summary.add(self.test(machine_code))
        return summary

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _min_value(self) -> int:
        """The smallest container value the traffic generator may draw."""
        base = self._traffic_generator
        return base.min_value if base is not None else self.config.min_value

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
            min_value=self.config.min_value,
            max_value=max_value,
        )

    @staticmethod
    def _error_outcome(error: DruzhbaError, seed: int, max_value: int) -> FuzzOutcome:
        """Classify an error raised while generating or simulating the pipeline."""
        if isinstance(error, MissingMachineCodeError):
            return FuzzOutcome(
                failure_class=FailureClass.MISSING_MACHINE_CODE,
                phvs_tested=0,
                missing_pairs=[error.name],
                seed=seed,
                max_value=max_value,
            )
        return FuzzOutcome(
            failure_class=FailureClass.SIMULATION_ERROR,
            phvs_tested=0,
            error_message=str(error),
            seed=seed,
            max_value=max_value,
        )

    def _run_once(
        self, description: dgen.PipelineDescription, max_value: int, seed: int
    ) -> FuzzOutcome:
        config = self.config
        traffic = self._make_traffic(max_value, seed)
        inputs = traffic.generate(config.num_phvs)
        simulator = RMTSimulator(
            description, initial_state=self._copy_initial_state(), engine=config.engine
        )
        try:
            result = simulator.run(inputs)
        except DruzhbaError as error:
            return self._error_outcome(error, seed, max_value)

        spec_trace = self.specification.run(inputs)
        report = compare_traces(
            result.output_trace,
            spec_trace,
            containers=self.specification.relevant_containers,
        )
        failure_class = FailureClass.CORRECT if report.equivalent else FailureClass.OUTPUT_MISMATCH
        return FuzzOutcome(
            failure_class=failure_class,
            phvs_tested=config.num_phvs,
            report=report,
            seed=seed,
            max_value=max_value,
        )

    def _copy_initial_state(self) -> Optional[List[List[List[int]]]]:
        if self._initial_state is None:
            return None
        return [[list(alu) for alu in stage] for stage in self._initial_state]


def fuzz_machine_code(
    pipeline_spec: PipelineSpec,
    machine_code: MachineCode,
    specification: Specification,
    num_phvs: int = 1000,
    seed: int = 0,
    opt_level: int = dgen.OPT_SCC_INLINE,
    traffic_generator: Optional[TrafficGenerator] = None,
    initial_state: Optional[List[List[List[int]]]] = None,
) -> FuzzOutcome:
    """One-shot helper: fuzz a single machine-code program."""
    tester = FuzzTester(
        pipeline_spec,
        specification,
        config=FuzzConfig(num_phvs=num_phvs, seed=seed, opt_level=opt_level),
        traffic_generator=traffic_generator,
        initial_state=initial_state,
    )
    return tester.test(machine_code)
