"""Bounded pipeline-level equivalence checking (paper §7 future work).

Fuzzing (§3.3) "only demonstrates input-output behavior" on sampled traces;
the paper's future work asks for equivalence that can be *proven*.  Without
an SMT solver, this module proves equivalence over an explicitly bounded
domain by exhaustively enumerating every input trace whose container values
come from a finite value domain and whose length is fixed — every execution
in that space is checked, so a pass is a proof for the bounded domain and a
failure always comes with a concrete counterexample trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import dgen
from ..dsim import RMTSimulator
from ..dsim.pipeline import copy_state
from ..errors import SpecificationError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from ..testing.equivalence import EquivalenceReport, compare_traces
from ..testing.spec import Specification


@dataclass
class BoundedCheckResult:
    """Outcome of a bounded exhaustive equivalence check."""

    verified: bool
    traces_checked: int
    trace_length: int
    value_domain: List[int]
    counterexample_trace: Optional[List[List[int]]] = None
    counterexample_report: Optional[EquivalenceReport] = None

    def describe(self) -> str:
        """Human-readable summary."""
        domain = f"values {self.value_domain}, trace length {self.trace_length}"
        if self.verified:
            return (
                f"equivalence PROVEN over the bounded domain ({domain}): "
                f"{self.traces_checked} traces checked exhaustively"
            )
        assert self.counterexample_report is not None
        return (
            f"equivalence REFUTED ({domain}) after {self.traces_checked} traces; "
            f"counterexample trace {self.counterexample_trace}: "
            f"{self.counterexample_report.describe(limit=3)}"
        )


def _count_traces(num_values: int, width: int, trace_length: int) -> int:
    return (num_values ** width) ** trace_length


def enumerate_traces(value_domain: Sequence[int], width: int, trace_length: int):
    """Yield every input trace over the bounded domain (lexicographic order)."""
    phv_space = [list(phv) for phv in itertools.product(value_domain, repeat=width)]
    for trace in itertools.product(phv_space, repeat=trace_length):
        yield [list(phv) for phv in trace]


def check_bounded_equivalence(
    pipeline_spec: PipelineSpec,
    machine_code: MachineCode,
    specification: Specification,
    value_domain: Sequence[int],
    trace_length: int = 2,
    initial_state: Optional[List[List[List[int]]]] = None,
    opt_level: int = dgen.OPT_SCC_INLINE,
    max_traces: int = 100_000,
) -> BoundedCheckResult:
    """Prove (or refute) pipeline-vs-specification equivalence over a bounded domain.

    The pipeline description is generated once; every input trace of length
    ``trace_length`` whose container values are drawn from ``value_domain``
    is then simulated and compared against the specification on the
    specification's relevant containers.  State matters: starting every trace
    from the same initial state and checking multi-PHV traces covers the
    stateful behaviour that single-packet checks would miss.
    """
    domain = sorted(set(int(v) for v in value_domain))
    if not domain:
        raise SpecificationError("value domain must not be empty")
    if trace_length < 1:
        raise SpecificationError("trace length must be at least 1")
    total = _count_traces(len(domain), pipeline_spec.width, trace_length)
    if total > max_traces:
        raise SpecificationError(
            f"bounded check would need {total} traces (> max_traces={max_traces}); "
            "shrink the value domain, the trace length or the pipeline width"
        )

    description = dgen.generate(pipeline_spec, machine_code, opt_level=opt_level)

    traces_checked = 0
    for trace in enumerate_traces(domain, pipeline_spec.width, trace_length):
        traces_checked += 1
        simulator = RMTSimulator(description, initial_state=copy_state(initial_state))
        result = simulator.run(trace)
        expected = specification.run(trace)
        # Fast screen first (count-only, stop at the first disagreement);
        # the full mismatch report is only built for the counterexample.
        screen = compare_traces(
            result.output_trace,
            expected,
            containers=specification.relevant_containers,
            count_only=True,
            limit=0,
        )
        if not screen.equivalent:
            report = compare_traces(
                result.output_trace, expected, containers=specification.relevant_containers
            )
            return BoundedCheckResult(
                verified=False,
                traces_checked=traces_checked,
                trace_length=trace_length,
                value_domain=domain,
                counterexample_trace=trace,
                counterexample_report=report,
            )
    return BoundedCheckResult(
        verified=True,
        traces_checked=traces_checked,
        trace_length=trace_length,
        value_domain=domain,
    )


def check_optimization_equivalence(
    pipeline_spec: PipelineSpec,
    machine_code: MachineCode,
    value_domain: Sequence[int],
    trace_length: int = 2,
    initial_state: Optional[List[List[List[int]]]] = None,
    max_traces: int = 100_000,
) -> BoundedCheckResult:
    """Prove that every dgen optimisation level agrees over a bounded domain.

    This is the verification-strength version of the property-based test that
    guards the §3.4 optimisations: for every trace in the bounded domain the
    unoptimised, SCC-propagated, inlined and fused pipeline descriptions must
    produce identical outputs and final state (the fused level additionally
    exercises the generated ``run_trace`` fast path).
    """
    domain = sorted(set(int(v) for v in value_domain))
    if not domain:
        raise SpecificationError("value domain must not be empty")
    total = _count_traces(len(domain), pipeline_spec.width, trace_length)
    if total > max_traces:
        raise SpecificationError(
            f"bounded check would need {total} traces (> max_traces={max_traces})"
        )

    descriptions = {
        level: dgen.generate(pipeline_spec, machine_code, opt_level=level)
        for level in dgen.OPT_LEVELS
    }

    traces_checked = 0
    for trace in enumerate_traces(domain, pipeline_spec.width, trace_length):
        traces_checked += 1
        results: Dict[int, object] = {}
        for level, description in descriptions.items():
            simulator = RMTSimulator(description, initial_state=copy_state(initial_state))
            results[level] = simulator.run(trace)
        baseline = results[dgen.OPT_UNOPTIMIZED]
        for level in (dgen.OPT_SCC, dgen.OPT_SCC_INLINE, dgen.OPT_FUSED):
            candidate = results[level]
            if candidate.outputs != baseline.outputs or candidate.final_state != baseline.final_state:
                report = compare_traces(candidate.output_trace, baseline.output_trace)
                return BoundedCheckResult(
                    verified=False,
                    traces_checked=traces_checked,
                    trace_length=trace_length,
                    value_domain=domain,
                    counterexample_trace=trace,
                    counterexample_report=report,
                )
    return BoundedCheckResult(
        verified=True,
        traces_checked=traces_checked,
        trace_length=trace_length,
        value_domain=domain,
    )
