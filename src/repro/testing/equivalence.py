"""Output-trace equivalence checking.

"Assertions check the equivalence of the output traces to determine if the
behaviors of the Druzhba pipeline and the specification match" (paper §3.3).
This module implements that check and produces a structured report of every
disagreement so that compiler developers can see exactly which PHV, which
container and which values diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..dsim.trace import Trace
from ..errors import EquivalenceError


@dataclass(frozen=True)
class Mismatch:
    """A single disagreement between the pipeline trace and the spec trace."""

    phv_id: int
    container: int
    expected: int
    actual: int
    inputs: tuple

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"PHV {self.phv_id}: container {self.container} expected {self.expected}, "
            f"pipeline produced {self.actual} (inputs {list(self.inputs)})"
        )


@dataclass
class EquivalenceReport:
    """Result of comparing a pipeline output trace against a specification trace.

    ``mismatch_count`` counts every disagreement seen, including those not
    materialised as :class:`Mismatch` objects (count-only mode) or skipped by
    an early exit (``limit``); ``truncated`` records that the comparison
    stopped early, in which case ``mismatch_count`` is a lower bound.
    """

    compared_phvs: int
    compared_containers: Sequence[int]
    mismatches: List[Mismatch] = field(default_factory=list)
    mismatch_count: int = 0
    truncated: bool = False

    @property
    def equivalent(self) -> bool:
        """True when the two traces agree on every compared container."""
        return self.mismatch_count == 0 and not self.mismatches

    @property
    def first_mismatch(self) -> Optional[Mismatch]:
        """The earliest mismatch (the fuzzing counterexample), if any."""
        return self.mismatches[0] if self.mismatches else None

    def describe(self, limit: int = 10) -> str:
        """Multi-line summary suitable for CLI output and assertion messages."""
        if self.equivalent:
            return (
                f"traces equivalent over {self.compared_phvs} PHVs "
                f"(containers {list(self.compared_containers)})"
            )
        count = max(self.mismatch_count, len(self.mismatches))
        lines = [
            f"{count}{'+' if self.truncated else ''} mismatch(es) over "
            f"{self.compared_phvs} PHVs (containers {list(self.compared_containers)}):"
        ]
        lines.extend(mismatch.describe() for mismatch in self.mismatches[:limit])
        if len(self.mismatches) > limit:
            lines.append(f"... ({len(self.mismatches) - limit} more)")
        return "\n".join(lines)

def compare_traces(
    pipeline_trace: Trace,
    spec_trace: Trace,
    containers: Optional[Sequence[int]] = None,
    count_only: bool = False,
    limit: Optional[int] = None,
) -> EquivalenceReport:
    """Compare two output traces PHV by PHV.

    ``containers`` restricts the comparison to the specification's relevant
    containers; when omitted every container is compared.  The traces must
    describe the same number of PHVs (they were produced from the same input
    trace).

    Two knobs serve hot loops that only need a verdict or a first
    counterexample rather than the full mismatch list (the bounded
    exhaustive checks in :mod:`repro.verification.bounded` screen up to
    100k traces this way; the CEGIS inner search uses the same idea via its
    own :class:`repro.chipmunk.synthesis._CandidateEvaluator`):

    * ``count_only`` skips building :class:`Mismatch` objects; only
      ``mismatch_count`` is filled in.
    * ``limit`` stops the comparison once more than ``limit`` mismatches have
      been seen.  ``limit=0`` stops at the very first mismatch — which is
      still materialised unless ``count_only`` is set, so it doubles as a
      cheap "find one counterexample" mode.
    """
    pipeline_outputs = pipeline_trace.outputs()
    spec_outputs = spec_trace.outputs()
    if len(pipeline_outputs) != len(spec_outputs):
        raise EquivalenceError(
            f"trace lengths differ: pipeline={len(pipeline_outputs)}, spec={len(spec_outputs)}"
        )
    if containers is None:
        width = len(pipeline_outputs[0]) if pipeline_outputs else 0
        containers = list(range(width))

    report = EquivalenceReport(compared_phvs=len(pipeline_outputs), compared_containers=list(containers))
    for index, (outputs, expected_outputs) in enumerate(zip(pipeline_outputs, spec_outputs)):
        for container in containers:
            actual = outputs[container]
            expected = expected_outputs[container]
            if actual != expected:
                report.mismatch_count += 1
                if not count_only:
                    # Only a mismatch reads the pipeline's records (for the
                    # id and inputs); a clean verdict never builds them.
                    record = pipeline_trace[index]
                    report.mismatches.append(
                        Mismatch(
                            phv_id=record.phv_id,
                            container=container,
                            expected=expected,
                            actual=actual,
                            inputs=record.inputs,
                        )
                    )
                if limit is not None and report.mismatch_count > limit:
                    report.truncated = True
                    return report
    return report
