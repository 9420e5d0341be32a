"""Bounded formal verification of pipelines (paper §7 future work).

The paper proposes SMT-based equivalence proofs between the pipeline
description and a high-level specification; with no SMT solver available
offline, this package checks every input trace over caller-bounded finite
domains instead.  Within the bounded domain the result is a
proof; outside it, the fuzzing workflow of :mod:`repro.testing` remains the
tool of choice.
"""

from .bounded import (
    BoundedCheckResult,
    check_bounded_equivalence,
    check_optimization_equivalence,
    enumerate_traces,
)

__all__ = [
    "check_bounded_equivalence",
    "check_optimization_equivalence",
    "enumerate_traces",
    "BoundedCheckResult",
]
