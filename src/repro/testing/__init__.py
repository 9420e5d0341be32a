"""Compiler-testing workflow (paper §3.3, Figure 5, §5.2).

High-level specifications, output-trace equivalence checking, the fuzzing
driver and the failure-classification report objects.
"""

from .equivalence import EquivalenceReport, Mismatch, compare_traces
from .fuzzer import FuzzConfig, FuzzTester
from .report import CampaignSummary, FailureClass, FuzzOutcome
from .spec import FunctionSpecification, Specification

__all__ = [
    "Specification",
    "FunctionSpecification",
    "compare_traces",
    "EquivalenceReport",
    "Mismatch",
    "FuzzTester",
    "FuzzConfig",
    "FuzzOutcome",
    "FailureClass",
    "CampaignSummary",
]
