"""Exception hierarchy for the Druzhba reproduction.

Every error raised by the library derives from :class:`DruzhbaError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure categories that the paper's
workflow cares about (for instance, §5.2 distinguishes "machine code
incompatible with the pipeline" from "output trace mismatch").
"""

from __future__ import annotations


class DruzhbaError(Exception):
    """Base class of every exception raised by this library."""


class _Located(DruzhbaError):
    """A syntax error carrying the ``line`` and ``column`` of the offending text when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class ALUDSLError(DruzhbaError):
    """Base class for errors in the ALU domain-specific language."""


class ALUDSLSyntaxError(_Located, ALUDSLError):
    """Raised when ALU DSL source text cannot be tokenised or parsed.

    Carries the ``line`` and ``column`` of the offending token when known so
    that compiler developers get a precise location, matching how dgen reports
    malformed ALU specifications.
    """


class ALUDSLSemanticError(ALUDSLError):
    """Raised when a parsed ALU specification is structurally invalid.

    Examples: a stateless ALU referencing state variables, an undeclared
    identifier, or a stateful ALU without any state variables.
    """


class MachineCodeError(DruzhbaError):
    """Base class for machine-code-related failures."""


class MissingMachineCodeError(MachineCodeError):
    """A required machine-code pair is absent.

    This is the first failure class observed in the paper's case study (§5.2):
    two of the eight Chipmunk failures were "missing machine code pairs from
    the input file to program the behavior of the pipeline's output
    multiplexers".
    """

    def __init__(self, name: str, message: str | None = None):
        super().__init__(message or f"missing machine code pair: {name!r}")
        self.name = name


class MachineCodeValueError(MachineCodeError):
    """A machine-code value is outside the domain of its primitive.

    For example an opcode of 7 handed to a 2-way multiplexer.
    """


class CodegenError(DruzhbaError):
    """Raised when dgen cannot generate a pipeline description."""


class SimulationError(DruzhbaError):
    """Raised when dsim cannot run a pipeline description."""


class SpecificationError(DruzhbaError):
    """Raised when a high-level specification is malformed or misbehaves."""


class EquivalenceError(DruzhbaError):
    """Raised (optionally) when the pipeline trace and the spec trace diverge."""


class SynthesisError(DruzhbaError):
    """Raised when the chipmunk synthesis engine cannot find machine code."""


class AllocationError(DruzhbaError):
    """Raised when a program cannot be placed onto the pipeline grid."""


class DominoError(DruzhbaError):
    """Base class for errors in the Domino-like frontend."""


class DominoSyntaxError(_Located, DominoError):
    """Raised when Domino source text cannot be tokenised or parsed."""


class DominoSemanticError(DominoError):
    """Raised when a Domino program is structurally invalid."""


class P4Error(DruzhbaError):
    """Base class for errors in the P4-14-like program model."""


class P4SyntaxError(_Located, P4Error):
    """Raised when P4-14-like source text cannot be parsed."""


class P4SemanticError(P4Error):
    """Raised when a P4 program model is inconsistent (e.g. action refers to a
    missing header field, or a table references an undefined action)."""


class SchedulingError(DruzhbaError):
    """Raised when the dRMT scheduler cannot produce a feasible schedule."""


class TableConfigError(DruzhbaError):
    """Raised when a dRMT table-entries configuration file is invalid."""
