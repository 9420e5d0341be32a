"""A small structured IR for the Python code that dgen emits.

The IR deliberately stays close to the shape of the paper's generated Rust
pipeline descriptions (Figure 6): a module is a sequence of function
definitions plus module-level assignments; function bodies are assignments,
``if``/``else`` chains, ``return`` statements and comments.  Expressions are
carried as Python source strings produced by the code generator — the
DSL-level optimisation passes (constant propagation, folding, dead-code
elimination, inlining) run *before* code is lowered to this IR, so the IR
itself never needs to be rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class IRStmt:
    """Base class for IR statements."""

    __slots__ = ()


@dataclass
class Comment(IRStmt):
    """A ``#`` comment line (used to annotate the generated pipeline description)."""

    text: str


@dataclass
class Assign(IRStmt):
    """``target = expression`` where both sides are Python source fragments."""

    target: str
    expression: str


@dataclass
class Return(IRStmt):
    """``return expression``."""

    expression: str


@dataclass
class ExprStmt(IRStmt):
    """A bare expression statement (e.g. a call evaluated for its side effect)."""

    expression: str


@dataclass
class Pass(IRStmt):
    """A ``pass`` placeholder for empty bodies."""


@dataclass
class Break(IRStmt):
    """A ``break`` out of the innermost :class:`For` (the dRMT row scans)."""


@dataclass
class Continue(IRStmt):
    """A ``continue`` to the next iteration of the innermost :class:`For`.

    The per-packet dRMT loop uses it to skip a dropped packet's remaining
    operations.
    """


@dataclass
class If(IRStmt):
    """An ``if``/``elif``/``else`` chain.

    ``branches`` is a list of (condition source, body) pairs; ``orelse`` is
    the body of the trailing ``else`` (may be empty, in which case no
    ``else`` is emitted).
    """

    branches: List[Tuple[str, List[IRStmt]]]
    orelse: List[IRStmt] = field(default_factory=list)


@dataclass
class For(IRStmt):
    """A ``for target in iterable`` loop.

    Used by the fused (opt level 3) pipeline description, whose generated
    ``run_trace`` function loops over the whole input trace inline.
    """

    target: str
    iterable: str
    body: List[IRStmt] = field(default_factory=list)


@dataclass
class FunctionDef:
    """A top-level function definition in the generated module."""

    name: str
    params: List[str]
    body: List[IRStmt]
    docstring: Optional[str] = None


@dataclass
class Module:
    """A generated Python module: a docstring, globals, and function definitions."""

    docstring: Optional[str] = None
    globals: List[Assign] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
    trailer: List[IRStmt] = field(default_factory=list)
