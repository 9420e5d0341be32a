"""Pretty-printer: lowers the dgen IR to Python source text.

The emitted source is what the paper calls the *pipeline description*.  It is
meant to be both executable (``compile`` + ``exec``) and readable — the paper
notes that function inlining "is helpful in debugging since the pipeline
description becomes more concise, making it easier to read" (§3.4), so we
keep the output tidy and annotated.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .nodes import (
    Assign,
    Break,
    Comment,
    Continue,
    ExprStmt,
    For,
    FunctionDef,
    If,
    IRStmt,
    Module,
    Pass,
    Return,
)

_INDENT = "    "


def _emit_stmt(statement: IRStmt, indent: int, lines: List[str]) -> None:
    pad = _INDENT * indent
    if isinstance(statement, Comment):
        for text_line in statement.text.splitlines() or [""]:
            lines.append(f"{pad}# {text_line}".rstrip())
    elif isinstance(statement, Assign):
        lines.append(f"{pad}{statement.target} = {statement.expression}")
    elif isinstance(statement, Return):
        lines.append(f"{pad}return {statement.expression}")
    elif isinstance(statement, ExprStmt):
        lines.append(f"{pad}{statement.expression}")
    elif isinstance(statement, Pass):
        lines.append(f"{pad}pass")
    elif isinstance(statement, Break):
        lines.append(f"{pad}break")
    elif isinstance(statement, If):
        for index, (condition, body) in enumerate(statement.branches):
            keyword = "if" if index == 0 else "elif"
            lines.append(f"{pad}{keyword} {condition}:")
            if body:
                for inner in body:
                    _emit_stmt(inner, indent + 1, lines)
            else:
                lines.append(f"{pad}{_INDENT}pass")
        if statement.orelse:
            lines.append(f"{pad}else:")
            for inner in statement.orelse:
                _emit_stmt(inner, indent + 1, lines)
    elif isinstance(statement, For):
        lines.append(f"{pad}for {statement.target} in {statement.iterable}:")
        if statement.body:
            for inner in statement.body:
                _emit_stmt(inner, indent + 1, lines)
        else:
            lines.append(f"{pad}{_INDENT}pass")
    elif isinstance(statement, Continue):
        lines.append(f"{pad}continue")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown IR statement {type(statement).__name__}")


def _emit_function(function: FunctionDef, lines: List[str]) -> None:
    params = ", ".join(function.params)
    lines.append(f"def {function.name}({params}):")
    if function.docstring:
        lines.append(f'{_INDENT}"""{function.docstring}"""')
    if function.body:
        for statement in function.body:
            _emit_stmt(statement, 1, lines)
    else:
        lines.append(f"{_INDENT}pass")
    lines.append("")


def to_source(module: Module) -> str:
    """Render ``module`` as Python source text."""
    lines: List[str] = []
    if module.docstring:
        lines.append(f'"""{module.docstring}"""')
        lines.append("")
    for assignment in module.globals:
        lines.append(f"{assignment.target} = {assignment.expression}")
    if module.globals:
        lines.append("")
    for function in module.functions:
        _emit_function(function, lines)
    for statement in module.trailer:
        _emit_stmt(statement, 0, lines)
    text = "\n".join(lines).rstrip() + "\n"
    return text


def execute(module: Module, module_name: str) -> Tuple[str, Dict[str, object]]:
    """Render ``module``, then compile and run it in a fresh namespace.

    Generated code is self-contained by construction (it only uses
    builtins).  Returns the source text and the executed namespace.
    """
    source = to_source(module)
    namespace: Dict[str, object] = {"__name__": module_name}
    exec(compile(source, f"<{module_name}>", "exec"), namespace)  # noqa: S102 - generated here
    return source, namespace
