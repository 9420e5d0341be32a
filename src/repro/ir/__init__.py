"""Lightweight IR used by dgen to build and render pipeline descriptions."""

from .nodes import Assign, Comment, ExprStmt, FunctionDef, If, IRStmt, Module, Pass, Return
from .printer import execute, to_source

__all__ = [
    "Assign",
    "Comment",
    "ExprStmt",
    "FunctionDef",
    "If",
    "IRStmt",
    "Module",
    "Pass",
    "Return",
    "to_source",
    "execute",
]
