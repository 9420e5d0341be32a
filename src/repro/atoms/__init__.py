"""Banzai atom catalogue: 6 stateful and 5 stateless ALUs in the ALU DSL (paper §3.1)."""

from .catalog import atom_names, get_atom
from .sources import STATEFUL_SOURCES, STATELESS_SOURCES

__all__ = [
    "atom_names",
    "get_atom",
    "STATEFUL_SOURCES",
    "STATELESS_SOURCES",
]
