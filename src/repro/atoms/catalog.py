"""Parsed, analysed atom catalogue.

Parsing an atom is cheap but not free; the catalogue caches the analysed
:class:`~repro.alu_dsl.ast_nodes.ALUSpec` objects so the benchmark suite can
build many pipelines without re-running the ALU DSL front end.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from ..alu_dsl import ALUSpec, parse_and_analyze
from ..errors import ALUDSLError
from .sources import STATEFUL_SOURCES, STATELESS_SOURCES


@lru_cache(maxsize=None)
def _build_catalog(kind: str) -> Dict[str, ALUSpec]:
    sources = STATEFUL_SOURCES if kind == "stateful" else STATELESS_SOURCES
    catalog: Dict[str, ALUSpec] = {}
    for name, source in sources.items():
        catalog[name] = parse_and_analyze(source, name=name)
    return catalog


def atom_names() -> List[str]:
    """Every atom name in the catalogue (stateful first, then stateless)."""
    return list(STATEFUL_SOURCES) + list(STATELESS_SOURCES)


def get_atom(name: str) -> ALUSpec:
    """Look up one atom by name.

    Raises :class:`ALUDSLError` with the list of known atoms when the name is
    unknown, so callers get an actionable message.
    """
    stateful = _build_catalog("stateful")
    if name in stateful:
        return stateful[name]
    stateless = _build_catalog("stateless")
    if name in stateless:
        return stateless[name]
    raise ALUDSLError(
        f"unknown atom {name!r}; known atoms: {', '.join(atom_names())}"
    )
