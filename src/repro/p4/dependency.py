"""Table-dependency DAG extraction (paper §4.1).

dRMT dgen "converts the given P4 file into a DAG representing the
match+action table dependencies".  Following the classification used by the
RMT and dRMT papers (and by p4-hlir's dependency analysis), two tables A and
B with A preceding B in the control flow have:

* a **match dependency** when an action of A writes a field that B matches
  on (B's match must wait for A's action to finish);
* an **action dependency** when an action of A and an action of B write the
  same field, or both touch the same register (B's action must follow A's
  action);
* a **successor dependency** otherwise (only the control-flow order links
  them; their operations may overlap freely except for table predication).

The DAG is a :class:`networkx.DiGraph` whose nodes are table names and whose
edges carry a ``kind`` attribute (``match`` / ``action`` / ``successor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import networkx as nx

from ..errors import P4SemanticError
from .program import P4Program

#: Dependency kinds, strongest first.
MATCH_DEPENDENCY = "match"
ACTION_DEPENDENCY = "action"
SUCCESSOR_DEPENDENCY = "successor"


@dataclass
class TableUsage:
    """Field and register usage summary for one table."""

    name: str
    match_fields: Set[str]
    action_reads: Set[str]
    action_writes: Set[str]
    registers: Set[str]
    register_writes: Set[str]


def table_usage(program: P4Program, table_name: str) -> TableUsage:
    """Compute the field/register usage of one table across all of its actions.

    The default action counts like any other: a miss runs it.
    """
    table = program.tables.get(table_name)
    if table is None:
        raise P4SemanticError(f"unknown table {table_name!r}")
    reads: Set[str] = set()
    writes: Set[str] = set()
    registers: Set[str] = set()
    register_writes: Set[str] = set()
    for action_name in table.action_names():
        action = program.actions[action_name]
        reads.update(action.fields_read())
        writes.update(action.fields_written())
        registers.update(action.registers_used())
        register_writes.update(action.registers_written())
    return TableUsage(
        name=table_name,
        match_fields=set(table.match_fields()),
        action_reads=reads,
        action_writes=writes,
        registers=registers,
        register_writes=register_writes,
    )


def classify_dependency(before: TableUsage, after: TableUsage) -> str:
    """Classify the dependency from ``before`` to ``after`` (control-flow order)."""
    if before.action_writes & after.match_fields:
        return MATCH_DEPENDENCY
    if (
        (before.action_writes & after.action_writes)
        or (before.action_writes & after.action_reads)
        or (before.action_reads & after.action_writes)
        or (before.registers & after.registers)
    ):
        return ACTION_DEPENDENCY
    return SUCCESSOR_DEPENDENCY


def build_dependency_graph(program: P4Program) -> nx.DiGraph:
    """Build the table-dependency DAG for ``program``.

    Nodes are table names (with a ``order`` attribute giving control-flow
    position); edges connect earlier tables to later tables and carry their
    dependency ``kind``.  Only adjacent-in-control-flow pairs *and* pairs
    with a real data dependency get edges, so independent tables remain
    unordered and the scheduler may overlap them.
    """
    order = program.table_order()
    if len(set(order)) != len(order):
        raise P4SemanticError("control flow applies a table more than once; unsupported")

    graph = nx.DiGraph()
    usages: Dict[str, TableUsage] = {}
    for position, table_name in enumerate(order):
        usages[table_name] = table_usage(program, table_name)
        graph.add_node(table_name, order=position)

    for i, earlier in enumerate(order):
        for later in order[i + 1 :]:
            kind = classify_dependency(usages[earlier], usages[later])
            if kind != SUCCESSOR_DEPENDENCY:
                graph.add_edge(earlier, later, kind=kind)

    # Conditional application: a table guarded on a field written by an
    # earlier table is control-dependent on it (treated as a match dependency
    # because the predicate must be resolved before the match is issued).
    for apply in program.control_flow:
        if apply.condition_field is None:
            continue
        for earlier in order[: order.index(apply.table)]:
            if apply.condition_field in usages[earlier].action_writes:
                graph.add_edge(earlier, apply.table, kind=MATCH_DEPENDENCY)

    if not nx.is_directed_acyclic_graph(graph):  # pragma: no cover - defensive
        raise P4SemanticError("table dependencies form a cycle; the program is not feed-forward")
    return graph


def critical_path(graph: nx.DiGraph) -> List[str]:
    """Longest dependency chain (by table count) — a lower bound on program latency."""
    if graph.number_of_nodes() == 0:
        return []
    return nx.dag_longest_path(graph)


def dependency_summary(graph: nx.DiGraph) -> Dict[str, int]:
    """Count edges per dependency kind (used in reports and tests)."""
    summary = {MATCH_DEPENDENCY: 0, ACTION_DEPENDENCY: 0, SUCCESSOR_DEPENDENCY: 0}
    for _u, _v, data in graph.edges(data=True):
        summary[data.get("kind", SUCCESSOR_DEPENDENCY)] += 1
    return summary
