"""dRMT scheduling (paper §4.1).

"This DAG along with other parameterized data ... is then sent to the dRMT
scheduler which determines the order and timing that each match and action
needs to be performed at for optimal speeds and to prevent resource
contention.  ...  The scheduling problem is NP-hard and is formulated as an
Integer Linear Program."

The reproduction provides two back ends:

* a **greedy list scheduler** (always available) that walks the operations in
  dependency order and books each one into the earliest cycle that satisfies
  both its dependencies and the per-cycle match/action issue limits;
* an optional **MILP formulation** solved with :func:`scipy.optimize.milp`
  (time-indexed binary variables) that minimises the makespan.  It needs
  scipy and an instance of at most ``MilpScheduler.MAX_VARIABLES`` binary
  variables; asked for without them, it raises :class:`SchedulingError`.

Both honour the same constraint set, and the tests assert that every emitted
schedule respects dependencies and issue limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..errors import SchedulingError
from ..p4.dependency import ACTION_DEPENDENCY, MATCH_DEPENDENCY
from ..p4.program import P4Program
from .resources import DrmtHardwareParams

#: Operation kinds scheduled per table.
MATCH_OP = "match"
ACTION_OP = "action"

Operation = Tuple[str, str]  # (table name, MATCH_OP | ACTION_OP)


@dataclass
class Schedule:
    """A feasible dRMT schedule.

    ``start_times`` maps ``(table, op_kind)`` to the cycle (relative to the
    packet's arrival at its processor) at which the operation is launched.
    """

    start_times: Dict[Operation, int]
    hardware: DrmtHardwareParams
    makespan: int
    backend: str = "greedy"

    def start(self, table: str, op_kind: str) -> int:
        """Launch cycle of one operation."""
        return self.start_times[(table, op_kind)]

    def operations_at(self, cycle: int) -> List[Operation]:
        """Operations launched at ``cycle``."""
        return [op for op, start in self.start_times.items() if start == cycle]

    def describe(self) -> str:
        """Cycle-by-cycle rendering of the schedule (CLI / example output)."""
        lines = [f"dRMT schedule ({self.backend}), makespan {self.makespan} cycles:"]
        for cycle in range(self.makespan):
            launched = self.operations_at(cycle)
            if launched:
                rendered = ", ".join(f"{table}.{kind}" for table, kind in sorted(launched))
                lines.append(f"  cycle {cycle:3d}: {rendered}")
        return "\n".join(lines)


def _operation_graph(
    program: P4Program, dependency_graph: nx.DiGraph, hardware: DrmtHardwareParams
) -> nx.DiGraph:
    """Expand the table DAG into an operation DAG with latency-weighted edges.

    Edge weight = minimum separation between the *start* of the source
    operation and the *start* of the destination operation.
    """
    graph = nx.DiGraph()
    for table in program.table_order():
        graph.add_node((table, MATCH_OP))
        graph.add_node((table, ACTION_OP))
        # A table's action follows its own match.
        graph.add_edge((table, MATCH_OP), (table, ACTION_OP), weight=hardware.ticks_per_match)
    for before, after, data in dependency_graph.edges(data=True):
        kind = data.get("kind")
        if kind == MATCH_DEPENDENCY:
            # The later table's match must wait for the earlier table's action.
            graph.add_edge(
                (before, ACTION_OP), (after, MATCH_OP), weight=hardware.ticks_per_action
            )
        elif kind == ACTION_DEPENDENCY:
            # Matches may overlap, but the later action waits for the earlier one.
            graph.add_edge(
                (before, ACTION_OP), (after, ACTION_OP), weight=hardware.ticks_per_action
            )
    if not nx.is_directed_acyclic_graph(graph):  # pragma: no cover - defensive
        raise SchedulingError("operation dependencies form a cycle")
    return graph


def _duration(op: Operation, hardware: DrmtHardwareParams) -> int:
    return hardware.ticks_per_match if op[1] == MATCH_OP else hardware.ticks_per_action


def _issue_limit(op: Operation, hardware: DrmtHardwareParams) -> int:
    return hardware.matches_per_cycle if op[1] == MATCH_OP else hardware.actions_per_cycle


class GreedyScheduler:
    """Resource-constrained list scheduler."""

    def __init__(self, program: P4Program, dependency_graph: nx.DiGraph, hardware: DrmtHardwareParams):
        self.program = program
        self.dependency_graph = dependency_graph
        self.hardware = hardware

    def schedule(self) -> Schedule:
        """Produce a feasible schedule by earliest-fit list scheduling."""
        op_graph = _operation_graph(self.program, self.dependency_graph, self.hardware)
        hardware = self.hardware
        start_times: Dict[Operation, int] = {}
        issued: Dict[Tuple[int, str], int] = {}  # (cycle, op kind) -> operations launched

        for op in nx.topological_sort(op_graph):
            ready = 0
            for predecessor in op_graph.predecessors(op):
                separation = op_graph.edges[predecessor, op]["weight"]
                ready = max(ready, start_times[predecessor] + separation)
            cycle = ready
            limit = _issue_limit(op, hardware)
            while issued.get((cycle, op[1]), 0) >= limit:
                cycle += 1
            start_times[op] = cycle
            issued[(cycle, op[1])] = issued.get((cycle, op[1]), 0) + 1

        makespan = max(
            (start + _duration(op, hardware) for op, start in start_times.items()), default=0
        )
        return Schedule(start_times=start_times, hardware=hardware, makespan=makespan, backend="greedy")


class MilpScheduler:
    """Time-indexed MILP formulation solved with ``scipy.optimize.milp``.

    Decision variables x[op, t] ∈ {0, 1} select the launch cycle of each
    operation within a horizon, the greedy schedule's makespan; constraints
    enforce one launch per operation, dependency separations and per-cycle
    issue limits; the objective minimises the weighted sum of launch times
    (which minimises the makespan for these precedence structures).
    """

    #: Do not attempt MILP beyond this many binary variables.
    MAX_VARIABLES = 4000

    def __init__(self, program: P4Program, dependency_graph: nx.DiGraph, hardware: DrmtHardwareParams):
        self.program = program
        self.dependency_graph = dependency_graph
        self.hardware = hardware

    def schedule(self, horizon: int) -> Optional[Schedule]:
        """Return an optimised schedule, or ``None`` when there is nothing to schedule.

        Every operation launches before cycle ``horizon``, the makespan of
        the greedy schedule the MILP improves on.

        Raises :class:`SchedulingError` when scipy is missing, when the
        instance has more than :attr:`MAX_VARIABLES` binary variables, or
        when the solver finds no schedule.
        """
        try:
            import numpy as np
            from scipy.optimize import LinearConstraint, milp, Bounds
        except ImportError:
            raise SchedulingError("the MILP scheduler needs scipy, which is not installed") from None

        op_graph = _operation_graph(self.program, self.dependency_graph, self.hardware)
        operations = list(nx.topological_sort(op_graph))
        if not operations:
            return None
        if len(operations) * horizon > self.MAX_VARIABLES:
            raise SchedulingError(
                f"the MILP instance has {len(operations) * horizon} binary variables, "
                f"more than MAX_VARIABLES={self.MAX_VARIABLES}"
            )

        index = {(op, t): i for i, (op, t) in enumerate(
            ((op, t) for op in operations for t in range(horizon))
        )}
        num_vars = len(index)
        constraints = []

        # Each operation launches exactly once.
        for op in operations:
            row = np.zeros(num_vars)
            for t in range(horizon):
                row[index[(op, t)]] = 1.0
            constraints.append(LinearConstraint(row, 1, 1))

        # Dependency separation: start(after) - start(before) >= weight.
        for before, after, data in op_graph.edges(data=True):
            row = np.zeros(num_vars)
            for t in range(horizon):
                row[index[(after, t)]] += t
                row[index[(before, t)]] -= t
            constraints.append(LinearConstraint(row, data["weight"], np.inf))

        # Per-cycle issue limits per operation kind.
        for t in range(horizon):
            for op_kind, limit in ((MATCH_OP, self.hardware.matches_per_cycle),
                                   (ACTION_OP, self.hardware.actions_per_cycle)):
                row = np.zeros(num_vars)
                for op in operations:
                    if op[1] == op_kind:
                        row[index[(op, t)]] = 1.0
                constraints.append(LinearConstraint(row, 0, limit))

        # Objective: minimise the sum of launch times (ties broken towards
        # earlier launches; keeps the makespan at or below the greedy one).
        objective = np.zeros(num_vars)
        for op in operations:
            for t in range(horizon):
                objective[index[(op, t)]] += t

        result = milp(
            c=objective,
            constraints=constraints,
            integrality=np.ones(num_vars),
            bounds=Bounds(0, 1),
        )
        if not result.success or result.x is None:
            raise SchedulingError(f"the MILP solve failed: {result.message}")

        start_times: Dict[Operation, int] = {}
        for op in operations:
            for t in range(horizon):
                if result.x[index[(op, t)]] > 0.5:
                    start_times[op] = t
                    break
        makespan = max(
            start + _duration(op, self.hardware) for op, start in start_times.items()
        )
        return Schedule(
            start_times=start_times, hardware=self.hardware, makespan=makespan, backend="milp"
        )


def schedule_program(
    program: P4Program,
    dependency_graph: nx.DiGraph,
    hardware: DrmtHardwareParams,
    use_milp: bool = False,
) -> Schedule:
    """Schedule ``program`` on dRMT hardware.

    The greedy list scheduler is always used; when ``use_milp`` is set, the
    MILP schedule is returned instead unless its makespan is longer.  A MILP
    that cannot run (no scipy, too large an instance, a failed solve) raises
    :class:`SchedulingError` rather than leave the greedy schedule in place.
    """
    greedy = GreedyScheduler(program, dependency_graph, hardware).schedule()
    if use_milp:
        optimised = MilpScheduler(program, dependency_graph, hardware).schedule(greedy.makespan)
        if optimised is not None and optimised.makespan <= greedy.makespan:
            return optimised
    return greedy


def validate_schedule(
    schedule: Schedule, program: P4Program, dependency_graph: nx.DiGraph
) -> List[str]:
    """Return a list of constraint violations (empty when the schedule is feasible)."""
    violations: List[str] = []
    hardware = schedule.hardware
    op_graph = _operation_graph(program, dependency_graph, hardware)
    for before, after, data in op_graph.edges(data=True):
        if schedule.start_times[after] - schedule.start_times[before] < data["weight"]:
            violations.append(f"{after} starts before {before} completes")
    per_cycle: Dict[Tuple[int, str], int] = {}
    for (table, op_kind), start in schedule.start_times.items():
        per_cycle[(start, op_kind)] = per_cycle.get((start, op_kind), 0) + 1
    for (cycle, op_kind), count in per_cycle.items():
        limit = hardware.matches_per_cycle if op_kind == MATCH_OP else hardware.actions_per_cycle
        if count > limit:
            violations.append(f"{count} {op_kind} operations launched at cycle {cycle} (limit {limit})")
    return violations
