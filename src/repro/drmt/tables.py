"""Match+action tables for dRMT simulation (paper §4.2).

dRMT "accesses centralized match+action tables using shared memory through a
crossbar"; this module models those tables: typed entries (exact, ternary and
longest-prefix matches), lookup against a packet's field values, and the
shared table store that every processor consults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import TableConfigError
from ..p4.program import P4Program, Table


@dataclass(frozen=True)
class MatchPattern:
    """One field's match pattern inside a table entry.

    * exact: ``value`` must equal the packet field;
    * ternary: ``(packet & mask) == (value & mask)``;
    * lpm: the top ``prefix_len`` bits of a ``width``-bit field must match.
    """

    kind: str
    value: int
    mask: Optional[int] = None
    prefix_len: Optional[int] = None
    width: int = 32

    def matches(self, field_value: int) -> bool:
        """True when ``field_value`` satisfies this pattern."""
        if self.kind == "exact":
            return field_value == self.value
        if self.kind == "ternary":
            mask = self.mask if self.mask is not None else (1 << self.width) - 1
            return (field_value & mask) == (self.value & mask)
        if self.kind == "lpm":
            prefix = self.prefix_len if self.prefix_len is not None else self.width
            if prefix == 0:
                return True
            shift = max(self.width - prefix, 0)
            return (field_value >> shift) == (self.value >> shift)
        raise TableConfigError(f"unknown match kind {self.kind!r}")

    @property
    def match_mask(self) -> int:
        """The mask ``m`` for which :meth:`matches` is ``v & m == value & m``.

        Exact compares every bit (``-1``); ternary uses its mask (all
        ``width`` bits when none is given); a ``p``-bit LPM prefix clears the
        low ``width - p`` bits with a negative mask, which equals the ``>>``
        comparison for any integer, values wider than the field included.
        """
        if self.kind == "exact":
            return -1
        if self.kind == "ternary":
            return self.mask if self.mask is not None else (1 << self.width) - 1
        if self.kind == "lpm":
            prefix = self.prefix_len if self.prefix_len is not None else self.width
            if prefix == 0:
                return 0
            return -(1 << max(self.width - prefix, 0))
        raise TableConfigError(f"unknown match kind {self.kind!r}")

    @property
    def specificity(self) -> int:
        """Used to order LPM entries: longer prefixes win."""
        if self.kind == "lpm":
            return self.prefix_len if self.prefix_len is not None else self.width
        if self.kind == "exact":
            return self.width
        mask = self.mask if self.mask is not None else (1 << self.width) - 1
        return bin(mask).count("1")


@dataclass
class TableEntry:
    """One row of a match+action table."""

    patterns: Dict[str, MatchPattern]
    action: str
    action_args: List[int] = field(default_factory=list)
    priority: int = 0

    def matches(self, fields: Mapping[str, int]) -> bool:
        """True when every pattern matches the packet's field values."""
        for field_name, pattern in self.patterns.items():
            if not pattern.matches(fields.get(field_name, 0)):
                return False
        return True

    @property
    def specificity(self) -> int:
        """Combined specificity used to break ties between matching entries."""
        return sum(pattern.specificity for pattern in self.patterns.values())


def check_action_args(program: P4Program, table_name: str, entry: TableEntry) -> None:
    """Raise when ``entry`` passes its action more arguments than it has parameters.

    Fewer arguments are accepted: a missing one reads as 0 under both drivers.
    """
    action = program.actions.get(entry.action)
    if action is not None and len(entry.action_args) > len(action.params):
        raise TableConfigError(
            f"table {table_name!r}: action {entry.action!r} takes {len(action.params)} "
            f"argument(s), the entry passes {len(entry.action_args)}"
        )


class MatchActionTable:
    """A populated match+action table."""

    def __init__(self, definition: Table, program: P4Program):
        self.definition = definition
        self.program = program
        self.entries: List[TableEntry] = []
        self.hit_count = 0
        self.miss_count = 0

    def add_entry(self, entry: TableEntry) -> None:
        """Append an entry (validated against the table's reads and actions)."""
        expected_fields = set(self.definition.match_fields())
        if set(entry.patterns) != expected_fields:
            raise TableConfigError(
                f"table {self.definition.name!r} matches on {sorted(expected_fields)}, entry supplies "
                f"{sorted(entry.patterns)}"
            )
        if entry.action not in self.definition.actions:
            raise TableConfigError(
                f"table {self.definition.name!r} cannot invoke action {entry.action!r}; allowed: "
                f"{self.definition.actions}"
            )
        check_action_args(self.program, self.definition.name, entry)
        if len(self.entries) >= self.definition.size:
            raise TableConfigError(f"table {self.definition.name!r} is full (size {self.definition.size})")
        self.entries.append(entry)

    def lookup(self, fields: Mapping[str, int]) -> Optional[TableEntry]:
        """Find the best matching entry (highest priority, then most specific)."""
        candidates = [entry for entry in self.entries if entry.matches(fields)]
        if not candidates:
            self.miss_count += 1
            return None
        self.hit_count += 1
        return max(candidates, key=lambda entry: (entry.priority, entry.specificity))

    @property
    def is_exact(self) -> bool:
        """True when every ``reads`` clause entry uses the exact match kind.

        Such a table's linear scan can be specialised into one dict probe;
        the fused dRMT code generator keys on the same definition property.
        """
        return self.definition.is_exact

    def resolved_action(self, entry: TableEntry) -> Tuple[int, ...]:
        """``(action index, arg0, arg1, ...)``: ``entry``'s action as the fused loop runs it.

        The index is the action's position in the table's ``actions`` list;
        the arguments are padded with 0 to the action's arity, as the tick
        interpreter binds a missing argument.
        """
        arity = len(self.program.actions[entry.action].params)
        args = tuple(entry.action_args) + (0,) * (arity - len(entry.action_args))
        return (self.definition.actions.index(entry.action),) + args

    def exact_index(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """The dict-lookup specialisation of an all-exact table.

        Maps the tuple of pattern values (in ``match_fields`` order) to the
        :meth:`resolved_action` of the entry :meth:`lookup` would return for
        a packet carrying exactly those values: when several entries share
        one key, the winner is the highest ``(priority, specificity)`` pair,
        earliest added on ties — the same tie-break ``max`` applies over the
        scan's candidate list.  Rebuild after adding entries; the generated
        fused loop builds it once per ``run_trace`` call.
        """
        if not self.is_exact:
            raise TableConfigError(
                f"table {self.definition.name!r} mixes match kinds; only all-exact tables "
                "can be specialised into a dict index"
            )
        field_order = self.definition.match_fields()
        index: Dict[Tuple[int, ...], TableEntry] = {}
        for entry in self.entries:
            key = tuple(entry.patterns[name].value for name in field_order)
            best = index.get(key)
            if best is None or (entry.priority, entry.specificity) > (
                best.priority,
                best.specificity,
            ):
                index[key] = entry
        return {key: self.resolved_action(entry) for key, entry in index.items()}

    def masked_rows(self) -> List[tuple]:
        """The first-match specialisation of a table of any match kinds.

        One row per entry, ``(mask0, want0, mask1, want1, ..., action)`` in
        ``match_fields`` order, where ``want = value & mask`` (see
        :attr:`MatchPattern.match_mask`) and ``action`` is the entry's
        :meth:`resolved_action`: a packet matches a row when every
        ``fields.get(field, 0) & mask == want``.  Rows are sorted by
        ``(priority, specificity)``, descending and stable, so the first
        matching row holds the entry :meth:`lookup` returns — ``max`` over
        the candidates, earliest added on ties.  Rebuild after adding
        entries; the generated fused loop builds the rows once per
        ``run_trace`` call.
        """
        field_order = self.definition.match_fields()
        rows = []
        for entry in sorted(
            self.entries, key=lambda entry: (entry.priority, entry.specificity), reverse=True
        ):
            row: List[object] = []
            for name in field_order:
                pattern = entry.patterns[name]
                mask = pattern.match_mask
                row += (mask, pattern.value & mask)
            row.append(self.resolved_action(entry))
            rows.append(tuple(row))
        return rows


class TableStore:
    """The centralised table memory shared by every dRMT processor."""

    def __init__(self, program: P4Program):
        self.program = program
        self.tables: Dict[str, MatchActionTable] = {
            name: MatchActionTable(definition, program) for name, definition in program.tables.items()
        }

    def __getitem__(self, name: str) -> MatchActionTable:
        try:
            return self.tables[name]
        except KeyError:
            raise TableConfigError(f"unknown table {name!r}") from None

    def add_entry(self, table_name: str, entry: TableEntry) -> None:
        """Add one entry to one table."""
        self[table_name].add_entry(entry)

    def hit_statistics(self) -> Dict[str, Tuple[int, int]]:
        """Per-table (hits, misses) counters accumulated during simulation."""
        return {name: (table.hit_count, table.miss_count) for name, table in self.tables.items()}
