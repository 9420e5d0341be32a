"""Table-entry configuration format (paper §4.2).

"dsim ... takes in ... a table entries file in our own configuration format
that specifies the table entries that will be added to the match+action
tables.  The configuration format ... primarily consists of (1) the table
that the entry will be added to, (2) the packet field to be matched on,
(3) the type of match to perform (e.g. ternary, exact), and (4) the
corresponding action to be executed if there is a match."

The reproduction's textual format is one entry per line::

    add <table> <field>=<pattern> [<field>=<pattern> ...] => <action>(<arg>, <arg>, ...)

with patterns written as

* ``42`` — exact match;
* ``42&&&0xff`` — ternary match (value ``&&&`` mask);
* ``42/24`` — longest-prefix match (value ``/`` prefix length).

Every value is a P4 integer literal (decimal without a leading zero, or
``0x`` hex), read by :func:`repro.p4.program.integer_literal`; ``-1``,
``0b11`` or ``1_0`` is an error naming the line.  ``#`` and ``//``
comments and blank lines are ignored.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from ..errors import TableConfigError
from ..p4.program import P4Program, integer_literal
from .tables import MatchPattern, TableEntry, TableStore, check_action_args

_LINE_RE = re.compile(
    r"^add\s+(?P<table>\w+)\s+(?P<matches>.*?)\s*=>\s*(?P<action>\w+)\s*\((?P<args>[^)]*)\)\s*$"
)
_MATCH_RE = re.compile(r"(?P<field>[\w.]+)\s*=\s*(?P<pattern>[^\s]+)")


def _parse_int(text: str) -> int:
    value = integer_literal(text)
    if value is None:
        raise TableConfigError(f"{text!r} is not an integer literal")
    return value


def parse_pattern(text: str, kind: str, width: int) -> MatchPattern:
    """Parse one field's pattern according to the table's declared match kind."""
    if kind == "exact":
        return MatchPattern(kind="exact", value=_parse_int(text), width=width)
    if kind == "ternary":
        if "&&&" in text:
            value_text, mask_text = text.split("&&&", 1)
            return MatchPattern(
                kind="ternary", value=_parse_int(value_text), mask=_parse_int(mask_text), width=width
            )
        return MatchPattern(kind="ternary", value=_parse_int(text), mask=(1 << width) - 1, width=width)
    if kind == "lpm":
        if "/" in text:
            value_text, prefix_text = text.split("/", 1)
            return MatchPattern(
                kind="lpm", value=_parse_int(value_text), prefix_len=_parse_int(prefix_text), width=width
            )
        return MatchPattern(kind="lpm", value=_parse_int(text), prefix_len=width, width=width)
    raise TableConfigError(f"unsupported match kind {kind!r}")


def parse_entry_line(line: str, program: P4Program, line_number: int = 0) -> Tuple[str, TableEntry]:
    """Parse one ``add`` line into ``(table name, entry)``."""
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise TableConfigError(f"line {line_number}: cannot parse table entry {line!r}")
    table_name = match.group("table")
    table = program.tables.get(table_name)
    if table is None:
        raise TableConfigError(f"line {line_number}: unknown table {table_name!r}")

    declared_kinds: Dict[str, str] = {read.field: read.match_kind for read in table.reads}
    patterns: Dict[str, MatchPattern] = {}
    args_text = match.group("args").strip()
    try:
        for field_match in _MATCH_RE.finditer(match.group("matches")):
            field_name = field_match.group("field")
            if field_name not in declared_kinds:
                raise TableConfigError(f"table {table_name!r} does not match on {field_name!r}")
            width = program.field_width(field_name)
            patterns[field_name] = parse_pattern(
                field_match.group("pattern"), declared_kinds[field_name], width
            )
        action_args = [_parse_int(arg.strip()) for arg in args_text.split(",")] if args_text else []
        entry = TableEntry(patterns=patterns, action=match.group("action"), action_args=action_args)
        check_action_args(program, table_name, entry)
    except TableConfigError as error:
        raise TableConfigError(f"line {line_number}: {error}") from None
    return table_name, entry


def parse_entries(text: str, program: P4Program) -> List[Tuple[str, TableEntry]]:
    """Parse a whole configuration document."""
    entries: List[Tuple[str, TableEntry]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        line = line.split("//", 1)[0].strip()
        if not line:
            continue
        entries.append(parse_entry_line(line, program, line_number))
    return entries


def populate_store(store: TableStore, entries: Sequence[Tuple[str, TableEntry]]) -> TableStore:
    """Add parsed entries to a table store (returns the store for chaining)."""
    for table_name, entry in entries:
        store.add_entry(table_name, entry)
    return store
