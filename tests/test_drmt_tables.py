"""Unit tests for dRMT match+action tables and the table-entry configuration format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.drmt import (
    MatchPattern,
    TableEntry,
    TableStore,
    parse_entries,
    parse_entry_line,
    populate_store,
)
from repro.drmt.table_config import parse_pattern
from repro.drmt.tables import MatchActionTable
from repro.errors import TableConfigError
from repro.p4 import samples
from repro.p4.program import Action, P4Program, Table, TableRead


@pytest.fixture(scope="module")
def router():
    return samples.simple_router()


class TestMatchPattern:
    def test_exact(self):
        pattern = MatchPattern(kind="exact", value=42, width=16)
        assert pattern.matches(42)
        assert not pattern.matches(43)

    def test_ternary_masked_bits_ignored(self):
        pattern = MatchPattern(kind="ternary", value=0x10, mask=0xF0, width=8)
        assert pattern.matches(0x1F)
        assert not pattern.matches(0x2F)

    def test_ternary_default_mask_is_full(self):
        pattern = MatchPattern(kind="ternary", value=7, width=8)
        assert pattern.matches(7)
        assert not pattern.matches(6)

    def test_lpm_prefix(self):
        # 10.0.0.0/8 equivalent on a 32-bit field.
        pattern = MatchPattern(kind="lpm", value=10 << 24, prefix_len=8, width=32)
        assert pattern.matches((10 << 24) + 12345)
        assert not pattern.matches(11 << 24)

    def test_lpm_zero_prefix_matches_everything(self):
        pattern = MatchPattern(kind="lpm", value=0, prefix_len=0, width=32)
        assert pattern.matches(0) and pattern.matches(2**31)

    def test_specificity_ordering(self):
        narrow = MatchPattern(kind="lpm", value=0, prefix_len=16, width=32)
        wide = MatchPattern(kind="lpm", value=0, prefix_len=8, width=32)
        assert narrow.specificity > wide.specificity

    def test_unknown_kind_rejected_on_match(self):
        with pytest.raises(TableConfigError):
            MatchPattern(kind="range", value=1).matches(1)


class TestTables:
    def test_add_and_lookup(self, router):
        store = TableStore(router)
        entry = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=42, width=32)},
            action="count_flow",
            action_args=[1],
        )
        store.add_entry("flow_stats", entry)
        hit = store["flow_stats"].lookup({"ipv4.srcAddr": 42})
        assert hit is entry
        assert store["flow_stats"].lookup({"ipv4.srcAddr": 7}) is None
        assert store["flow_stats"].hit_count == 1
        assert store["flow_stats"].miss_count == 1

    def test_longest_prefix_wins(self, router):
        store = TableStore(router)
        for value, prefix, port in ((10 << 24, 8, 1), ((10 << 24) + (1 << 16), 16, 2)):
            store.add_entry(
                "forward",
                TableEntry(
                    patterns={"ipv4.dstAddr": MatchPattern(kind="lpm", value=value, prefix_len=prefix, width=32)},
                    action="set_nhop",
                    action_args=[port],
                ),
            )
        best = store["forward"].lookup({"ipv4.dstAddr": (10 << 24) + (1 << 16) + 5})
        assert best.action_args == [2]

    def test_priority_breaks_ties(self, router):
        store = TableStore(router)
        low = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
            action="count_flow", action_args=[1], priority=0,
        )
        high = TableEntry(
            patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
            action="count_flow", action_args=[2], priority=5,
        )
        store.add_entry("flow_stats", low)
        store.add_entry("flow_stats", high)
        assert store["flow_stats"].lookup({"ipv4.srcAddr": 1}).action_args == [2]

    def test_entry_field_set_validated(self, router):
        store = TableStore(router)
        with pytest.raises(TableConfigError):
            store.add_entry(
                "forward",
                TableEntry(patterns={"ipv4.srcAddr": MatchPattern(kind="exact", value=1, width=32)},
                           action="set_nhop"),
            )

    def test_entry_action_validated(self, router):
        store = TableStore(router)
        with pytest.raises(TableConfigError):
            store.add_entry(
                "forward",
                TableEntry(patterns={"ipv4.dstAddr": MatchPattern(kind="lpm", value=0, prefix_len=0, width=32)},
                           action="drop_packet"),
            )

    def test_table_capacity_enforced(self):
        # Parse a private copy of the program: shrinking the table size must
        # not leak into the module-scoped fixture shared by other tests.
        private = samples.simple_router()
        store = TableStore(private)
        table = store["acl"]
        table.definition.size = 1
        pattern = {
            "meta.egress_port": MatchPattern(kind="exact", value=1, width=16),
            "ipv4.protocol": MatchPattern(kind="ternary", value=0, mask=0, width=8),
        }
        store.add_entry("acl", TableEntry(patterns=dict(pattern), action="allow"))
        with pytest.raises(TableConfigError):
            store.add_entry("acl", TableEntry(patterns=dict(pattern), action="allow"))

    def test_unknown_table_rejected(self, router):
        with pytest.raises(TableConfigError):
            TableStore(router)["ghost"]


def _table(definition):
    """A table of ``definition`` in a program whose one action is ``act(v)``."""
    return MatchActionTable(definition, P4Program("t", actions={"act": Action("act", ["v"], [])}))


def _first_matching_row(rows, field_names, fields):
    """The resolved action of the first row whose every masked field matches (the fused probe)."""
    for row in rows:
        if all(
            fields.get(name, 0) & row[2 * index] == row[2 * index + 1]
            for index, name in enumerate(field_names)
        ):
            return row[-1]
    return None


@st.composite
def _pattern(draw, kind, width):
    # Values run below zero and past the field width on purpose.
    value = draw(st.integers(min_value=-3, max_value=(1 << width) + 3), label="value")
    if kind == "ternary":
        mask = draw(st.one_of(st.none(), st.integers(min_value=-2, max_value=(1 << width) + 1)))
        return MatchPattern(kind="ternary", value=value, mask=mask, width=width)
    if kind == "lpm":
        # Prefix 0 (match all), prefixes at and beyond the width, and None (full width).
        prefix = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=width + 2)))
        return MatchPattern(kind="lpm", value=value, prefix_len=prefix, width=width)
    return MatchPattern(kind="exact", value=value, width=width)


class TestMaskedRows:
    """``masked_rows`` first-match probing vs the ``lookup`` scan oracle."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_first_matching_row_is_lookup_winner(self, data):
        kinds = data.draw(
            st.lists(st.sampled_from(["exact", "ternary", "lpm"]), min_size=1, max_size=3),
            label="kinds",
        )
        widths = [data.draw(st.sampled_from([3, 4, 8]), label="width") for _ in kinds]
        field_names = [f"pkt.f{index}" for index in range(len(kinds))]
        definition = Table(
            name="t",
            reads=[
                TableRead(field=name, match_kind=kind) for name, kind in zip(field_names, kinds)
            ],
            actions=["act"],
            size=256,
        )
        table = _table(definition)
        # Few priorities and a small value domain: priority and specificity
        # ties between overlapping entries happen often.
        for number in range(data.draw(st.integers(min_value=0, max_value=12), label="entries")):
            table.add_entry(
                TableEntry(
                    patterns={
                        name: data.draw(_pattern(kind, width))
                        for name, kind, width in zip(field_names, kinds, widths)
                    },
                    action="act",
                    action_args=[number],
                    priority=data.draw(st.integers(min_value=0, max_value=2), label="priority"),
                )
            )
        rows = table.masked_rows()
        # Each entry's one argument is its number, so a resolved action names its entry.
        assert sorted(row[-1] for row in rows) == [(0, number) for number in range(len(rows))]

        packet_strategy = st.dictionaries(
            st.sampled_from(field_names), st.integers(min_value=-20, max_value=300), max_size=3
        )
        hits = misses = 0
        for packet in data.draw(st.lists(packet_strategy, max_size=20), label="packets"):
            expected = table.lookup(packet)
            assert _first_matching_row(rows, field_names, packet) == (
                None if expected is None else table.resolved_action(expected)
            )
            if expected is None:
                misses += 1
            else:
                hits += 1
        assert (table.hit_count, table.miss_count) == (hits, misses)

    def test_rows_are_ordered_by_priority_then_specificity(self):
        definition = Table(
            name="t", reads=[TableRead(field="pkt.f", match_kind="lpm")], actions=["act"], size=8
        )
        table = _table(definition)
        entries = [
            TableEntry({"pkt.f": MatchPattern("lpm", 0, prefix_len=0, width=8)}, "act", [0]),
            TableEntry({"pkt.f": MatchPattern("lpm", 0x10, prefix_len=4, width=8)}, "act", [1]),
            TableEntry({"pkt.f": MatchPattern("lpm", 0x10, prefix_len=4, width=8)}, "act", [2]),
            TableEntry({"pkt.f": MatchPattern("lpm", 0, prefix_len=0, width=8)}, "act", [3], 1),
        ]
        for entry in entries:
            table.add_entry(entry)
        rows = table.masked_rows()
        # Each entry's argument is its position: the two tied entries keep their order.
        assert [row[-1] for row in rows] == [(0, 3), (0, 1), (0, 2), (0, 0)]
        assert rows[1][:2] == (-(1 << 4), 0x10)
        assert rows[0][:2] == (0, 0)

    @pytest.mark.parametrize(
        "pattern, mask",
        [
            (MatchPattern("exact", 5, width=8), -1),
            (MatchPattern("ternary", 5, mask=0x0F, width=8), 0x0F),
            (MatchPattern("ternary", 5, width=8), 0xFF),
            (MatchPattern("lpm", 5, prefix_len=0, width=8), 0),
            (MatchPattern("lpm", 5, prefix_len=3, width=8), -(1 << 5)),
            (MatchPattern("lpm", 5, prefix_len=8, width=8), -1),
            (MatchPattern("lpm", 5, prefix_len=12, width=8), -1),
            (MatchPattern("lpm", 5, width=8), -1),
        ],
    )
    def test_match_mask(self, pattern, mask):
        assert pattern.match_mask == mask

    def test_unknown_kind_rejected(self):
        definition = Table(
            name="t", reads=[TableRead(field="pkt.f", match_kind="ternary")], actions=["act"], size=8
        )
        table = _table(definition)
        table.add_entry(TableEntry({"pkt.f": MatchPattern("range", 1)}, "act"))
        with pytest.raises(TableConfigError):
            table.masked_rows()


class TestEntryConfigFormat:
    def test_parse_exact_entry(self, router):
        table, entry = parse_entry_line("add flow_stats ipv4.srcAddr=42 => count_flow(3)", router)
        assert table == "flow_stats"
        assert entry.action == "count_flow"
        assert entry.action_args == [3]
        assert entry.patterns["ipv4.srcAddr"].kind == "exact"

    def test_parse_ternary_entry(self, router):
        _table, entry = parse_entry_line(
            "add acl meta.egress_port=2 ipv4.protocol=17&&&255 => drop_packet()", router
        )
        assert entry.patterns["ipv4.protocol"].kind == "ternary"
        assert entry.patterns["ipv4.protocol"].mask == 255

    def test_parse_lpm_entry(self, router):
        _table, entry = parse_entry_line(
            "add forward ipv4.dstAddr=167772160/8 => set_nhop(1)", router
        )
        assert entry.patterns["ipv4.dstAddr"].prefix_len == 8

    def test_hex_values_accepted(self, router):
        _table, entry = parse_entry_line(
            "add flow_stats ipv4.srcAddr=0x2a => count_flow(1)", router
        )
        assert entry.patterns["ipv4.srcAddr"].value == 42

    def test_no_args_action(self, router):
        _table, entry = parse_entry_line(
            "add acl meta.egress_port=1 ipv4.protocol=0&&&0 => allow()", router
        )
        assert entry.action_args == []

    def test_unknown_table_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("add ghost ipv4.srcAddr=1 => count_flow(1)", router)

    def test_unknown_field_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("add forward ipv4.ttl=1 => set_nhop(1)", router)

    def test_malformed_line_rejected(self, router):
        with pytest.raises(TableConfigError):
            parse_entry_line("install forward 1 -> set_nhop", router)

    @pytest.mark.parametrize("spelling", ["-1", "0b11", "1_0", " 7"])
    def test_pattern_values_are_p4_integer_literals(self, spelling):
        with pytest.raises(TableConfigError, match="is not an integer literal"):
            parse_pattern(spelling, "exact", 8)

    @pytest.mark.parametrize(
        "text, kind",
        [("010", "exact"), ("1&&&0b11", "ternary"), ("0b1&&&255", "ternary"),
         ("10/0_8", "lpm"), ("-1/8", "lpm")],
    )
    def test_masks_and_prefixes_are_p4_integer_literals(self, text, kind):
        with pytest.raises(TableConfigError, match="is not an integer literal"):
            parse_pattern(text, kind, 8)

    @pytest.mark.parametrize("spelling, value", [("0", 0), ("255", 255), ("0xff", 255), ("0XFF", 255)])
    def test_decimal_and_hex_literals_parse(self, spelling, value):
        assert parse_pattern(spelling, "exact", 8).value == value
        assert parse_pattern(f"{spelling}&&&{spelling}", "ternary", 8).mask == value

    @pytest.mark.parametrize("spelling", ["-1", "0b11", "1_0"])
    def test_entry_values_are_p4_integer_literals(self, router, spelling):
        for line in (
            f"add flow_stats ipv4.srcAddr={spelling} => count_flow(1)",
            f"add flow_stats ipv4.srcAddr=1 => count_flow({spelling})",
        ):
            with pytest.raises(TableConfigError, match="line 2: .* is not an integer literal"):
                parse_entries("# flows\n" + line, router)
        _table, entry = parse_entry_line(
            "add flow_stats ipv4.srcAddr=0x0a000001 => count_flow(10)", router
        )
        assert entry.patterns["ipv4.srcAddr"].value == 0x0A000001
        assert entry.action_args == [10]

    def test_parse_entries_ignores_comments_and_blanks(self, router):
        text = "# comment\n\nadd flow_stats ipv4.srcAddr=1 => count_flow(1)\n// more\n"
        entries = parse_entries(text, router)
        assert len(entries) == 1

    def test_full_sample_config_parses(self, router):
        entries = parse_entries(samples.SIMPLE_ROUTER_ENTRIES, router)
        assert len(entries) == 7
        store = populate_store(TableStore(router), entries)
        assert sum(len(table.entries) for table in store.tables.values()) == 7


class TestEntryArgumentCount:
    """An entry may pass its action fewer arguments than it has parameters, never more."""

    EXTRA = "add forward ipv4.dstAddr=167772160/8 => set_nhop(3, 99, 7)"
    MESSAGE = r"table 'forward': action 'set_nhop' takes 1 argument\(s\), the entry passes 3"

    def _forward_entry(self, args):
        pattern = MatchPattern("lpm", 167772160, prefix_len=8, width=32)
        return TableEntry({"ipv4.dstAddr": pattern}, "set_nhop", args)

    def test_parse_entries_rejects_extra_arguments(self, router):
        with pytest.raises(TableConfigError, match=rf"^line 2: {self.MESSAGE}$"):
            parse_entries("# routes\n" + self.EXTRA, router)

    def test_table_store_rejects_extra_arguments(self, router):
        store = TableStore(router)
        with pytest.raises(TableConfigError, match=rf"^{self.MESSAGE}$"):
            store.add_entry("forward", self._forward_entry([3, 99, 7]))
        assert store["forward"].entries == []

    def test_simulator_entries_text_rejects_extra_arguments(self, router):
        from repro.drmt import DRMTSimulator, generate_bundle

        with pytest.raises(TableConfigError, match=self.MESSAGE):
            DRMTSimulator(generate_bundle(router), table_entries=self.EXTRA)

    def test_missing_arguments_are_padded_with_zero(self, router):
        store = TableStore(router)
        store.add_entry("forward", self._forward_entry([]))
        store.add_entry("flow_stats", TableEntry(
            {"ipv4.srcAddr": MatchPattern("exact", 42, width=32)}, "count_flow", []
        ))
        # set_nhop is the first of forward's actions, count_flow of flow_stats'.
        assert store["forward"].masked_rows() == [(-(1 << 24), 167772160, (0, 0))]
        assert store["flow_stats"].exact_index() == {(42,): (0, 0)}

    def test_resolved_action_indexes_the_tables_actions(self, router):
        entries = parse_entries(samples.SIMPLE_ROUTER_ENTRIES, router)
        store = populate_store(TableStore(router), entries)
        acl = store["acl"]
        assert acl.definition.actions == ["drop_packet", "allow"]
        assert [row[-1] for row in acl.masked_rows()] == [(0,), (1,)]
        flows = sorted(store["flow_stats"].exact_index().items())
        assert flows == [((42,), (0, 1)), ((77,), (0, 2))]
