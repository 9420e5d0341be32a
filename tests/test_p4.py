"""Unit tests for the P4-14-like program model, parser and dependency analysis."""

import pytest

from repro.errors import P4SemanticError, P4SyntaxError
from repro.p4 import (
    ACTION_DEPENDENCY,
    MATCH_DEPENDENCY,
    SUCCESSOR_DEPENDENCY,
    build_dependency_graph,
    classify_dependency,
    critical_path,
    dependency_summary,
    parse,
    samples,
    table_usage,
)
from repro.p4.parser import _tokenize
from repro.p4.program import PrimitiveCall, TableRead, integer_literal

MINIMAL = """
header_type h_t { fields { a : 8; b : 16; } }
header h_t h;
action set_a(v) { modify_field(h.a, v); }
action nothing() { no_op(); }
table t1 { reads { h.b : exact; } actions { set_a; nothing; } size : 4; }
table t2 { reads { h.a : exact; } actions { nothing; } }
control ingress { apply(t1); apply(t2); }
"""


class TestParser:
    def test_header_types_and_instances(self):
        program = parse(MINIMAL)
        assert program.header_types["h_t"].fields == [("a", 8), ("b", 16)]
        assert program.headers["h"].header_type == "h_t"
        assert not program.headers["h"].is_metadata

    def test_metadata_instances_flagged(self):
        program = samples.simple_router()
        assert program.headers["meta"].is_metadata
        assert "meta.egress_port" in program.all_fields()

    def test_actions_parsed(self):
        program = parse(MINIMAL)
        action = program.actions["set_a"]
        assert action.params == ["v"]
        assert action.body[0].op == "modify_field"
        assert action.body[0].args == ["h.a", "v"]

    def test_tables_parsed(self):
        program = parse(MINIMAL)
        table = program.tables["t1"]
        assert table.match_fields() == ["h.b"]
        assert table.actions == ["set_a", "nothing"]
        assert table.size == 4

    def test_default_table_size(self):
        assert parse(MINIMAL).tables["t2"].size == 1024

    def test_control_flow_order(self):
        assert parse(MINIMAL).table_order() == ["t1", "t2"]

    def test_registers_parsed(self):
        program = samples.simple_router()
        register = program.registers["flow_counter"]
        assert register.width == 32
        assert register.instance_count == 64

    def test_conditional_apply_parsed(self):
        source = MINIMAL.replace(
            "control ingress { apply(t1); apply(t2); }",
            "control ingress { apply(t1); if (h.a == 0) { apply(t2); } }",
        )
        program = parse(source)
        assert program.control_flow[1].condition_field == "h.a"
        assert program.control_flow[1].condition_value == 0

    def test_field_width_lookup(self):
        program = parse(MINIMAL)
        assert program.field_width("h.b") == 16
        with pytest.raises(P4SemanticError):
            program.field_width("nope")
        with pytest.raises(P4SemanticError):
            program.field_width("h.nope")

    def test_comments_ignored(self):
        program = parse("// top comment\n# another\n" + MINIMAL)
        assert "t1" in program.tables

    @pytest.mark.parametrize(
        "source",
        [
            "header_type t { fields { a : ; } }",
            "table t { reads { } actions { } size : many; }",
            "control egress { }",
            "widget w { }",
        ],
    )
    def test_syntax_errors(self, source):
        with pytest.raises(P4SyntaxError):
            parse(source)

    def test_hex_numbers_are_one_token(self):
        assert _tokenize("register_write(r, 0x1F, h.a); 0X2 10") == [
            "register_write", "(", "r", ",", "0x1F", ",", "h.a", ")", ";", "0X2", "10",
        ]

    def test_hex_numbers_parse_everywhere(self):
        source = (
            MINIMAL.replace("a : 8;", "a : 0x8;")
            .replace("size : 4;", "size : 0X10;")
            .replace("apply(t2);", "if (h.a == 0x2) { apply(t2); }")
            .replace("modify_field(h.a, v);", "modify_field(h.a, 0x1f);")
        )
        program = parse(source)
        assert program.header_types["h_t"].fields[0] == ("a", 8)
        assert program.tables["t1"].size == 16
        assert program.control_flow[1].condition_value == 2
        assert program.actions["set_a"].body[0].args == ["h.a", "0x1f"]

    #: One integer literal in each place the grammar takes one.
    LITERAL_SITES = {
        "header width": ("a : 8;", "a : {};"),
        "table size": ("size : 4;", "size : {};"),
        "if": ("apply(t2);", "if (h.a == {}) {{ apply(t2); }}"),
        "modify_field": ("modify_field(h.a, v);", "modify_field(h.a, {});"),
    }

    @pytest.mark.parametrize("site", LITERAL_SITES)
    def test_leading_zero_decimal_rejected_at_its_location(self, site):
        old, new = self.LITERAL_SITES[site]
        source = MINIMAL.replace(old, new.format("010"))
        offset = source.index("010")
        with pytest.raises(P4SyntaxError, match="integer literal '010' has a leading zero") as info:
            parse(source)
        assert info.value.line == source.count("\n", 0, offset) + 1
        assert info.value.column == offset - source.rfind("\n", 0, offset)

    @pytest.mark.parametrize("literal, value", [("10", 10), ("0x1", 1), ("0", 0)])
    @pytest.mark.parametrize("site", LITERAL_SITES)
    def test_decimal_and_hex_literals_accepted(self, site, literal, value):
        old, new = self.LITERAL_SITES[site]
        program = parse(MINIMAL.replace(old, new.format(literal)))
        read = {
            "header width": lambda: program.header_types["h_t"].fields[0][1],
            "table size": lambda: program.tables["t1"].size,
            "if": lambda: program.control_flow[1].condition_value,
            "modify_field": lambda: integer_literal(program.actions["set_a"].body[0].args[1]),
        }[site]
        assert read() == value

    @pytest.mark.parametrize("text", ["010", "00", "-1", "+1", "1_0", " 1", "0b1", "0o7", "0x"])
    def test_integer_literal_refuses_other_spellings(self, text):
        assert integer_literal(text) is None

    def test_sample_programs_parse_and_validate(self):
        assert samples.simple_router().table_order() == ["forward", "acl", "flow_stats"]
        assert samples.telemetry_pipeline().table_order() == ["bucketize", "accounting", "alarms"]


class TestValidation:
    def test_table_matching_unknown_field_rejected(self):
        source = MINIMAL.replace("h.b : exact;", "h.zzz : exact;")
        with pytest.raises(P4SemanticError):
            parse(source)

    def test_table_with_unknown_action_rejected(self):
        source = MINIMAL.replace("actions { set_a; nothing; }", "actions { teleport; }")
        with pytest.raises(P4SemanticError):
            parse(source)

    def test_table_with_unknown_default_action_rejected(self):
        source = MINIMAL.replace(
            "actions { nothing; } }", "actions { nothing; } default_action : nosuch; }"
        )
        with pytest.raises(P4SemanticError, match="'nosuch'"):
            parse(source)

    def test_register_without_cells_rejected(self):
        source = MINIMAL.replace(
            "action nothing() { no_op(); }",
            "action nothing() { no_op(); }\n"
            "register r { width : 8; instance_count : 0; }\n"
            "action stash() { register_write(r, 0, h.a); }",
        )
        with pytest.raises(P4SemanticError, match="'r'.*instance_count 0"):
            parse(source)
        parse(source.replace("instance_count : 0", "instance_count : 1"))

    def test_control_applying_unknown_table_rejected(self):
        source = MINIMAL.replace("apply(t2);", "apply(ghost);")
        with pytest.raises(P4SemanticError):
            parse(source)

    def test_action_referencing_unknown_field_rejected(self):
        source = MINIMAL.replace("modify_field(h.a, v);", "modify_field(h.zzz, v);")
        with pytest.raises(P4SemanticError):
            parse(source)

    @pytest.mark.parametrize(
        "call, given, expected",
        [
            ("modify_field(h.a)", 1, 2),
            ("modify_field(h.a, 1, 2)", 3, 2),
            ("add_to_field(h.a)", 1, 2),
            ("subtract_from_field(h.a, v, v)", 3, 2),
            ("drop(h.a)", 1, 0),
            ("no_op(1)", 1, 0),
            ("register_read(h.a, r)", 2, 3),
            ("register_write(r, 0x1, h.a, h.b)", 4, 3),
        ],
    )
    def test_primitive_argument_count_checked(self, call, given, expected):
        source = MINIMAL.replace("modify_field(h.a, v);", call + ";").replace(
            "action nothing()", "register r { width : 8; instance_count : 2; }\naction nothing()"
        )
        op = call.split("(")[0]
        with pytest.raises(
            P4SemanticError,
            match=rf"action 'set_a' calls {op} with {given} argument\(s\); {op} takes {expected}",
        ):
            parse(source)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(P4SemanticError):
            PrimitiveCall(op="explode", args=[])

    def test_unknown_match_kind_rejected(self):
        with pytest.raises(P4SemanticError):
            TableRead(field="h.a", match_kind="range")


class TestDependencies:
    def test_match_dependency_detected(self):
        # t1's action writes h.a which t2 matches on.
        graph = build_dependency_graph(parse(MINIMAL))
        assert graph.has_edge("t1", "t2")
        assert graph.edges["t1", "t2"]["kind"] == MATCH_DEPENDENCY

    def test_action_dependency_detected(self):
        source = """
        header_type h_t { fields { a : 8; b : 8; } }
        header h_t h;
        action bump_a() { add_to_field(h.a, 1); }
        action set_a(v) { modify_field(h.a, v); }
        table t1 { reads { h.b : exact; } actions { bump_a; } }
        table t2 { reads { h.b : exact; } actions { set_a; } }
        control ingress { apply(t1); apply(t2); }
        """
        graph = build_dependency_graph(parse(source))
        assert graph.edges["t1", "t2"]["kind"] == ACTION_DEPENDENCY

    def test_independent_tables_have_no_edge(self):
        source = """
        header_type h_t { fields { a : 8; b : 8; } }
        header h_t h;
        action bump_a() { add_to_field(h.a, 1); }
        action bump_b() { add_to_field(h.b, 1); }
        table t1 { reads { h.a : exact; } actions { bump_a; } }
        table t2 { reads { h.b : exact; } actions { bump_b; } }
        control ingress { apply(t1); apply(t2); }
        """
        graph = build_dependency_graph(parse(source))
        assert not graph.has_edge("t1", "t2")

    def test_shared_register_creates_action_dependency(self):
        program = samples.telemetry_pipeline()
        usage_a = table_usage(program, "accounting")
        assert "byte_totals" in usage_a.registers

    def test_classify_dependency_successor(self):
        program = parse(MINIMAL)
        before = table_usage(program, "t2")
        after = table_usage(program, "t2")
        # A table compared against itself with no writes in common but same
        # match fields is a successor relationship here (no writes at all).
        before.action_writes.clear()
        after.action_writes.clear()
        assert classify_dependency(before, after) in (SUCCESSOR_DEPENDENCY, ACTION_DEPENDENCY)

    def test_conditional_application_adds_control_dependency(self):
        source = samples.SIMPLE_ROUTER.replace(
            "apply(acl);", ""
        ).replace(
            "apply(flow_stats);",
            "if (meta.egress_port == 1) { apply(flow_stats); }",
        )
        graph = build_dependency_graph(parse(source))
        assert graph.has_edge("forward", "flow_stats")
        assert graph.edges["forward", "flow_stats"]["kind"] == MATCH_DEPENDENCY

    def test_duplicate_table_application_rejected(self):
        source = MINIMAL.replace("apply(t2);", "apply(t1);")
        with pytest.raises(P4SemanticError):
            build_dependency_graph(parse(source))

    def test_critical_path_and_summary(self):
        graph = build_dependency_graph(samples.simple_router())
        assert critical_path(graph) == ["forward", "acl"]
        summary = dependency_summary(graph)
        assert summary[MATCH_DEPENDENCY] >= 1

    def test_usage_collects_action_reads_and_writes(self):
        program = samples.simple_router()
        usage = table_usage(program, "forward")
        assert "meta.egress_port" in usage.action_writes
        assert "ipv4.dstAddr" in usage.match_fields
        with pytest.raises(P4SemanticError):
            table_usage(program, "ghost")

    def test_usage_counts_the_default_action(self):
        """A miss runs the default action, so its writes and registers count."""
        source = MINIMAL.replace(
            "action nothing() { no_op(); }",
            "action nothing() { no_op(); }\n"
            "register r { width : 8; instance_count : 2; }\n"
            "action stash() { modify_field(h.b, 7); register_write(r, 0, h.a); }",
        ).replace(
            "actions { nothing; } }", "actions { nothing; } default_action : stash; }"
        )
        usage = table_usage(parse(source), "t2")
        assert usage.action_writes == {"h.b"}
        assert usage.action_reads == {"h.a"}
        assert usage.registers == usage.register_writes == {"r"}

    def test_action_field_queries(self):
        program = samples.simple_router()
        count_flow = program.actions["count_flow"]
        assert "meta.tmp_count" in count_flow.fields_written()
        assert "flow_counter" in count_flow.registers_used()
        set_nhop = program.actions["set_nhop"]
        assert "meta.egress_port" in set_nhop.fields_written()
