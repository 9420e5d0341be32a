"""dRMT fused codegen: bit-for-bit fidelity to the tick interpreter, and the
register-hazard proof that decides whether a bundle has a fused loop at all."""

from __future__ import annotations

import copy

import pytest

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    DrmtPacketRecord,
    PacketGenerator,
    generate_bundle,
)
from repro.drmt import simulator as simulator_module
from repro.drmt import MatchPattern, TableEntry
from repro.drmt.fused import generate_fused, register_hazard
from repro.drmt.processor import PacketContext
from repro.engine import drmt as drmt_drivers
from repro.errors import CodegenError, SimulationError
from repro.p4 import samples
from repro.traffic import choice_field

SEEDS = (0, 7, 1234)

PROGRAMS = {
    "simple_router": (samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
    "telemetry_pipeline": (samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
}

#: Two tables whose actions touch the same register: the later table's action
#: launches at a later cycle, so the tick model interleaves the register
#: accesses across packets — the case run-to-completion cannot reproduce, so
#: the bundle has no fused loop and runs under tick.
HAZARD_PROGRAM = """
header_type pkt_t {
    fields {
        f : 16;
    }
}

header_type meta_t {
    fields {
        tmp : 32;
    }
}

header pkt_t pkt;
metadata meta_t meta;

register shared {
    width : 32;
    instance_count : 4;
}

action bump() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, 1);
    register_write(shared, 0, meta.tmp);
}

action scale() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, pkt.f);
    register_write(shared, 0, meta.tmp);
}

table first {
    reads {
        pkt.f : exact;
    }
    actions { bump; }
    size : 4;
    default_action : bump;
}

table second {
    reads {
        meta.tmp : exact;
    }
    actions { scale; }
    size : 4;
    default_action : scale;
}

control ingress {
    apply(first);
    apply(second);
}
"""


def _records_equal(left, right):
    for a, b in zip(left.records, right.records):
        for field in (
            "packet_id",
            "processor",
            "arrival_tick",
            "completed_tick",
            "inputs",
            "outputs",
            "dropped",
        ):
            if getattr(a, field) != getattr(b, field):
                return False, (field, a, b)
    return True, None


def run_engines(program_factory, entries, num_processors, seed, count=150, engines=("tick", "fused")):
    bundle = generate_bundle(
        program_factory(), DrmtHardwareParams(num_processors=num_processors)
    )
    packets = PacketGenerator(bundle.program, seed=seed).generate(count)
    return {
        engine: DRMTSimulator(bundle, table_entries=entries, engine=engine).run_packets(packets)
        for engine in engines
    }


class TestFusedMatchesTick:
    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_for_bit(self, program_name, seed):
        factory, entries = PROGRAMS[program_name]
        results = run_engines(factory, entries, num_processors=2, seed=seed)
        tick, fused = results["tick"], results["fused"]
        equal, detail = _records_equal(tick, fused)
        assert equal, detail
        assert fused.ticks == tick.ticks
        assert fused.per_processor_packets == tick.per_processor_packets
        assert fused.per_processor_operations == tick.per_processor_operations
        assert fused.table_hits == tick.table_hits
        assert fused.register_dump == tick.register_dump
        assert fused.engine == "fused"

    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    def test_generated_source_never_calls_lookup(self, program_name):
        factory, _entries = PROGRAMS[program_name]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=4))
        source = bundle.fused_program().source
        assert ".lookup" not in source
        assert ".masked_rows()" in source

    @pytest.mark.parametrize("num_processors", [1, 3])
    def test_processor_counts(self, num_processors):
        factory, entries = PROGRAMS["simple_router"]
        results = run_engines(factory, entries, num_processors=num_processors, seed=5)
        equal, detail = _records_equal(results["tick"], results["fused"])
        assert equal, detail

    def test_empty_trace(self):
        factory, entries = PROGRAMS["simple_router"]
        results = run_engines(factory, entries, num_processors=2, seed=0, count=0)
        for engine, result in results.items():
            assert result.ticks == 0, engine
            assert result.records == []

    def test_auto_selects_fused(self):
        factory, entries = PROGRAMS["telemetry_pipeline"]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
        packets = PacketGenerator(bundle.program, seed=3).generate(20)
        result = DRMTSimulator(bundle, table_entries=entries).run_packets(packets)
        assert result.engine == "fused"
        forced = DRMTSimulator(bundle, table_entries=entries).run_packets(
            packets, tick_accurate=True
        )
        assert forced.engine == "tick"
        equal, detail = _records_equal(forced, result)
        assert equal, detail

    def test_fused_program_cached_on_bundle(self):
        factory, _entries = PROGRAMS["simple_router"]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=2))
        assert bundle.fused_program() is bundle.fused_program()
        assert "run_trace" in bundle.fused_program().source
        # One generated function: the trace loop, with no observed twin.
        assert bundle.fused_program().source.count("\ndef ") == 1


def _hazard_cycles(bundle):
    """The action cycles of HAZARD_PROGRAM's ``first`` and ``second`` tables."""
    first = bundle.schedule.start("first", "action")
    second = bundle.schedule.start("second", "action")
    assert first != second
    return first, second


def _interleaved_oracle(packets, num_processors, first, second):
    """``shared[0]`` and each packet's ``meta.tmp`` under the tick interleaving.

    Packet ``p`` runs ``bump`` at tick ``p + first`` and ``scale`` at tick
    ``p + second``; within a tick, processors run in id order and each
    processor's packets in arrival order, so events sort by
    ``(tick, p % N, p)``.  Both tables miss (no entries), so each runs its
    default action.
    """
    events = sorted(
        (p + cycle, p % num_processors, p, action)
        for p in range(len(packets))
        for cycle, action in ((first, "bump"), (second, "scale"))
    )
    shared, tmp = 0, {}
    for _tick, _processor, p, action in events:
        tmp[p] = shared + (1 if action == "bump" else packets[p]["pkt.f"])
        shared = tmp[p]
    return shared, [tmp[p] for p in range(len(packets))]


class TestHazardProgram:
    """A written register at two schedule cycles: no fused loop, auto runs tick."""

    def _bundle(self, num_processors=2):
        return generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=num_processors))

    def test_register_hazard_names_the_register_and_cycles(self):
        bundle = self._bundle()
        first, second = _hazard_cycles(bundle)
        expected = ("shared", tuple(sorted((first, second))))
        assert register_hazard(bundle.program, bundle.schedule) == expected
        assert bundle.hazard == expected

    def test_auto_runs_tick(self):
        bundle = self._bundle()
        packets = PacketGenerator(bundle.program, seed=0).generate(10)
        result = DRMTSimulator(bundle).run_packets(packets)
        assert result.engine == "tick"
        assert result == DRMTSimulator(bundle, engine="tick").run_packets(packets)

    def test_explicit_fused_raises_naming_the_register(self):
        bundle = self._bundle()
        first, second = sorted(_hazard_cycles(bundle))
        simulator = DRMTSimulator(bundle, engine="fused")
        reason = f"register 'shared' is accessed at cycles {first}, {second}"
        with pytest.raises(SimulationError, match=reason) as raised:
            simulator.run_packets([{"pkt.f": 1, "meta.tmp": 0}])
        assert "opt level 3" not in str(raised.value)
        # tick_accurate still forces the tick driver.
        assert simulator.run_packets([], tick_accurate=True).engine == "tick"

    def test_fused_generation_raises_codegen_error(self):
        bundle = self._bundle()
        first, second = sorted(_hazard_cycles(bundle))
        reason = f"^register 'shared' is accessed at cycles {first}, {second}"
        with pytest.raises(CodegenError, match=reason):
            bundle.fused_program()
        with pytest.raises(CodegenError, match=reason):
            generate_fused(bundle.program, bundle.schedule)

    @pytest.mark.parametrize("num_processors", [1, 2, 3])
    def test_tick_matches_the_interleaving_oracle(self, num_processors):
        bundle = self._bundle(num_processors)
        first, second = _hazard_cycles(bundle)
        packets = [{"pkt.f": (p * 7) % 11 + 2, "meta.tmp": 0} for p in range(40)]
        shared, tmp = _interleaved_oracle(packets, num_processors, first, second)
        result = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        assert result.register_dump["shared"][0] == shared
        assert [record.outputs["meta.tmp"] for record in result.records] == tmp
        assert result.table_hits == {"first": (0, 40), "second": (0, 40)}
        # The oracle has teeth: running packets one by one gives other values.
        sequential = _interleaved_oracle(packets, 1, 0, 1)
        assert (shared, tmp) != sequential


#: Two tables read the never-written ``config`` register at two cycles:
#: ``second`` matches the field ``first`` loads, so its action runs later.
READ_ONLY_TWO_CYCLES_PROGRAM = """
header_type pkt_t {
    fields {
        f : 8;
        g : 8;
        h : 8;
    }
}

header pkt_t pkt;

register config {
    width : 8;
    instance_count : 4;
}

action load_g() {
    register_read(pkt.g, config, pkt.f);
}

action load_h() {
    register_read(pkt.h, config, pkt.g);
}

table first {
    reads {
        pkt.f : exact;
    }
    actions { load_g; }
    default_action : load_g;
}

table second {
    reads {
        pkt.g : exact;
    }
    actions { load_h; }
    default_action : load_h;
}

control ingress {
    apply(first);
    apply(second);
}
"""


class TestPerPacketLoop:
    """Bundles without a hazard get the per-packet loop."""

    def test_read_only_register_at_two_cycles_has_no_hazard(self):
        bundle = generate_bundle(
            READ_ONLY_TWO_CYCLES_PROGRAM, DrmtHardwareParams(num_processors=2)
        )
        cycles = {bundle.schedule.start(table, "action") for table in ("first", "second")}
        assert len(cycles) == 2
        assert register_hazard(bundle.program, bundle.schedule) is None
        assert bundle.hazard is None
        packets = [{"pkt.f": index % 5, "pkt.g": 0, "pkt.h": 0} for index in range(20)]
        _assert_fused_matches_tick(bundle, packets)

    @pytest.mark.parametrize("num_processors", [1, 2, 4])
    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    def test_sample_programs_run_per_packet(self, program_name, num_processors):
        factory, _entries = PROGRAMS[program_name]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=num_processors))
        assert bundle.hazard is None
        fused = bundle.fused_program()
        assert "for p in range(n):" in fused.source
        assert "runs each packet to completion, packet after packet" in fused.source
        for tick_walk_only in ("matched_", "if c ==", "for t in"):
            assert tick_walk_only not in fused.source


#: A per-flow counter whose register index comes straight from a packet field.
COUNTER_PROGRAM = """
header_type pkt_t {
    fields {
        flow : 16;
        other : 16;
        total : 16;
    }
}

header pkt_t pkt;

register per_flow {
    width : 32;
    instance_count : 8;
}

action bump() {
    register_read(pkt.total, per_flow, pkt.flow);
    add_to_field(pkt.total, 1);
    register_write(per_flow, pkt.flow, pkt.total);
}

table counters {
    reads {
        pkt.flow : exact;
    }
    actions { bump; }
    default_action : bump;
}

control ingress {
    apply(counters);
}
"""

#: The counter plus a second register indexed by a different field.
TWO_REGISTER_PROGRAM = COUNTER_PROGRAM.replace(
    "register per_flow {\n    width : 32;\n    instance_count : 8;\n}",
    "register per_flow {\n    width : 32;\n    instance_count : 8;\n}\n\n"
    "register by_other {\n    width : 32;\n    instance_count : 8;\n}",
).replace(
    "    register_write(per_flow, pkt.flow, pkt.total);\n}",
    "    register_write(per_flow, pkt.flow, pkt.total);\n"
    "    register_write(by_other, pkt.other, pkt.total);\n}",
)

#: A per-flow counter that also reads a never-written register at a constant index.
READ_ONLY_CONFIG_PROGRAM = """
header_type pkt_t {
    fields {
        flow : 16;
        limit : 16;
        total : 16;
    }
}

header pkt_t pkt;

register per_flow {
    width : 32;
    instance_count : 8;
}

register config {
    width : 32;
    instance_count : 4;
}

action bump() {
    register_read(pkt.limit, config, 2);
    register_read(pkt.total, per_flow, pkt.flow);
    add_to_field(pkt.total, 1);
    register_write(per_flow, pkt.flow, pkt.total);
}

table counters {
    reads {
        pkt.flow : exact;
    }
    actions { bump; }
    default_action : bump;
}

control ingress {
    apply(counters);
}
"""

#: A program whose only register is read, never written.
PURE_READER_PROGRAM = """
header_type pkt_t {
    fields {
        flow : 16;
        limit : 16;
    }
}

header pkt_t pkt;

register config {
    width : 32;
    instance_count : 4;
}

action tag() {
    register_read(pkt.limit, config, 1);
}

table taggers {
    reads {
        pkt.flow : exact;
    }
    actions { tag; }
    default_action : tag;
}

control ingress {
    apply(taggers);
}
"""

#: name -> (source, packet list).  Flow values exceed the 8-cell registers,
#: so distinct flows collide on one cell (3 and 11, say) through index wrap.
REGISTER_PROGRAMS = {
    "per_flow_counter": (
        COUNTER_PROGRAM,
        [
            {"pkt.flow": (index * 7) % 20, "pkt.other": index % 5, "pkt.total": 0}
            for index in range(120)
        ],
    ),
    "two_registers": (
        TWO_REGISTER_PROGRAM,
        [
            {"pkt.flow": index % 6, "pkt.other": (index * 3) % 6, "pkt.total": 0}
            for index in range(80)
        ],
    ),
    "read_only_config": (
        READ_ONLY_CONFIG_PROGRAM,
        [{"pkt.flow": (index * 5) % 16, "pkt.limit": 0, "pkt.total": 0} for index in range(120)],
    ),
    "pure_reader": (
        PURE_READER_PROGRAM,
        [{"pkt.flow": index % 9, "pkt.limit": 0} for index in range(60)],
    ),
}


def _assert_fused_matches_tick(bundle, packets, entries=None):
    tick = DRMTSimulator(bundle, table_entries=entries, engine="tick").run_packets(packets)
    fused = DRMTSimulator(bundle, table_entries=entries, engine="fused").run_packets(packets)
    assert fused.engine == "fused"
    assert len(fused.records) == len(tick.records) == len(packets)
    equal, detail = _records_equal(tick, fused)
    assert equal, detail
    assert fused.ticks == tick.ticks
    assert fused.per_processor_packets == tick.per_processor_packets
    assert fused.table_hits == tick.table_hits
    assert fused.register_dump == tick.register_dump
    return tick


class TestRegisterProgramsFusedMatchesTick:
    """Register-indexed programs and flow-shaped traffic: fused == tick."""

    @pytest.mark.parametrize("num_processors", [1, 2, 3, 4])
    @pytest.mark.parametrize("program_name", sorted(REGISTER_PROGRAMS))
    def test_bit_for_bit(self, program_name, num_processors):
        source, packets = REGISTER_PROGRAMS[program_name]
        bundle = generate_bundle(source, DrmtHardwareParams(num_processors=num_processors))
        _assert_fused_matches_tick(bundle, [dict(packet) for packet in packets])

    def test_hex_register_index(self):
        """``0x1`` is one number token: the write lands in cell 1 under both drivers."""
        source = PURE_READER_PROGRAM.replace(
            "register_read(pkt.limit, config, 1);",
            "register_write(config, 0x1, pkt.flow); register_read(pkt.limit, config, 0x1);",
        )
        bundle = generate_bundle(source, DrmtHardwareParams(num_processors=2))
        assert bundle.program.actions["tag"].body[0].args == ["config", "0x1", "pkt.flow"]
        packets = [{"pkt.flow": index + 3, "pkt.limit": 0} for index in range(12)]
        tick = _assert_fused_matches_tick(bundle, packets)
        assert tick.register_dump["config"] == [0, 14, 0, 0]
        assert [record.outputs["pkt.limit"] for record in tick.records] == [
            packet["pkt.flow"] for packet in packets
        ]

    def test_per_flow_counter_wraps_the_register_index(self):
        """Flows 3 and 11 share cell 3 of the 8-cell register."""
        source, packets = REGISTER_PROGRAMS["per_flow_counter"]
        bundle = generate_bundle(source, DrmtHardwareParams(num_processors=3))
        tick = _assert_fused_matches_tick(bundle, [dict(packet) for packet in packets])
        expected = [0] * 8
        for packet in packets:
            expected[packet["pkt.flow"] % 8] += 1
        assert tick.register_dump["per_flow"] == expected

    @pytest.mark.parametrize("num_processors", [1, 2, 4, 7])
    def test_flow_restricted_telemetry(self, num_processors):
        """Traffic limited to the three bucketized flows."""
        from repro.traffic import choice_field

        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=num_processors)
        )
        generator = PacketGenerator(
            bundle.program, seed=5, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        _assert_fused_matches_tick(bundle, generator.generate(300), samples.TELEMETRY_ENTRIES)

    def test_unmatched_telemetry_flows_share_bucket_zero(self):
        """Flows the bucketizer misses all update the same register cell."""
        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=4)
        )
        packets = PacketGenerator(bundle.program, seed=5).generate(300)
        assert any(packet["pkt.flow_id"] not in (1, 2, 3) for packet in packets)
        _assert_fused_matches_tick(bundle, packets, samples.TELEMETRY_ENTRIES)

    def test_ragged_packets(self):
        """A packet missing a declared field runs the same on both drivers."""
        from repro.traffic import choice_field

        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=2)
        )
        generator = PacketGenerator(
            bundle.program, seed=1, field_overrides={"pkt.flow_id": choice_field([1, 2])}
        )
        packets = generator.generate(120)
        del packets[7]["pkt.queue_depth"]
        _assert_fused_matches_tick(bundle, packets, samples.TELEMETRY_ENTRIES)


#: An LPM table and a mixed exact+ternary table whose entries overlap and
#: tie on priority and specificity (the earliest-added entry must win), plus
#: a priority-1 entry that beats longer prefixes and a prefix past the field
#: width.  The second table matches on the port the first one writes.
OVERLAP_PROGRAM = """
header_type pkt_t {
    fields {
        dst : 8;
        proto : 8;
        port : 8;
        tag : 8;
    }
}

header pkt_t pkt;

register seen {
    width : 32;
    instance_count : 8;
}

action set_port(port) {
    modify_field(pkt.port, port);
}

action set_tag(tag) {
    modify_field(pkt.tag, tag);
    register_read(pkt.proto, seen, tag);
    add_to_field(pkt.proto, 1);
    register_write(seen, tag, pkt.proto);
}

action mark() {
    add_to_field(pkt.tag, 100);
}

table route {
    reads {
        pkt.dst : lpm;
    }
    actions { set_port; }
    size : 16;
}

table classify {
    reads {
        pkt.port : exact;
        pkt.proto : ternary;
    }
    actions { set_tag; mark; }
    size : 16;
    default_action : mark;
}

control ingress {
    apply(route);
    apply(classify);
}
"""


def _overlap_entries():
    def lpm(value, prefix):
        return {"pkt.dst": MatchPattern("lpm", value, prefix_len=prefix, width=8)}

    def classify(port, value, mask):
        return {
            "pkt.port": MatchPattern("exact", port, width=8),
            "pkt.proto": MatchPattern("ternary", value, mask=mask, width=8),
        }

    return [
        ("route", TableEntry(lpm(0x40, 2), "set_port", [1])),
        ("route", TableEntry(lpm(0x40, 2), "set_port", [2])),  # tie: loses to port 1
        ("route", TableEntry(lpm(0x44, 6), "set_port", [3])),
        ("route", TableEntry(lpm(0x00, 0), "set_port", [4])),
        ("route", TableEntry(lpm(0x45, 12), "set_port", [5])),  # prefix past the width
        ("route", TableEntry(lpm(0x80, 1), "set_port", [6], priority=1)),
        ("classify", TableEntry(classify(1, 0x10, 0xF0), "set_tag", [1])),
        ("classify", TableEntry(classify(1, 0x01, 0x0F), "set_tag", [2])),  # tie at 0x11
        ("classify", TableEntry(classify(4, 0x00, 0x00), "set_tag", [3])),
        ("classify", TableEntry(classify(4, 0x06, 0xFF), "set_tag", [4])),
        ("classify", TableEntry(classify(6, 0x00, 0x00), "mark", [], priority=1)),
        ("classify", TableEntry(classify(6, 0x06, 0xFF), "set_tag", [5])),
    ]


class TestOverlappingTernaryAndLpmEntries:
    @pytest.mark.parametrize("num_processors", [1, 2, 3])
    def test_fused_matches_tick(self, num_processors):
        bundle = generate_bundle(
            OVERLAP_PROGRAM, DrmtHardwareParams(num_processors=num_processors)
        )
        assert ".lookup" not in bundle.fused_program().source
        generator = PacketGenerator(
            bundle.program,
            seed=3,
            field_overrides={
                "pkt.dst": choice_field([0x40, 0x43, 0x44, 0x45, 0x47, 0x80, 0xC4, 0x10]),
                "pkt.proto": choice_field([0x11, 0x10, 0x01, 0x06, 0x22]),
            },
        )
        tick = _assert_fused_matches_tick(bundle, generator.generate(400), _overlap_entries())
        # The winners the tick interpreter's lookup picks, tie-breaks included.
        expected_port = {0x40: 1, 0x43: 1, 0x44: 3, 0x45: 5, 0x47: 3, 0x80: 6, 0xC4: 6, 0x10: 4}
        tied_tags = set()
        for record in tick.records:
            assert record.outputs["pkt.port"] == expected_port[record.inputs["pkt.dst"]]
            if record.outputs["pkt.port"] == 1 and record.inputs["pkt.proto"] == 0x11:
                tied_tags.add(record.outputs["pkt.tag"])
        assert tied_tags == {1}
        assert tick.table_hits["route"] == (400, 0)
        assert all(tick.table_hits["classify"])


def _mixed_type_packets():
    """Packets whose values are not all ints: the coercion path."""
    bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))
    packets = PacketGenerator(bundle.program, seed=11).generate(60)
    for index, packet in enumerate(packets):
        if index % 3 == 0:
            packet["meta.acl_drop"] = bool(index % 2)
            packet["ipv4.protocol"] = True if index % 6 == 0 else 17
    return bundle, packets


class TestInputIndependence:
    """The caller's packet dicts and the result's input column never alias."""

    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_caller_packets_not_mutated(self, engine):
        bundle, packets = _mixed_type_packets()
        before = copy.deepcopy(packets)
        DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine=engine
        ).run_packets(packets)
        assert packets == before
        assert [list(map(type, packet.values())) for packet in packets] == [
            list(map(type, packet.values())) for packet in before
        ]

    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_mutating_caller_packets_after_the_call(self, engine):
        bundle, packets = _mixed_type_packets()
        before = copy.deepcopy(packets)
        result = DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine=engine
        ).run_packets(packets)
        for packet in packets:
            packet["ipv4.ttl"] = -1
            packet["extra"] = 7
        assert [record.inputs for record in result.records] == before

    def test_mixed_type_trace_matches_tick(self):
        bundle, packets = _mixed_type_packets()
        _assert_fused_matches_tick(bundle, packets, samples.SIMPLE_ROUTER_ENTRIES)


class TestColumnBackedResult:
    def _fused(self, count=50):
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=3))
        # Half the packets route to port 2 and half of those are UDP: dropped.
        packets = PacketGenerator(
            bundle.program,
            seed=4,
            field_overrides={
                "ipv4.dstAddr": choice_field([(192 << 24) + (168 << 16) + 5, 10 << 24]),
                "ipv4.protocol": choice_field([17, 6]),
            },
        ).generate(count)
        tick = DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine="tick"
        ).run_packets(packets)
        fused = DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine="fused"
        ).run_packets(packets)
        return tick, fused

    def test_summaries_build_no_records(self, monkeypatch):
        tick, fused = self._fused()
        built = []

        def counting_record(**fields):
            built.append(fields["packet_id"])
            return DrmtPacketRecord(**fields)

        monkeypatch.setattr(simulator_module, "DrmtPacketRecord", counting_record)
        assert fused.packets_processed == tick.packets_processed == 50
        assert fused.packets_dropped == tick.packets_dropped > 0
        assert fused.throughput() == tick.throughput()
        assert built == []
        text = fused.describe(limit=4)
        assert built == [0, 1, 2, 3]
        assert text.replace("fused engine", "tick engine") == tick.describe(limit=4)
        assert "... (46 more packets)" in text

    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_record_list_edits_change_no_accessor(self, engine):
        tick, fused = self._fused()
        result = {"tick": tick, "fused": fused}[engine]

        def views():
            return (
                result.records, result.packets_processed, result.packets_dropped,
                result.throughput(), result.describe(limit=50),
            )

        before = views()
        records = result.records
        assert result.records is not records
        assert records == tick.records
        records.pop()
        records[0] = records[1]
        records.reverse()
        assert views() == before
        assert result.packets_processed == 50

    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_records_are_built_on_every_read(self, engine):
        tick, fused = self._fused()
        result = {"tick": tick, "fused": fused}[engine]
        first = result.records[0]
        first.outputs["ipv4.ttl"] = -1
        first.inputs.clear()
        assert result.records == tick.records
        assert result.records[0] is not first
        for column in (result.inputs, result.outputs):
            assert len(column) == 50
            assert all(type(row) is tuple for row in column)
            assert all(type(value) is int for row in column for value in row)

    def test_results_compare_by_value(self):
        tick, fused = self._fused()
        assert fused != tick  # engine differs
        fused.engine = "tick"
        fused.per_processor_packets = tick.per_processor_packets
        assert fused == tick


class TestTickChecks:
    """The tick loop builds its result like the fused driver and checks its own counts."""

    def _simulator(self):
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=3))
        packets = PacketGenerator(bundle.program, seed=5).generate(20)
        simulator = DRMTSimulator(
            bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine="tick"
        )
        return simulator, packets

    def test_a_packet_completing_late_raises_naming_it(self, monkeypatch):
        simulator, packets = self._simulator()
        is_complete = PacketContext.is_complete

        def one_tick_late_for_packet_3(packet, makespan, current_tick):
            if packet.packet_id == 3:
                makespan += 1
            return is_complete(packet, makespan, current_tick)

        monkeypatch.setattr(PacketContext, "is_complete", one_tick_late_for_packet_3)
        makespan = simulator.bundle.schedule.makespan
        with pytest.raises(
            SimulationError,
            match=rf"^packet 3 completed at tick {makespan + 3}, expected {makespan + 2}$",
        ):
            simulator.run_packets(packets)

    @pytest.mark.parametrize("field", ["ticks", "per_processor_operations"])
    def test_counts_other_than_the_builders_raise(self, monkeypatch, field):
        simulator, packets = self._simulator()
        assemble_result = drmt_drivers.assemble_result

        def off_by_one(*args, **kwargs):
            result = assemble_result(*args, **kwargs)
            if field == "ticks":
                result.ticks += 1
            else:
                result.per_processor_operations[0] += 1
            return result

        monkeypatch.setattr(drmt_drivers, "assemble_result", off_by_one)
        with pytest.raises(SimulationError, match=r"^tick loop ran \d+ ticks and"):
            simulator.run_packets(packets)


class TestRecordKeyContract:
    """Packets may omit declared fields or carry undeclared ones.

    Tick and fused give equal records, and each record's ``outputs`` keys
    are its ``inputs`` keys plus fields that an action of the program writes.
    """

    EXTRA = "extra.tag"

    def _packets(self, program, count=90):
        written = sorted(
            {name for action in program.actions.values() for name in action.fields_written()}
        )
        read_only = sorted(set(program.all_fields()) - set(written))
        packets = PacketGenerator(program, seed=8).generate(count)
        for number, packet in enumerate(packets):
            if number % 3 == 0:
                del packet[written[number // 3 % len(written)]]
            elif number % 3 == 1:
                del packet[read_only[number // 3 % len(read_only)]]
            else:
                packet[self.EXTRA] = number
        return set(written), packets

    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    def test_outputs_are_inputs_plus_written_fields(self, program_name):
        factory, entries = PROGRAMS[program_name]
        bundle = generate_bundle(factory(), DrmtHardwareParams(num_processors=4))
        written, packets = self._packets(bundle.program)
        tick, fused = (
            DRMTSimulator(bundle, table_entries=entries, engine=engine).run_packets(packets)
            for engine in ("tick", "fused")
        )
        assert fused.records == tick.records
        added = set()
        for record, packet in zip(fused.records, packets):
            assert record.inputs == packet
            assert set(record.inputs) <= set(record.outputs)
            assert set(record.outputs) - set(record.inputs) <= written
            added |= set(record.outputs) - set(record.inputs)
            if self.EXTRA in record.inputs:
                assert record.outputs[self.EXTRA] == record.inputs[self.EXTRA]
        assert added, "no action wrote a field its packet omitted"


#: Every field is one slot of a packet's row.  ``copy`` writes ``meta.copy``
#: from ``meta.seen`` and stores ``pkt.c`` in a register; nothing writes
#: ``pkt.c`` or ``meta.seen``.
RAGGED_PROGRAM = """
header_type pkt_t { fields { a : 8; b : 8; c : 8; } }
header_type meta_t { fields { copy : 8; seen : 8; } }
header pkt_t pkt;
metadata meta_t meta;
register saved { width : 32; instance_count : 4; }
action copy(v) {
    modify_field(meta.copy, meta.seen);
    add_to_field(pkt.b, v);
    register_write(saved, pkt.a, pkt.c);
}
table t { reads { pkt.a : exact; } actions { copy; } default_action : copy; }
control ingress { apply(t); }
"""
RAGGED_ENTRIES = "add t pkt.a=1 => copy(5)\n"
RAGGED_FULL = {"pkt.a": 1, "pkt.b": 2, "pkt.c": 3, "meta.copy": 4, "meta.seen": 6}


def _exact_records(result):
    return all(
        type(value) is int
        for record in result.records
        for packet in (record.inputs, record.outputs)
        for value in packet.values()
    )


class TestRaggedPackets:
    """Packets that omit a declared field or carry an undeclared key.

    Each case runs under both drivers and checks tick == fused on records,
    register dump, table hits and ticks.
    """

    def _run(self, packets):
        bundle = generate_bundle(RAGGED_PROGRAM, DrmtHardwareParams(num_processors=2))
        tick = _assert_fused_matches_tick(bundle, packets, RAGGED_ENTRIES)
        fused = DRMTSimulator(bundle, RAGGED_ENTRIES, engine="fused").run_packets(packets)
        for result in (tick, fused):
            assert _exact_records(result)
            assert all(type(value) is int for value in result.register_dump["saved"])
        return fused

    def test_a_trace_mixing_full_and_ragged_packets(self):
        packets = []
        for number in range(40):
            packet = {name: (value + number) % 4 for name, value in RAGGED_FULL.items()}
            if number % 4 == 1:
                del packet[sorted(packet)[number // 4 % len(packet)]]
            elif number % 4 == 2:
                packet["extra.tag"] = number
            packets.append(packet)
        result = self._run(packets)
        assert sorted(result.ragged) == [n for n in range(40) if n % 4 in (1, 2)]
        for record, packet in zip(result.records, packets):
            assert record.inputs == packet

    def test_absent_field_copied_into_absent_field_reads_zero(self):
        packet = {"pkt.a": 1, "pkt.b": 2, "pkt.c": 3}
        (record,) = self._run([packet]).records
        assert record.outputs == {"pkt.a": 1, "pkt.b": 7, "pkt.c": 3, "meta.copy": 0}
        assert type(record.outputs["meta.copy"]) is int

    def test_absent_read_only_field_stays_absent(self):
        packet = {"pkt.a": 2, "pkt.b": 2, "meta.copy": 9, "meta.seen": 4}
        result = self._run([packet])
        (record,) = result.records
        assert record.outputs == {"pkt.a": 2, "pkt.b": 2, "meta.copy": 4, "meta.seen": 4}
        # The absent pkt.c was stored as a plain 0.
        assert result.register_dump["saved"][2] == 0

    def test_undeclared_key_is_carried_through(self):
        packet = dict(RAGGED_FULL, **{"extra.tag": 11})
        (record,) = self._run([packet]).records
        assert record.inputs == packet
        assert record.outputs["extra.tag"] == 11
        assert record.outputs["meta.copy"] == 6

    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_non_int_value_in_a_ragged_packet_raises_located(self, engine):
        bundle = generate_bundle(RAGGED_PROGRAM, DrmtHardwareParams(num_processors=2))
        packets = [dict(RAGGED_FULL), {"pkt.a": 1, "pkt.b": 2.5}]
        simulator = DRMTSimulator(bundle, RAGGED_ENTRIES, engine=engine)
        with pytest.raises(
            SimulationError, match=r"^packet 1 field 'pkt\.b': 2\.5 \(float\) is not an integer$"
        ):
            simulator.run_packets(packets)


#: ``first`` drops a packet whose ``pkt.a`` is 1 after writing ``pkt.a``,
#: then adds to ``pkt.b`` in the same action; ``second``, scheduled after
#: it, writes ``pkt.b`` for the packets that go on.
DROP_PROGRAM = """
header_type pkt_t { fields { a : 8; b : 8; } }
header pkt_t pkt;
action mark_drop() { modify_field(pkt.a, 9); drop(); add_to_field(pkt.b, 1); }
action later() { modify_field(pkt.b, 7); }
table first { reads { pkt.a : exact; } actions { mark_drop; } }
table second { reads { pkt.b : exact; } actions { later; } default_action : later; }
control ingress { apply(first); apply(second); }
"""


class TestDroppedPacketRows:
    @pytest.mark.parametrize("num_processors", [1, 3])
    def test_a_dropped_packets_row_holds_its_writes_before_the_drop(self, num_processors):
        bundle = generate_bundle(DROP_PROGRAM, DrmtHardwareParams(num_processors=num_processors))
        assert bundle.schedule.start("second", "match") > bundle.schedule.start("first", "action")
        packets = [{"pkt.a": number % 3, "pkt.b": number} for number in range(12)]
        entries = "add first pkt.a=1 => mark_drop()\n"
        _assert_fused_matches_tick(bundle, packets, entries)
        result = DRMTSimulator(bundle, entries, engine="fused").run_packets(packets)
        for number, (row, dropped) in enumerate(zip(result.outputs, result.dropped)):
            assert dropped == (number % 3 == 1)
            assert row == ((9, number + 1) if dropped else (number % 3, 7))
        assert result.table_hits == {"first": (4, 8), "second": (0, 8)}
