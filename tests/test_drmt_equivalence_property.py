"""Property: the fused dRMT loop equals the tick interpreter on drawn P4 programs.

Hypothesis draws whole programs as P4 source text and builds them through
:mod:`repro.p4.parser`: exact, LPM and ternary tables, conditional applies,
actions mixing field arithmetic, drops and reads and writes of small
registers indexed by packet fields, default actions that a table does not
list, table entries with overlapping patterns and priorities, and packet
traces, some missing a field and some carrying ``bool`` or ``IntEnum``
values.  Each program is validated, scheduled onto
drawn dRMT hardware and run under both drivers; records, register dump,
table hits and tick count must agree.

Drawn programs land on both sides of the fused generator's proof
(:func:`repro.drmt.fused.register_hazard`): registers confined to one cycle
and registers that are only read (the bundle has the per-packet fused loop),
and written registers touched at several cycles (a hazard: the bundle has
no fused loop, ``engine="fused"`` raises naming the register and ``auto``
runs tick).  Three pinned examples hold one program of each kind, so every
run covers both sides; :class:`TestPinnedCases` checks each sits where its
name says.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Tuple

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    MatchPattern,
    TableEntry,
    generate_bundle,
    parse_entries,
)
from repro.drmt.scheduler import ACTION_OP
from repro.errors import SimulationError
from repro.p4 import parse, table_usage
from repro.p4.program import MATCH_KINDS

#: Example budget (tier-1 default); the nightly CI job raises it twentyfold.
EXAMPLES = int(os.environ.get("DRUZHBA_PROPERTY_EXAMPLES", "200"))

#: Every field is 8 bits wide; metadata fields start at 0 in real traffic
#: but are drawn like the rest here.
FIELDS = ("pkt.f0", "pkt.f1", "pkt.f2", "meta.m0", "meta.m1")
FIELD_WIDTH = 8
REGISTERS = ("r0", "r1")

#: Small values, so matches, register-cell collisions and true conditions
#: happen often.
small = st.integers(min_value=0, max_value=7)


class Small(IntEnum):
    ZERO = 0
    ONE = 1
    FIVE = 5


#: Packet field values: small ints, and ``bool`` and ``IntEnum`` values,
#: which the dRMT reader stores as exact ints for both drivers.
field_values = st.one_of(small, st.booleans(), st.sampled_from(Small))


@dataclass
class DrmtCase:
    """One drawn program with its entries, trace and hardware."""

    source: str
    entries: List[Tuple[str, TableEntry]]
    packets: List[Dict[str, int]]
    hardware: DrmtHardwareParams

    def hazard(self):
        """The bundle's register hazard: ``None`` when it has a fused loop."""
        return generate_bundle(self.source, self.hardware).hazard


def _operand(draw, params: List[str]) -> str:
    """A value argument: a field, an action parameter or a literal."""
    choices = list(FIELDS) + params + ["0", "1", "3"]
    return draw(st.sampled_from(choices))


def _primitive(draw, registers: List[str], params: List[str]) -> str:
    ops = ["modify_field", "add_to_field", "subtract_from_field", "drop", "no_op"]
    if registers:
        ops += ["register_read", "register_write"] * 2
    op = draw(st.sampled_from(ops))
    if op in ("drop", "no_op"):
        return f"{op}();"
    if op == "register_read":
        register = draw(st.sampled_from(registers))
        destination = draw(st.sampled_from(FIELDS))
        return f"register_read({destination}, {register}, {_operand(draw, params)});"
    if op == "register_write":
        register = draw(st.sampled_from(registers))
        index, value = _operand(draw, params), _operand(draw, params)
        return f"register_write({register}, {index}, {value});"
    destination = draw(st.sampled_from(FIELDS))
    return f"{op}({destination}, {_operand(draw, params)});"


def _pattern(draw, kind: str) -> MatchPattern:
    value = draw(small)
    if kind == "exact":
        return MatchPattern("exact", value, width=FIELD_WIDTH)
    if kind == "ternary":
        return MatchPattern("ternary", value, mask=draw(small), width=FIELD_WIDTH)
    prefix = draw(st.integers(min_value=0, max_value=FIELD_WIDTH))
    return MatchPattern("lpm", value, prefix_len=prefix, width=FIELD_WIDTH)


@st.composite
def drmt_cases(draw) -> DrmtCase:
    registers = list(REGISTERS[: draw(st.integers(min_value=0, max_value=len(REGISTERS)))])
    lines = [
        "header_type pkt_t { fields { f0 : 8; f1 : 8; f2 : 8; } }",
        "header_type meta_t { fields { m0 : 8; m1 : 8; } }",
        "header pkt_t pkt;",
        "metadata meta_t meta;",
    ]
    for register in registers:
        size = draw(st.integers(min_value=1, max_value=4))
        lines.append(f"register {register} {{ width : 32; instance_count : {size}; }}")

    action_params: Dict[str, List[str]] = {}
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        name = f"a{index}"
        params = ["v"] if draw(st.booleans()) else []
        body = [
            _primitive(draw, registers, params)
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        lines.append(f"action {name}({', '.join(params)}) {{ {' '.join(body)} }}")
        action_params[name] = params
    action_names = sorted(action_params)

    tables: Dict[str, Tuple[List[Tuple[str, str]], List[str]]] = {}
    control: List[str] = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        name = f"t{index}"
        reads = draw(
            st.lists(
                st.tuples(st.sampled_from(FIELDS), st.sampled_from(MATCH_KINDS)),
                max_size=2,
                unique_by=lambda read: read[0],
            )
        )
        actions = draw(st.lists(st.sampled_from(action_names), min_size=1, max_size=2, unique=True))
        section = " ".join(f"{field} : {kind};" for field, kind in reads)
        default = ""
        if draw(st.booleans()):
            default = f" default_action : {draw(st.sampled_from(action_names))};"
        lines.append(
            f"table {name} {{ reads {{ {section} }} actions {{ {' '.join(a + ';' for a in actions)} }}"
            f"{default} }}"
        )
        tables[name] = (reads, actions)
        if draw(st.booleans()):
            control.append(f"if ({draw(st.sampled_from(FIELDS))} == {draw(small)}) {{ apply({name}); }}")
        else:
            control.append(f"apply({name});")
    lines.append(f"control ingress {{ {' '.join(control)} }}")

    entries: List[Tuple[str, TableEntry]] = []
    for name, (reads, actions) in tables.items():
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            action = draw(st.sampled_from(actions))
            args = draw(st.lists(small, max_size=len(action_params[action])))
            patterns = {field: _pattern(draw, kind) for field, kind in reads}
            priority = draw(st.integers(min_value=0, max_value=1))
            entries.append((name, TableEntry(patterns, action, args, priority=priority)))

    packets = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        packet = {field: draw(field_values) for field in FIELDS}
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            del packet[draw(st.sampled_from(FIELDS))]
        packets.append(packet)

    hardware = DrmtHardwareParams(
        num_processors=draw(st.integers(min_value=1, max_value=4)),
        ticks_per_match=draw(st.integers(min_value=1, max_value=2)),
        ticks_per_action=draw(st.integers(min_value=1, max_value=2)),
    )
    return DrmtCase("\n".join(lines), entries, packets, hardware)


def _case(source: str, entries: str, hardware: DrmtHardwareParams) -> DrmtCase:
    """A pinned case over 24 packets whose fields cycle through 0..7."""
    packets = [
        {field: (index * (position + 1)) % 8 for position, field in enumerate(FIELDS)}
        for index in range(24)
    ]
    return DrmtCase(source, parse_entries(entries, parse(source)), packets, hardware)


_PINNED_HEADER = """
header_type pkt_t { fields { f0 : 8; f1 : 8; f2 : 8; } }
header_type meta_t { fields { m0 : 8; m1 : 8; } }
header pkt_t pkt;
metadata meta_t meta;
register r0 { width : 32; instance_count : 3; }
"""

#: Per-packet: ``r0`` is read and written by ``t1``'s actions alone.  ``t0``
#: may drop before that write (a ternary entry), and ``count_drop`` drops
#: after it (so the write still lands).
PINNED_CONFINED = _case(
    _PINNED_HEADER
    + """
action maybe_drop() { drop(); }
action pass_on() { no_op(); }
action count(v) {
    register_read(meta.m0, r0, pkt.f1);
    add_to_field(meta.m0, v);
    register_write(r0, pkt.f1, meta.m0);
}
action count_drop(v) {
    register_read(meta.m0, r0, pkt.f1);
    add_to_field(meta.m0, v);
    register_write(r0, pkt.f1, meta.m0);
    drop();
}
table t0 { reads { pkt.f0 : ternary; } actions { maybe_drop; pass_on; } default_action : pass_on; }
table t1 { reads { pkt.f2 : lpm; } actions { count; count_drop; } }
control ingress { apply(t0); apply(t1); }
""",
    """
add t0 pkt.f0=1&&&3 => maybe_drop()
add t1 pkt.f2=0/6 => count(2)
add t1 pkt.f2=4/6 => count_drop(5)
""",
    DrmtHardwareParams(num_processors=3),
)

#: Hazard: ``t0`` reads ``r0`` and ``t1``, one action later, writes it.
PINNED_SPLIT = _case(
    _PINNED_HEADER
    + """
action load() { register_read(meta.m0, r0, pkt.f0); }
action store(v) { add_to_field(meta.m0, v); register_write(r0, pkt.f0, meta.m0); }
table t0 { reads { pkt.f1 : exact; } actions { load; } default_action : load; }
table t1 { reads { meta.m0 : exact; } actions { store; } default_action : store; }
control ingress { apply(t0); apply(t1); }
""",
    """
add t1 meta.m0=0 => store(1)
add t1 meta.m0=2 => store(3)
""",
    DrmtHardwareParams(num_processors=2),
)

#: Per-packet: nothing writes ``r0``, which two tables read at two cycles.
PINNED_READ_ONLY = _case(
    _PINNED_HEADER
    + """
action peek_a() { register_read(meta.m0, r0, pkt.f0); add_to_field(meta.m1, 1); }
action peek_b() { register_read(meta.m1, r0, meta.m0); }
table t0 { reads { pkt.f0 : exact; } actions { peek_a; } default_action : peek_a; }
table t1 { reads { meta.m1 : exact; } actions { peek_b; } default_action : peek_b; }
control ingress { apply(t0); apply(t1); }
""",
    "",
    DrmtHardwareParams(num_processors=4),
)


def _register_cycles(case: DrmtCase) -> Dict[str, Tuple[set, set]]:
    """Per register: the action cycles that only read it, and those that write it."""
    bundle = generate_bundle(case.source, case.hardware)
    program, schedule = bundle.program, bundle.schedule
    cycles: Dict[str, Tuple[set, set]] = {}
    for table_name in program.table_order():
        usage = table_usage(program, table_name)
        start = schedule.start(table_name, ACTION_OP)
        for register in usage.registers:
            reads, writes = cycles.setdefault(register, (set(), set()))
            (writes if register in usage.register_writes else reads).add(start)
    return cycles


def _exact_ints(result) -> bool:
    """True when every record's input and output values are exact ints."""
    return all(
        type(value) is int
        for record in result.records
        for packet in (record.inputs, record.outputs)
        for value in packet.values()
    )


class TestFusedMatchesTickOnDrawnPrograms:
    @settings(max_examples=EXAMPLES, deadline=None)
    @example(case=PINNED_CONFINED)
    @example(case=PINNED_SPLIT)
    @example(case=PINNED_READ_ONLY)
    @given(case=drmt_cases())
    def test_fused_equals_tick(self, case):
        program = parse(case.source)
        program.validate()
        bundle = generate_bundle(program, case.hardware)
        tick = DRMTSimulator(bundle, case.entries, engine="tick").run_packets(case.packets)
        assert _exact_ints(tick)
        event(f"register hazard: {bundle.hazard is not None}")
        if bundle.hazard is not None:
            register, _cycles = bundle.hazard
            with pytest.raises(SimulationError, match=f"register {register!r} is accessed"):
                DRMTSimulator(bundle, case.entries, engine="fused").run_packets(case.packets)
            auto = DRMTSimulator(bundle, case.entries).run_packets(case.packets)
            assert auto.engine == "tick"
            assert auto == tick
            return
        fused = DRMTSimulator(bundle, case.entries, engine="fused").run_packets(case.packets)
        assert fused.engine == "fused"
        assert fused.records == tick.records
        assert _exact_ints(fused)
        assert fused.register_dump == tick.register_dump
        assert fused.table_hits == tick.table_hits
        assert fused.ticks == tick.ticks


class TestPinnedCases:
    """Each pinned example sits on the side of the proof it is named for."""

    def test_confined_register_has_no_hazard(self):
        assert PINNED_CONFINED.hazard() is None
        (reads, writes), = _register_cycles(PINNED_CONFINED).values()
        assert not reads and len(writes) == 1
        bundle = generate_bundle(PINNED_CONFINED.source, PINNED_CONFINED.hardware)
        # t0 may drop before t1's register write: the loop skips the rest.
        assert "if dropped[p]:\n            continue" in bundle.fused_program().source

    def test_split_register_is_a_hazard(self):
        assert PINNED_SPLIT.hazard()[0] == "r0"
        (reads, writes), = _register_cycles(PINNED_SPLIT).values()
        assert len(reads) == len(writes) == 1 and reads != writes

    def test_read_only_register_has_no_hazard(self):
        assert PINNED_READ_ONLY.hazard() is None
        (reads, writes), = _register_cycles(PINNED_READ_ONLY).values()
        assert len(reads) == 2 and not writes

    def test_pinned_traces_hit_drops_and_registers(self):
        for case in (PINNED_CONFINED, PINNED_SPLIT):
            bundle = generate_bundle(case.source, case.hardware)
            result = DRMTSimulator(bundle, case.entries, engine="tick").run_packets(case.packets)
            assert any(result.register_dump["r0"])
        bundle = generate_bundle(PINNED_CONFINED.source, PINNED_CONFINED.hardware)
        result = DRMTSimulator(bundle, PINNED_CONFINED.entries).run_packets(PINNED_CONFINED.packets)
        assert 0 < result.packets_dropped < len(PINNED_CONFINED.packets)
