"""dRMT fused codegen: bit-for-bit fidelity to the tick interpreter, hazards included."""

from __future__ import annotations

import pytest

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    PacketGenerator,
    generate_bundle,
)
from repro.drmt.fused import visit_orders
from repro.errors import SimulationError
from repro.p4 import samples

SEEDS = (0, 7, 1234)

PROGRAMS = {
    "simple_router": (samples.simple_router, samples.SIMPLE_ROUTER_ENTRIES),
    "telemetry_pipeline": (samples.telemetry_pipeline, samples.TELEMETRY_ENTRIES),
}

#: Two tables whose actions touch the same register: the later table's action
#: launches at a later cycle, so the tick model interleaves the register
#: accesses across packets — the case run-to-completion cannot reproduce but
#: the fused loop (which replays the tick interleaving) must.
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


class TestHazardAnalysis:
    """A register touched at two schedule cycles: the fused loop still matches tick."""

    def test_auto_falls_back_to_fused_not_generic(self):
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=2))
        packets = PacketGenerator(bundle.program, seed=0).generate(10)
        result = DRMTSimulator(bundle).run_packets(packets)
        assert result.engine == "fused"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_replays_interleaving_on_hazardous_program(self, seed):
        """The fused loop stays bit-for-bit even where run-to-completion cannot."""
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=3))
        packets = PacketGenerator(bundle.program, seed=seed).generate(120)
        tick = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        equal, detail = _records_equal(tick, fused)
        assert equal, detail
        assert fused.register_dump == tick.register_dump

    def test_sharded_shards_replay_interleaving_on_hazardous_program(self):
        """Sharded dRMT runs fused shards, so the shared register stays exact."""
        bundle = generate_bundle(HAZARD_PROGRAM, DrmtHardwareParams(num_processors=3))
        packets = PacketGenerator(bundle.program, seed=0).generate(120)
        tick = DRMTSimulator(bundle, engine="tick").run_packets(packets)
        for simulator in (
            DRMTSimulator(bundle, shards=2, workers=1, shard_threshold=1),
            DRMTSimulator(bundle, engine="sharded", shards=2, workers=1),
        ):
            sharded = simulator.run_packets(packets)
            assert sharded.engine == "sharded[fused]"
            equal, detail = _records_equal(tick, sharded)
            assert equal, detail
            assert sharded.register_dump == tick.register_dump
            assert sharded.table_hits == tick.table_hits


class TestVisitOrders:
    def test_orders_follow_processor_then_arrival(self):
        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))
        orders = visit_orders(bundle.schedule, 2)
        assert len(orders) == 2
        active = sorted({start for start in bundle.schedule.start_times.values()})
        for residue, order in enumerate(orders):
            assert sorted(order) == active
            # Within one residue the cycles are grouped by the processor of
            # packet p = t - c, and ordered by arrival (descending cycle).
            keys = [((residue - c) % 2, -c) for c in order]
            assert keys == sorted(keys)
