"""Unit and integration tests for the dRMT simulator (processors, registers, dispatch)."""

import pytest

from repro.drmt import (
    DRMTSimulator,
    DrmtHardwareParams,
    PacketGenerator,
    RegisterFile,
    generate_bundle,
    values_field,
)
from repro.errors import SimulationError
from repro.p4 import samples


@pytest.fixture(scope="module")
def router_bundle():
    return generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))


def router_packet(dst=167772161, src=42, ttl=64, protocol=6):
    return {
        "ethernet.dstAddr": 0,
        "ethernet.srcAddr": 0,
        "ethernet.etherType": 0x800,
        "ipv4.srcAddr": src,
        "ipv4.dstAddr": dst,
        "ipv4.ttl": ttl,
        "ipv4.protocol": protocol,
        "meta.egress_port": 0,
        "meta.flow_index": 0,
        "meta.tmp_count": 0,
        "meta.acl_drop": 0,
    }


class TestRegisterFile:
    def test_read_write(self):
        registers = RegisterFile(samples.simple_router())
        registers.write("flow_counter", 3, 99)
        assert registers.read("flow_counter", 3) == 99

    def test_index_wraps(self):
        registers = RegisterFile(samples.simple_router())
        registers.write("flow_counter", 64 + 1, 5)  # instance_count is 64
        assert registers.read("flow_counter", 1) == 5

    def test_unknown_register_rejected(self):
        registers = RegisterFile(samples.simple_router())
        with pytest.raises(SimulationError):
            registers.read("ghost", 0)

    def test_dump_limit(self):
        registers = RegisterFile(samples.simple_router())
        assert len(registers.dump("flow_counter", limit=4)) == 4


class TestStaticAnalysisBundle:
    def test_analysis_contents(self, router_bundle):
        analysis = router_bundle.analysis
        assert analysis.tables == ["forward", "acl", "flow_stats"]
        assert "set_nhop" in analysis.actions
        assert "flow_counter" in analysis.registers
        assert "ipv4.dstAddr" in analysis.packet_fields
        assert "meta.egress_port" in analysis.metadata_fields
        assert analysis.match_fields_per_table["acl"] == ["meta.egress_port", "ipv4.protocol"]
        assert analysis.critical_path == ["forward", "acl"]

    def test_describe_mentions_schedule(self, router_bundle):
        assert "schedule" in router_bundle.describe()


class TestPacketGenerator:
    def test_deterministic(self):
        program = samples.simple_router()
        a = PacketGenerator(program, seed=4).generate(5)
        b = PacketGenerator(program, seed=4).generate(5)
        assert a == b

    def test_metadata_defaults_to_zero(self):
        packets = PacketGenerator(samples.simple_router(), seed=1).generate(3)
        assert all(packet["meta.egress_port"] == 0 for packet in packets)

    def test_field_overrides(self):
        packets = PacketGenerator(
            samples.simple_router(), seed=1,
            field_overrides={"ipv4.srcAddr": values_field([42])},
        ).generate(10)
        assert all(packet["ipv4.srcAddr"] == 42 for packet in packets)

    def test_width_cap_respected(self):
        packets = PacketGenerator(samples.simple_router(), seed=1).generate(20)
        assert all(packet["ipv4.dstAddr"] < (1 << 16) for packet in packets)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            PacketGenerator(samples.simple_router()).generate(-1)


class TestSimulatorBehaviour:
    def test_forwarding_and_ttl_decrement(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets([router_packet(dst=167772161, ttl=10)])
        record = result.records[0]
        assert record.outputs["meta.egress_port"] == 1
        assert record.outputs["ipv4.ttl"] == 9
        assert not record.dropped

    def test_lpm_default_route(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets([router_packet(dst=999)])
        assert result.records[0].outputs["meta.egress_port"] == 3

    def test_acl_drops_udp_on_port_2(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        dropped = simulator.run_packets([router_packet(dst=3232235777, protocol=17)])
        kept = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES).run_packets(
            [router_packet(dst=3232235777, protocol=6)]
        )
        assert dropped.records[0].dropped
        assert not kept.records[0].dropped
        assert dropped.packets_dropped == 1

    def test_register_counts_tracked_flows(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        packets = [router_packet(src=42) for _ in range(5)] + [router_packet(src=77) for _ in range(3)]
        result = simulator.run_packets(packets)
        assert result.register_dump["flow_counter"][1] == 5
        assert result.register_dump["flow_counter"][2] == 3

    def test_miss_uses_default_action(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries="")
        result = simulator.run_packets([router_packet()])
        # No entries installed: forward misses, on_miss() leaves egress_port at 0.
        assert result.records[0].outputs["meta.egress_port"] == 0

    def test_round_robin_dispatch(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets([router_packet() for _ in range(10)])
        assert result.per_processor_packets == {0: 5, 1: 5}
        processors = [record.processor for record in result.records]
        assert processors[:4] == [0, 1, 0, 1]

    def test_latency_equals_schedule_makespan(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets([router_packet(), router_packet()])
        for record in result.records:
            assert record.latency == router_bundle.schedule.makespan

    def test_outputs_preserve_packet_order(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_packets([router_packet(src=i) for i in range(7)])
        assert [record.packet_id for record in result.records] == list(range(7))
        assert [record.inputs["ipv4.srcAddr"] for record in result.records] == list(range(7))

    def test_throughput_and_describe(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        result = simulator.run_traffic(30, seed=2)
        assert 0 < result.throughput() <= 1.0
        assert "packets per processor" in result.describe()

    def test_run_traffic_uses_generator(self, router_bundle):
        simulator = DRMTSimulator(router_bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES)
        generator = PacketGenerator(
            router_bundle.program, seed=9, field_overrides={"ipv4.srcAddr": values_field([42])}
        )
        result = simulator.run_traffic(8, generator=generator)
        assert result.register_dump["flow_counter"][1] == 8


class TestTelemetryPipeline:
    def test_register_accumulation_through_dependent_tables(self):
        bundle = generate_bundle(samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=1))
        simulator = DRMTSimulator(bundle, table_entries=samples.TELEMETRY_ENTRIES)
        packets = [
            {"pkt.flow_id": 1, "pkt.size": 100, "pkt.queue_depth": 0,
             "meta.bucket": 0, "meta.total": 0, "meta.alarm": 0},
            {"pkt.flow_id": 1, "pkt.size": 50, "pkt.queue_depth": 0,
             "meta.bucket": 0, "meta.total": 0, "meta.alarm": 0},
            {"pkt.flow_id": 2, "pkt.size": 7, "pkt.queue_depth": 0,
             "meta.bucket": 0, "meta.total": 0, "meta.alarm": 0},
        ]
        result = simulator.run_packets(packets)
        assert result.register_dump["byte_totals"][1] == 150
        assert result.register_dump["byte_totals"][2] == 7

    def test_alarm_table_ternary_match(self):
        bundle = generate_bundle(samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=1))
        simulator = DRMTSimulator(bundle, table_entries=samples.TELEMETRY_ENTRIES)
        calm = {"pkt.flow_id": 1, "pkt.size": 1, "pkt.queue_depth": 10,
                "meta.bucket": 0, "meta.total": 0, "meta.alarm": 0}
        congested = dict(calm, **{"pkt.queue_depth": 0xFF00})
        result = simulator.run_packets([calm, congested])
        assert result.records[0].outputs["meta.alarm"] == 0
        assert result.records[1].outputs["meta.alarm"] == 1


class TestFusedDriverExactMatchProbes:
    """The fused driver probes all-exact tables through their dict index.

    :meth:`MatchActionTable.exact_index` replaces the linear scan for
    all-exact tables — one dict probe per match — with hit/miss counters
    preserved, while ternary/LPM tables keep the scan.
    """

    def _flow_restricted_packets(self, bundle, count):
        from repro.traffic import choice_field

        generator = PacketGenerator(
            bundle.program, seed=4, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        return generator.generate(count)

    def test_fused_driver_never_scans_all_exact_tables(self, monkeypatch):
        """The scan path must not run for an all-exact table."""
        from repro.drmt.tables import MatchActionTable

        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=2)
        )
        simulator = DRMTSimulator(
            bundle, table_entries=samples.TELEMETRY_ENTRIES, engine="fused"
        )
        packets = self._flow_restricted_packets(bundle, 40)
        exact_names = {
            name
            for name, table in simulator.tables.tables.items()
            if table.is_exact
        }
        assert exact_names  # telemetry has all-exact tables to specialise
        original_lookup = MatchActionTable.lookup

        def guarded_lookup(table, fields):
            assert table.name not in exact_names, (
                f"fused driver scanned all-exact table {table.name!r}"
            )
            return original_lookup(table, fields)

        monkeypatch.setattr(MatchActionTable, "lookup", guarded_lookup)
        result = simulator.run_packets(packets)
        assert result.engine == "fused"
        assert result.packets_processed == len(packets)

    def test_fused_counters_match_the_tick_interpreter(self):
        """Dict probes count hits and misses exactly like lookup() did."""
        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=2)
        )
        packets = self._flow_restricted_packets(bundle, 60)
        tick = DRMTSimulator(
            bundle, table_entries=samples.TELEMETRY_ENTRIES, engine="tick"
        ).run_packets(packets)
        fused = DRMTSimulator(
            bundle, table_entries=samples.TELEMETRY_ENTRIES, engine="fused"
        ).run_packets(packets)
        assert fused.table_hits == tick.table_hits
        assert [record.outputs for record in fused.records] == [
            record.outputs for record in tick.records
        ]
        assert fused.register_dump == tick.register_dump

    def test_entries_added_between_runs_are_picked_up(self):
        """The generated prologue rebuilds the dict index on every run."""
        from repro.drmt.table_config import parse_entries, populate_store

        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=2)
        )
        simulator = DRMTSimulator(bundle, engine="fused")  # no entries yet
        packets = self._flow_restricted_packets(bundle, 20)
        first = simulator.run_packets(packets)
        assert all(hits == 0 for hits, _ in first.table_hits.values())
        populate_store(
            simulator.tables, parse_entries(samples.TELEMETRY_ENTRIES, bundle.program)
        )
        second = simulator.run_packets(packets)
        assert any(hits > 0 for hits, _ in second.table_hits.values())
