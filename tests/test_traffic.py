"""The unified traffic module serving both execution engines."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.p4 import samples
from repro.traffic import (
    PacketGenerator,
    TrafficGenerator,
    choice_field,
    values_field,
)


class TestSharedSeedHandling:
    def test_phv_generator_replayable(self):
        generator = TrafficGenerator(num_containers=3, seed=9)
        assert generator.generate(5) == generator.generate(5)

    def test_packet_generator_replayable(self):
        generator = PacketGenerator(samples.simple_router(), seed=9)
        assert generator.generate(5) == generator.generate(5)

    def test_lazy_iteration_matches_generate(self):
        phv_generator = TrafficGenerator(num_containers=2, seed=4)
        assert list(phv_generator.iter_phvs(7)) == phv_generator.generate(7)
        packet_generator = PacketGenerator(samples.telemetry_pipeline(), seed=4)
        assert list(packet_generator.iter_packets(7)) == packet_generator.generate(7)

    def test_negative_counts_rejected_by_both(self):
        with pytest.raises(SimulationError):
            TrafficGenerator(num_containers=1).generate(-1)
        with pytest.raises(SimulationError):
            PacketGenerator(samples.simple_router()).generate(-1)


class TestCompatibilityShims:
    def test_dsim_and_drmt_packages_export_the_shared_classes(self):
        from repro import drmt, dsim

        assert dsim.TrafficGenerator is TrafficGenerator
        assert drmt.PacketGenerator is PacketGenerator
        assert dsim.choice_field is choice_field
        assert drmt.values_field is values_field

    def test_values_field_is_choice_field_alias(self):
        import random

        rng_a, rng_b = random.Random(3), random.Random(3)
        field_a = values_field([4, 5, 6])
        field_b = choice_field([4, 5, 6])
        assert [field_a(rng_a) for _ in range(10)] == [field_b(rng_b) for _ in range(10)]


class TestFieldHelpers:
    def test_choice_field_needs_choices(self):
        with pytest.raises(SimulationError):
            choice_field([])

    def test_per_container_overrides(self):
        generator = TrafficGenerator(
            num_containers=2,
            seed=1,
            field_generators=[lambda rng: 9, None],
        )
        phvs = generator.generate(4)
        assert all(phv[0] == 9 for phv in phvs)

    def test_packet_overrides_and_metadata_default(self):
        generator = PacketGenerator(
            samples.simple_router(),
            seed=1,
            field_overrides={"ipv4.srcAddr": values_field([42])},
            metadata_default=3,
        )
        packets = generator.generate(5)
        assert all(packet["ipv4.srcAddr"] == 42 for packet in packets)
        assert all(packet["meta.egress_port"] == 3 for packet in packets)
