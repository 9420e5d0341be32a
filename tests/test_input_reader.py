"""One input rule for both facades, read in one place per architecture.

A trace value is accepted when :func:`operator.index` accepts it and is
stored as an exact ``int``; anything else raises :class:`SimulationError`
naming the input and its container or field.  RMT traces are read by
:func:`repro.engine.rmt.prepare_inputs` (every driver, the debugger's
recorder and the CEGIS evaluator), dRMT traces by
:func:`repro.engine.drmt.prepare_packets` (tick and fused), so every driver
of one facade refuses the same value with the same message.
"""

from __future__ import annotations

import re
from decimal import Decimal
from enum import IntEnum

import pytest

from repro import dgen
from repro.debugger import record_execution
from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
from repro.dsim import RMTSimulator
from repro.errors import SimulationError
from repro.p4 import samples
from repro.traffic import PacketGenerator

#: One value of each type the readers refuse.
BAD_VALUES = [1.7, "5", None, Decimal("3")]
BAD_IDS = ["float", "str", "None", "Decimal"]

RMT_RUNS = ["tick", "generic", "fused", "sharded", "record_execution"]


class Flag(IntEnum):
    OFF = 0
    ON = 1


def refused(message):
    """``pytest.raises`` for a SimulationError carrying exactly ``message``."""
    return pytest.raises(SimulationError, match=f"^{re.escape(message)}$")


def run_rmt(description, run, inputs):
    if run == "record_execution":
        return record_execution(description, inputs)
    options = {"shards": 2} if run == "sharded" else {}
    return RMTSimulator(description, engine=run, **options).run(inputs)


class TestRmtReader:
    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    @pytest.mark.parametrize("run", RMT_RUNS)
    def test_a_non_integer_value_is_refused_where_it_sits(
        self, passthrough_descriptions, run, value
    ):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        inputs = [[1, 2], [3, value], [5, 6]]
        message = f"PHV 1 container 1: {value!r} ({type(value).__name__}) is not an integer"
        with refused(message):
            run_rmt(description, run, inputs)

    @pytest.mark.parametrize("run", RMT_RUNS)
    def test_one_shot_rows_are_refused_where_they_sit(self, passthrough_descriptions, run):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        rows = [iter([1, 2]), iter([3.5, 4])]
        with refused("PHV 1 container 0: 3.5 (float) is not an integer"):
            run_rmt(description, run, rows)

    def test_record_execution_refuses_a_short_phv_like_the_simulator(
        self, passthrough_descriptions
    ):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        inputs = [[1, 2], [3], [5, 6]]
        message = "PHV 1 has 1 containers, pipeline width is 2"
        with refused(message):
            RMTSimulator(description).run(inputs)
        with refused(message):
            record_execution(description, inputs)

    def test_record_execution_stores_exact_ints(self, passthrough_descriptions):
        description = passthrough_descriptions[dgen.OPT_FUSED]
        recording = record_execution(description, [(True, Flag.ON), [Flag.OFF, 7]])
        assert recording.inputs == [[1, 1], [0, 7]]
        assert all(type(value) is int for row in recording.inputs for value in row)
        assert all(
            type(value) is int for row in recording.outputs.values() for value in row
        )


def router_packets():
    bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))
    return bundle, PacketGenerator(bundle.program, seed=7).generate(6)


def run_drmt(bundle, engine, packets):
    return DRMTSimulator(
        bundle, table_entries=samples.SIMPLE_ROUTER_ENTRIES, engine=engine
    ).run_packets(packets)


class TestDrmtReader:
    @pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
    @pytest.mark.parametrize("engine", ["tick", "fused"])
    def test_a_non_integer_value_is_refused_where_it_sits(self, engine, value):
        bundle, packets = router_packets()
        packets[1]["ipv4.ttl"] = value
        message = (
            f"packet 1 field 'ipv4.ttl': {value!r} ({type(value).__name__}) is not an integer"
        )
        with refused(message):
            run_drmt(bundle, engine, packets)

    def test_bool_and_intenum_values_are_read_as_exact_ints(self):
        bundle, packets = router_packets()
        plain = [dict(packet) for packet in packets]
        packets[0]["ipv4.protocol"] = Flag.ON
        packets[2]["meta.acl_drop"] = True
        plain[0]["ipv4.protocol"] = 1
        plain[2]["meta.acl_drop"] = 1
        for engine in ("tick", "fused"):
            result = run_drmt(bundle, engine, packets)
            assert result.records == run_drmt(bundle, engine, plain).records
            for record in result.records:
                values = list(record.inputs.values()) + list(record.outputs.values())
                assert all(type(value) is int for value in values), engine
