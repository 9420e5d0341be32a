"""Property-based equivalence tests for the sharded meta-driver.

The sharded driver's contract is *bit-for-bit equality* with the unsharded
sequential drivers — outputs restored to input order, per-stage /
per-register state merged — whenever its state-conflict check admits a
partition, and a loud, early refusal (or, under ``engine="auto"``, a
transparent fallback) whenever it does not.  These tests pin that contract
down three ways:

* randomized flow-parallel programs, traces and shard counts (sharded ==
  generic == tick, including flows whose packets interleave arbitrarily);
* the 12 Table-1 programs under ``engine="auto"`` with sharding enabled
  (bit-for-bit whatever the driver decides, sharded or fallback);
* the conflict guard itself: programs whose state is shared across flows
  must raise a clear :class:`ShardStateConflictError` under an explicit
  ``engine="sharded"`` and silently fall back under ``engine="auto"``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import dgen
from repro.dsim import RMTSimulator
from repro.engine import ENGINE_SHARDED
from repro.engine.sharded import (
    ShardPlan,
    ShardStateConflictError,
    plan_shards,
    stable_flow_hash,
)
from repro.errors import SimulationError
from repro.programs import TABLE1_ORDER, get_program
from repro.programs.variants import (
    make_accumulator_variant,
    make_flow_counters_cross_reader_variant,
    make_flow_counters_readers_variant,
    make_flow_counters_variant,
    make_threshold_variant,
)

SHARD_COUNTS = (1, 2, 4, 7)


def compiled(program, opt_level=dgen.OPT_FUSED):
    return dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=opt_level)


def assert_bit_for_bit(result, reference, label=""):
    assert result.outputs == reference.outputs, label
    assert result.final_state == reference.final_state, label
    assert result.input_trace == reference.input_trace, label
    assert result.ticks == reference.ticks, label
    assert [record.phv_id for record in result.output_trace] == [
        record.phv_id for record in reference.output_trace
    ], label


# ----------------------------------------------------------------------
# Partitioning primitives
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_stable_flow_hash_is_deterministic_and_spreads(self):
        assert stable_flow_hash([1, 2]) == stable_flow_hash([1, 2])
        keys = {stable_flow_hash([flow]) % 4 for flow in range(64)}
        assert keys == {0, 1, 2, 3}

    def test_block_plan_covers_every_index_once(self):
        plan = plan_shards(10, 3)
        assert plan.mode == "block"
        flat = [index for assignment in plan.assignments for index in assignment]
        assert sorted(flat) == list(range(10))
        # contiguous: each shard's indices are consecutive
        for assignment in plan.assignments:
            assert list(assignment) == list(range(assignment[0], assignment[-1] + 1))

    def test_flow_plan_groups_by_key_in_trace_order(self):
        keys = [stable_flow_hash([flow]) for flow in [0, 1, 0, 2, 1, 0]]
        plan = plan_shards(6, 4, keys)
        assert plan.mode == "flow"
        for assignment in plan.assignments:
            assert list(assignment) == sorted(assignment)  # trace order kept
            assert len({keys[index] % 4 for index in assignment}) >= 1
        flat = sorted(index for assignment in plan.assignments for index in assignment)
        assert flat == list(range(6))

    def test_gather_restores_original_order(self):
        plan = ShardPlan("flow", [(2, 0), (1, 3)])
        assert plan.gather(4, [["c", "a"], ["b", "d"]]) == ["a", "b", "c", "d"]

    def test_empty_trace_and_bad_counts(self):
        assert len(plan_shards(0, 4)) == 0
        with pytest.raises(SimulationError):
            plan_shards(4, 0)
        with pytest.raises(SimulationError):
            plan_shards(4, 2, keys=[1, 2])  # one key per input


# ----------------------------------------------------------------------
# Property: flow-parallel programs are bit-for-bit under any shard count
# ----------------------------------------------------------------------
class TestFlowParallelEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_randomized_programs_traces_and_shards(self, data):
        """Random flow counts, ops, seeds, traces and shard counts agree."""
        flows = data.draw(st.integers(min_value=1, max_value=6), label="flows")
        op = data.draw(st.sampled_from(["+", "-"]), label="op")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        shards = data.draw(st.sampled_from(SHARD_COUNTS), label="shards")
        count = data.draw(st.integers(min_value=0, max_value=120), label="count")

        program = make_flow_counters_variant(flows, op)
        description = compiled(program)
        inputs = program.traffic_generator(seed=seed).generate(count)

        reference = RMTSimulator(description, engine="generic").run(inputs)
        tick = RMTSimulator(description, engine="tick").run(inputs)
        sharded = RMTSimulator(
            description, engine="sharded", shards=shards, workers=1, shard_key=[0]
        ).run(inputs)

        assert_bit_for_bit(tick, reference, "tick vs generic")
        assert_bit_for_bit(sharded, reference, f"sharded x{shards}")
        assert sharded.engine == "sharded[fused]"

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_interleaved_flows_across_the_trace(self, shards):
        """Flows whose packets interleave arbitrarily still merge bit-for-bit."""
        program = make_flow_counters_variant(5)
        description = compiled(program)
        # Adversarial interleaving: round-robin, bursts, then reversed tail.
        inputs = []
        for index in range(60):
            inputs.append([index % 5, 100 + index] + [0] * 5)
        for flow in (3, 3, 3, 1, 1, 4, 0, 2, 2):
            inputs.append([flow, 7 * flow + 1] + [0] * 5)
        inputs.extend([[flow, 9] + [0] * 5 for flow in (4, 3, 2, 1, 0)])

        reference = RMTSimulator(description, engine="generic").run(inputs)
        sharded = RMTSimulator(
            description, engine="sharded", shards=shards, workers=1, shard_key=[0]
        ).run(inputs)
        assert_bit_for_bit(sharded, reference, f"shards={shards}")

    def test_pool_path_matches_in_process_path(self):
        """The multiprocessing pool produces exactly the in-process result."""
        program = make_flow_counters_variant(6)
        description = compiled(program)
        inputs = program.traffic_generator(seed=9).generate(400)
        in_process = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run(inputs)
        pooled = RMTSimulator(
            description,
            engine="sharded",
            shards=4,
            workers=2,
            shard_key=[0],
            shard_pool_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(pooled, in_process, "pool vs in-process")
        assert pooled.engine == in_process.engine == "sharded[fused]"

    def test_generic_inner_driver_below_opt_level_3(self):
        """Sharding wraps the generic stage loop when no fused entry exists."""
        program = make_flow_counters_variant(4)
        description = compiled(program, opt_level=dgen.OPT_SCC_INLINE)
        inputs = program.traffic_generator(seed=4).generate(90)
        reference = RMTSimulator(description, engine="generic").run(inputs)
        sharded = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run(inputs)
        assert_bit_for_bit(sharded, reference)
        assert sharded.engine == "sharded[generic]"


# ----------------------------------------------------------------------
# The 12 Table-1 programs under auto-sharding
# ----------------------------------------------------------------------
class TestTable1AutoSharding:
    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_auto_sharding_stays_bit_for_bit(self, program_name):
        """auto + sharding knobs: bit-for-bit whatever the driver decides.

        The Table-1 programs keep their state in fixed ALU cells shared by
        every packet, so a multi-shard partition conflicts and the driver
        falls back — the guarantee under test is that the answer is always
        exactly the sequential one.
        """
        program = get_program(program_name)
        description = compiled(program)
        inputs = program.traffic_generator(seed=13).generate(150)
        reference = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="generic"
        ).run(inputs)
        tick = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="tick"
        ).run(inputs)
        auto = RMTSimulator(
            description,
            initial_state=program.initial_pipeline_state(),
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(tick, reference, "tick")
        assert_bit_for_bit(auto, reference, "auto-sharded")

    @pytest.mark.parametrize("program_name", TABLE1_ORDER)
    def test_explicit_single_shard_runs_every_program(self, program_name):
        """A one-shard explicit request degrades to the wrapped driver safely."""
        program = get_program(program_name)
        description = compiled(program)
        inputs = program.traffic_generator(seed=2).generate(80)
        reference = RMTSimulator(
            description, initial_state=program.initial_pipeline_state(), engine="generic"
        ).run(inputs)
        sharded = RMTSimulator(
            description,
            initial_state=program.initial_pipeline_state(),
            engine="sharded",
            shards=1,
            workers=1,
        ).run(inputs)
        assert_bit_for_bit(sharded, reference)
        assert sharded.engine == "sharded[fused]"


# ----------------------------------------------------------------------
# The state-conflict guard
# ----------------------------------------------------------------------
class TestConflictGuard:
    def test_shared_state_key_raises_a_clear_error(self):
        """A program whose state is shared across flows must not merge silently.

        A hidden global accumulator (no stateful output routed, so the
        two-writer rule — not the exposure rule — decides) written by every
        flow conflicts as soon as two shards touch it.
        """
        from repro import atoms
        from repro.chipmunk.allocation import MachineCodeBuilder
        from repro.hardware import PipelineSpec

        spec = PipelineSpec(
            depth=1,
            width=2,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="global_accumulator",
        )
        builder = MachineCodeBuilder(spec)
        # state += payload for every packet, never exposed in outputs.
        builder.configure_raw(
            stage=0, slot=0, use_state=True, rhs=("pkt", 1), input_containers=[0, 1]
        )
        description = dgen.generate(spec, builder.build(), opt_level=dgen.OPT_FUSED)
        inputs = [[index % 4, 1 + index] for index in range(40)]
        with pytest.raises(ShardStateConflictError) as excinfo:
            RMTSimulator(
                description, engine="sharded", shards=4, workers=1, shard_key=[0]
            ).run(inputs)
        message = str(excinfo.value)
        assert "written by shards" in message
        assert "flow key does not partition" in message
        assert excinfo.value.key == (0, 0, 0)
        assert len(excinfo.value.shards) == 2

    def test_exposed_state_makes_any_write_a_conflict(self):
        """Routing a stateful output turns the merge strict: one write conflicts.

        This is what catches the stateful_firewall shape — one flow writes,
        another only *reads* the cell into its outputs, which a write-based
        two-writer rule alone would miss.
        """
        program = make_accumulator_variant(3)  # routes its stateful output
        description = compiled(program)
        inputs = [[value] for value in range(40)]
        with pytest.raises(ShardStateConflictError) as excinfo:
            RMTSimulator(
                description, engine="sharded", shards=4, workers=1, shard_key=[0]
            ).run(inputs)
        assert "routes stateful ALU outputs" in str(excinfo.value)

    def test_blind_partition_refuses_any_state_write(self):
        """Without a flow key, a single write is already a conflict."""
        program = make_accumulator_variant(1)
        description = compiled(program)
        inputs = [[value] for value in range(16)]
        with pytest.raises(ShardStateConflictError) as excinfo:
            RMTSimulator(description, engine="sharded", shards=2, workers=1).run(inputs)
        assert "block partitioning" in str(excinfo.value)

    def test_auto_falls_back_instead_of_raising(self):
        program = make_accumulator_variant(5)
        description = compiled(program)
        inputs = [[value] for value in range(60)]
        reference = RMTSimulator(description, engine="generic").run(inputs)
        auto = RMTSimulator(
            description,
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(auto, reference)
        assert not auto.engine.startswith(ENGINE_SHARDED)  # fell back

    def test_auto_remembers_the_conflict(self):
        """After one conflict, auto skips the doomed sharded attempt.

        The first run pays shard + fallback; later runs on the same
        simulator must not re-execute the sharded leg just to rediscover
        the conflict (the facade remembers it).
        """
        program = make_accumulator_variant(2)
        description = compiled(program)
        inputs = [[value] for value in range(30)]
        simulator = RMTSimulator(
            description, engine="auto", shards=4, workers=1, shard_key=[0], shard_threshold=1
        )
        assert not simulator._auto_shard_conflict
        first = simulator.run(inputs)
        assert simulator._auto_shard_conflict
        second = simulator.run(inputs)
        assert first.outputs == second.outputs
        assert not second.engine.startswith(ENGINE_SHARDED)
        # An explicit request on a fresh simulator still raises loudly.
        with pytest.raises(ShardStateConflictError):
            RMTSimulator(
                description, engine="sharded", shards=4, workers=1, shard_key=[0]
            ).run(inputs)

    def test_bad_shard_knobs_rejected_eagerly(self):
        """Invalid knobs are a construction-time error on both facades."""
        program = make_flow_counters_variant(2)
        description = compiled(program)
        with pytest.raises(SimulationError, match="worker count"):
            RMTSimulator(description, engine="auto", shards=4, workers=0)
        with pytest.raises(SimulationError, match="shard count"):
            RMTSimulator(description, engine="sharded", shards=0)

        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        with pytest.raises(SimulationError, match="worker count"):
            DRMTSimulator(bundle, engine="auto", shards=4, workers=0)
        with pytest.raises(SimulationError, match="shard count"):
            DRMTSimulator(bundle, engine="sharded", shards=-1)

    def test_conflicting_attempt_leaves_no_trace_on_fallback(self):
        """The failed sharded attempt must not leak partial state anywhere."""
        program = make_accumulator_variant(2)
        description = compiled(program)
        inputs = [[value] for value in range(30)]
        simulator = RMTSimulator(
            description,
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=1,
        )
        first = simulator.run(inputs)
        second = simulator.run(inputs)  # a fresh state copy every run
        assert first.outputs == second.outputs
        assert first.final_state == second.final_state

    def test_flow_owned_state_does_not_conflict(self):
        """Sanity: the same guard admits a genuinely partitioned program."""
        program = make_flow_counters_variant(3)
        description = compiled(program)
        inputs = program.traffic_generator(seed=1).generate(50)
        result = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run(inputs)
        assert result.engine == "sharded[fused]"

    def test_raw_atom_default_state_write_refuses_blind_partitioning(self):
        """Even an "output-stateless" program is refused if its state moves.

        The threshold variant's outputs ignore state entirely, but the
        unconfigured ``raw`` default ALU still accumulates ``state += pkt``
        every packet — final-state equality is part of bit-for-bit, so the
        guard must refuse a blind split.
        """
        program = make_threshold_variant(100)
        description = compiled(program)
        inputs = program.traffic_generator(seed=6).generate(40)
        with pytest.raises(ShardStateConflictError):
            RMTSimulator(description, engine="sharded", shards=2, workers=1).run(inputs)

    def test_state_free_workload_admits_blind_partitioning(self):
        """A program whose state provably never moves splits without a key.

        ``pred_raw``'s passthrough default (``if state == pkt: state += pkt``)
        only ever rewrites a zero cell with zero, so a pipeline whose only
        configured ALU is stateless keeps every state value fixed — the
        blind-partition guard admits it and the merge is exact.
        """
        from repro import atoms
        from repro.chipmunk.allocation import MachineCodeBuilder
        from repro.hardware import PipelineSpec
        from repro.machine_code import naming

        spec = PipelineSpec(
            depth=1,
            width=2,
            stateful_alu=atoms.get_atom("pred_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="stateless_threshold",
        )
        builder = MachineCodeBuilder(spec)
        builder.configure_stateless_full(
            stage=0, slot=0, mode="rel", op=">", a=("pkt", 0), b=("const", 100),
            input_containers=[0, 1],
        )
        builder.route_output(stage=0, container=1, kind=naming.STATELESS, slot=0)
        description = dgen.generate(spec, builder.build(), opt_level=dgen.OPT_FUSED)
        inputs = [[value * 37 % 1024, 0] for value in range(64)]

        reference = RMTSimulator(description, engine="generic").run(inputs)
        sharded = RMTSimulator(description, engine="sharded", shards=4, workers=1).run(inputs)
        assert_bit_for_bit(sharded, reference)
        assert sharded.engine == "sharded[fused]"

    def test_exposure_check_reduces_opcode_modulo_choices(self):
        """An out-of-domain mux opcode cannot smuggle a stateful route past
        the exposure check: it must reduce modulo the choice count exactly
        like the executed mux does."""
        from repro.machine_code import naming
        from repro.machine_code.readsets import exposed_state_slots

        description = compiled(make_flow_counters_variant(2))  # width 4, choices 9
        spec = description.spec
        width = spec.width
        choices = spec.output_mux_choices
        name = naming.output_mux_name(0, 0)
        assert exposed_state_slots(spec, {name: width + choices}) == {(0, 0)}
        assert exposed_state_slots(spec, {name: choices}) == frozenset()  # ≡ stateless 0
        assert exposed_state_slots(spec, {name: 2 * width}) == frozenset()  # passthrough

    def test_empty_trace_is_trivially_sharded(self):
        program = make_flow_counters_variant(2)
        description = compiled(program)
        result = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run([])
        assert result.outputs == []
        assert result.ticks == 0
        assert result.engine == "sharded[fused]"


# ----------------------------------------------------------------------
# Read-set tracking: the per-cell exposure rule
# ----------------------------------------------------------------------
class TestReadSetTracking:
    def test_exposed_state_slots_static_pass(self):
        """The static pass names exactly the routed stateful cells."""
        from repro.machine_code.readsets import exposed_state_slots

        plain = compiled(make_flow_counters_variant(3))
        assert exposed_state_slots(plain.spec, plain.runtime_values()) == frozenset()

        readers = compiled(make_flow_counters_readers_variant(3))
        values = readers.runtime_values()
        assert exposed_state_slots(readers.spec, values) == frozenset(
            {(2, 0), (2, 1), (2, 2)}
        )

        cross = compiled(make_flow_counters_cross_reader_variant(3))
        assert exposed_state_slots(cross.spec, cross.runtime_values()) == frozenset(
            {(1, 0)}
        )

    def test_readers_variant_matches_its_specification(self):
        """The machine code of the reader workload is fuzz-validated."""
        from repro.testing import FuzzConfig, FuzzTester

        for factory in (
            make_flow_counters_readers_variant,
            make_flow_counters_cross_reader_variant,
        ):
            program = factory(3)
            tester = FuzzTester(
                program.pipeline_spec(),
                program.specification(),
                config=FuzzConfig(num_phvs=150, seed=5),
                traffic_generator=program.traffic_generator(seed=5),
                initial_state=program.initial_pipeline_state(),
            )
            outcome = tester.test(program.machine_code())
            assert outcome.passed, f"{program.name}: {outcome.describe()}"

    @pytest.mark.parametrize("shards", (2, 4, 7))
    def test_flow_local_readers_shard_bit_for_bit(self, shards):
        """Exposing read-only cells no longer forces the strict fallback.

        PR 3's whole-state rule refused any program that routed a stateful
        output; the per-cell read set sees that the exposed threshold cells
        are never written while the written accumulators are never exposed,
        so the workload shards legally — and bit-for-bit against both
        sequential drivers.
        """
        program = make_flow_counters_readers_variant(4)
        description = compiled(program)
        initial = program.initial_pipeline_state
        inputs = program.traffic_generator(seed=11).generate(160)
        reference = RMTSimulator(
            description, initial_state=initial(), engine="generic"
        ).run(inputs)
        tick = RMTSimulator(description, initial_state=initial(), engine="tick").run(inputs)
        sharded = RMTSimulator(
            description,
            initial_state=initial(),
            engine="sharded",
            shards=shards,
            workers=1,
            shard_key=[0],
        ).run(inputs)
        assert_bit_for_bit(tick, reference, "tick vs generic")
        assert_bit_for_bit(sharded, reference, f"sharded x{shards}")
        assert sharded.engine == "sharded[fused]"

    def test_flow_local_readers_stay_sharded_under_auto(self):
        """auto keeps the sharded driver: no conflict is recorded."""
        program = make_flow_counters_readers_variant(3)
        description = compiled(program)
        inputs = program.traffic_generator(seed=3).generate(90)
        simulator = RMTSimulator(
            description,
            initial_state=program.initial_pipeline_state(),
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=1,
        )
        result = simulator.run(inputs)
        assert result.engine == "sharded[fused]"
        assert not simulator._auto_shard_conflict

    def test_cross_flow_reader_still_raises(self):
        """A written cell exposed to every packet must keep conflicting."""
        program = make_flow_counters_cross_reader_variant(4)
        description = compiled(program)
        inputs = program.traffic_generator(seed=2).generate(120)
        with pytest.raises(ShardStateConflictError) as excinfo:
            RMTSimulator(
                description, engine="sharded", shards=4, workers=1, shard_key=[0]
            ).run(inputs)
        message = str(excinfo.value)
        assert "routes stateful ALU outputs" in message
        assert excinfo.value.key == (1, 0, 0)

    def test_cross_flow_reader_falls_back_under_auto(self):
        program = make_flow_counters_cross_reader_variant(3)
        description = compiled(program)
        inputs = program.traffic_generator(seed=4).generate(80)
        reference = RMTSimulator(description, engine="generic").run(inputs)
        auto = RMTSimulator(
            description,
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(auto, reference)
        assert not auto.engine.startswith(ENGINE_SHARDED)


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
class TestShardPool:
    @pytest.mark.parametrize("opt_level", (dgen.OPT_SCC_INLINE, dgen.OPT_FUSED))
    def test_pickle_pool_matches_in_process(self, opt_level):
        """The pool is a scheduling choice, never a semantics choice."""
        program = make_flow_counters_variant(6)
        description = compiled(program, opt_level=opt_level)
        inputs = program.traffic_generator(seed=9).generate(400)
        in_process = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run(inputs)
        pickled = RMTSimulator(
            description,
            engine="sharded",
            shards=4,
            workers=2,
            shard_key=[0],
            shard_pool_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(pickled, in_process, "pickle pool")

    def test_pool_carries_values_beyond_int64(self):
        """Pool workers receive and return arbitrary-precision container values."""
        program = make_flow_counters_variant(4)
        description = compiled(program)
        inputs = [[index % 4, 1 << 70] + [0] * 4 for index in range(60)]
        reference = RMTSimulator(
            description, engine="sharded", shards=4, workers=1, shard_key=[0]
        ).run(inputs)
        pooled = RMTSimulator(
            description,
            engine="sharded",
            shards=4,
            workers=2,
            shard_key=[0],
            shard_pool_threshold=1,
        ).run(inputs)
        assert_bit_for_bit(pooled, reference, "pool")
        assert any(value >= 1 << 70 for output in pooled.outputs for value in output)

    def test_transport_keyword_is_gone_everywhere(self):
        """The pickle pool is the only shard channel; no facade selects another."""
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.dsim import simulate
        from repro.engine.sharded import ShardedDrmtDriver, ShardedRmtDriver
        from repro.p4 import samples

        program = make_flow_counters_variant(2)
        description = compiled(program)
        with pytest.raises(TypeError, match="transport"):
            RMTSimulator(description, engine="sharded", transport="pickle")
        with pytest.raises(TypeError, match="transport"):
            simulate(description, [[0] * 6], transport="pickle")
        with pytest.raises(TypeError, match="transport"):
            ShardedRmtDriver(description, transport="pickle")

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        with pytest.raises(TypeError, match="transport"):
            DRMTSimulator(bundle, engine="sharded", transport="pickle")
        simulator = DRMTSimulator(bundle)
        with pytest.raises(TypeError, match="transport"):
            ShardedDrmtDriver(
                bundle, simulator.tables, simulator.registers, transport="pickle"
            )


# ----------------------------------------------------------------------
# Selection rules
# ----------------------------------------------------------------------
class TestShardedSelection:
    def test_auto_selects_sharded_above_threshold_only(self):
        program = make_flow_counters_variant(4)
        description = compiled(program)
        inputs = program.traffic_generator(seed=0).generate(50)
        simulator = RMTSimulator(
            description,
            engine="auto",
            shards=4,
            workers=1,
            shard_key=[0],
            shard_threshold=40,
        )
        assert simulator.run(inputs).engine == "sharded[fused]"
        assert simulator.run(inputs[:10]).engine == "fused"  # below threshold

    def test_auto_without_knobs_never_shards(self):
        program = make_flow_counters_variant(4)
        description = compiled(program)
        inputs = program.traffic_generator(seed=0).generate(50)
        assert RMTSimulator(description, engine="auto").run(inputs).engine == "fused"

    def test_tick_accurate_overrides_sharding(self):
        program = make_flow_counters_variant(4)
        description = compiled(program)
        inputs = program.traffic_generator(seed=0).generate(20)
        result = RMTSimulator(
            description, engine="sharded", shards=2, workers=1, shard_key=[0]
        ).run(inputs, tick_accurate=True)
        assert result.engine == "tick"

    def test_bad_flow_key_container_rejected(self):
        program = make_flow_counters_variant(2)
        description = compiled(program)
        with pytest.raises(SimulationError, match="out of range"):
            RMTSimulator(
                description, engine="sharded", shards=2, shard_key=[99]
            ).run([[0, 0, 0, 0]])

    def test_unavailable_engine_error_lists_available_drivers(self):
        """The error for an unavailable driver names the ones that exist."""
        program = make_flow_counters_variant(2)
        description = compiled(program, opt_level=dgen.OPT_SCC_INLINE)
        with pytest.raises(SimulationError) as excinfo:
            RMTSimulator(description, engine="fused").run([[0, 0, 0, 0]])
        message = str(excinfo.value)
        assert "carries no fused run_trace entry point" in message
        assert "available drivers for this pipeline description: tick, generic" in message

        from repro.engine import RunToCompletionSimulator

        fused_description = compiled(program)
        with pytest.raises(SimulationError) as excinfo:
            RunToCompletionSimulator(fused_description, engine="sharded").run([[0, 0, 0, 0]])
        message = str(excinfo.value)
        assert "has no sharding configuration" in message
        assert "available drivers" in message
        assert "tick, generic, fused" in message

        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        with pytest.raises(SimulationError) as excinfo:
            DRMTSimulator(bundle, engine="generic").run_packets([])
        message = str(excinfo.value)
        assert "has no generic driver" in message
        assert "available drivers for this dRMT bundle: tick, fused" in message
        with pytest.raises(SimulationError, match="dRMT bundle: tick, fused, sharded"):
            DRMTSimulator(bundle, engine="generic", shards=2).run_packets([])


# ----------------------------------------------------------------------
# dRMT sharding
# ----------------------------------------------------------------------
class TestDrmtSharding:
    @staticmethod
    def _telemetry(num_processors=4):
        from repro.drmt import DrmtHardwareParams, generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(
            samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=num_processors)
        )
        return bundle, samples.TELEMETRY_ENTRIES

    @staticmethod
    def _assert_results_equal(result, reference):
        assert [record.outputs for record in result.records] == [
            record.outputs for record in reference.records
        ]
        assert [record.dropped for record in result.records] == [
            record.dropped for record in reference.records
        ]
        assert [
            (record.packet_id, record.processor, record.arrival_tick, record.completed_tick)
            for record in result.records
        ] == [
            (record.packet_id, record.processor, record.arrival_tick, record.completed_tick)
            for record in reference.records
        ]
        assert result.register_dump == reference.register_dump
        assert result.table_hits == reference.table_hits
        assert result.ticks == reference.ticks
        assert result.per_processor_packets == reference.per_processor_packets

    COUNTER_SOURCE = """
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

    #: Same program plus a second register indexed by a *different* field —
    #: a tuple hash over (flow, other) would split packets that share a
    #: per_flow cell across shards, so no auto key may be derived.
    TWO_REGISTER_SOURCE = COUNTER_SOURCE.replace(
        "register per_flow {\n    width : 32;\n    instance_count : 8;\n}",
        "register per_flow {\n    width : 32;\n    instance_count : 8;\n}\n\n"
        "register by_other {\n    width : 32;\n    instance_count : 8;\n}",
    ).replace(
        "    register_write(per_flow, pkt.flow, pkt.total);\n}",
        "    register_write(per_flow, pkt.flow, pkt.total);\n"
        "    register_write(by_other, pkt.other, pkt.total);\n}",
    )

    def test_derived_state_fields(self):
        from repro.drmt import DrmtHardwareParams, generate_bundle
        from repro.engine.drmt import derive_auto_shard_key, derive_state_fields
        from repro.p4 import samples

        telemetry, _ = self._telemetry()
        # telemetry rewrites its index field (meta.bucket) mid-program, so no
        # input-derived key exists; simple_router indexes by a constant.
        assert derive_state_fields(telemetry.program) is None
        router = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        assert derive_state_fields(router.program) is None

        counter = generate_bundle(self.COUNTER_SOURCE, DrmtHardwareParams())
        assert derive_state_fields(counter.program) == ("pkt.flow",)
        assert derive_auto_shard_key(counter.program) == (("pkt.flow",), 8)

        two = generate_bundle(self.TWO_REGISTER_SOURCE, DrmtHardwareParams())
        assert derive_state_fields(two.program) == ("pkt.flow", "pkt.other")
        # A multi-field tuple hash cannot give shards exclusive cell
        # ownership, so the driver gets no auto key for this program.
        assert derive_auto_shard_key(two.program) is None

    @pytest.mark.parametrize("shards", (2, 4))
    def test_auto_key_shards_per_flow_counters_bit_for_bit(self, shards):
        """Derived single-field key: sharded == fused, including index wrap.

        Flow values deliberately exceed the 8-cell register, so distinct
        flows collide on cells (e.g. 3 and 11); the modulo-reduced key keeps
        every colliding pair in one shard, which is what makes the derived
        key sound without any caller contract.
        """
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle

        bundle = generate_bundle(self.COUNTER_SOURCE, DrmtHardwareParams(num_processors=3))
        packets = [
            {"pkt.flow": (index * 7) % 20, "pkt.other": index % 5, "pkt.total": 0}
            for index in range(120)
        ]
        reference = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        sharded = DRMTSimulator(
            bundle, engine="sharded", shards=shards, workers=1
        ).run_packets(packets)
        self._assert_results_equal(sharded, reference)
        assert sharded.engine == "sharded[fused]"

    def test_multi_field_index_program_runs_one_shard(self):
        """No sound auto key: the driver degrades to a single shard, exactly."""
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.engine.sharded import ShardedDrmtDriver

        bundle = generate_bundle(self.TWO_REGISTER_SOURCE, DrmtHardwareParams())
        simulator = DRMTSimulator(bundle, engine="sharded", shards=4, workers=1)
        driver = ShardedDrmtDriver(bundle, simulator.tables, simulator.registers, shards=4)
        assert driver.key is None
        packets = [
            {"pkt.flow": index % 6, "pkt.other": (index * 3) % 6, "pkt.total": 0}
            for index in range(80)
        ]
        reference = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        sharded = simulator.run_packets(packets)
        self._assert_results_equal(sharded, reference)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_explicit_flow_key_matches_tick_and_fused(self, shards):
        """Flow-restricted telemetry traffic shards bit-for-bit."""
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator
        from repro.traffic import choice_field

        bundle, entries = self._telemetry()
        generator = PacketGenerator(
            bundle.program, seed=5, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        packets = generator.generate(300)
        tick = DRMTSimulator(bundle, table_entries=entries, engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, table_entries=entries, engine="fused").run_packets(packets)
        sharded = DRMTSimulator(
            bundle,
            table_entries=entries,
            engine="sharded",
            shards=shards,
            workers=1,
            shard_key=["pkt.flow_id"],
        ).run_packets(packets)
        self._assert_results_equal(fused, tick)
        self._assert_results_equal(sharded, tick)
        assert sharded.engine == "sharded[fused]"

    def test_cross_flow_register_sharing_conflicts_and_auto_falls_back(self):
        """Unmatched flows share bucket 0: conflict, then fallback under auto."""
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()
        packets = PacketGenerator(bundle.program, seed=5).generate(300)
        with pytest.raises(ShardStateConflictError):
            DRMTSimulator(
                bundle,
                table_entries=entries,
                engine="sharded",
                shards=4,
                workers=1,
                shard_key=["pkt.flow_id"],
            ).run_packets(packets)
        reference = DRMTSimulator(bundle, table_entries=entries, engine="fused").run_packets(packets)
        auto = DRMTSimulator(
            bundle,
            table_entries=entries,
            engine="auto",
            shards=4,
            workers=1,
            shard_key=["pkt.flow_id"],
            shard_threshold=1,
        ).run_packets(packets)
        self._assert_results_equal(auto, reference)
        assert auto.engine == "fused"  # fell back

    def test_underivable_key_runs_one_shard(self):
        """No safe key (derived None): still correct via a single shard."""
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()
        packets = PacketGenerator(bundle.program, seed=3).generate(120)
        reference = DRMTSimulator(bundle, table_entries=entries, engine="fused").run_packets(packets)
        sharded = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=4, workers=1
        ).run_packets(packets)
        self._assert_results_equal(sharded, reference)
        assert sharded.engine == "sharded[fused]"

    def test_pool_path_matches_in_process(self):
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator
        from repro.traffic import choice_field

        bundle, entries = self._telemetry()
        generator = PacketGenerator(
            bundle.program, seed=8, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        packets = generator.generate(240)
        in_process = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=3, workers=1,
            shard_key=["pkt.flow_id"],
        ).run_packets(packets)
        pooled = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=3, workers=2,
            shard_key=["pkt.flow_id"], shard_pool_threshold=1,
        ).run_packets(packets)
        self._assert_results_equal(pooled, in_process)

    def test_pool_path_with_derived_key_matches_fused(self):
        """The auto-derived key survives the trip to pool workers."""
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle

        bundle = generate_bundle(self.COUNTER_SOURCE, DrmtHardwareParams(num_processors=3))
        packets = [
            {"pkt.flow": (index * 7) % 20, "pkt.other": index % 5, "pkt.total": 0}
            for index in range(120)
        ]
        reference = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        pooled = DRMTSimulator(
            bundle, engine="sharded", shards=3, workers=2, shard_pool_threshold=1
        ).run_packets(packets)
        self._assert_results_equal(pooled, reference)
        assert pooled.engine == "sharded[fused]"

    def test_pool_path_handles_ragged_packets(self):
        """Packets with differing field sets shard through the pool unchanged."""
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator, choice_field

        bundle, entries = self._telemetry(num_processors=2)
        generator = PacketGenerator(
            bundle.program, seed=1, field_overrides={"pkt.flow_id": choice_field([1, 2])}
        )
        packets = generator.generate(120)
        del packets[7]["pkt.queue_depth"]
        in_process = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=2, workers=1,
            shard_key=["pkt.flow_id"],
        ).run_packets(packets)
        pooled = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=2, workers=2,
            shard_key=["pkt.flow_id"], shard_pool_threshold=1,
        ).run_packets(packets)
        self._assert_results_equal(pooled, in_process)

    def test_fused_generation_bug_propagates(self, monkeypatch):
        """A generator bug fails loudly instead of degrading to tick."""
        from repro.drmt import DRMTSimulator
        from repro.engine.sharded import ShardedDrmtDriver
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()

        def broken():
            raise RuntimeError("generator bug")

        monkeypatch.setattr(bundle, "fused_program", broken)
        simulator = DRMTSimulator(bundle, table_entries=entries)
        with pytest.raises(RuntimeError, match="generator bug"):
            ShardedDrmtDriver(bundle, simulator.tables, simulator.registers)
        packets = PacketGenerator(bundle.program, seed=2).generate(10)
        with pytest.raises(RuntimeError, match="generator bug"):
            simulator.run_packets(packets)

    def test_codegen_refusal_runs_tick_and_refuses_sharding(self, monkeypatch):
        """A CodegenError makes auto run tick; the sharded driver refuses."""
        from repro.drmt import DRMTSimulator
        from repro.engine.sharded import ShardedDrmtDriver
        from repro.errors import CodegenError
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()
        packets = PacketGenerator(bundle.program, seed=2).generate(10)
        reference = DRMTSimulator(bundle, table_entries=entries, engine="tick").run_packets(
            packets
        )

        def refused():
            raise CodegenError("no fused loop for this bundle")

        monkeypatch.setattr(bundle, "fused_program", refused)
        simulator = DRMTSimulator(bundle, table_entries=entries)
        with pytest.raises(SimulationError, match="no fused loop for this bundle"):
            ShardedDrmtDriver(bundle, simulator.tables, simulator.registers)
        # auto has no sequential driver left, so it runs tick, sharding
        # knobs or not.
        auto = simulator.run_packets(packets)
        assert auto.engine == "tick"
        self._assert_results_equal(auto, reference)
        assert DRMTSimulator(
            bundle, table_entries=entries, shards=2, workers=1, shard_threshold=1
        ).run_packets(packets).engine == "tick"
        with pytest.raises(SimulationError, match="no fused loop for this bundle"):
            DRMTSimulator(
                bundle, table_entries=entries, engine="sharded", shards=2, workers=1
            ).run_packets(packets)

    def test_observer_keyword_is_gone_everywhere(self):
        """dRMT has no observed driver: observer= is a TypeError on every path."""
        from repro.drmt import DRMTSimulator
        from repro.engine import drmt as drmt_drivers
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()
        packets = PacketGenerator(bundle.program, seed=1).generate(10)
        for engine in ("auto", "tick", "fused", "sharded"):
            simulator = DRMTSimulator(
                bundle, table_entries=entries, engine=engine, shards=2, workers=1
            )
            with pytest.raises(TypeError, match="observer"):
                simulator.run_packets(packets, observer=lambda *args: None)
        simulator = DRMTSimulator(bundle, table_entries=entries)
        work = [dict(packet) for packet in packets]
        with pytest.raises(TypeError, match="observer"):
            drmt_drivers.run_fused(
                bundle, simulator.tables, simulator.registers, work,
                observer=lambda *args: None,
            )

    def test_unknown_flow_key_field_rejected(self):
        """A misspelt shard_key fails loudly instead of planning one shard."""
        from repro.drmt import DRMTSimulator
        from repro.engine.sharded import ShardedDrmtDriver
        from repro.traffic import PacketGenerator

        bundle, entries = self._telemetry()
        packets = PacketGenerator(bundle.program, seed=2).generate(10)
        simulator = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=4, workers=1,
            shard_key=["pkt.flwo_id"],
        )
        with pytest.raises(SimulationError, match="'pkt.flwo_id'"):
            simulator.run_packets(packets)
        with pytest.raises(SimulationError, match="'pkt.flwo_id'"):
            ShardedDrmtDriver(
                bundle, simulator.tables, simulator.registers, key=["pkt.flow_id", "pkt.flwo_id"]
            )
        assert ShardedDrmtDriver(
            bundle, simulator.tables, simulator.registers, key=["pkt.flow_id"]
        ).key == ("pkt.flow_id",)

    #: Per-flow counter plus a *read-only* configuration register read at a
    #: constant index.  Under PR 3's write-blind derivation the constant
    #: index made the whole program unshardable; read tracking sees that
    #: ``config`` is never written and derives the per-flow key anyway.
    READ_ONLY_CONFIG_SOURCE = """
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

    #: A program whose only register is read-only: any partition is safe.
    PURE_READER_SOURCE = """
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

    def test_read_only_register_does_not_block_the_auto_key(self):
        """Read tracking: a never-written register is ignored by derivation."""
        from repro.drmt import DrmtHardwareParams, generate_bundle
        from repro.engine.drmt import (
            derive_auto_shard_key,
            derive_state_fields,
            written_registers,
        )

        bundle = generate_bundle(self.READ_ONLY_CONFIG_SOURCE, DrmtHardwareParams())
        assert written_registers(bundle.program) == frozenset({"per_flow"})
        assert derive_state_fields(bundle.program) == ("pkt.flow",)
        assert derive_auto_shard_key(bundle.program) == (("pkt.flow",), 8)

    @pytest.mark.parametrize("shards", (2, 4))
    def test_read_only_config_program_shards_bit_for_bit(self, shards):
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle

        bundle = generate_bundle(
            self.READ_ONLY_CONFIG_SOURCE, DrmtHardwareParams(num_processors=3)
        )
        packets = [
            {"pkt.flow": (index * 5) % 16, "pkt.limit": 0, "pkt.total": 0}
            for index in range(120)
        ]
        reference = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        sharded = DRMTSimulator(
            bundle, engine="sharded", shards=shards, workers=1
        ).run_packets(packets)
        self._assert_results_equal(sharded, reference)
        assert sharded.engine == "sharded[fused]"

    def test_pure_reader_program_block_partitions(self):
        """Only read-only state: block partitioning is admitted and exact."""
        from repro.drmt import DRMTSimulator, DrmtHardwareParams, generate_bundle
        from repro.engine.drmt import derive_auto_shard_key
        from repro.engine.sharded import ShardedDrmtDriver

        bundle = generate_bundle(self.PURE_READER_SOURCE, DrmtHardwareParams())
        assert derive_auto_shard_key(bundle.program) == ((), None)
        simulator = DRMTSimulator(bundle, engine="sharded", shards=4, workers=1)
        driver = ShardedDrmtDriver(bundle, simulator.tables, simulator.registers, shards=4)
        assert driver.key == ()
        packets = [{"pkt.flow": index % 9, "pkt.limit": 0} for index in range(60)]
        reference = DRMTSimulator(bundle, engine="fused").run_packets(packets)
        sharded = simulator.run_packets(packets)
        self._assert_results_equal(sharded, reference)
        assert sharded.engine == "sharded[fused]"

    def test_accumulated_statistics_match_sequential_reuse(self):
        """Reusing one simulator across runs accumulates like the tick model."""
        from repro.drmt import DRMTSimulator
        from repro.traffic import PacketGenerator
        from repro.traffic import choice_field

        bundle, entries = self._telemetry()
        generator = PacketGenerator(
            bundle.program, seed=2, field_overrides={"pkt.flow_id": choice_field([1, 2, 3])}
        )
        packets = generator.generate(100)
        sequential = DRMTSimulator(bundle, table_entries=entries, engine="fused")
        sharded = DRMTSimulator(
            bundle, table_entries=entries, engine="sharded", shards=3, workers=1,
            shard_key=["pkt.flow_id"],
        )
        for _ in range(2):
            reference = sequential.run_packets(packets)
            result = sharded.run_packets(packets)
        self._assert_results_equal(result, reference)
