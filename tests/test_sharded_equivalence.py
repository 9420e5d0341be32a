"""Property-based equivalence tests for the sharded meta-driver.

The sharded driver's contract is *bit-for-bit equality* with the unsharded
sequential drivers — outputs restored to input order, per-stage state
merged — whenever its state-conflict check admits a partition, and a loud,
early refusal (or, under ``engine="auto"``, a transparent fallback)
whenever it does not.  These tests pin that contract
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

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import dgen
from repro.dsim import RMTSimulator
from repro.engine import ENGINE_SHARDED, resolve_engine
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
        """Invalid knobs are a construction-time error."""
        program = make_flow_counters_variant(2)
        description = compiled(program)
        with pytest.raises(SimulationError, match="worker count"):
            RMTSimulator(description, engine="auto", shards=4, workers=0)
        with pytest.raises(SimulationError, match="shard count"):
            RMTSimulator(description, engine="sharded", shards=0)

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

    def test_unpicklable_handle_fails_loudly(self, monkeypatch):
        """A payload that cannot reach the pool raises; no silent in-process rerun."""
        from repro.engine.rmt import RmtShardHandle

        def refuse(self):
            raise pickle.PicklingError("shard handle refused to pickle")

        monkeypatch.setattr(RmtShardHandle, "__reduce__", refuse)
        program = make_flow_counters_variant(4)
        description = compiled(program)
        inputs = program.traffic_generator(seed=3).generate(40)
        simulator = RMTSimulator(
            description,
            engine="sharded",
            shards=2,
            workers=2,
            shard_key=[0],
            shard_pool_threshold=1,
        )
        with pytest.raises(pickle.PicklingError, match="refused to pickle"):
            simulator.run(inputs)

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
        from repro.engine.sharded import ShardedRmtDriver
        from repro.p4 import samples

        program = make_flow_counters_variant(2)
        description = compiled(program)
        with pytest.raises(TypeError, match="transport"):
            RMTSimulator(description, engine="sharded", transport="pickle")
        with pytest.raises(TypeError, match="transport"):
            ShardedRmtDriver(description, transport="pickle")

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams())
        with pytest.raises(TypeError, match="transport"):
            DRMTSimulator(bundle, engine="sharded", transport="pickle")


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
        # Under auto the key is checked when the simulator is built, not on
        # the first trace long enough to shard.
        with pytest.raises(SimulationError, match="out of range"):
            RMTSimulator(description, engine="auto", shard_key=[99])
        with pytest.raises(SimulationError, match="at least one container"):
            RMTSimulator(description, engine="auto", shard_key=[])

    @pytest.mark.parametrize("engine", ["auto", "tick", "generic", "fused", "sharded"])
    def test_flow_key_checked_at_construction_under_every_engine(self, engine):
        """The facade's one key check runs before any driver is chosen."""
        description = compiled(make_flow_counters_variant(2))
        width = description.spec.width
        with pytest.raises(SimulationError, match="out of range"):
            RMTSimulator(description, engine=engine, shard_key=[width])
        with pytest.raises(SimulationError, match="out of range"):
            RMTSimulator(description, engine=engine, shard_key=[0, -1])
        with pytest.raises(SimulationError, match="at least one container"):
            RMTSimulator(description, engine=engine, shard_key=[])
        assert RMTSimulator(
            description, engine=engine, shard_key=[width - 1]
        ).sharding.key == (width - 1,)

    def test_unavailable_engine_error_lists_available_drivers(self):
        """The error for an unavailable driver names the ones that exist."""
        program = make_flow_counters_variant(2)
        description = compiled(program, opt_level=dgen.OPT_SCC_INLINE)
        with pytest.raises(SimulationError) as excinfo:
            RMTSimulator(description, engine="fused").run([[0, 0, 0, 0]])
        message = str(excinfo.value)
        assert "carries no fused run_trace entry point" in message
        assert "available drivers for this pipeline description: tick, generic" in message

        with pytest.raises(SimulationError) as excinfo:
            resolve_engine("sharded", fused_available=True, context="pipeline description")
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
        with pytest.raises(SimulationError) as excinfo:
            DRMTSimulator(bundle, engine="sharded").run_packets([])
        message = str(excinfo.value)
        assert "available drivers for this dRMT bundle: tick, fused" in message
        assert "shards=" not in message

        # dRMT has no sharding knobs at all, on the facade or the CLI.
        for keyword, value in (
            ("shards", 2),
            ("workers", 1),
            ("shard_key", ["pkt.flow_id"]),
            ("shard_threshold", 1),
            ("shard_pool_threshold", 1),
        ):
            with pytest.raises(TypeError, match=keyword):
                DRMTSimulator(bundle, **{keyword: value})
        from repro.cli import drmt_main

        for flags in (
            ["--shards", "2"],
            ["--workers", "1"],
            ["--shard-key", "pkt.flow_id"],
            ["--engine", "sharded"],
        ):
            with pytest.raises(SystemExit):
                drmt_main(["--packets", "5"] + flags)
