"""Unit tests for the sketch and the CEGIS synthesis engine."""

import pytest

from repro import atoms
from repro.chipmunk import (
    ChipmunkCompiler,
    Sketch,
    SynthesisConfig,
    SynthesisEngine,
    program_constant_pool,
)
from repro.domino import PacketLayout, parse_and_analyze
from repro.errors import SynthesisError
from repro.hardware import PipelineSpec
from repro.machine_code import naming
from repro.testing import FunctionSpecification


def tiny_pipeline(stateful="raw", stateless="stateless_rel"):
    return PipelineSpec(
        depth=1,
        width=1,
        stateful_alu=atoms.get_atom(stateful),
        stateless_alu=atoms.get_atom(stateless),
        name="synthesis_test",
    )


def frozen_routing(spec, route_kind, route_slot=0):
    freeze = {naming.output_mux_name(0, 0): spec.output_mux_value_for(route_kind, route_slot)}
    for kind, alu in ((naming.STATEFUL, spec.stateful_alu), (naming.STATELESS, spec.stateless_alu)):
        for operand in range(alu.num_operands):
            freeze[naming.input_mux_name(0, kind, 0, operand)] = 0
    return freeze


class TestSketch:
    def test_space_size_and_domains(self):
        spec = tiny_pipeline()
        sketch = Sketch.from_pipeline(spec, constant_pool=[0, 1, 2])
        assert sketch.space_size() > 1
        assert set(sketch.search_names) == set(spec.expected_machine_code_names())
        for name in sketch.search_names:
            # Width-1 input muxes have a single choice; everything else has more.
            assert len(sketch.domains[name]) >= 1

    def test_constant_pool_used_for_immediates(self):
        spec = tiny_pipeline()
        sketch = Sketch.from_pipeline(spec, constant_pool=[3, 9, 27])
        const_name = naming.alu_hole_name(0, naming.STATEFUL, 0, "const_0")
        assert sketch.domains[const_name] == [3, 9, 27]

    def test_empty_constant_pool_rejected(self):
        with pytest.raises(SynthesisError):
            Sketch.from_pipeline(tiny_pipeline(), constant_pool=[])

    def test_negative_constant_rejected(self):
        with pytest.raises(SynthesisError):
            Sketch.from_pipeline(tiny_pipeline(), constant_pool=[-1, 3])

    def test_freeze_removes_from_search(self):
        spec = tiny_pipeline()
        freeze = frozen_routing(spec, naming.STATEFUL)
        sketch = Sketch.from_pipeline(spec, freeze=freeze)
        assert not (set(freeze) & set(sketch.search_names))
        machine_code = sketch.to_machine_code([0] * len(sketch.search_names))
        for name, value in freeze.items():
            assert machine_code[name] == value

    def test_unknown_freeze_name_rejected(self):
        with pytest.raises(SynthesisError):
            Sketch.from_pipeline(tiny_pipeline(), freeze={"bogus": 1})

    def test_unknown_search_name_rejected(self):
        with pytest.raises(SynthesisError):
            Sketch.from_pipeline(tiny_pipeline(), search_names=["bogus"])

    def test_assignment_round_trip(self):
        spec = tiny_pipeline()
        sketch = Sketch.from_pipeline(spec, constant_pool=[0, 5])
        assignment = [size - 1 for size in sketch.domain_sizes()]
        machine_code = sketch.to_machine_code(assignment)
        assert spec.validate_machine_code(machine_code) == []

    def test_wrong_assignment_length_rejected(self):
        sketch = Sketch.from_pipeline(tiny_pipeline())
        with pytest.raises(SynthesisError):
            sketch.to_machine_code([0])

    def test_enumerate_small_space(self):
        spec = tiny_pipeline()
        names = [naming.alu_hole_name(0, naming.STATEFUL, 0, "opt_0"),
                 naming.alu_hole_name(0, naming.STATEFUL, 0, "mux3_0")]
        sketch = Sketch.from_pipeline(spec, search_names=names)
        assignments = list(sketch.enumerate_assignments())
        assert len(assignments) == sketch.space_size() == 2 * 3
        assert len({tuple(a) for a in assignments}) == len(assignments)



class TestSynthesisEngine:
    def test_synthesizes_accumulator(self):
        """CEGIS finds machine code for 'output old total; total += value'."""
        spec = tiny_pipeline()
        freeze = frozen_routing(spec, naming.STATEFUL)
        search = [naming.alu_hole_name(0, naming.STATEFUL, 0, hole)
                  for hole in atoms.get_atom("raw").holes]

        def accumulate(phv, state):
            old = state["total"]
            state["total"] += phv[0]
            return [old]

        specification = FunctionSpecification(
            function=accumulate, num_containers=1, state_template={"total": 0},
            relevant_containers=[0],
        )
        sketch = Sketch.from_pipeline(spec, constant_pool=[0, 1], freeze=freeze, search_names=search)
        engine = SynthesisEngine(spec, specification, sketch, SynthesisConfig(seed=3))
        result = engine.synthesize()
        assert result.success
        # The raw atom must keep its old state (opt_0 = 0 -> use state) and add
        # the packet operand (mux3_0 selects pkt_0).
        assert result.machine_code[search[0]] % 2 == 0
        assert result.machine_code[naming.alu_hole_name(0, naming.STATEFUL, 0, "mux3_0")] % 3 == 0

    def test_synthesizes_threshold_comparison(self):
        spec = tiny_pipeline(stateless="stateless_rel")
        freeze = frozen_routing(spec, naming.STATELESS)
        search = [naming.alu_hole_name(0, naming.STATELESS, 0, hole)
                  for hole in atoms.get_atom("stateless_rel").holes]
        specification = FunctionSpecification(
            function=lambda phv, state: [1 if phv[0] > 50 else 0],
            num_containers=1,
            relevant_containers=[0],
        )
        sketch = Sketch.from_pipeline(spec, constant_pool=[0, 50, 51], freeze=freeze, search_names=search)
        engine = SynthesisEngine(spec, specification, sketch,
                                 SynthesisConfig(seed=5, example_max_value=200))
        result = engine.synthesize()
        assert result.success
        assert result.candidates_evaluated > 0

    def test_unsatisfiable_sketch_reports_failure(self):
        """With every pair frozen to pass-through, no assignment can match the spec."""
        spec = tiny_pipeline()
        freeze = spec.passthrough_machine_code().as_dict()
        sketch = Sketch.from_pipeline(spec, freeze=freeze, search_names=[])
        specification = FunctionSpecification(
            function=lambda phv, state: [phv[0] + 1],
            num_containers=1,
            relevant_containers=[0],
        )
        engine = SynthesisEngine(spec, specification, sketch, SynthesisConfig(seed=0))
        result = engine.synthesize()
        assert not result.success

    def test_narrow_training_range_reproduces_value_range_failure(self):
        """Synthesis verified only on tiny inputs yields machine code that fails at 10 bits."""
        spec = tiny_pipeline(stateless="stateless_rel")
        freeze = frozen_routing(spec, naming.STATELESS)
        search = [naming.alu_hole_name(0, naming.STATELESS, 0, hole)
                  for hole in atoms.get_atom("stateless_rel").holes]
        specification = FunctionSpecification(
            function=lambda phv, state: [1 if phv[0] > 300 else 0],
            num_containers=1,
            relevant_containers=[0],
        )
        sketch = Sketch.from_pipeline(
            spec, constant_pool=[0, 1, 5, 10], freeze=freeze, search_names=search
        )
        engine = SynthesisEngine(
            spec, specification, sketch,
            SynthesisConfig(seed=1, example_max_value=10, verify_max_value=10, max_iterations=2),
        )
        result = engine.synthesize()
        assert result.machine_code is not None
        from repro.testing import FuzzConfig, FuzzTester

        tester = FuzzTester(spec, specification, config=FuzzConfig(num_phvs=500, seed=9))
        outcome = tester.test(result.machine_code)
        assert not outcome.passed


class TestChipmunkCompiler:
    def test_constant_pool_extraction(self):
        program = parse_and_analyze(
            "state x = 7; transaction t { if (pkt.a == 9) { x = x + 3; } else { pkt.o = 0; } }"
        )
        pool = program_constant_pool(program)
        assert {9, 3, 7, 0, 1} <= set(pool)
        assert 8 in pool and 10 in pool  # neighbours of 9

    def test_compile_domino_accumulator(self):
        spec = tiny_pipeline()
        freeze = frozen_routing(spec, naming.STATEFUL)
        search = [naming.alu_hole_name(0, naming.STATEFUL, 0, hole)
                  for hole in atoms.get_atom("raw").holes]
        source = """
        state total = 0;
        transaction accumulator {
            pkt.out = total;
            total = total + pkt.value;
        }
        """
        layout = PacketLayout(container_fields=["value"], output_fields=["out"])
        compiler = ChipmunkCompiler(spec, SynthesisConfig(seed=2))
        result = compiler.compile_domino(source, layout, freeze=freeze, search_names=search,
                                         validate=True)
        assert result.synthesis.success and result.machine_code is not None
        assert result.fuzz_outcome is not None and result.fuzz_outcome.passed

    def test_layout_width_mismatch_rejected(self):
        spec = tiny_pipeline()
        layout = PacketLayout(container_fields=["a", "b"], output_fields=[None, None])
        with pytest.raises(SynthesisError):
            ChipmunkCompiler(spec).compile_domino(
                "transaction t { pkt.o = pkt.a; }", layout
            )
