"""Unit tests for ALU-level code generation and the pipeline generator."""

import re

import pytest

from repro import atoms, dgen
from repro.alu_dsl import parse_and_analyze
from repro.dgen.codegen import (
    ALUFunctionGenerator,
    alu_function_name,
    generate_alu,
    helper_function_name,
)
from repro.dsim import RMTSimulator
from repro.errors import ALUDSLSyntaxError, CodegenError, MissingMachineCodeError
from repro.hardware import PipelineSpec
from repro.ir import Module, to_source
from repro.machine_code import naming
from repro.programs import case_study


def alu_holes_machine_code(spec, stage, kind, slot, holes):
    """Build a machine-code mapping holding only the given ALU's holes."""
    return {
        naming.alu_hole_name(stage, kind, slot, hole): value for hole, value in holes.items()
    }


@pytest.fixture(scope="module")
def raw_atom():
    return atoms.get_atom("raw")


@pytest.fixture(scope="module")
def if_else_raw_atom():
    return atoms.get_atom("if_else_raw")


class TestALUFunctionGenerator:
    def test_level0_requires_no_machine_code(self, raw_atom):
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_UNOPTIMIZED)
        assert code.function is not None
        assert code.helpers  # generic helpers emitted

    def test_optimised_levels_require_machine_code(self, raw_atom):
        with pytest.raises(CodegenError):
            generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_SCC)

    def test_kind_mismatch_rejected(self, raw_atom):
        with pytest.raises(CodegenError):
            generate_alu(raw_atom, 0, naming.STATELESS, 0, dgen.OPT_UNOPTIMIZED)

    def test_invalid_opt_level_rejected(self, raw_atom):
        with pytest.raises(CodegenError):
            ALUFunctionGenerator(raw_atom, 0, naming.STATEFUL, 0, opt_level=7)

    def test_level0_body_reads_values_dict(self, raw_atom):
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_UNOPTIMIZED)
        from repro.ir import Module

        source = to_source(Module(functions=code.helpers + [code.function]))
        assert 'values["pipeline_stage_0_stateful_alu_0_' in source

    def test_level1_body_has_no_values_lookups(self, raw_atom):
        mc = alu_holes_machine_code(raw_atom, 0, naming.STATEFUL, 0, {"opt_0": 0, "const_0": 0, "mux3_0": 0})
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_SCC, mc)
        from repro.ir import Module

        source = to_source(Module(functions=code.helpers + [code.function]))
        assert "values[" not in source
        assert code.helpers  # helpers remain at the SCC level (Figure 6 version 2)

    def test_level2_has_no_helpers(self, raw_atom):
        mc = alu_holes_machine_code(raw_atom, 0, naming.STATEFUL, 0, {"opt_0": 0, "const_0": 0, "mux3_0": 0})
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_SCC_INLINE, mc)
        assert code.helpers == []

    def test_missing_hole_raises_at_generation_time(self, raw_atom):
        with pytest.raises(MissingMachineCodeError):
            generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_SCC_INLINE, {})

    def test_function_and_helper_names_carry_position(self, if_else_raw_atom):
        code = generate_alu(if_else_raw_atom, 3, naming.STATEFUL, 1, dgen.OPT_UNOPTIMIZED)
        assert code.function.name == alu_function_name(3, naming.STATEFUL, 1)
        assert all(helper.name.startswith("stage_3_stateful_alu_1_") for helper in code.helpers)
        assert helper_function_name(3, naming.STATEFUL, 1, "rel_op_0") in {
            helper.name for helper in code.helpers
        }

    def test_level0_helper_per_primitive_site(self, if_else_raw_atom):
        code = generate_alu(if_else_raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_UNOPTIMIZED)
        assert len(code.helpers) == len(if_else_raw_atom.holes)

    def test_call_rendering(self, raw_atom):
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_UNOPTIMIZED)
        call = code.call(["op_a", "op_b"], state_code="state[2]")
        assert call.startswith("stage_0_stateful_alu_0(")
        assert "state[2]" in call and call.endswith("values)")

    def test_call_rendering_optimised_omits_values(self, raw_atom):
        mc = alu_holes_machine_code(raw_atom, 0, naming.STATEFUL, 0, {"opt_0": 0, "const_0": 0, "mux3_0": 0})
        code = generate_alu(raw_atom, 0, naming.STATEFUL, 0, dgen.OPT_SCC_INLINE, mc)
        assert "values" not in code.call(["a", "b"], state_code="state[0]")


class TestGeneratedPipelineSource:
    @pytest.fixture(scope="class")
    def pipeline_and_machine_code(self):
        spec = PipelineSpec(
            depth=2,
            width=2,
            stateful_alu=atoms.get_atom("if_else_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="codegen_test",
        )
        return spec, spec.passthrough_machine_code()

    def test_source_shrinks_with_optimisation(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        sizes = {
            level: dgen.generate(spec, mc, opt_level=level).source_line_count()
            for level in dgen.OPT_LEVELS
        }
        assert sizes[0] > sizes[1] > sizes[2]

    def test_function_count_shrinks_with_optimisation(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        counts = {
            level: dgen.generate(spec, mc, opt_level=level).function_count()
            for level in dgen.OPT_LEVELS
        }
        assert counts[0] > counts[1] > counts[2]

    def test_level0_source_contains_values_lookups(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        source = dgen.generate(spec, mc, opt_level=0).source
        assert source.count('values["pipeline_stage_') > 10

    def test_level2_source_has_no_values_lookups_or_helper_calls(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        source = dgen.generate(spec, mc, opt_level=2).source
        assert 'values["' not in source
        assert "input_mux" not in source  # selections are inlined as phv[k]

    def test_module_globals_reflect_configuration(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        description = dgen.generate(spec, mc, opt_level=1)
        assert description.namespace["PIPELINE_DEPTH"] == 2
        assert description.namespace["PIPELINE_WIDTH"] == 2
        assert description.namespace["OPT_LEVEL"] == 1
        assert len(description.stage_functions) == 2

    def test_missing_pair_rejected_at_generation(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        broken = mc.without([naming.output_mux_name(0, 0)])
        with pytest.raises(MissingMachineCodeError):
            dgen.generate(spec, broken, opt_level=2)

    def test_validation_can_be_disabled_for_level0(self, pipeline_and_machine_code):
        spec, mc = pipeline_and_machine_code
        broken = mc.without([naming.output_mux_name(0, 0)])
        description = dgen.generate(spec, broken, opt_level=0, validate_machine_code=False)
        assert description.needs_runtime_values

    def test_machine_code_none_only_allowed_at_level0(self, pipeline_and_machine_code):
        spec, _ = pipeline_and_machine_code
        description = dgen.generate(spec, None, opt_level=0)
        assert description.machine_code is None
        with pytest.raises(CodegenError):
            dgen.generate(spec, None, opt_level=2)

    def test_save_source_round_trip(self, pipeline_and_machine_code, tmp_path):
        spec, mc = pipeline_and_machine_code
        description = dgen.generate(spec, mc, opt_level=2)
        path = description.save_source(tmp_path / "pipeline.py")
        assert path.read_text() == description.source

    def test_opt_level_names(self):
        assert dgen.OPT_LEVEL_NAMES[dgen.OPT_UNOPTIMIZED] == "unoptimized"
        assert dgen.OPT_LEVEL_NAMES[dgen.OPT_SCC] == "scc_propagation"
        assert dgen.OPT_LEVEL_NAMES[dgen.OPT_SCC_INLINE] == "scc_propagation_and_inlining"


#: ``def`` lines of generated ALU functions (helpers and mux functions excluded).
ALU_DEF = re.compile(r"^def stage_\d+_(stateless|stateful)_alu_\d+\(", re.MULTILINE)
SHARING_LEVELS = (dgen.OPT_SCC, dgen.OPT_SCC_INLINE, dgen.OPT_FUSED)


def alu_function_kinds(source):
    """The kind of every ALU function the source defines, in order."""
    return ALU_DEF.findall(source)


def distinct_alu_keys(spec, machine_code):
    """Distinct ``(kind, own hole values)`` pairs over every ALU slot of ``spec``."""
    keys = set()
    for stage in range(spec.depth):
        for slot in range(spec.width):
            for alu, kind in ((spec.stateless_alu, naming.STATELESS), (spec.stateful_alu, naming.STATEFUL)):
                values = tuple(
                    machine_code.get(naming.alu_hole_name(stage, kind, slot, hole)) for hole in alu.holes
                )
                keys.add((kind, values))
    return keys


@pytest.fixture(scope="module")
def blue_entry():
    """A ``blue_*`` case-study entry: a 4x2 pipeline whose slots differ."""
    return next(entry for entry in case_study.build_corpus() if entry.family == "blue")


class TestALUDeduplication:
    @pytest.fixture(scope="class")
    def passthrough_4x2(self):
        spec = PipelineSpec(
            depth=4,
            width=2,
            stateful_alu=atoms.get_atom("if_else_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="dedup_test",
        )
        return spec, spec.passthrough_machine_code()

    @pytest.mark.parametrize("level", SHARING_LEVELS)
    def test_passthrough_slots_share_one_function_per_kind(self, passthrough_4x2, level):
        spec, mc = passthrough_4x2
        source = dgen.generate(spec, mc, opt_level=level).source
        assert sorted(alu_function_kinds(source)) == [naming.STATEFUL, naming.STATELESS]
        assert "def stage_0_stateless_alu_0(" in source
        assert "def stage_0_stateful_alu_0(" in source
        assert "shared by (stage, slot) (0, 0), (0, 1), (1, 0)" in source

    def test_level0_keeps_one_function_per_slot(self, passthrough_4x2):
        spec, mc = passthrough_4x2
        source = dgen.generate(spec, mc, opt_level=dgen.OPT_UNOPTIMIZED).source
        assert len(alu_function_kinds(source)) == 16
        assert "shared by" not in source

    def test_level1_keeps_figure6_helper_names(self, passthrough_4x2):
        spec, mc = passthrough_4x2
        source = dgen.generate(spec, mc, opt_level=dgen.OPT_SCC).source
        assert "def stage_0_stateful_alu_0_mux3_0(" in source
        assert "stage_1_stateful_alu_0_mux3_0" not in source

    @pytest.mark.parametrize("level", SHARING_LEVELS)
    def test_function_count_equals_distinct_keys(self, blue_entry, level):
        spec, mc = blue_entry.program.pipeline_spec(), blue_entry.machine_code
        keys = distinct_alu_keys(spec, mc)
        assert 2 < len(keys) < 2 * spec.depth * spec.width
        source = dgen.generate(spec, mc, opt_level=level).source
        assert len(alu_function_kinds(source)) == len(keys)

    @pytest.mark.parametrize("level", dgen.OPT_LEVELS)
    def test_drivers_agree_on_a_deduplicated_module(self, blue_entry, level):
        program = blue_entry.program
        description = dgen.generate(program.pipeline_spec(), blue_entry.machine_code, opt_level=level)
        inputs = program.traffic_generator().generate(200)
        engines = ["tick", "generic"] + (["fused"] if level == dgen.OPT_FUSED else [])
        results = [
            RMTSimulator(
                description, initial_state=program.initial_pipeline_state(), engine=engine
            ).run(inputs)
            for engine in engines
        ]
        for result in results[1:]:
            assert result.output_trace.outputs() == results[0].output_trace.outputs()
            assert result.final_state == results[0].final_state

    @pytest.mark.parametrize("level", SHARING_LEVELS)
    def test_missing_hole_names_the_slot_that_lacks_it(self, passthrough_4x2, level):
        spec, mc = passthrough_4x2
        missing = naming.alu_hole_name(1, naming.STATEFUL, 1, "opt_0")
        with pytest.raises(MissingMachineCodeError) as excinfo:
            dgen.generate(spec, mc.without([missing]), opt_level=level, validate_machine_code=False)
        assert excinfo.value.name == missing

    def test_dedup_key_is_the_slot_at_level0(self, raw_atom):
        holes = {"opt_0": 0, "const_0": 3, "mux3_0": 1}
        mc = {
            **alu_holes_machine_code(raw_atom, 0, naming.STATEFUL, 0, holes),
            **alu_holes_machine_code(raw_atom, 2, naming.STATEFUL, 1, holes),
        }

        def key(level, stage, slot):
            return ALUFunctionGenerator(raw_atom, stage, naming.STATEFUL, slot, level, mc).dedup_key()

        assert key(dgen.OPT_SCC, 0, 0) == key(dgen.OPT_SCC, 2, 1)
        assert key(dgen.OPT_UNOPTIMIZED, 0, 0) != key(dgen.OPT_UNOPTIMIZED, 2, 1)


#: A stateless ALU that returns from inside a branch: the fused loop cannot
#: turn it into straight-line code and must keep calling its function.
BRANCHY_RETURN = """
type: stateless
state variables : {}
hole variables : {}
packet fields : {pkt_0, pkt_1}

if (rel_op(pkt_0, pkt_1)) {
    return arith_op(pkt_0, Mux2(pkt_1, C()));
}
return pkt_1;
"""


class TestFusedCallFallback:
    @pytest.fixture(scope="class")
    def branchy(self):
        spec = PipelineSpec(
            depth=2,
            width=2,
            stateful_alu=atoms.get_atom("if_else_raw"),
            stateless_alu=parse_and_analyze(BRANCHY_RETURN, name="branchy_return"),
            name="branchy_return_pipeline",
        )
        pairs = {}
        for stage in range(spec.depth):
            for slot in range(spec.width):
                # Operands phv[0] and phv[1], so both branches run.
                pairs[naming.input_mux_name(stage, naming.STATELESS, slot, 1)] = 1
            # Stage k's container k receives stateless slot k's output.
            pairs[naming.output_mux_name(stage, stage)] = spec.output_mux_value_for(
                naming.STATELESS, stage
            )
        return spec, spec.passthrough_machine_code().with_pairs(pairs)

    @pytest.mark.parametrize("level", dgen.OPT_LEVELS)
    def test_drivers_agree(self, branchy, level):
        spec, mc = branchy
        inputs = [[a, b] for a in range(4) for b in range(4)]
        reference = RMTSimulator(
            dgen.generate(spec, mc, opt_level=dgen.OPT_UNOPTIMIZED), engine="tick"
        ).run(inputs)
        assert {tuple(out) for out in reference.outputs} != {tuple(phv) for phv in inputs}

        description = dgen.generate(spec, mc, opt_level=level)
        engines = ["tick", "generic"] + (["fused"] if level == dgen.OPT_FUSED else [])
        for engine in engines:
            result = RMTSimulator(description, engine=engine).run(inputs)
            assert result.engine == engine
            assert result.outputs == reference.outputs, engine
            assert result.final_state == reference.final_state, engine

    def test_fused_loop_keeps_the_call(self, branchy):
        spec, mc = branchy
        description = dgen.generate(spec, mc, opt_level=dgen.OPT_FUSED)
        loop = to_source(Module(functions=[description.module.get_function("run_trace")]))
        # One call per mux-selected stateless ALU; unselected ones are skipped.
        assert len(re.findall(r"stage_\d+_stateless_alu_\d+\(", loop)) == spec.depth


def fused_loop_source(description):
    """Source of the ``for phv in inputs`` loop of a level-3 description."""
    source = to_source(Module(functions=[description.module.get_function("run_trace")]))
    return source[source.index("for phv in inputs"):]


#: A stateful ALU that reads its first operand twice.
SQUARE_SUM = """
type: stateful
state variables : {state_0}
hole variables : {}
packet fields : {pkt_0, pkt_1}

state_0 = state_0 + pkt_0 * pkt_0;
"""

#: A stateless ALU that reads its first operand twice.
SQUARE = """
type: stateless
state variables : {}
hole variables : {}
packet fields : {pkt_0, pkt_1}

return pkt_0 * pkt_0 + pkt_1;
"""

#: A stateful ALU whose local takes the name of the stateless ALU's operand.
SHADOWS_OPERAND = """
type: stateful
state variables : {state_0}
hole variables : {}
packet fields : {a, b}

pkt_0 = a + 1;
state_0 = state_0 + pkt_0 * pkt_0;
"""


class TestFusedLoopShape:
    """The level-3 loop is emitted clean, with no pass over it afterwards."""

    def build(self, stateful, stateless, routes):
        spec = PipelineSpec(
            depth=2,
            width=2,
            stateful_alu=parse_and_analyze(stateful, name="stateful_under_test"),
            stateless_alu=parse_and_analyze(stateless, name="stateless_under_test"),
            name="loop_shape",
        )
        pairs = {
            naming.output_mux_name(stage, container): spec.output_mux_value_for(kind, slot)
            for stage, container, kind, slot in routes
        }
        return spec, spec.passthrough_machine_code().with_pairs(pairs)

    def check_drivers_agree(self, spec, machine_code):
        inputs = [[a, b] for a in range(4) for b in (0, 3)]
        reference = RMTSimulator(
            dgen.generate(spec, machine_code, opt_level=dgen.OPT_UNOPTIMIZED), engine="tick"
        ).run(inputs)
        fused = RMTSimulator(dgen.generate(spec, machine_code, opt_level=dgen.OPT_FUSED)).run(
            inputs
        )
        assert fused.engine == "fused"
        assert fused.outputs == reference.outputs
        assert fused.final_state == reference.final_state

    def test_operand_load_reused_until_phv_is_rebound(self):
        spec, mc = self.build(SQUARE_SUM, SQUARE, [(0, 1, naming.STATEFUL, 0)])
        loop = fused_loop_source(dgen.generate(spec, mc, opt_level=dgen.OPT_FUSED))
        # Stage 0 loads it once for both slots, and stage 1 once after stage 0
        # rebinds phv.
        assert loop.count("pkt_0 = phv[0]") == 2
        assert loop.count("phv = ") == 1
        self.check_drivers_agree(spec, mc)

    def test_pass_through_stage_does_not_rebind_phv(self):
        spec, mc = self.build(SQUARE_SUM, SQUARE, [])
        loop = fused_loop_source(dgen.generate(spec, mc, opt_level=dgen.OPT_FUSED))
        assert "phv = " not in loop
        assert loop.count("pkt_0 = phv[0]") == 1
        self.check_drivers_agree(spec, mc)

    def test_unread_default_output_not_computed(self):
        spec, mc = self.build(SQUARE_SUM, SQUARE, [(0, 1, naming.STATEFUL, 0)])
        loop = fused_loop_source(dgen.generate(spec, mc, opt_level=dgen.OPT_FUSED))
        # Only stage 0's slot 0 feeds an output multiplexer.
        assert loop.count("_default_output = ") == 1

    def test_local_assignment_forgets_operand_binding(self):
        spec, mc = self.build(
            SHADOWS_OPERAND,
            SQUARE,
            [(0, 0, naming.STATELESS, 0), (1, 0, naming.STATELESS, 0)],
        )
        loop = fused_loop_source(dgen.generate(spec, mc, opt_level=dgen.OPT_FUSED))
        # Stage 1's stateless ALU must reload pkt_0 after the stateful
        # ALU assigned its own local pkt_0, and stage 0's output rebinds phv.
        assert loop.count("pkt_0 = phv[0]") == 2
        self.check_drivers_agree(spec, mc)


RESERVED_NAMES = [
    "phv",
    "values",
    "inputs",
    "outputs",
    "_append",
    "_default_output",
    "state_0_1",
    "stateless_output_0",
    "stateful_output_1",
    "stage_0",
    "stage_2_stateful_alu_0",
    "int",
    "bool",
    "lambda",
]


class TestReservedNames:
    """An ALU's names must not capture a name the generated code binds."""

    @pytest.mark.parametrize("name", RESERVED_NAMES)
    @pytest.mark.parametrize("level", dgen.OPT_LEVELS)
    def test_local_rejected(self, name, level):
        spec = parse_and_analyze(
            "type: stateful\nstate variables : {state_0}\nhole variables : {}\n"
            f"packet fields : {{pkt_0, pkt_1}}\n{name} = pkt_0 + 1; state_0 = {name};\n"
        )
        with pytest.raises(CodegenError, match=re.escape(repr(name))):
            generate_alu(spec, 0, naming.STATEFUL, 0, level, {})

    @pytest.mark.parametrize("name", RESERVED_NAMES)
    def test_packet_field_rejected(self, name):
        stateless = parse_and_analyze(
            "type: stateless\nstate variables : {}\nhole variables : {}\n"
            f"packet fields : {{{name}, pkt_1}}\nreturn {name} + pkt_1;\n"
        )
        spec = PipelineSpec(
            depth=1,
            width=2,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=stateless,
            name="reserved_packet_field",
        )
        with pytest.raises(CodegenError, match=re.escape(repr(name))):
            dgen.generate(spec, spec.passthrough_machine_code(), opt_level=dgen.OPT_FUSED)

    def test_non_identifier_packet_field_is_a_syntax_error(self):
        """``a²`` is alphanumeric but no Python name: the parser refuses it, not ``compile``."""
        with pytest.raises(ALUDSLSyntaxError) as excinfo:
            stateless = parse_and_analyze(
                "type: stateless\nstate variables : {}\nhole variables : {}\n"
                "packet fields : {a², pkt_1}\nreturn a² + pkt_1;\n"
            )
            spec = PipelineSpec(
                depth=1,
                width=2,
                stateful_alu=atoms.get_atom("raw"),
                stateless_alu=stateless,
                name="non_identifier_packet_field",
            )
            dgen.generate(spec, spec.passthrough_machine_code(), opt_level=dgen.OPT_FUSED)
        assert (excinfo.value.line, excinfo.value.column) == (4, 19)

    def test_state_variable_may_take_a_reserved_name(self):
        """State variables are emitted as ``state[i]``, never as names."""
        spec = parse_and_analyze(
            "type: stateful\nstate variables : {phv}\nhole variables : {}\n"
            "packet fields : {pkt_0}\nphv = phv + pkt_0;\n"
        )
        generate_alu(spec, 0, naming.STATEFUL, 0, dgen.OPT_FUSED, {})

    @pytest.mark.parametrize("name", atoms.atom_names())
    def test_every_catalogue_atom_generates(self, name):
        atom = atoms.get_atom(name)
        holes = alu_holes_machine_code(atom, 0, atom.kind, 0, {hole: 0 for hole in atom.holes})
        for level in dgen.OPT_LEVELS:
            generate_alu(atom, 0, atom.kind, 0, level, holes)
