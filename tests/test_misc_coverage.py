"""Additional unit tests for smaller public surfaces.

Covers the pieces that the subsystem-focused test modules touch only in
passing: the exception hierarchy, the grammar description, the pipeline
description wrapper, trace/report rendering, the Domino/dRMT odds and ends,
and the public package exports.
"""

import json

import pytest

import repro
from repro import atoms, dgen
from repro.alu_dsl import grammar
from repro.dgen.emit import PipelineDescription, compile_description
from repro.errors import (
    ALUDSLSyntaxError,
    DominoSyntaxError,
    DruzhbaError,
    MachineCodeError,
    MissingMachineCodeError,
    SimulationError,
)
from repro.hardware import PipelineSpec
from repro.ir import Module
from repro.machine_code import MachineCode


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_exports_resolve(self):
        import repro.dsim as dsim
        import repro.testing as testing
        import repro.drmt as drmt

        for module in (dsim, testing, drmt):
            for name in module.__all__:
                assert getattr(module, name) is not None


class TestErrorHierarchy:
    def test_all_library_errors_derive_from_druzhba_error(self):
        from repro import errors

        exception_types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception) and value is not Exception
        ]
        assert len(exception_types) >= 15
        for exception_type in exception_types:
            assert issubclass(exception_type, DruzhbaError)

    def test_syntax_errors_carry_location(self):
        error = ALUDSLSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error) and error.column == 7
        domino_error = DominoSyntaxError("bad", line=2)
        assert "line 2" in str(domino_error)

    def test_missing_machine_code_error_carries_name(self):
        error = MissingMachineCodeError("pipeline_stage_0_output_mux_phv_0")
        assert error.name == "pipeline_stage_0_output_mux_phv_0"
        assert issubclass(MissingMachineCodeError, MachineCodeError)


class TestGrammarModule:
    def test_describe_lists_all_primitives(self):
        text = grammar.describe()
        for name in grammar.primitive_names():
            assert name in text

    def test_describe_lists_each_operator_choice(self):
        lines = {line.split()[0]: line for line in grammar.describe().splitlines() if line}
        assert lines["rel_op"].endswith("(6 choices: ==, <, >, !=, <=, >=)")
        assert lines["arith_op"].endswith("(4 choices: +, -, *, /)")
        assert lines["bool_op"].endswith("(2 choices: &&, ||)")
        for name in ("Mux2", "Mux3", "Mux4", "Opt", "C"):
            assert "choices" not in lines[name]

    def test_ebnf_mentions_core_productions(self):
        assert "if_stmt" in grammar.EBNF
        assert "primitive_call" in grammar.EBNF

    def test_primitive_names_sorted_and_complete(self):
        names = grammar.primitive_names()
        assert names == sorted(names)
        assert {"Mux2", "Mux3", "Opt", "C", "rel_op", "arith_op", "bool_op"} <= set(names)


class TestPipelineDescriptionWrapper:
    @pytest.fixture(scope="class")
    def description(self):
        spec = PipelineSpec(
            depth=1, width=1,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_mux"),
            name="wrapper_test",
        )
        return dgen.generate(spec, spec.passthrough_machine_code(), opt_level=1)

    def test_metadata_properties(self, description):
        assert description.opt_level_name == "scc_propagation"
        assert description.function_count() >= 3
        assert description.source_line_count() > 10

    def test_runtime_values_reflect_machine_code(self, description):
        values = description.runtime_values()
        assert values == description.machine_code.as_dict()

    def test_initial_state_shape(self, description):
        state = description.initial_state(initial_value=4)
        assert state == [[[4]]]

    def test_broken_namespace_detected(self, description):
        broken = PipelineDescription(
            spec=description.spec,
            opt_level=description.opt_level,
            machine_code=description.machine_code,
            module=description.module,
            source=description.source,
            namespace={},
        )
        from repro.errors import CodegenError

        with pytest.raises(CodegenError):
            _ = broken.stage_functions

    def test_compile_description_rejects_bad_module(self):
        spec = PipelineSpec(
            depth=1, width=1,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_mux"),
        )
        from repro.errors import CodegenError

        with pytest.raises(CodegenError):
            compile_description(spec, Module(), opt_level=0, machine_code=None)


class TestTraceAndReportRendering:
    def test_trace_format_includes_state(self):
        from repro.dsim import Trace

        trace = Trace([[1]], [[2]], final_state=[[[5]]])
        assert "final state: [[[5]]]" in trace.format()

    def test_spec_trace_format_includes_state_dict(self):
        from repro.testing import FunctionSpecification

        trace = FunctionSpecification(function=lambda phv, state: phv, num_containers=1).run([[1]])
        assert trace.spec_state == {}

    def test_fuzz_outcome_value_range_mentions_counterexample(self):
        from repro.testing import FailureClass, FuzzOutcome
        from repro.testing.equivalence import EquivalenceReport, Mismatch

        report = EquivalenceReport(compared_phvs=1, compared_containers=[0])
        report.mismatches.append(Mismatch(0, 0, expected=1, actual=0, inputs=(700,)))
        outcome = FuzzOutcome(FailureClass.VALUE_RANGE, 100, report=report, max_value=1023)
        assert "first divergence" in outcome.describe()


class TestDrmtOddsAndEnds:
    def test_processor_rejects_misrouted_packet(self):
        from repro.drmt import DrmtHardwareParams, generate_bundle
        from repro.drmt.processor import MatchActionProcessor, PacketContext, RegisterFile
        from repro.drmt.tables import TableStore
        from repro.p4 import samples

        bundle = generate_bundle(samples.simple_router(), DrmtHardwareParams(num_processors=2))
        processor = MatchActionProcessor(
            0, bundle.program, bundle.schedule, TableStore(bundle.program), RegisterFile(bundle.program)
        )
        with pytest.raises(SimulationError):
            processor.accept(PacketContext(0, {}, arrival_tick=0, processor=1))

    def test_drmt_cli_milp_flag(self, capsys):
        from repro.cli import drmt_main

        assert drmt_main(["--packets", "5", "--milp"]) == 0
        assert "dRMT" in capsys.readouterr().out

    def test_bundle_generation_from_source_string(self):
        from repro.drmt import generate_bundle
        from repro.p4 import samples

        bundle = generate_bundle(samples.TELEMETRY_PIPELINE, name="telemetry")
        assert bundle.program.name == "telemetry"
        assert bundle.schedule.makespan > 0


class TestMachineCodeRoundTripThroughPrograms:
    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_every_program_machine_code_round_trips(self, tmp_path, suffix):
        from repro.programs import all_programs

        for program in all_programs():
            path = tmp_path / f"{program.name}{suffix}"
            machine_code = program.machine_code()
            if suffix == ".json":
                path.write_text(json.dumps(machine_code.as_dict()))
            else:
                path.write_text("".join(f"{name} {value}\n" for name, value in machine_code.items()))
            assert MachineCode.from_file(path) == machine_code

    def test_domino_sources_all_parse(self):
        from repro.domino import parse_and_analyze
        from repro.programs import all_programs

        for program in all_programs():
            if program.domino_source is not None:
                parsed = parse_and_analyze(program.domino_source)
                assert parsed.body, program.name
