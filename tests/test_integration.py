"""End-to-end integration tests spanning multiple subsystems."""


from repro import atoms, dgen
from repro.chipmunk import ChipmunkCompiler, MachineCodeBuilder, SynthesisConfig
from repro.domino import PacketLayout
from repro.dsim import RMTSimulator
from repro.hardware import PipelineSpec
from repro.machine_code import MachineCode, naming
from repro.programs import get_program
from repro.testing import FailureClass, FuzzConfig, FuzzTester


class TestFigure5Workflow:
    """The complete compiler-testing workflow on a benchmark program."""

    def test_machine_code_round_trips_through_files(self, tmp_path):
        """Compiler writes machine code to disk; Druzhba loads and validates it."""
        program = get_program("marple_new_flow")
        path = tmp_path / "marple.mc"
        path.write_text("".join(f"{name} {value}\n" for name, value in program.machine_code().items()))
        loaded = MachineCode.from_file(path)
        assert loaded == program.machine_code()
        tester = FuzzTester(
            program.pipeline_spec(),
            program.specification(),
            config=FuzzConfig(num_phvs=150, seed=3),
            traffic_generator=program.traffic_generator(seed=3),
            initial_state=program.initial_pipeline_state(),
        )
        assert tester.test(loaded).passed

    def test_spec_trace_matches_pipeline_trace_directly(self):
        """Run dgen + dsim + the spec by hand (without the FuzzTester wrapper)."""
        from repro.testing import compare_traces

        program = get_program("rcp")
        description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=1)
        traffic = program.traffic_generator(seed=21)
        inputs = traffic.generate(200)
        pipeline_trace = RMTSimulator(
            description, initial_state=program.initial_pipeline_state()
        ).run(inputs).output_trace
        spec_trace = program.specification().run(inputs)
        report = compare_traces(pipeline_trace, spec_trace, containers=program.relevant_containers)
        assert report.equivalent

    def test_buggy_compiler_output_caught(self):
        """A 'compiler bug' (wrong relational operator) is caught by fuzzing."""
        program = get_program("sampling")
        machine_code = program.machine_code()
        # Flip the stage-1 comparison from == to != : the sample flag inverts.
        buggy = machine_code.with_pairs(
            {naming.alu_hole_name(1, naming.STATELESS, 0, "rel_op_0"): 3}
        )
        tester = FuzzTester(
            program.pipeline_spec(),
            program.specification(),
            config=FuzzConfig(num_phvs=100, seed=5),
            traffic_generator=program.traffic_generator(seed=5),
            initial_state=program.initial_pipeline_state(),
        )
        outcome = tester.test(buggy)
        assert outcome.failure_class in (FailureClass.OUTPUT_MISMATCH, FailureClass.VALUE_RANGE)
        assert outcome.counterexample is not None


class TestSynthesisToSimulationPipeline:
    def test_synthesised_code_runs_through_optimised_dgen(self):
        """Machine code found by CEGIS simulates identically at every opt level."""
        spec = PipelineSpec(
            depth=1, width=1,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_rel"),
            name="integration_synthesis",
        )
        freeze = {
            naming.output_mux_name(0, 0): spec.output_mux_value_for(naming.STATEFUL, 0),
            naming.input_mux_name(0, naming.STATEFUL, 0, 0): 0,
            naming.input_mux_name(0, naming.STATEFUL, 0, 1): 0,
            naming.input_mux_name(0, naming.STATELESS, 0, 0): 0,
            naming.input_mux_name(0, naming.STATELESS, 0, 1): 0,
        }
        search = [naming.alu_hole_name(0, naming.STATEFUL, 0, hole)
                  for hole in atoms.get_atom("raw").holes]
        source = """
        state seen = 0;
        transaction count_packets {
            pkt.out = seen;
            seen = seen + 1;
        }
        """
        layout = PacketLayout(container_fields=["ignored"], output_fields=["out"])
        compiler = ChipmunkCompiler(spec, SynthesisConfig(seed=7))
        result = compiler.compile_domino(source, layout, constant_pool=[0, 1],
                                         freeze=freeze, search_names=search)
        assert result.synthesis.success
        inputs = [[v] for v in (5, 9, 2, 8)]
        outputs = {}
        for level in dgen.OPT_LEVELS:
            description = dgen.generate(spec, result.machine_code, opt_level=level)
            outputs[level] = RMTSimulator(description).run(inputs).outputs
        assert outputs[0] == outputs[1] == outputs[2] == [(0,), (1,), (2,), (3,)]


class TestMultiProgramPipelineSharing:
    def test_two_algorithms_coexist_on_one_pipeline(self):
        """Two independent kernels placed on different slots of the same pipeline."""
        spec = PipelineSpec(
            depth=1, width=3,
            stateful_alu=atoms.get_atom("raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="shared",
        )
        builder = MachineCodeBuilder(spec)
        # Slot 0: accumulate container 0 into state, expose old total on container 1.
        builder.configure_raw(0, 0, use_state=True, rhs=("pkt", 0), input_containers=[0, 0])
        builder.route_output(0, 1, kind=naming.STATEFUL, slot=0)
        # Stateless slot 2: threshold container 2, write flag back to container 2.
        builder.configure_stateless_full(0, 2, mode="rel", op=">", a=("pkt", 0), b=("const", 10),
                                         input_containers=[2, 2])
        builder.route_output(0, 2, kind=naming.STATELESS, slot=2)
        description = dgen.generate(spec, builder.build(), opt_level=2)
        result = RMTSimulator(description).run([[4, 0, 20], [6, 0, 3]])
        assert result.outputs == [(4, 0, 1), (6, 4, 0)]

    def test_fuzzing_all_levels_for_composite_configuration(self):
        spec = PipelineSpec(
            depth=2, width=2,
            stateful_alu=atoms.get_atom("pred_raw"),
            stateless_alu=atoms.get_atom("stateless_full"),
            name="composite",
        )
        builder = MachineCodeBuilder(spec)
        builder.configure_pred_raw(0, 0, cond=("<", True, ("pkt", 0)), update=("+", False, ("pkt", 0)),
                                   input_containers=[0, 0])
        builder.route_output(0, 1, kind=naming.STATEFUL, slot=0)
        machine_code = builder.build()

        def running_max_spec(phv, state):
            old = state["maximum"]
            if state["maximum"] < phv[0]:
                state["maximum"] = phv[0]
            return [phv[0], old]

        from repro.testing import FunctionSpecification

        specification = FunctionSpecification(
            function=running_max_spec, num_containers=2,
            state_template={"maximum": 0}, relevant_containers=[1],
        )
        for level in dgen.OPT_LEVELS:
            config = FuzzConfig(num_phvs=120, seed=2, opt_level=level)
            assert FuzzTester(spec, specification, config=config).test(machine_code).passed
