"""Property-based tests: the two execution paths and the three dgen levels agree.

These are the reproduction's central internal correctness oracles:

* the ALU DSL reference interpreter and the code dgen generates must compute
  identical outputs and state updates for any machine code and any operands;
* a full pipeline simulated from the unoptimised, SCC-propagated, inlined
  and fused descriptions must produce the tick model's output traces, final
  state and tick count — i.e. neither the optimisations of §3.4 nor the
  sequential drivers ever change behaviour;
* the dict-specialised exact-match table lookup the fused dRMT generator
  emits must agree with the linear-scan :meth:`MatchActionTable.lookup` for
  any table contents — hits, misses and default-action fallthroughs alike.
"""

import functools
import os
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import atoms, dgen
from repro.alu_dsl import ALUInterpreter, parse_and_analyze
from repro.alu_dsl.semantics import PRIMITIVES, UNBOUNDED
from repro.dsim import RMTSimulator
from repro.hardware import PipelineSpec
from repro.ir import Module, to_source
from repro.machine_code import naming
from repro.machine_code.pairs import MachineCode

ATOM_NAMES = ["raw", "if_else_raw", "pred_raw", "sub", "nested_if", "pair"]
STATELESS_ATOM_NAMES = ["stateless_arith", "stateless_rel", "stateless_mux", "stateless_full"]

#: Example budget of the cross-level pipeline property (tier-1 default);
#: the nightly CI job raises it twentyfold.
PIPELINE_EXAMPLES = int(os.environ.get("DRUZHBA_PROPERTY_EXAMPLES", "200"))

values_strategy = st.integers(min_value=0, max_value=1023)
hole_value_strategy = st.integers(min_value=0, max_value=7)


def compile_alu(spec, stage, kind, slot, opt_level, machine_code):
    """Compile a single ALU function (plus helpers) into a callable."""
    code = dgen.ALUFunctionGenerator(spec, stage, kind, slot, opt_level, machine_code).generate()
    namespace = {}
    source = to_source(Module(functions=code.helpers + [code.function]))
    exec(compile(source, "<alu>", "exec"), namespace)  # noqa: S102
    return namespace[code.function.name]


@st.composite
def shaped_row(draw, width):
    """One PHV as ``(plain int list, the same values as a list or a tuple)``.

    Sometimes one value of the shaped row is a ``bool``, which sends the
    trace through ``prepare_inputs``' ``int()`` pass instead of its
    exact-int fast path.
    """
    values = [draw(values_strategy) for _ in range(width)]
    if draw(st.booleans(), label="has_bool"):
        values[draw(st.integers(min_value=0, max_value=width - 1))] = draw(st.booleans())
    row_type = draw(st.sampled_from([list, tuple]), label="row_type")
    return [int(value) for value in values], row_type(values)


def full_machine_code(spec, stage, kind, slot, hole_values):
    return {
        naming.alu_hole_name(stage, kind, slot, hole): value
        for hole, value in hole_values.items()
    }


class TestInterpreterVsGeneratedCode:
    @pytest.mark.parametrize("atom_name", ATOM_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stateful_atom_equivalence(self, atom_name, data):
        """Interpreter output/state == generated-code output/state at every opt level."""
        spec = atoms.get_atom(atom_name)
        hole_values = {
            hole: data.draw(hole_value_strategy, label=hole) for hole in spec.holes
        }
        operands = [data.draw(values_strategy, label=f"operand_{i}") for i in range(spec.num_operands)]
        state = [data.draw(values_strategy, label=f"state_{i}") for i in range(spec.num_state_vars)]

        reference = ALUInterpreter(spec).execute(operands, list(state), hole_values)
        machine_code = full_machine_code(spec, 0, naming.STATEFUL, 0, hole_values)

        for opt_level in dgen.OPT_LEVELS:
            function = compile_alu(spec, 0, naming.STATEFUL, 0, opt_level, machine_code)
            generated_state = list(state)
            if opt_level == dgen.OPT_UNOPTIMIZED:
                output = function(*operands, generated_state, machine_code)
            else:
                output = function(*operands, generated_state)
            assert output == reference.output, f"output diverged at opt level {opt_level}"
            assert generated_state == reference.state, f"state diverged at opt level {opt_level}"

    @pytest.mark.parametrize("atom_name", STATELESS_ATOM_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stateless_atom_equivalence(self, atom_name, data):
        spec = atoms.get_atom(atom_name)
        hole_values = {hole: data.draw(hole_value_strategy, label=hole) for hole in spec.holes}
        operands = [data.draw(values_strategy, label=f"operand_{i}") for i in range(spec.num_operands)]

        reference = ALUInterpreter(spec).execute(operands, [], hole_values)
        machine_code = full_machine_code(spec, 1, naming.STATELESS, 0, hole_values)

        for opt_level in dgen.OPT_LEVELS:
            function = compile_alu(spec, 1, naming.STATELESS, 0, opt_level, machine_code)
            if opt_level == dgen.OPT_UNOPTIMIZED:
                output = function(*operands, machine_code)
            else:
                output = function(*operands)
            assert output == reference.output

    @settings(max_examples=40, deadline=None)
    @given(operands=st.lists(values_strategy, min_size=2, max_size=2), state=values_strategy)
    def test_configured_atoms_match_a_hand_reference(self, operands, state):
        """Two atoms configured as one accumulator, checked against plain Python.

        ``raw`` adding its first operand, and ``pred_raw`` whose guard
        ``0 >= 0`` always holds, both return the old state and add
        ``pkt_0`` to it, in the interpreter and at every level.
        """
        configured = {
            "raw": {"opt_0": 0, "mux3_0": 0, "const_0": 0},
            "pred_raw": {
                "opt_0": 1, "const_0": 0, "mux3_0": 2, "rel_op_0": 5,
                "opt_1": 0, "const_1": 0, "mux3_1": 0, "arith_op_0": 0,
            },
        }
        expected = (state, [state + operands[0]])
        for atom_name, hole_values in configured.items():
            spec = atoms.get_atom(atom_name)
            reference = ALUInterpreter(spec).execute(operands, [state], hole_values)
            assert (reference.output, reference.state) == expected, atom_name
            machine_code = full_machine_code(spec, 0, naming.STATEFUL, 0, hole_values)
            for opt_level in dgen.OPT_LEVELS:
                function = compile_alu(spec, 0, naming.STATEFUL, 0, opt_level, machine_code)
                generated_state = [state]
                args = [*operands, generated_state]
                if opt_level == dgen.OPT_UNOPTIMIZED:
                    args.append(machine_code)
                assert (function(*args), generated_state) == expected, (atom_name, opt_level)

    @settings(max_examples=PIPELINE_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_drawn_alu_equivalence(self, data):
        """A drawn ALU, which may use any primitive, agrees at every level.

        Hole values run to twice the domain, so the wrap-around of every row
        of the primitive table is checked, used by a catalogue atom or not.
        """
        kind = data.draw(st.sampled_from([naming.STATEFUL, naming.STATELESS]), label="kind")
        spec = parse_and_analyze(data.draw(alu_source(kind), label="source"), name="drawn")
        hole_values = {
            hole: data.draw(
                st.integers(0, 2 * domain + 1 if domain != UNBOUNDED else 63), label=hole
            )
            for hole, domain in spec.hole_domains.items()
        }
        operands = [data.draw(values_strategy, label=f"operand_{i}") for i in range(spec.num_operands)]
        state = [data.draw(values_strategy, label=f"state_{i}") for i in range(spec.num_state_vars)]
        reference = ALUInterpreter(spec).execute(operands, list(state), hole_values)
        machine_code = full_machine_code(spec, 0, kind, 0, hole_values)
        for opt_level in dgen.OPT_LEVELS:
            function = compile_alu(spec, 0, kind, 0, opt_level, machine_code)
            generated_state = list(state)
            args = [*operands, generated_state] if spec.is_stateful else list(operands)
            if opt_level == dgen.OPT_UNOPTIMIZED:
                args.append(machine_code)
            assert function(*args) == reference.output, f"output diverged at opt level {opt_level}"
            assert generated_state == reference.state, f"state diverged at opt level {opt_level}"


#: ALU DSL the drawn ALUs are built from.  ``*`` only scales by a literal,
#: and ``arith_op``'s right operand is a literal or ``C()``, so state that
#: feeds back into itself grows linearly in bits, not exponentially.
_BINARY_OPS = ["+", "-", "/", "%", "<", ">", "==", "!=", "<=", ">=", "&&", "||"]
#: Every hole-controlled primitive, so each row of the semantics table is drawn.
_PRIMITIVE_NAMES = sorted(PRIMITIVES)


@st.composite
def alu_source(draw, kind):
    """ALU DSL source for one drawn ALU of ``kind``.

    It holds locals reassigned from themselves, ``&&``/``||`` with literal or
    hole-folded operands, ``if``/``elif``/``else`` chains whose arms may
    equal each other or assign a name to itself, and ``C()``/``Opt()``
    holes, so every clean-up of the level-2/3 passes has work to do.
    """
    fields = ["pkt_0", "pkt_1"]
    state = ["state_0", "state_1"][: draw(st.integers(1, 2))] if kind == naming.STATEFUL else []
    local_names = []

    def leaf():
        names = fields + state + local_names
        form = draw(st.integers(0, 3))
        if form == 0:
            return draw(st.sampled_from(names))
        if form == 1:
            return str(draw(st.integers(0, 9)))
        if form == 2:
            return "C()"
        return f"Opt({draw(st.sampled_from(names))})"

    def expr(depth=2):
        form = draw(st.integers(0, 5)) if depth else 0
        if form == 0:
            return leaf()
        a = expr(depth - 1)
        if form == 1:
            return f"({a} {draw(st.sampled_from(_BINARY_OPS))} {expr(depth - 1)})"
        if form == 2:
            return f"({a} * {draw(st.integers(0, 3))})"
        if form == 3:
            return f"!({a})"
        if form == 4:
            name = draw(st.sampled_from(_PRIMITIVE_NAMES))
            arity = PRIMITIVES[name].arity
            if name == "arith_op":
                rest = [draw(st.sampled_from(["C()", "1", "2"]))]
            else:
                rest = [expr(depth - 1) for _ in range(arity - 1)]
            return f"{name}({', '.join([a, *rest][:arity])})"
        return f"({a} {draw(st.sampled_from(['&&', '||']))} {draw(st.sampled_from(['0', '1', 'C()']))})"

    def targets():
        return state + local_names

    def arm():
        stmts = []
        for _ in range(draw(st.integers(0, 2))):
            target = draw(st.sampled_from(targets()))
            value = draw(st.sampled_from([target, f"Opt({target})", f"{target} + 1", expr(1)]))
            stmts.append(f"{target} = {value};")
        return " ".join(stmts)

    lines = []
    for _ in range(draw(st.integers(1, 5))):
        form = draw(st.integers(0, 3))
        if form == 0 or not targets():
            value = expr()
            local_names.append(f"x{len(local_names)}")
            lines.append(f"{local_names[-1]} = {value};")
        elif form == 1:
            target = draw(st.sampled_from(targets()))
            step = "1" if draw(st.booleans()) else expr(1)
            lines.append(f"{target} = {target} + {step};")
        else:
            then = arm()
            chain = f"if ({expr()}) {{ {then} }}"
            orelse = then if draw(st.booleans()) else arm()
            for _ in range(draw(st.integers(0, 2))):
                chain += f" elif ({expr()}) {{ {draw(st.sampled_from([orelse, arm()]))} }}"
            if draw(st.booleans()):
                chain += f" else {{ {orelse} }}"
            lines.append(chain)
    if kind == naming.STATELESS or draw(st.booleans()):
        lines.append(f"return {expr()};")
    return (
        f"type: {kind}\nstate variables : {{{', '.join(state)}}}\nhole variables : {{}}\n"
        f"packet fields : {{{', '.join(fields)}}}\n" + "\n".join(lines) + "\n"
    )


def alu_specs(kind):
    """A catalogue atom of ``kind`` or an ALU drawn as DSL source."""
    catalogue = ATOM_NAMES if kind == naming.STATEFUL else STATELESS_ATOM_NAMES
    return st.one_of(
        st.sampled_from(catalogue).map(atoms.get_atom),
        alu_source(kind).map(lambda source: parse_and_analyze(source, name=f"drawn_{kind}")),
    )


class PipelineCase(NamedTuple):
    """One pipeline run: the hardware, its machine code, state and trace.

    ``plain`` holds the trace as int lists for the reference run; ``inputs``
    holds the same values with rows as lists or tuples, sometimes a bool.
    """

    spec: PipelineSpec
    machine_code: MachineCode
    initial_state: list
    plain: list
    inputs: list


@st.composite
def pipeline_cases(draw):
    spec = PipelineSpec(
        depth=draw(st.integers(min_value=1, max_value=4), label="depth"),
        width=draw(st.integers(min_value=1, max_value=4), label="width"),
        stateful_alu=draw(alu_specs(naming.STATEFUL), label="stateful"),
        stateless_alu=draw(alu_specs(naming.STATELESS), label="stateless"),
        name="property_pipeline",
    )
    domains = spec.hole_domains()
    pairs = {}
    for name in spec.expected_machine_code_names():
        domain = domains[name]
        upper = (domain - 1) if domain else 63
        pairs[name] = draw(st.integers(min_value=0, max_value=upper), label=name)
    machine_code = MachineCode(pairs)
    assert spec.validate_machine_code(machine_code) == []
    initial_state = [
        [[draw(values_strategy, label="state") for _ in range(spec.num_state_vars)]
         for _ in range(spec.width)]
        for _ in range(spec.depth)
    ]
    count = draw(st.integers(min_value=0, max_value=8), label="phvs")
    rows = [draw(shaped_row(spec.width), label="row") for _ in range(count)]
    return PipelineCase(
        spec, machine_code, initial_state, [plain for plain, _ in rows], [row for _, row in rows]
    )


def _increment_twice_case():
    """Depth 1, width 2: container 0 gets ``x = pkt_0 + pkt_1; x = x + 1; x = x + 1``."""
    stateless = parse_and_analyze(
        "type: stateless\nstate variables : {}\nhole variables : {}\n"
        "packet fields : {pkt_0, pkt_1}\n"
        "x = pkt_0 + pkt_1; x = x + 1; x = x + 1; return x;\n",
        name="increment_twice",
    )
    spec = PipelineSpec(
        depth=1, width=2, stateful_alu=atoms.get_atom("raw"), stateless_alu=stateless,
        name="property_pipeline",
    )
    machine_code = spec.passthrough_machine_code().with_pairs(
        {
            naming.input_mux_name(0, naming.STATELESS, 0, 1): 1,
            naming.output_mux_name(0, 0): spec.output_mux_value_for(naming.STATELESS, 0),
        }
    )
    rows = [[3, 4], [0, 0]]
    return PipelineCase(spec, machine_code, [[[0], [0]]], rows, [tuple(row) for row in rows])


class TestOptimisationLevelsAgree:
    @settings(max_examples=PIPELINE_EXAMPLES, deadline=None)
    @given(case=pipeline_cases())
    @example(case=_increment_twice_case())
    def test_pipeline_traces_identical_across_levels(self, case):
        """Random pipeline, ALUs, machine code, state and traffic: every level agrees.

        Each ALU is a catalogue atom or one drawn as DSL source.  The
        reference is the paper's per-tick model on the unoptimised
        description, fed plain int lists; the generic driver at every level
        and the fused loop at level 3 must reproduce its outputs, final state,
        input trace and tick count.  They are fed the same values with each
        row drawn as a list or a tuple, sometimes holding a ``bool``, so both
        of ``prepare_inputs``' coercion paths face the reference.
        """
        descriptions = {
            level: dgen.generate(case.spec, case.machine_code, opt_level=level)
            for level in dgen.OPT_LEVELS
        }
        baseline = RMTSimulator(
            descriptions[dgen.OPT_UNOPTIMIZED], initial_state=case.initial_state, engine="tick"
        ).run(case.plain)
        runs = [(level, "generic") for level in dgen.OPT_LEVELS] + [(dgen.OPT_FUSED, "fused")]
        for level, engine in runs:
            result = RMTSimulator(
                descriptions[level], initial_state=case.initial_state, engine=engine
            ).run(case.inputs)
            assert result.engine == engine
            assert result.outputs == baseline.outputs, (level, engine)
            assert result.final_state == baseline.final_state, (level, engine)
            assert result.input_trace == baseline.input_trace, (level, engine)
            assert result.ticks == baseline.ticks, (level, engine)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=0, max_value=30),
    )
    def test_traffic_generator_reproducible(self, seed, count):
        from repro.dsim import TrafficGenerator

        first = TrafficGenerator(num_containers=3, seed=seed).generate(count)
        second = TrafficGenerator(num_containers=3, seed=seed).generate(count)
        assert first == second
        assert len(first) == count


@functools.lru_cache(maxsize=1)
def _telemetry_bundle():
    from repro.drmt import DrmtHardwareParams, generate_bundle
    from repro.p4 import samples

    return generate_bundle(samples.telemetry_pipeline(), DrmtHardwareParams(num_processors=3))


class TestExactLookupSpecialisation:
    """The dict-specialised exact lookup vs the linear-scan oracle.

    The fused dRMT generator replaces :meth:`MatchActionTable.lookup` (a
    linear scan) with one dict probe over :meth:`exact_index` for all-exact
    tables; these properties pin the two to identical winners — including
    duplicate keys decided by priority, first-added tie-breaks, misses, and
    (end to end) default-action fallthroughs with identical hit statistics.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exact_index_agrees_with_linear_scan(self, data):
        from repro.drmt.tables import MatchActionTable, MatchPattern, TableEntry
        from repro.p4.program import Action, P4Program, Table, TableRead

        num_fields = data.draw(st.integers(min_value=1, max_value=3), label="fields")
        field_names = [f"pkt.f{index}" for index in range(num_fields)]
        definition = Table(
            name="t",
            reads=[TableRead(field=name, match_kind="exact") for name in field_names],
            actions=["act"],
            size=256,
        )
        program = P4Program("t", actions={"act": Action("act", ["v"], [])})
        table = MatchActionTable(definition, program)
        # Values from a tiny domain so duplicate keys (priority contests) and
        # both hits and misses happen often.
        value_strategy = st.integers(min_value=0, max_value=3)
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(*[value_strategy] * num_fields),
                    st.integers(min_value=0, max_value=3),  # priority
                ),
                max_size=24,
            ),
            label="entries",
        )
        # Each entry's one argument is its position, so a resolved action
        # names the entry it came from.
        for position, (values, priority) in enumerate(entries):
            table.add_entry(
                TableEntry(
                    patterns={
                        name: MatchPattern(kind="exact", value=value, width=16)
                        for name, value in zip(field_names, values)
                    },
                    action="act",
                    action_args=[position],
                    priority=priority,
                )
            )
        index = table.exact_index()
        packets = data.draw(
            st.lists(st.tuples(*[value_strategy] * num_fields), max_size=12),
            label="packets",
        )
        for values in packets:
            fields = dict(zip(field_names, values))
            scanned = table.lookup(fields)
            probed = index.get(tuple(values))
            expected = None if scanned is None else table.resolved_action(scanned)
            assert probed == expected, (values, entries)

    def test_exact_index_rejects_mixed_match_kinds(self):
        from repro.drmt.tables import MatchActionTable
        from repro.errors import TableConfigError
        from repro.p4.program import Table, TableRead

        definition = Table(
            name="t",
            reads=[
                TableRead(field="pkt.a", match_kind="exact"),
                TableRead(field="pkt.b", match_kind="ternary"),
            ],
            actions=["act"],
        )
        table = MatchActionTable(definition, program=None)
        assert not table.is_exact
        with pytest.raises(TableConfigError, match="all-exact"):
            table.exact_index()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_fused_dict_lookup_end_to_end_vs_tick_scan(self, data):
        """Random table contents: fused (dict probe) == tick (linear scan).

        Covers hits (installed flows), misses and the default-action path
        (bucketize misses fall through to ``pick_bucket()`` with zero args),
        including the per-table hit/miss statistics the specialised code
        accumulates locally and folds back on exit.
        """
        from repro.drmt import DRMTSimulator
        from repro.drmt.tables import MatchPattern, TableEntry
        from repro.traffic import PacketGenerator
        from repro.traffic import choice_field

        bundle = _telemetry_bundle()
        installed_flows = data.draw(
            st.lists(st.integers(min_value=0, max_value=7), max_size=6, unique=True),
            label="installed",
        )
        entries = [
            (
                "bucketize",
                TableEntry(
                    patterns={"pkt.flow_id": MatchPattern(kind="exact", value=flow, width=16)},
                    action="pick_bucket",
                    action_args=[data.draw(st.integers(min_value=0, max_value=15), label="bucket")],
                ),
            )
            for flow in installed_flows
        ]
        installed_buckets = data.draw(
            st.lists(st.integers(min_value=0, max_value=15), max_size=8, unique=True),
            label="buckets",
        )
        entries.extend(
            (
                "accounting",
                TableEntry(
                    patterns={"meta.bucket": MatchPattern(kind="exact", value=bucket, width=16)},
                    action="accumulate",
                ),
            )
            for bucket in installed_buckets
        )
        count = data.draw(st.integers(min_value=0, max_value=60), label="count")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        packets = PacketGenerator(
            bundle.program,
            seed=seed,
            field_overrides={"pkt.flow_id": choice_field(range(10))},
        ).generate(count)

        tick = DRMTSimulator(bundle, table_entries=list(entries), engine="tick").run_packets(packets)
        fused = DRMTSimulator(bundle, table_entries=list(entries), engine="fused").run_packets(packets)
        assert [record.outputs for record in fused.records] == [
            record.outputs for record in tick.records
        ]
        assert fused.table_hits == tick.table_hits
        assert fused.register_dump == tick.register_dump
