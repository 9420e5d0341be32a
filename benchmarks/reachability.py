"""List the ``src/`` functions that no user path calls.

Usage, from the repository root::

    python benchmarks/reachability.py

The script runs what a user of this repository runs, under
``sys.setprofile`` and ``threading.setprofile``:

* every ``examples/*.py`` script;
* the four command-line mains (``dgen_main``, ``dsim_main``, ``fuzz_main``,
  ``drmt_main``), including ``--grammar``, ``--machine-code``/``--output``
  through temporary files, ``--milp``, ``--dump-fused`` and a P4 program
  whose schedule has a register hazard;
* one round of every perfbench workload at a small scale;
* ``benchmarks/bench_smoke.py`` on a short sweep.

It also runs the CLI on three user mistakes (an ALU DSL syntax error, a
machine-code file missing a pair, a P4 program whose schedule has a
register hazard), because the error paths are user paths too.

Function definitions are found with ``ast``; a function counts as called
when a code object with its file and first line started running.  A
declaration, whose body is only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError`` (a protocol or an abstract method), has nothing to
run and is not checked.  Every other function that was never called must
be on ``ALLOWED`` with a kind and a one-line reason, or be deleted.  The
script prints each unlisted unreached function and each allow-list entry
that no longer matches one, and exits 1 if there is either.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Trace-length factor of the perfbench rounds, which only need to reach
#: each code path once.
PERFBENCH_SCALE = 0.05

#: Kinds of allow-list entry: a reference the tests compare against, code
#: that goes with the sharded path when it is retired, and a user path that
#: exists but that the runs below cannot see.
ORACLE = "oracle"
SHARDED = "sharded"
UNSEEN = "unseen user path"
KINDS = (ORACLE, SHARDED, UNSEEN)

#: Unreached functions that stay, by dotted name (``module.Class.method``;
#: a property setter is ``name.setter``).  An entry that names a module or a
#: class covers everything defined in it.
ALLOWED: Dict[str, Tuple[str, str]] = {
    "repro.alu_dsl.interpreter": (
        ORACLE, "the ALU DSL semantics that every generated ALU is checked against",
    ),
    "repro.alu_dsl.printer": (
        ORACLE, "prints catalogue atoms for the golden digests and the parser round trip",
    ),
    "repro.dsim.reference": (
        ORACLE, "the interpreted simulator that the generated pipelines are compared with",
    ),
    "repro.programs.variants.make_flow_counters_variant.spec": (
        SHARDED, "the specification of the sharded_flows program, read by the sharding tests",
    ),
    "repro.programs.variants.make_flow_counters_readers_variant": (
        SHARDED, "a reader program that only the sharded merge-rule tests build",
    ),
    "repro.programs.variants.make_flow_counters_cross_reader_variant": (
        SHARDED, "a reader program that only the sharded merge-rule tests build",
    ),
    "repro.engine.transport._pool_map": (
        SHARDED, "the worker pool; the short runs here stay under the pool threshold",
    ),
    "repro.engine.transport._execute_shard": (
        SHARDED, "runs in a pool child, where the profiler does not follow",
    ),
    "repro.engine.base.ShardStateConflictError.__init__": (
        SHARDED, "raised when shards write the same state; no user program does",
    ),
    "repro.engine.result.SimulationResult.input_trace": (
        UNSEEN, "the README documents it as every RMT result's input column",
    ),
    "repro.dsim.trace.Trace.inputs": (
        UNSEEN, "the input column; SimulationResult.input_trace and Trace.__eq__ read it",
    ),
    "repro.dsim.trace.Trace.__eq__": (
        UNSEEN, "== on traces; no bundled script compares two",
    ),
    "repro.machine_code.pairs.MachineCode.__eq__": (
        UNSEEN, "== on machine code; no bundled script compares two",
    ),
    "repro.machine_code.pairs.MachineCode.__hash__": (
        UNSEEN, "hash() on machine code; no bundled script hashes one",
    ),
    "repro.machine_code.pairs.MachineCode.__repr__": (
        UNSEEN, "repr() on machine code, at a REPL or in a failure message",
    ),
    "repro.testing.fuzzer.FuzzTester._error_outcome": (
        UNSEEN, "a verdict on machine code that makes dgen or a driver raise",
    ),
}


class Function(NamedTuple):
    """One ``def`` in the source tree."""

    name: str  # dotted: module, enclosing classes and functions, own name
    path: str
    first_line: int  # the code object's co_firstlineno (first decorator)
    lines: int


def defined_functions(src: Path = SRC) -> List[Function]:
    """Every function and method defined under ``src``, found with ``ast``."""
    functions: List[Function] = []
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, ".".join(parts), str(path), functions)
    return functions


def _collect(node: ast.AST, prefix: str, path: str, out: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            if any(isinstance(d, ast.Attribute) and d.attr == "setter" for d in child.decorator_list):
                name += ".setter"
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if not _is_declaration(child):
                out.append(Function(name, path, first, child.end_lineno - first + 1))
            _collect(child, name, path, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}.{child.name}", path, out)
        else:
            _collect(child, prefix, path, out)


def _is_declaration(function: ast.FunctionDef) -> bool:
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if not body:
        return True
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


class Recorder:
    """Records ``(co_filename, co_firstlineno)`` of every Python call while active."""

    def __init__(self) -> None:
        self.seen: Set[Tuple[str, int]] = set()

    def _profile(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            self.seen.add((code.co_filename, code.co_firstlineno))

    def __enter__(self) -> "Recorder":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


def _allow_entry(name: str, allowed: Dict[str, Tuple[str, str]]):
    """The allow-list key covering ``name`` (itself or an enclosing name), or ``None``."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        key = ".".join(parts[:end])
        if key in allowed:
            return key
    return None


class Report(NamedTuple):
    """Unreached functions: unlisted, grouped by allow-list entry, and stale entries."""

    unlisted: List[Function]
    allowed: Dict[str, List[Function]]
    stale: List[str]


def check(
    functions: Iterable[Function],
    seen: Set[Tuple[str, int]],
    allowed: Dict[str, Tuple[str, str]],
) -> Report:
    """Split the unreached functions into allow-listed and unlisted ones."""
    seen = {(os.path.abspath(path), line) for path, line in seen}
    unlisted: List[Function] = []
    covered: Dict[str, List[Function]] = {key: [] for key in allowed}
    for function in functions:
        if (os.path.abspath(function.path), function.first_line) in seen:
            continue
        key = _allow_entry(function.name, allowed)
        if key is None:
            unlisted.append(function)
        else:
            covered[key].append(function)
    stale = [key for key, hits in covered.items() if not hits]
    return Report(unlisted, {k: v for k, v in covered.items() if v}, stale)


# ----------------------------------------------------------------------
# User paths
# ----------------------------------------------------------------------
#: A P4 program whose two actions write one register at two cycles: its
#: bundle has no fused loop, so ``--engine auto`` runs it under tick.
HAZARD_P4 = """
header_type pkt_t { fields { f : 16; } }
header_type meta_t { fields { tmp : 32; } }
header pkt_t pkt;
metadata meta_t meta;
register shared { width : 32; instance_count : 4; }
action bump() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, 1);
    register_write(shared, 0, meta.tmp);
}
action scale() {
    register_read(meta.tmp, shared, 0);
    add_to_field(meta.tmp, pkt.f);
    register_write(shared, 0, meta.tmp);
}
table first { reads { pkt.f : exact; } actions { bump; } size : 4; default_action : bump; }
table second { reads { meta.tmp : exact; } actions { scale; } size : 4; default_action : scale; }
control ingress { apply(first); apply(second); }
"""

HAZARD_ENTRIES = """
add first pkt.f=1 => bump()
add second meta.tmp=0x02 => scale()
"""

#: A stateless ALU of the user's own, with both unary operators.
CUSTOM_ALU = """
type: stateless
state variables : {}
hole variables : {}
packet fields : {pkt_0, pkt_1}

return -(!(Mux2(pkt_0, pkt_1))) + !(C());
"""

#: The same ALU with a syntax error on its last line.
BROKEN_ALU = CUSTOM_ALU.replace("+ !(C())", "+")


def run_examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def run_clis(scratch: Path) -> None:
    from repro import cli
    from repro.atoms import get_atom
    from repro.hardware import PipelineSpec

    spec = PipelineSpec(
        depth=2, width=2, stateful_alu=get_atom("if_else_raw"),
        stateless_alu=get_atom("stateless_full"),
    )
    machine_code = scratch / "passthrough.txt"
    machine_code.write_text(
        "".join(f"{name} {value}\n" for name, value in spec.passthrough_machine_code().items())
    )
    partial = scratch / "partial.txt"
    partial.write_text("".join(machine_code.read_text().splitlines(keepends=True)[1:]))
    generated = scratch / "pipeline.py"
    custom_alu = scratch / "custom.alu"
    custom_alu.write_text(CUSTOM_ALU)
    broken_alu = scratch / "broken.alu"
    broken_alu.write_text(BROKEN_ALU)
    hazard = scratch / "hazard.p4"
    hazard.write_text(HAZARD_P4)
    hazard_entries = scratch / "hazard.entries"
    hazard_entries.write_text(HAZARD_ENTRIES)
    calls: List[Tuple[Callable, List[str]]] = [
        (cli.dgen_main, ["--grammar"]),
        (cli.dgen_main, ["--opt-level", "0"]),
        (cli.dgen_main, ["--opt-level", "3", "--machine-code", str(machine_code),
                         "--output", str(generated)]),
        (cli.dgen_main, ["--machine-code", str(partial)]),
        (cli.dgen_main, ["--stateless-alu", str(broken_alu)]),
        (cli.dsim_main, ["--opt-level", "3", "--phvs", "5", "--seed", "9"]),
        (cli.dsim_main, ["--stateless-alu", str(custom_alu), "--phvs", "5"]),
        (cli.dsim_main, ["--engine", "tick", "--phvs", "5", "--machine-code", str(machine_code)]),
        (cli.dsim_main, ["--engine", "sharded", "--shards", "2", "--workers", "1",
                         "--stateful-alu", "pred_raw", "--phvs", "40"]),
        (cli.fuzz_main, ["--program", "all", "--phvs", "60", "--opt-level", "3"]),
        (cli.fuzz_main, ["--program", "sampling", "--phvs", "60", "--drop-pairs", "1"]),
        (cli.drmt_main, ["--packets", "20"]),
        (cli.drmt_main, ["--packets", "20", "--engine", "tick", "--milp"]),
        (cli.drmt_main, ["--dump-fused"]),
        (cli.drmt_main, ["--p4", str(hazard), "--entries", str(hazard_entries),
                         "--packets", "10"]),
        (cli.drmt_main, ["--p4", str(hazard), "--dump-fused"]),
    ]
    for main, argv in calls:
        main(argv)


def run_perfbench() -> None:
    """One set-up and one round of every perfbench workload, checked."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name](PERFBENCH_SCALE)
        workload.import_modules()
        workload.compile()
        workload.prepare(1)
        for item in workload.round_items(0):
            if not workload.check(item, workload.call(item)):
                raise RuntimeError(f"perfbench workload {name} gave a wrong result")


def run_bench_smoke(scratch: Path) -> None:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_smoke
    finally:
        sys.path.pop(0)
    bench_smoke.main([
        "--phvs", "300", "--rounds", "1", "--drmt-packets", "200",
        "--sharded-phvs", "2000", "--sharded-workers", "2",
        "--output", str(scratch / "bench.json"),
    ])


def run_user_paths(recorder: Recorder) -> None:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp, recorder:
        scratch = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_examples()
            run_clis(scratch)
            run_perfbench()
            run_bench_smoke(scratch)


def main() -> int:
    os.environ.setdefault("DRUZHBA_CASE_STUDY_PHVS", "60")
    recorder = Recorder()
    run_user_paths(recorder)
    functions = defined_functions()
    report = check(functions, recorder.seen, ALLOWED)
    reached = len(functions) - len(report.unlisted) - sum(map(len, report.allowed.values()))
    print(f"{reached} of {len(functions)} src/ functions reached by a user path")
    for key, hits in report.allowed.items():
        kind, reason = ALLOWED[key]
        print(f"allowed   {key} [{kind}] {len(hits)} function(s): {reason}")
    for key in report.stale:
        print(f"stale     {key}: matches no unreached function; remove the entry")
    for function in report.unlisted:
        where = os.path.relpath(function.path, ROOT)
        print(f"unreached {function.name} ({where}:{function.first_line}, {function.lines} lines)")
    return 1 if report.unlisted or report.stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
