"""Chipmunk-style compiler facade.

Ties the pieces together into the shape the paper's case study uses: take a
Domino program, build a sketch over a pipeline configuration, synthesise
machine code, and (optionally) validate the result with the fuzzing workflow
before handing it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Union

from ..alu_dsl.ast_nodes import If, Number, walk_stmts
from ..domino import DominoProgram, DominoSpecification, PacketLayout, parse_and_analyze
from ..domino.ast_nodes import DAssign, walk_dexpr
from ..errors import SynthesisError
from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from ..testing.fuzzer import FuzzConfig, FuzzTester
from ..testing.report import FuzzOutcome
from ..testing.spec import Specification
from .sketch import DEFAULT_CONSTANT_POOL, Sketch
from .synthesis import SynthesisConfig, SynthesisEngine, SynthesisResult


def program_constant_pool(program: DominoProgram, extra: Sequence[int] = (0, 1)) -> List[int]:
    """Collect the integer literals of a Domino program (plus ``extra``).

    These are the natural candidates for the machine code's immediate holes:
    a correct compilation almost always reuses the program's own constants
    (possibly shifted by one for comparisons).
    """
    constants: Set[int] = {int(v) for v in extra}
    for stmt in walk_stmts(program.body):
        exprs = []
        if isinstance(stmt, DAssign):
            exprs.append(stmt.value)
        elif isinstance(stmt, If):
            exprs.extend(cond for cond, _ in stmt.branches)
        for expr in exprs:
            for node in walk_dexpr(expr):
                if isinstance(node, Number):
                    constants.add(node.value)
                    constants.add(node.value + 1)
                    if node.value > 0:
                        constants.add(node.value - 1)
    for decl in program.state_decls:
        constants.add(decl.initial)
    return sorted(value for value in constants if value >= 0)


@dataclass
class CompileResult:
    """What the compiler hands back for one program."""

    machine_code: Optional[MachineCode]
    synthesis: SynthesisResult
    pipeline_spec: PipelineSpec
    fuzz_outcome: Optional[FuzzOutcome] = None

    @property
    def success(self) -> bool:
        """True when synthesis succeeded (and post-compile fuzzing, if requested, passed)."""
        if not self.synthesis.success or self.machine_code is None:
            return False
        if self.fuzz_outcome is not None:
            return self.fuzz_outcome.passed
        return True


class ChipmunkCompiler:
    """Program-synthesis-based compiler targeting the Druzhba instruction set."""

    def __init__(
        self,
        pipeline_spec: PipelineSpec,
        synthesis_config: Optional[SynthesisConfig] = None,
    ):
        self.pipeline_spec = pipeline_spec
        self.synthesis_config = synthesis_config or SynthesisConfig()

    # ------------------------------------------------------------------
    # Compilation entry points
    # ------------------------------------------------------------------
    def compile_specification(
        self,
        specification: Specification,
        constant_pool: Sequence[int] = DEFAULT_CONSTANT_POOL,
        freeze: Optional[Mapping[str, int]] = None,
        search_names: Optional[Iterable[str]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        validate: bool = False,
    ) -> CompileResult:
        """Synthesise machine code that makes the pipeline match ``specification``.

        ``freeze`` and ``search_names`` let a front end pin routing decisions
        it has already made (keeping the synthesis search space small), and
        ``validate`` re-runs the full fuzzing workflow on the synthesised
        machine code at the optimised dgen level — the paper's end-to-end
        compiler-testing loop.
        """
        sketch = Sketch.from_pipeline(
            self.pipeline_spec,
            constant_pool=constant_pool,
            freeze=freeze,
            search_names=search_names,
        )
        engine = SynthesisEngine(
            pipeline_spec=self.pipeline_spec,
            specification=specification,
            sketch=sketch,
            config=self.synthesis_config,
            initial_state=initial_state,
        )
        synthesis = engine.synthesize()
        result = CompileResult(
            machine_code=synthesis.machine_code,
            synthesis=synthesis,
            pipeline_spec=self.pipeline_spec,
        )
        if validate and synthesis.machine_code is not None:
            tester = FuzzTester(
                self.pipeline_spec,
                specification,
                config=FuzzConfig(num_phvs=500, seed=self.synthesis_config.seed + 1000),
                initial_state=initial_state,
            )
            result.fuzz_outcome = tester.test(synthesis.machine_code)
        return result

    def compile_domino(
        self,
        program: Union[str, DominoProgram],
        layout: PacketLayout,
        constant_pool: Optional[Sequence[int]] = None,
        freeze: Optional[Mapping[str, int]] = None,
        search_names: Optional[Iterable[str]] = None,
        initial_state: Optional[List[List[List[int]]]] = None,
        validate: bool = False,
    ) -> CompileResult:
        """Compile a Domino program (source text or parsed) to machine code."""
        if isinstance(program, str):
            program = parse_and_analyze(program)
        specification = DominoSpecification(program, layout)
        if constant_pool is None:
            constant_pool = program_constant_pool(program)
        if layout.num_containers != self.pipeline_spec.width:
            raise SynthesisError(
                f"packet layout covers {layout.num_containers} containers but the pipeline "
                f"width is {self.pipeline_spec.width}"
            )
        return self.compile_specification(
            specification,
            constant_pool=constant_pool,
            freeze=freeze,
            search_names=search_names,
            initial_state=initial_state,
            validate=validate,
        )
