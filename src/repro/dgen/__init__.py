"""dgen: the Druzhba pipeline code generator (paper §3.2 and §3.4).

dgen converts a hardware specification (pipeline depth/width plus ALU DSL
files) and a machine-code program into an executable *pipeline description*.
Levels 0-2 match Figure 6 of the paper; level 3 extends the paper's
specialization ladder by fusing the simulation driver itself into the
generated code:

====  ===============================  ==========================================
level  name                             behaviour
====  ===============================  ==========================================
0      unoptimized                      machine code looked up at simulation time
1      scc_propagation                  constants propagated, branches pruned
2      scc_propagation_and_inlining     helper functions inlined away
3      fused_pipeline                   level 2 plus a generated ``run_trace``
                                        loop the simulator uses as a fast path
====  ===============================  ==========================================

Typical use::

    from repro import atoms, dgen
    from repro.hardware import PipelineSpec

    spec = PipelineSpec(depth=2, width=2,
                        stateful_alu=atoms.get_atom("if_else_raw"),
                        stateless_alu=atoms.get_atom("stateless_arith"))
    description = dgen.generate(spec, machine_code, opt_level=2)
"""

from typing import Optional

from ..hardware import PipelineSpec
from ..machine_code.pairs import MachineCode
from .codegen import (
    ALUCode,
    ALUFunctionGenerator,
    OPT_FUSED,
    OPT_LEVEL_NAMES,
    OPT_LEVELS,
    OPT_SCC,
    OPT_SCC_INLINE,
    OPT_UNOPTIMIZED,
)
from .emit import PipelineDescription, compile_description
from .pipeline_builder import PipelineGenerator


def generate_module(
    spec: PipelineSpec,
    machine_code: Optional[MachineCode] = None,
    opt_level: int = OPT_UNOPTIMIZED,
    validate_machine_code: bool = True,
):
    """Generate the pipeline-description IR module without compiling it."""
    generator = PipelineGenerator(
        spec=spec,
        machine_code=machine_code,
        opt_level=opt_level,
        validate_machine_code=validate_machine_code,
    )
    return generator.generate()


def generate(
    spec: PipelineSpec,
    machine_code: Optional[MachineCode] = None,
    opt_level: int = OPT_UNOPTIMIZED,
    validate_machine_code: bool = True,
) -> PipelineDescription:
    """Generate, render, compile and wrap a pipeline description.

    ``machine_code`` may be omitted only at the unoptimised level, in which
    case the returned description expects the machine-code ``values`` dict at
    simulation time (the paper's original, pre-optimisation design, §3.4).
    """
    module = generate_module(
        spec,
        machine_code=machine_code,
        opt_level=opt_level,
        validate_machine_code=validate_machine_code,
    )
    return compile_description(
        spec=spec,
        module=module,
        opt_level=opt_level,
        machine_code=machine_code,
    )


__all__ = [
    "generate",
    "generate_module",
    "compile_description",
    "PipelineGenerator",
    "PipelineDescription",
    "ALUCode",
    "ALUFunctionGenerator",
    "OPT_UNOPTIMIZED",
    "OPT_SCC",
    "OPT_SCC_INLINE",
    "OPT_FUSED",
    "OPT_LEVELS",
    "OPT_LEVEL_NAMES",
]
