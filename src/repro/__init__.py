"""Druzhba reproduction: a programmable-switch hardware simulator for compiler testing.

This package is a from-scratch Python reproduction of *Testing Compilers for
Programmable Switches Through Switch Hardware Simulation* (Wong, Varma,
Sivaraman, 2020).  It provides:

* an **ALU DSL** describing switch ALU capabilities (:mod:`repro.alu_dsl`) and
  a catalogue of Banzai atoms written in it (:mod:`repro.atoms`);
* **machine code** — the instruction-set-level pipeline configuration
  (:mod:`repro.machine_code`);
* **dgen**, the pipeline code generator with sparse-conditional-constant
  propagation and function inlining (:mod:`repro.dgen`);
* **dsim**, the RMT pipeline simulator with PHV read/write halves and a
  random traffic generator (:mod:`repro.dsim`);
* the **compiler-testing workflow**: high-level specifications, trace
  equivalence and fuzzing (:mod:`repro.testing`);
* a **Domino-like frontend** (:mod:`repro.domino`) and a **Chipmunk-style
  synthesis compiler** plus a rule-based grid allocator (:mod:`repro.chipmunk`);
* the **dRMT** model: a P4-14-like program representation
  (:mod:`repro.p4`), the dRMT scheduler and the disaggregated simulator
  (:mod:`repro.drmt`);
* the 12 benchmark programs of the paper's Table 1 (:mod:`repro.programs`).

Quickstart::

    from repro import dgen
    from repro.programs import get_program
    from repro.dsim import RMTSimulator

    program = get_program("sampling")
    description = dgen.generate(program.pipeline_spec(), program.machine_code(), opt_level=2)
    simulator = RMTSimulator(description, initial_state=program.initial_pipeline_state())
    result = simulator.run_traffic(program.traffic_generator(seed=1), 1000)
"""

from . import (
    alu_dsl,
    atoms,
    chipmunk,
    debugger,
    dgen,
    domino,
    drmt,
    dsim,
    machine_code,
    p4,
    programs,
    testing,
    verification,
)
from .errors import DruzhbaError
from .hardware import PipelineSpec, describe_pipeline
from .machine_code import MachineCode

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DruzhbaError",
    "PipelineSpec",
    "MachineCode",
    "describe_pipeline",
    "alu_dsl",
    "atoms",
    "machine_code",
    "dgen",
    "dsim",
    "testing",
    "domino",
    "chipmunk",
    "p4",
    "drmt",
    "programs",
    "debugger",
    "verification",
]
