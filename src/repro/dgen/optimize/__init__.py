"""dgen optimisation passes (paper §3.4).

* :mod:`folding` — constant folding over ALU DSL expressions.
* :mod:`dce` — dead-branch and dead-assignment elimination.
* :mod:`constant_propagation` — sparse conditional constant propagation
  (substitute machine-code values, fold, prune) at both the helper-function
  and the fully-inlined granularity.
* :mod:`inlining` — function inlining of specialised helper bodies.
* :mod:`peephole` — constant propagation, folding and dead-store
  elimination over assembled (IR-level) fused loop bodies.

The first four passes run over the ALU DSL before lowering to the IR.  At
opt level 3 the pipeline builder lowers the already-specialised ALU bodies
a second time, straight into a generated ``run_trace`` loop (see
:meth:`repro.dgen.codegen.ALUCode.inline`), then runs the peephole pass
over the assembled loop body: it is the one pass that folds the constant
residue inlining leaves behind and drops dead stores.  The dRMT fused
program generator emits its loop directly and does not use it.
"""

from .constant_propagation import (
    specialize_expr,
    specialize_primitive_template,
    specialize_spec,
    specialize_stmts,
)
from .dce import eliminate_dead_branches, remove_dead_local_assignments
from .folding import constant_value, fold_expr, is_constant
from .inlining import inline_call, max_placeholder_index, placeholder_count
from .peephole import fold_source, peephole_block

__all__ = [
    "fold_source",
    "peephole_block",
    "fold_expr",
    "is_constant",
    "constant_value",
    "eliminate_dead_branches",
    "remove_dead_local_assignments",
    "specialize_expr",
    "specialize_stmts",
    "specialize_spec",
    "specialize_primitive_template",
    "inline_call",
    "placeholder_count",
    "max_placeholder_index",
]
