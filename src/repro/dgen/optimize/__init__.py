"""dgen optimisation passes (paper §3.4).

* :mod:`folding` — constant folding over ALU DSL expressions.
* :mod:`dce` — dead-assignment elimination.
* :mod:`constant_propagation` — sparse conditional constant propagation
  (substitute machine-code values, fold, prune).  It also does the paper's
  function inlining: each hole-controlled primitive is replaced by the
  expression its machine-code value selects, with the primitive's operands
  spliced in, so no helper call is left to inline.

Every pass runs over the ALU DSL before lowering to the IR, which is never
rewritten.  At levels 2 and 3, :func:`specialize_stmts` also propagates the
ALU's literal-bound variables, drops self-assignments and collapses an
``if`` whose arms all equal its ``else``.  At opt level 3 the pipeline builder
lowers those specialised bodies a second time, straight into a generated
``run_trace`` loop (see :meth:`repro.dgen.codegen.ALUCode.inline`), with no
further pass over the assembled loop.
"""

from .constant_propagation import specialize_expr, specialize_spec, specialize_stmts
from .dce import remove_dead_local_assignments
from .folding import fold_expr

__all__ = [
    "fold_expr",
    "remove_dead_local_assignments",
    "specialize_expr",
    "specialize_stmts",
    "specialize_spec",
]
