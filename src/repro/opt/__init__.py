"""IR-level optimization ahead of code selection.

The BURS selector labels every subject-tree node, so the cheapest node is
the one the frontend never hands it.  This package is the pre-selection
optimizer that exploits that: constant folding and algebraic rewriting
shrink trees (:mod:`repro.opt.fold`), counted loops are rotated and
strength-reduced (:mod:`repro.opt.loops`), loop invariants move into
preheaders (:mod:`repro.opt.licm`), a value-numbered expression DAG
(:mod:`repro.opt.dag`) finds repeated computations across the CFG and
materializes them into compiler temporaries (:mod:`repro.opt.gvn`), and
dead-temporary elimination cleans up after them (:mod:`repro.opt.cse`),
all composed by the :class:`OptPipeline` (:mod:`repro.opt.pipeline`) with
per-rewrite statistics.  How a stage names a temporary and puts it in
place is :mod:`repro.ir.temps`.

The toolchain runs it by default as the ``opt`` pass ahead of ``select``
(:class:`repro.toolchain.passes.OptimizationPass`); disable it with
``PipelineConfig(use_optimizer=False)``, the ``no-opt`` preset, or
``repro compile --no-opt``.  ``repro opt <source>`` shows the rewrite
standalone.  All rewrites are exact under the word-wrapped reference
semantics of :func:`repro.ir.evaluate_expr`.
"""

from repro.ir.temps import (
    LICM_TEMP_PREFIX,
    OPT_TEMP_PREFIXES,
    SR_TEMP_PREFIX,
    TEMP_PREFIX,
)
from repro.opt.cse import MIN_OCCURRENCES, MIN_OPS, eliminate_dead_temporaries
from repro.opt.dag import DAGNode, ExprDAG, ProgramDAG
from repro.opt.fold import (
    FOLD_RULES,
    contains_port_read,
    fold_expr,
    fold_statement,
    structurally_equal,
    would_fold,
    would_fold_statement,
)
from repro.opt.gvn import global_value_numbering
from repro.opt.licm import hoist_loop_invariants
from repro.opt.loops import (
    CountedLoop,
    annotate_hardware_loops,
    find_counted_loops,
    rotate_counted_loops,
    strength_reduce,
)
from repro.opt.pipeline import (
    OptimizationError,
    OptPipeline,
    OptRun,
    OptStats,
    optimize_program,
)

__all__ = [
    "CountedLoop",
    "DAGNode",
    "ExprDAG",
    "FOLD_RULES",
    "LICM_TEMP_PREFIX",
    "MIN_OCCURRENCES",
    "MIN_OPS",
    "OPT_TEMP_PREFIXES",
    "OptPipeline",
    "OptRun",
    "OptStats",
    "OptimizationError",
    "ProgramDAG",
    "SR_TEMP_PREFIX",
    "TEMP_PREFIX",
    "annotate_hardware_loops",
    "contains_port_read",
    "eliminate_dead_temporaries",
    "find_counted_loops",
    "fold_expr",
    "fold_statement",
    "global_value_numbering",
    "hoist_loop_invariants",
    "optimize_program",
    "rotate_counted_loops",
    "strength_reduce",
    "would_fold",
    "would_fold_statement",
]
