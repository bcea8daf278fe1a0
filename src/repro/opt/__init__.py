"""IR-level optimization ahead of code selection.

The BURS selector labels every subject-tree node, so the cheapest node is
the one the frontend never hands it.  This package is the pre-selection
optimizer that exploits that: a value-numbered expression DAG identifies
identical subtrees across all statements of a program
(:mod:`repro.opt.dag`), constant folding and algebraic rewriting shrink
trees (:mod:`repro.opt.fold`), cross-statement CSE materializes
repeated computations into compiler temporaries and dead-temporary
elimination cleans up after it (:mod:`repro.opt.cse`), all composed by the
:class:`OptPipeline` (:mod:`repro.opt.pipeline`) with per-rewrite
statistics.

The toolchain runs it by default as the ``opt`` pass ahead of ``select``
(:class:`repro.toolchain.passes.OptimizationPass`); disable it with
``PipelineConfig(use_optimizer=False)``, the ``no-opt`` preset, or
``repro compile --no-opt``.  ``repro opt <source>`` shows the rewrite
standalone.  All rewrites are exact under the word-wrapped reference
semantics of :func:`repro.ir.evaluate_expr`.
"""

from repro.opt.cse import (
    MIN_OCCURRENCES,
    MIN_OPS,
    OPT_TEMP_PREFIXES,
    TEMP_PREFIX,
    eliminate_common_subexpressions,
    eliminate_dead_temporaries,
    is_temp,
)
from repro.opt.dag import (
    DAGNode,
    ExprDAG,
    GlobalProgramDAG,
    ProgramDAG,
    build_block_dag,
)
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
from repro.opt.licm import LICM_TEMP_PREFIX, hoist_loop_invariants
from repro.opt.loops import (
    SR_TEMP_PREFIX,
    CountedLoop,
    annotate_hardware_loops,
    find_counted_loops,
    rotate_counted_loops,
    strength_reduce,
)
from repro.opt.pipeline import (
    OptimizationError,
    OptPipeline,
    OptStats,
    optimize_program,
)

__all__ = [
    "CountedLoop",
    "DAGNode",
    "ExprDAG",
    "FOLD_RULES",
    "GlobalProgramDAG",
    "LICM_TEMP_PREFIX",
    "MIN_OCCURRENCES",
    "MIN_OPS",
    "OPT_TEMP_PREFIXES",
    "OptPipeline",
    "OptStats",
    "OptimizationError",
    "ProgramDAG",
    "SR_TEMP_PREFIX",
    "TEMP_PREFIX",
    "annotate_hardware_loops",
    "build_block_dag",
    "contains_port_read",
    "eliminate_common_subexpressions",
    "eliminate_dead_temporaries",
    "find_counted_loops",
    "fold_expr",
    "fold_statement",
    "global_value_numbering",
    "hoist_loop_invariants",
    "is_temp",
    "optimize_program",
    "rotate_counted_loops",
    "strength_reduce",
    "would_fold",
    "would_fold_statement",
]
