"""Static analysis over IR programs and generated code.

The package has three layers:

* **dataflow core** -- :class:`~repro.analysis.cfg.ControlFlowGraph`
  (deterministic reverse-postorder view of a
  :class:`~repro.ir.program.Program`), the generic worklist solver of
  :mod:`repro.analysis.dataflow`, and the classic analyses built on it:
  dominators (:mod:`repro.analysis.dominators`, Cooper--Harvey--Kennedy),
  liveness (:mod:`repro.analysis.liveness`) and reaching definitions with
  use--def chains (:mod:`repro.analysis.reaching`);
* **pipeline verifier** -- :mod:`repro.analysis.verify`: invariant checks
  over every intermediate form of the backend pipeline (IR well-formedness,
  schedule/spill race detection, compaction dependence checks), wired into
  :class:`~repro.toolchain.passes.PassManager` behind the
  ``PipelineConfig.verify`` knob;
* **target lints** -- :mod:`repro.analysis.lints`: static diagnostics over
  a retargeted processor's tree grammar and matcher tables
  (``repro lint-target``).
"""

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import DataflowProblem, DataflowResult, solve
from repro.analysis.dominators import (
    dominance_relation,
    dominates,
    dominator_tree,
    immediate_dominators,
)
from repro.analysis.lints import lint_grammar, lint_target
from repro.analysis.liveness import LivenessResult, liveness
from repro.analysis.loops import (
    BlockStructure,
    LoopNestingForest,
    NaturalLoop,
    back_edges,
    insert_preheaders,
    loop_nesting_forest,
    naive_back_edges,
    natural_loops,
    render_forest,
)
from repro.analysis.reaching import (
    Definition,
    ReachingResult,
    possibly_uninitialized_uses,
    reaching_definitions,
    use_def_chains,
)
from repro.analysis.verify import (
    Finding,
    PipelineVerifier,
    VerificationError,
    check_cfg,
    check_instance_stream,
    check_optimized_program,
    check_spill_metric,
    check_words,
    derive_dependence_edges,
)

__all__ = [
    "ControlFlowGraph",
    "DataflowProblem",
    "DataflowResult",
    "solve",
    "immediate_dominators",
    "dominator_tree",
    "dominance_relation",
    "dominates",
    "LivenessResult",
    "liveness",
    "NaturalLoop",
    "LoopNestingForest",
    "BlockStructure",
    "back_edges",
    "naive_back_edges",
    "natural_loops",
    "loop_nesting_forest",
    "insert_preheaders",
    "render_forest",
    "Definition",
    "ReachingResult",
    "reaching_definitions",
    "use_def_chains",
    "possibly_uninitialized_uses",
    "Finding",
    "VerificationError",
    "PipelineVerifier",
    "check_cfg",
    "check_optimized_program",
    "check_instance_stream",
    "check_words",
    "check_spill_metric",
    "derive_dependence_edges",
    "lint_grammar",
    "lint_target",
]
