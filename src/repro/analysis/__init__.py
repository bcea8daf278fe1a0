"""Static analysis over IR programs and generated code.

The package has three layers:

* **CFG core** -- :class:`~repro.analysis.cfg.ControlFlowGraph`
  (deterministic reverse-postorder view of a
  :class:`~repro.ir.program.Program`), dominators
  (:mod:`repro.analysis.dominators`, Cooper--Harvey--Kennedy) and natural
  loops (:mod:`repro.analysis.loops`);
* **pipeline verifier** -- :mod:`repro.analysis.verify`: invariant checks
  over every intermediate form of the backend pipeline (IR well-formedness,
  definite assignment of optimizer temporaries, schedule/spill race
  detection, compaction dependence checks), wired into
  :class:`~repro.toolchain.passes.PassManager` behind the
  ``PipelineConfig.verify`` knob;
* **target lints** -- :mod:`repro.analysis.lints`: static diagnostics over
  a retargeted processor's tree grammar and matcher tables
  (``repro lint-target``).
"""

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import (
    dominance_relation,
    dominates,
    immediate_dominators,
)
from repro.analysis.lints import lint_grammar, lint_target
from repro.analysis.loops import (
    BlockStructure,
    LoopNestingForest,
    NaturalLoop,
    back_edges,
    loop_nesting_forest,
    naive_back_edges,
    render_forest,
)
from repro.analysis.verify import (
    Finding,
    PipelineVerifier,
    VerificationError,
    check_cfg,
    check_instance_stream,
    check_optimized_program,
    check_words,
    unassigned_reads,
)

__all__ = [
    "ControlFlowGraph",
    "immediate_dominators",
    "dominance_relation",
    "dominates",
    "NaturalLoop",
    "LoopNestingForest",
    "BlockStructure",
    "back_edges",
    "naive_back_edges",
    "loop_nesting_forest",
    "render_forest",
    "Finding",
    "VerificationError",
    "PipelineVerifier",
    "check_cfg",
    "check_optimized_program",
    "unassigned_reads",
    "check_instance_stream",
    "check_words",
    "lint_grammar",
    "lint_target",
]
