"""The toolchain API: sessions, pipelines, target registry, retarget cache.

This package is the canonical programmatic surface of the reproduction:

* :class:`Toolchain` / :class:`Session`
  (:mod:`repro.toolchain.session`) -- the facade.
  ``Toolchain.for_target("tms320c25")`` retargets (through the cache) and
  returns a session whose ``compile`` / ``compile_many`` amortize all
  target-side setup;
* :class:`TargetRegistry` (:mod:`repro.toolchain.registry`) -- uniform
  registration and lookup of processor models: built-ins, user HDL text,
  HDL files and entry points;
* :class:`PassManager` / :class:`Pass` / :class:`PipelineConfig`
  (:mod:`repro.toolchain.passes`) -- the backend phases as named,
  reorderable passes with the paper's ablations as presets;
* :class:`RetargetCache` (:mod:`repro.toolchain.cache`) -- content-hash
  caching of retargeting results (memory + disk);
* the :class:`repro.diagnostics.ReproError` hierarchy -- structured,
  located errors raised by every layer.
"""

from repro.diagnostics import (
    Diagnostic,
    PipelineError,
    ReproError,
    ResultError,
    SourceLocation,
    TargetError,
    error_report,
)
from repro.toolchain.cache import (
    RetargetCache,
    default_cache,
    default_cache_dir,
    retarget_fingerprint,
)
from repro.toolchain.passes import (
    PRESETS,
    CompactionPass,
    CompilationState,
    EncodingPass,
    OptimizationPass,
    Pass,
    PassContext,
    PassManager,
    PipelineConfig,
    SchedulingPass,
    SelectionPass,
    SpillPass,
)
from repro.toolchain.registry import (
    REGISTRY,
    TargetRegistry,
    TargetSpec,
    default_registry,
    register_target,
)
from repro.toolchain.results import (
    RESULT_SCHEMA_VERSION,
    CompilationResult,
    CompileMetrics,
    StatementArtifact,
)
from repro.toolchain.selectors import restricted_selector
from repro.toolchain.session import Session, Toolchain

__all__ = [
    "CompactionPass",
    "CompilationResult",
    "CompilationState",
    "CompileMetrics",
    "Diagnostic",
    "EncodingPass",
    "OptimizationPass",
    "PRESETS",
    "Pass",
    "PassContext",
    "PassManager",
    "PipelineConfig",
    "REGISTRY",
    "RESULT_SCHEMA_VERSION",
    "ReproError",
    "ResultError",
    "RetargetCache",
    "PipelineError",
    "SchedulingPass",
    "SelectionPass",
    "Session",
    "SourceLocation",
    "SpillPass",
    "StatementArtifact",
    "TargetError",
    "TargetRegistry",
    "TargetSpec",
    "Toolchain",
    "default_cache",
    "default_cache_dir",
    "default_registry",
    "error_report",
    "register_target",
    "restricted_selector",
    "retarget_fingerprint",
]
