"""repro -- a reproduction of "Retargetable Generation of Code Selectors
from HDL Processor Models" (Leupers & Marwedel, DATE 1997).

The package implements the complete RECORD retargeting flow in pure
Python, wrapped in a session/pipeline API (:mod:`repro.toolchain`):

* :class:`Toolchain` / :class:`Session` -- the canonical entry point.
  ``Toolchain.for_target(name)`` resolves the target in the
  :class:`TargetRegistry`, retargets through the content-hash
  :class:`RetargetCache`, and returns a session that amortizes selector
  construction across ``compile`` / ``compile_many`` calls;
* :class:`PipelineConfig` / :class:`repro.toolchain.PassManager` -- the
  backend phases (selection, scheduling, spill insertion, compaction,
  encoding) as named passes, with the paper's ablations as presets
  (``PipelineConfig.preset("no-chained")``, ``"conventional"``, ...);
* the :class:`ReproError` hierarchy -- structured, source-located errors
  raised by the HDL frontend, the source frontend and the backend.

Typical usage::

    from repro import PipelineConfig, Toolchain

    session = Toolchain.for_target("tms320c25")
    compiled = session.compile("int a, b, c, d; d = c + a * b;")
    print(compiled.code_size)
    print(compiled.listing())

    batch = session.compile_many([src1, src2, src3])
    baseline = session.reconfigured(PipelineConfig.preset("conventional"))
    print(baseline.compile(src1).code_size)  # the figure-2 baseline

Underneath the facade sit the phase implementations, usable directly for
experiments:

* :mod:`repro.hdl` / :mod:`repro.netlist` -- MIMOLA-inspired HDL frontend
  and the internal graph model;
* :mod:`repro.bdd` / :mod:`repro.ise` -- BDD engine and instruction-set
  extraction (data-route enumeration + control-signal analysis);
* :mod:`repro.expansion` / :mod:`repro.grammar` / :mod:`repro.selector` --
  template-base extension, tree-grammar construction and BURS tree parsing
  (the iburg-equivalent code selector);
* :mod:`repro.frontend` / :mod:`repro.ir` / :mod:`repro.codegen` -- source
  language, IR and the code-generation backend;
* :mod:`repro.opt` -- the pre-selection IR optimizer (expression DAGs,
  constant folding, cross-statement CSE, dead-temporary elimination), run
  by default as the ``opt`` pass ahead of selection;
* :mod:`repro.record` -- the retargeting driver ``retarget()`` (the
  phase timings of table 3) and its reports;
* :mod:`repro.targets`, :mod:`repro.dspstone`, :mod:`repro.baselines`,
  :mod:`repro.sim` -- the six built-in processor models, the DSPStone
  kernels, the experiment baselines and the RT-level simulator.
"""

from repro.diagnostics import (
    Diagnostic,
    InternalCompilerError,
    KernelError,
    ReproError,
    ResourceLimitError,
    SourceLocation,
    TargetError,
)
from repro.record.retarget import RetargetResult, retarget
from repro.dspstone.kernels import all_kernel_names, get_kernel, kernel_program
from repro.toolchain import (
    CompilationResult,
    CompileMetrics,
    PipelineConfig,
    RetargetCache,
    Session,
    TargetRegistry,
    Toolchain,
    default_registry,
    register_target,
)
from repro.service import (
    CompileRequest,
    CompileResponse,
    CompileService,
    SessionPool,
)
from repro.opt import OptPipeline, OptStats, optimize_program

__version__ = "2.0.0"

__all__ = [
    "CompilationResult",
    "CompileMetrics",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "Diagnostic",
    "InternalCompilerError",
    "KernelError",
    "OptPipeline",
    "OptStats",
    "PipelineConfig",
    "ReproError",
    "ResourceLimitError",
    "RetargetCache",
    "RetargetResult",
    "Session",
    "SessionPool",
    "SourceLocation",
    "TargetError",
    "TargetRegistry",
    "Toolchain",
    "__version__",
    "all_kernel_names",
    "default_registry",
    "get_kernel",
    "kernel_program",
    "optimize_program",
    "register_target",
    "retarget",
]
