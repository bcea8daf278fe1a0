"""Structured compilation artifacts: the result side of the toolchain API.

A :class:`CompilationResult` is the immutable record of one pipeline run.
It carries three layers of information:

* **metrics** -- a :class:`CompileMetrics` block with the quantities the
  paper's experiments report (code size, RT operations, spills, selection
  cost) plus per-pass wall-clock timings recorded by
  :class:`~repro.toolchain.passes.PassManager`;
* **views** -- named, human-readable renderings: the instruction
  ``listing``, the binary ``encoding`` (when the encode pass ran) and an
  RT-level ``simulation_trace`` computed through
  :class:`~repro.sim.rtsim.RTSimulator` on the processor's storages;
* **artifacts** -- the live IR/backend objects (program, block codes,
  instruction words, resource binding, the processor's memory names) for
  callers that keep processing.

Results serialize losslessly to plain dicts/JSON (:meth:`to_dict` /
:meth:`to_json`) and back (:meth:`from_dict` / :meth:`from_json`).  A
deserialized result is *detached*: every metric, timing, diagnostic and
view survives the round trip, but the live artifacts do not (they are
process-local objects); accessing them raises
:class:`~repro.diagnostics.ResultError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.codegen.compaction import InstructionWord, code_size
from repro.codegen.emitter import format_listing
from repro.codegen.selection import BlockCode, RTInstance, StatementCode
from repro.codegen.spill import count_spills
from repro.diagnostics import Diagnostic, ResultError
from repro.ir.binding import ResourceBinding
from repro.ir.program import Program
from repro.opt.pipeline import OptStats
from repro.records import Record
from repro.toolchain.passes import CompilationState, PipelineConfig

#: Bump when the dict layout of :meth:`CompilationResult.to_dict` changes.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CompileMetrics(Record):
    """The scalar quantities of one compilation (figure-2 metrics plus
    bookkeeping the service layer reports per request).

    The labeller block (``nodes_labelled``, ``label_memo_hit_rate``,
    ``tables_build_time_s``) describes the BURS automaton: how many
    subject nodes this compile labelled (one transition lookup each),
    which fraction of those lookups hit the transition memo, and how long
    the offline table generation this selector runs on took at retarget
    time.

    The optimizer block (``opt_nodes_before``, ``opt_nodes_after``,
    ``opt_folds``, ``opt_cse_hits``, ``opt_temps``) summarizes the IR
    optimization pass that ran ahead of selection: IR node counts in/out,
    rewrites applied (constant folds plus algebraic simplifications), CSE
    occurrences served from a temporary, and temporaries materialized.
    The global-optimizer block (``opt_gvn_hits``, ``opt_licm_hoisted``,
    ``opt_strength_reductions``, ``opt_hw_loops``) counts cross-block
    value-numbering hits, loop-invariant statements/temporaries hoisted
    into preheaders, strength-reduced multiplication occurrences, and
    counted loops annotated for hardware-loop codegen.  All zeros when
    the pipeline was configured with ``use_optimizer=False``.
    """

    code_size: int
    operation_count: int
    spill_count: int
    selection_cost: int
    statement_count: int
    compile_time_s: float
    nodes_labelled: int = 0
    label_memo_hit_rate: float = 0.0
    tables_build_time_s: float = 0.0
    opt_nodes_before: int = 0
    opt_nodes_after: int = 0
    opt_folds: int = 0
    opt_cse_hits: int = 0
    opt_temps: int = 0
    opt_gvn_hits: int = 0
    opt_licm_hoisted: int = 0
    opt_strength_reductions: int = 0
    opt_hw_loops: int = 0
    # Static-verifier accounting (zero when PipelineConfig.verify was
    # off); verify time is *not* part of compile_time_s.
    verify_time_s: float = 0.0
    verify_checks: int = 0


@dataclass(frozen=True)
class StatementArtifact(Record):
    """Serialized view of the code generated for one source statement."""

    statement: str
    cost: int
    operations: Tuple[str, ...] = ()

    @classmethod
    def from_code(cls, code: StatementCode) -> "StatementArtifact":
        return cls(
            statement=str(code.statement),
            cost=code.cost,
            operations=tuple(inst.describe() for inst in code.instances),
        )


@dataclass(frozen=True)
class CompilationResult:
    """The immutable record of compiling one program for one target.

    Construct through :meth:`from_state` (what
    :meth:`repro.toolchain.Session.compile` does) or :meth:`from_dict`
    (deserialization).  Scalar facts live in :attr:`metrics` and are also
    exposed as flat properties (``code_size``, ``spill_count``, ...).
    """

    name: str
    processor: str
    metrics: CompileMetrics
    pass_timings: Dict[str, float] = field(default_factory=dict)
    config: Optional[PipelineConfig] = None
    diagnostics: Tuple[Diagnostic, ...] = ()
    encoding: Optional[str] = None
    # Live artifacts -- absent on detached (deserialized) results.  The
    # selected code lives once, per block (statement_codes derives from it).
    program: Optional[Program] = field(default=None, repr=False, compare=False)
    block_codes: Tuple[BlockCode, ...] = field(default=(), repr=False, compare=False)
    words: Tuple[InstructionWord, ...] = field(default=(), repr=False, compare=False)
    binding: Optional[ResourceBinding] = field(default=None, repr=False, compare=False)
    # The processor's memories; every other storage is a register, which
    # the simulator lets hold one value.
    memory_storages: FrozenSet[str] = field(
        default=frozenset(), repr=False, compare=False
    )
    # Stored renderings -- populated on detached results so every view
    # survives serialization; live results render from the artifacts.
    stored_listing: Optional[str] = field(default=None, repr=False)
    stored_statements: Optional[Tuple[StatementArtifact, ...]] = field(
        default=None, repr=False
    )
    # Chrome trace-event export of this compile (``Tracer.to_chrome_trace``)
    # when the request asked for tracing; None otherwise.
    trace: Optional[dict] = field(default=None, repr=False, compare=False)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_state(
        cls,
        program: Program,
        processor: str,
        state: CompilationState,
        memory_storages: FrozenSet[str],
        binding: Optional[ResourceBinding] = None,
        config: Optional[PipelineConfig] = None,
        trace: Optional[dict] = None,
    ) -> "CompilationResult":
        """Build a result from one finished :class:`CompilationState`."""
        codes = state.statement_codes
        instances: List[RTInstance] = []
        for code in codes:
            instances.extend(code.instances)
        selection_stats = state.selection_stats
        opt_stats = state.opt_stats or OptStats()
        metrics = CompileMetrics(
            code_size=code_size(state.words),
            operation_count=len(instances),
            spill_count=count_spills(instances),
            selection_cost=sum(code.cost for code in codes),
            statement_count=sum(len(block_code.codes) for block_code in state.block_codes),
            compile_time_s=sum(state.pass_timings.values()),
            nodes_labelled=int(selection_stats.get("nodes_labelled", 0)),
            label_memo_hit_rate=float(selection_stats.get("memo_hit_rate", 0.0)),
            tables_build_time_s=float(selection_stats.get("tables_build_time_s", 0.0)),
            opt_nodes_before=opt_stats.nodes_before,
            opt_nodes_after=opt_stats.nodes_after,
            opt_folds=opt_stats.folds + opt_stats.algebraic,
            opt_cse_hits=opt_stats.cse_hits,
            opt_temps=opt_stats.temps_introduced,
            opt_gvn_hits=opt_stats.gvn_hits,
            opt_licm_hoisted=opt_stats.licm_hoisted,
            opt_strength_reductions=opt_stats.strength_reductions,
            opt_hw_loops=opt_stats.hw_loops,
            verify_time_s=state.verify_time_s,
            verify_checks=state.verify_checks,
        )
        return cls(
            name=program.name,
            processor=processor,
            metrics=metrics,
            pass_timings=dict(state.pass_timings),
            config=config,
            diagnostics=tuple(state.diagnostics),
            encoding=state.encoding,
            program=program,
            block_codes=tuple(state.block_codes),
            words=tuple(state.words),
            binding=binding,
            memory_storages=memory_storages,
            trace=trace,
        )

    # -- scalar properties --------------------------------------------------------

    @property
    def code_size(self) -> int:
        """Number of instruction words (the metric of figure 2)."""
        return self.metrics.code_size

    @property
    def operation_count(self) -> int:
        """Number of RT operations before compaction (incl. spill code)."""
        return self.metrics.operation_count

    @property
    def spill_count(self) -> int:
        return self.metrics.spill_count

    @property
    def selection_cost(self) -> int:
        return self.metrics.selection_cost

    @property
    def is_detached(self) -> bool:
        """True when this result was deserialized and carries no live
        IR/backend artifacts (views and metrics still work)."""
        return self.program is None and self.stored_statements is not None

    @property
    def statement_codes(self) -> Tuple[StatementCode, ...]:
        """Each block's statement codes, then its branch pseudo-code, in
        block order (the same objects :attr:`block_codes` holds)."""
        return tuple(
            code for block_code in self.block_codes for code in block_code.all_codes()
        )

    @property
    def instances(self) -> List[RTInstance]:
        """All RT instances in statement order (live results only)."""
        self._require_artifacts("instances")
        instances: List[RTInstance] = []
        for code in self.statement_codes:
            instances.extend(code.instances)
        return instances

    def _require_artifacts(self, what: str) -> None:
        if self.is_detached:
            raise ResultError(
                "detached CompilationResult (deserialized from to_dict/to_json) "
                "carries no live %s; recompile to get them" % what
            )

    # -- views --------------------------------------------------------------------

    #: Names accepted by :meth:`view`.
    VIEWS = ("listing", "encoding", "statements", "metrics", "timings")

    def listing(self) -> str:
        """The instruction-word listing."""
        if self.stored_listing is not None:
            return self.stored_listing
        return format_listing(
            list(self.words), title="%s on %s" % (self.name, self.processor)
        )

    def statements(self) -> Tuple[StatementArtifact, ...]:
        """Per-statement artifacts: source text, cost, RT operations."""
        if self.stored_statements is not None:
            return self.stored_statements
        return tuple(StatementArtifact.from_code(code) for code in self.statement_codes)

    def view(self, name: str):
        """A named view of the result (see :data:`VIEWS`)."""
        if name == "listing":
            return self.listing()
        if name == "encoding":
            return self.encoding
        if name == "statements":
            return self.statements()
        if name == "metrics":
            return self.metrics.to_dict()
        if name == "timings":
            return dict(self.pass_timings)
        raise ResultError(
            "unknown result view %r; available views: %s"
            % (name, ", ".join(self.VIEWS))
        )

    def simulation_trace(
        self,
        environment: Optional[Dict[str, int]] = None,
        max_steps: Optional[int] = None,
    ):
        """Execute the generated code through the RT-level simulator and
        return the :class:`~repro.sim.rtsim.SimulationTrace` (per executed
        statement: the block, operations and environment snapshot; loop
        bodies appear once per iteration).  A register holds one value:
        an RT reads what the register holds, stale or not.  Live results
        only.  ``max_steps`` bounds execution (default: the IR step
        limit)."""
        self._require_artifacts("block codes (needed for simulation)")
        from repro.ir.program import DEFAULT_STEP_LIMIT
        from repro.sim.rtsim import trace_cfg_execution

        return trace_cfg_execution(
            list(self.block_codes),
            environment or {},
            self.memory_storages,
            max_steps=max_steps if max_steps is not None else DEFAULT_STEP_LIMIT,
        )

    def simulate(
        self,
        environment: Optional[Dict[str, int]] = None,
        max_steps: Optional[int] = None,
    ) -> Dict[str, int]:
        """The final environment after simulating the generated code, as
        :meth:`simulation_trace` computes it, without recording the steps."""
        self._require_artifacts("block codes (needed for simulation)")
        from repro.ir.program import DEFAULT_STEP_LIMIT
        from repro.sim.rtsim import RTSimulator

        simulator = RTSimulator(environment or {}, self.memory_storages)
        return simulator.run_cfg(
            list(self.block_codes),
            max_steps=max_steps if max_steps is not None else DEFAULT_STEP_LIMIT,
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable description of the result."""
        data = {
            "schema": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "processor": self.processor,
            "metrics": self.metrics.to_dict(),
            "pass_timings": dict(self.pass_timings),
            "config": None if self.config is None else self.config.to_dict(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "statements": [s.to_dict() for s in self.statements()],
            "listing": self.listing(),
            "encoding": self.encoding,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "CompilationResult":
        """Rebuild a (detached) result from :meth:`to_dict` output."""
        schema = data.get("schema", RESULT_SCHEMA_VERSION)
        if schema != RESULT_SCHEMA_VERSION:
            raise ResultError(
                "unsupported CompilationResult schema %r (expected %d)"
                % (schema, RESULT_SCHEMA_VERSION)
            )
        config = data.get("config")
        return CompilationResult(
            name=data["name"],
            processor=data["processor"],
            metrics=CompileMetrics.from_dict(data["metrics"]),
            pass_timings=dict(data.get("pass_timings", {})),
            config=None if config is None else PipelineConfig.from_dict(config),
            diagnostics=tuple(
                Diagnostic.from_dict(d) for d in data.get("diagnostics", ())
            ),
            encoding=data.get("encoding"),
            stored_listing=data.get("listing", ""),
            stored_statements=tuple(
                StatementArtifact.from_dict(s) for s in data.get("statements", ())
            ),
            trace=data.get("trace"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CompilationResult":
        return cls.from_dict(json.loads(text))
