"""The session/pipeline facade -- the canonical compilation API.

A :class:`Session` owns one retargeted processor plus one configured pass
pipeline and amortizes everything target-side (grammar restriction,
selector construction, spill-storage lookup) across any number of
compilations::

    from repro.toolchain import Toolchain

    session = Toolchain.for_target("tms320c25")
    compiled = session.compile("int a, b, c, d; d = c + a * b;")
    batch = session.compile_many([src1, src2, src3])

The default pipeline runs the :mod:`repro.opt` IR optimizer ahead of
selection (disable per session with ``PipelineConfig(use_optimizer=False)``
or the ``no-opt`` preset for the exact pre-optimizer pipeline).

:class:`Toolchain` binds a :class:`~repro.toolchain.registry.TargetRegistry`
(where the HDL comes from) to a :class:`~repro.toolchain.cache.RetargetCache`
(whether retargeting re-runs) and hands out sessions.  Every compile
returns an immutable :class:`~repro.toolchain.results.CompilationResult`
(metrics, per-pass timings, views, JSON serialization); the concurrent
batch layer on top of sessions lives in :mod:`repro.service`.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Dict, Iterable, List, Optional, Union

from repro.frontend.lowering import lower_to_program
from repro.hdl.ast import ModuleKind
from repro.ir.binding import (
    ResourceBinding,
    bind_program,
    default_data_memory,
    default_storage,
)
from repro.ir.program import Program
from repro.obs.trace import Tracer, use_tracer
from repro.record.retarget import RetargetResult, retarget
from repro.toolchain.cache import RetargetCache, default_cache
from repro.toolchain.passes import (
    CompilationState,
    PassContext,
    PassManager,
    PipelineConfig,
    introducible_ops,
)
from repro.toolchain.registry import TargetRegistry, TargetSpec, default_registry
from repro.toolchain.results import CompilationResult
from repro.toolchain.selectors import restricted_selector

Source = Union[str, Program]


class Session:
    """A compilation session: one retargeted processor, one pipeline.

    Construction is the expensive part (selector restriction, memoized
    per retarget result, and the optimizer's grammar scan happen here);
    ``compile``/``compile_many`` are then cheap and side-effect free.
    """

    def __init__(
        self,
        retarget_result: RetargetResult,
        config: Optional[PipelineConfig] = None,
        spec: Optional[TargetSpec] = None,
        pass_manager: Optional[PassManager] = None,
    ):
        self.retarget_result = retarget_result
        self.config = config if config is not None else PipelineConfig()
        self.spec = spec
        self.selector = restricted_selector(
            retarget_result,
            allow_chained=self.config.allow_chained,
            use_expanded_templates=self.config.use_expanded_templates,
        )
        self.pass_manager = (
            pass_manager
            if pass_manager is not None
            else PassManager.from_config(self.config)
        )
        self._spill_storage = default_data_memory(retarget_result.netlist)
        self._default_storage = default_storage(retarget_result.netlist)
        # The storages that hold many values; the simulator of every
        # result treats the others as registers, which hold one.
        self.memory_storages = frozenset(
            module.name
            for module in retarget_result.netlist.sequential_modules()
            if module.kind == ModuleKind.MEMORY
        )
        self._hardware_loops = self._resolve_hardware_loops()
        # What the optimizer may introduce on this session's (possibly
        # restricted) grammar; scanned here once, not per compile.
        self.supported_ops = frozenset(introducible_ops(self.selector.grammar))

    def _resolve_hardware_loops(self) -> bool:
        """Whether this target has a dedicated repeat counter.  An
        explicit spec wins; otherwise the registry entry of the
        retargeted processor's name decides (unregistered names: no)."""
        if self.spec is not None:
            return bool(getattr(self.spec, "hardware_loops", False))
        try:
            spec = default_registry().get(self.retarget_result.processor)
        except KeyError:
            return False
        return bool(spec.hardware_loops)

    # -- introspection -----------------------------------------------------------

    @property
    def processor(self) -> str:
        return self.retarget_result.processor

    def pass_names(self) -> List[str]:
        return self.pass_manager.names()

    def reconfigured(self, config: PipelineConfig) -> "Session":
        """A sibling session on the same retarget result with another
        pipeline (selector restriction is shared via the memo cache)."""
        return Session(self.retarget_result, config=config, spec=self.spec)

    # -- compilation -------------------------------------------------------------

    def _merged_overrides(
        self, binding_overrides: Optional[Dict[str, str]]
    ) -> Optional[Dict[str, str]]:
        defaults = dict(self.spec.binding_overrides) if self.spec else {}
        if binding_overrides:
            defaults.update(binding_overrides)
        return defaults or None

    def compile_program(
        self,
        program: Program,
        binding_overrides: Optional[Dict[str, str]] = None,
        tracer: Optional[Tracer] = None,
    ) -> CompilationResult:
        """Run the configured pass pipeline on an IR program.

        With an explicit ``tracer`` the whole compile runs under it (a
        ``compile`` root span wraps binding and every pipeline pass) and
        the result carries the exported Chrome trace in ``.trace``.
        Without one, spans still flow to whatever ambient tracer
        :func:`repro.obs.trace.use_tracer` installed -- but ``.trace``
        stays ``None``; the caller owning the tracer exports it.
        """
        if tracer is not None:
            with use_tracer(tracer):
                with tracer.span(
                    "compile", program=program.name, target=self.processor
                ):
                    state, binding = self._run_pipeline(
                        program, binding_overrides
                    )
            trace = tracer.to_chrome_trace(
                process_name="repro compile %s" % self.processor
            )
        else:
            state, binding = self._run_pipeline(program, binding_overrides)
            trace = None
        # state.program is the program the backend actually selected --
        # the optimizer's result when the opt pass ran (the caller's own
        # program when nothing changed; programs are frozen), the input
        # program otherwise.
        return CompilationResult.from_state(
            program=state.program,
            processor=self.processor,
            state=state,
            memory_storages=self.memory_storages,
            binding=binding,
            config=self.config,
            trace=trace,
        )

    def _run_pipeline(self, program, binding_overrides):
        overrides = self._merged_overrides(binding_overrides)
        if overrides is None and self._default_storage is not None:
            # Every variable gets the default storage; nothing can fail.
            binding = ResourceBinding(default_storage=self._default_storage)
        else:
            binding = bind_program(
                program, self.retarget_result.netlist, overrides=overrides
            )
        context = PassContext(
            selector=self.selector,
            binding=binding,
            spill_storage=self._spill_storage,
            netlist=self.retarget_result.netlist,
            config=self.config,
            hardware_loops=self._hardware_loops,
            supported_ops=self.supported_ops,
        )
        state: CompilationState = self.pass_manager.run(program, context)
        return state, binding

    def compile(
        self,
        source: Source,
        name: Optional[str] = None,
        binding_overrides: Optional[Dict[str, str]] = None,
        tracer: Optional[Tracer] = None,
    ) -> CompilationResult:
        """Compile source text (or an already lowered IR program).

        ``name`` names the compiled program: for source text it defaults
        to ``"program"``; for an already-lowered :class:`Program` it
        defaults to the program's own name, and an explicit ``name``
        compiles a renamed copy (programs are frozen).
        """
        if isinstance(source, Program):
            program = source
            if name is not None and name != program.name:
                program = dataclass_replace(program, name=name)
        else:
            program = lower_to_program(source, name=name or "program")
        return self.compile_program(
            program, binding_overrides=binding_overrides, tracer=tracer
        )

    def compile_many(
        self,
        sources: Iterable[Source],
        names: Optional[Iterable[str]] = None,
        binding_overrides: Optional[Dict[str, str]] = None,
    ) -> List[CompilationResult]:
        """Batch compilation: every source through the shared pipeline.

        Equivalent to sequential :meth:`compile` calls but pays the
        session's target-side setup exactly once (that setup already
        happened in ``__init__``), which is what makes throughput-style
        workloads cheap.  When ``names`` is omitted, source texts get
        positional names (``program0``, ``program1``, ...) while
        :class:`Program` sources keep their own names; an explicit
        ``names`` list applies uniformly to both kinds.
        """
        source_list = list(sources)
        name_list: List[Optional[str]]
        if names is None:
            name_list = [
                None if isinstance(source, Program) else "program%d" % index
                for index, source in enumerate(source_list)
            ]
        else:
            name_list = list(names)
            if len(name_list) != len(source_list):
                raise ValueError(
                    "got %d names for %d sources" % (len(name_list), len(source_list))
                )
        return [
            self.compile(source, name=name, binding_overrides=binding_overrides)
            for source, name in zip(source_list, name_list)
        ]

    def compile_kernel(
        self,
        kernel_name: str,
        binding_overrides: Optional[Dict[str, str]] = None,
    ) -> CompilationResult:
        """Compile a DSPStone kernel by name."""
        from repro.dspstone import kernel_program

        return self.compile_program(
            kernel_program(kernel_name), binding_overrides=binding_overrides
        )

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        info = dict(self.retarget_result.summary())
        info["passes"] = ", ".join(self.pass_names())
        return info


class Toolchain:
    """Factory of :class:`Session` objects.

    Binds a target registry and a retarget cache; the classmethod
    constructors use the process-wide defaults, which is what scripts and
    the CLI want.
    """

    def __init__(
        self,
        registry: Optional[TargetRegistry] = None,
        cache: Optional[RetargetCache] = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache if cache is not None else default_cache()

    def _resolve_config(self, config, preset) -> PipelineConfig:
        if config is not None and preset is not None:
            raise ValueError("pass either config= or preset=, not both")
        if preset is not None:
            return PipelineConfig.preset(preset)
        return config if config is not None else PipelineConfig()

    def session_for_hdl(
        self,
        hdl_source: str,
        config: Optional[PipelineConfig] = None,
        preset: Optional[str] = None,
        spec: Optional[TargetSpec] = None,
        expansion=None,
        use_cache: bool = True,
    ) -> Session:
        """A session for raw HDL text (cache-aware).

        Sessions select with the retarget result's tables and never read
        the emitted matcher module, so retargeting here skips emitting it.
        """
        resolved = self._resolve_config(config, preset)
        if use_cache:
            result, _hit = self.cache.get_or_retarget(
                hdl_source, expansion=expansion, generate_matcher=False
            )
        else:
            result = retarget(hdl_source, expansion=expansion, generate_matcher=False)
        return Session(result, config=resolved, spec=spec)

    def session(self, target: str, **kwargs) -> Session:
        """A session for a registered target name or an HDL file path."""
        spec = self.registry.resolve(target)
        return self.session_for_hdl(spec.hdl_source, spec=spec, **kwargs)

    # -- one-line constructors ---------------------------------------------------

    @classmethod
    def for_target(cls, target: str, **kwargs) -> Session:
        """``Toolchain.for_target("tms320c25")`` -- the canonical entry."""
        return cls().session(target, **kwargs)

    @classmethod
    def for_hdl(cls, hdl_source: str, **kwargs) -> Session:
        return cls().session_for_hdl(hdl_source, **kwargs)
