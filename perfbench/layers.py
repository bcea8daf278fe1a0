"""Traced-run instrumentation: spans around the program's public functions.

The wrappers are installed from the benchmark's own files, and nothing
under ``src/`` changes.  An enabled :class:`repro.obs.trace.Tracer` also
turns on the program's own ``pass:*``, ``retarget:*`` and per-block
spans, so the span tree of one operation covers the frontend, every
optimizer stage, selection, scheduling, spilling, compaction and result
assembly.

A span's self time (its duration minus its children's) is charged to a
layer: its own, if :data:`SPAN_LAYERS` names it, else the layer of its
nearest named ancestor.  The self time of the benchmark's per-operation
root span is what no layer covers: ``unattributed``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from importlib import import_module
from typing import Dict, Iterable, List

from repro.obs.trace import Tracer, current_tracer, use_tracer
from repro.opt.pipeline import OptPipeline
from repro.selector.burs import CodeSelector
from repro.toolchain.results import CompilationResult
from repro.toolchain.session import Session

# Modules by full name: some packages re-export a function under the
# name of its module (``repro.record.retarget``).
codegen_selection = import_module("repro.codegen.selection")
frontend_lowering = import_module("repro.frontend.lowering")
frontend_parser = import_module("repro.frontend.parser")
opt_pipeline = import_module("repro.opt.pipeline")
record_retarget = import_module("repro.record.retarget")
toolchain_passes = import_module("repro.toolchain.passes")
toolchain_session = import_module("repro.toolchain.session")

#: The span every benchmark operation runs under.
OP_SPAN = "op"

#: Span name -> layer.  Names with a dot are the benchmark's wrappers
#: (below); ``pass:*`` and ``retarget:*`` are the program's own spans.
SPAN_LAYERS = {
    "frontend.lex": "frontend.lex",
    "frontend.parse": "frontend.parse",
    "frontend.lower": "frontend.lower",
    "ir.bind": "ir.bind",
    "toolchain.introducible_ops": "toolchain.introducible_ops",
    "toolchain.result": "toolchain.result",
    "toolchain.session": "toolchain.session",
    "pass:opt": "opt.pipeline",
    "opt.copy": "opt.copy",
    "opt.fold": "opt.fold",
    "opt.loops": "opt.loops",
    "opt.licm": "opt.licm",
    "opt.gvn": "opt.gvn",
    "opt.dce": "opt.dce",
    "pass:select": "codegen.cover",
    "codegen.subject": "codegen.subject",
    "selector.select": "selector.select",
    "pass:schedule": "codegen.schedule",
    "pass:spill": "codegen.spill",
    "pass:compact": "codegen.compact",
    "retarget:hdl_frontend": "hdl.parse",
    "retarget:netlist": "netlist.build",
    "retarget:extraction": "ise.extract",
    "retarget:expansion": "expansion.expand",
    "retarget:grammar": "grammar.build",
    "retarget:tables": "selector.tables",
    "retarget:parser_generation": "selector.emit",
    "selector.emit": "selector.emit",
}

#: Layers timed per compile operation (reported in microseconds).
COMPILE_LAYERS = (
    "frontend.lex",
    "frontend.parse",
    "frontend.lower",
    "ir.bind",
    "toolchain.introducible_ops",
    "toolchain.result",
    "opt.pipeline",
    "opt.copy",
    "opt.fold",
    "opt.loops",
    "opt.licm",
    "opt.gvn",
    "opt.dce",
    "codegen.subject",
    "selector.select",
    "codegen.cover",
    "codegen.schedule",
    "codegen.spill",
    "codegen.compact",
)

#: Layers timed per retarget or per session (reported in milliseconds).
RETARGET_LAYERS = (
    "hdl.parse",
    "netlist.build",
    "ise.extract",
    "expansion.expand",
    "grammar.build",
    "selector.tables",
    "selector.emit",
)

#: (module or class, attribute, span name) of every wrapped function.
_FUNCTION_WRAPPERS = (
    (frontend_lowering, "parse_source", "frontend.parse"),
    (frontend_lowering, "lower_source", "frontend.lower"),
    (toolchain_session, "bind_program", "ir.bind"),
    (toolchain_passes, "introducible_ops", "toolchain.introducible_ops"),
    (opt_pipeline, "copy_program", "opt.copy"),
    (codegen_selection, "build_subject_tree", "codegen.subject"),
    (CodeSelector, "select", "selector.select"),
    (Session, "__init__", "toolchain.session"),
    (record_retarget, "compile_matcher_module", "selector.emit"),
)


def _spanned(function, span_name: str):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with current_tracer().span(span_name):
            return function(*args, **kwargs)

    return traced


class Instrumentation:
    """Installs the wrappers on entry and restores the originals on exit.

    ``tokens`` counts the source tokens the lexer produced while
    installed.
    """

    def __init__(self):
        self.tokens = 0
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attribute, span_name in _FUNCTION_WRAPPERS:
            self._patch(owner, attribute, _spanned(getattr(owner, attribute), span_name))
        self._patch(frontend_parser, "tokenize_source", self._traced_lexer())
        from_state = CompilationResult.__dict__["from_state"].__func__
        self._patch(
            CompilationResult,
            "from_state",
            classmethod(_spanned(from_state, "toolchain.result")),
        )
        self._patch(OptPipeline, "run", _traced_opt_run(OptPipeline.run))
        return self

    def __exit__(self, *_exc) -> bool:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _traced_lexer(self):
        lexer = frontend_parser.tokenize_source

        @functools.wraps(lexer)
        def traced(*args, **kwargs):
            with current_tracer().span("frontend.lex"):
                tokens = lexer(*args, **kwargs)
            self.tokens += len(tokens)
            return tokens

        return traced


def _traced_opt_run(run):
    """``OptPipeline.run`` with one span per optimizer stage, opened and
    closed through the pipeline's public ``observer`` hook."""

    @functools.wraps(run)
    def traced(self, program, supported_ops=None, observer=None):
        tracer = current_tracer()
        pending = list(self.stages)
        open_spans = []

        def open_next() -> None:
            if pending:
                span = tracer.span("opt." + pending.pop(0))
                span.__enter__()
                open_spans.append(span)

        def stage_done(stage, current) -> None:
            open_spans.pop().__exit__(None, None, None)
            if observer is not None:
                observer(stage, current)
            open_next()

        open_next()
        try:
            return run(self, program, supported_ops=supported_ops, observer=stage_done)
        finally:
            while open_spans:
                open_spans.pop().__exit__(None, None, None)

    return traced


class LayerTotals:
    """Self time per layer, summed over every span tree added."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, tracer: Tracer, factor: float = 1.0) -> None:
        """Fold in one tracer's spans, times multiplied by ``factor``."""
        spans = tracer.spans()
        by_id = {span.span_id: span for span in spans}
        child_seconds: Dict[int, float] = defaultdict(float)
        for span in spans:
            self.counts[span.name] += 1
            if span.parent_id is not None:
                child_seconds[span.parent_id] += span.duration_s
        layers: Dict[int, str] = {}

        def layer_of(span) -> str:
            known = layers.get(span.span_id)
            if known is None:
                parent = by_id.get(span.parent_id)
                if span.name in SPAN_LAYERS:
                    known = SPAN_LAYERS[span.name]
                elif span.name == OP_SPAN or parent is None:
                    known = "unattributed"
                else:
                    known = layer_of(parent)
                layers[span.span_id] = known
            return known

        for span in spans:
            self_seconds = span.duration_s - child_seconds[span.span_id]
            self.seconds[layer_of(span)] += self_seconds * factor

    def per_event(self, layers: Iterable[str], events: int, scale: float) -> Dict[str, float]:
        """Each layer's self time per event, times ``scale`` (0 without
        events: the workload never ran the layer)."""
        return {
            layer: (self.seconds.get(layer, 0.0) * scale / events) if events else 0.0
            for layer in layers
        }


def traced_call(tracer: Tracer, function, *args):
    """``function(*args)`` inside an ``op`` span of ``tracer``."""
    with use_tracer(tracer):
        with tracer.span(OP_SPAN):
            return function(*args)
