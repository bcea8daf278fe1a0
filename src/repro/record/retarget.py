"""The retargeting procedure: from an HDL model to a code selector.

This is the paper's core contribution (fig. 1).  ``retarget`` runs every
phase -- HDL frontend, netlist construction, instruction-set extraction,
template-base expansion, tree-grammar construction and tree-parser
generation -- and records per-phase wall-clock times, which is exactly the
quantity table 3 reports per target processor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.expansion.expander import ExpansionOptions, expand_template_base
from repro.grammar.construct import build_tree_grammar
from repro.grammar.grammar import TreeGrammar
from repro.hdl.parser import parse_processor
from repro.ise.extractor import ExtractionResult, extract_instruction_set
from repro.ise.templates import RTTemplateBase
from repro.netlist.builder import build_netlist
from repro.netlist.netlist import Netlist
from repro.obs.trace import current_tracer
from repro.records import Record
from repro.selector.burs import CodeSelector
from repro.selector.emit import compile_matcher_module
from repro.selector.tables import GrammarTables


@dataclass
class PhaseTimings(Record):
    """Wall-clock seconds spent in each retargeting phase.

    ``tables`` is the offline matcher-table generation (the grammar's
    depth-one normal form and precomputed chain closure -- see
    :class:`repro.selector.tables.GrammarTables`); ``parser_generation``
    covers selector construction plus emitting/compiling the stand-alone
    matcher module, or only the emission when
    :meth:`RetargetResult.regenerate_matcher` ran it later.
    """

    hdl_frontend: float = 0.0
    netlist: float = 0.0
    extraction: float = 0.0
    expansion: float = 0.0
    grammar: float = 0.0
    tables: float = 0.0
    parser_generation: float = 0.0

    @property
    def total(self) -> float:
        return sum(vars(self).values())

    def as_dict(self) -> Dict[str, float]:
        """The phases in field order, then their ``total``."""
        return {**self.to_dict(), "total": self.total}


@dataclass
class RetargetResult:
    """Everything produced by retargeting RECORD to one processor."""

    processor: str
    netlist: Netlist
    extraction: ExtractionResult
    raw_template_count: int
    template_base: RTTemplateBase
    grammar: TreeGrammar
    selector: CodeSelector
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    matcher_module: object = None

    @property
    def template_count(self) -> int:
        """Number of RT templates in the extended template base (column 2 of
        table 3)."""
        return len(self.template_base)

    # The generated matcher is a ``types.ModuleType`` and cannot be
    # pickled; the retarget cache regenerates it from the grammar on load
    # when asked to.  Per-result selector caches (see
    # ``repro.toolchain.selectors``) are likewise rebuilt on demand rather
    # than serialized.
    def __getstate__(self):
        state = {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_")
        }
        state["matcher_module"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def regenerate_matcher(self) -> None:
        """(Re)build the generated matcher module from the grammar (the
        selector's precomputed tables are reused, never rebuilt).

        ``timings.parser_generation`` becomes the time of this emission,
        replacing what the entry recorded before, so a result read from
        the cache reports the same phase whichever caller stored it.
        """
        start = time.perf_counter()
        self.matcher_module = compile_matcher_module(
            self.grammar, tables=self.selector.tables
        )
        self.timings.parser_generation = time.perf_counter() - start

    def summary(self) -> Dict[str, object]:
        return {
            "processor": self.processor,
            "raw_templates": self.raw_template_count,
            "extended_templates": self.template_count,
            "grammar_rules": len(self.grammar.rules),
            "retargeting_time_s": self.timings.total,
        }


def retarget(
    hdl_source: str,
    expansion: Optional[ExpansionOptions] = None,
    generate_matcher: bool = True,
) -> RetargetResult:
    """Run the complete retargeting flow on one HDL processor model."""
    timings = PhaseTimings()
    tracer = current_tracer()

    start = time.perf_counter()
    with tracer.span("retarget:hdl_frontend"):
        model = parse_processor(hdl_source)
    timings.hdl_frontend = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:netlist"):
        netlist = build_netlist(model)
    timings.netlist = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:extraction") as span:
        extraction = extract_instruction_set(netlist)
        if tracer.enabled:
            span.set(templates=len(extraction.template_base))
    timings.extraction = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:expansion") as span:
        extended = expand_template_base(extraction.template_base, expansion)
        if tracer.enabled:
            span.set(templates=len(extended))
    timings.expansion = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:grammar") as span:
        grammar = build_tree_grammar(netlist, extended)
        if tracer.enabled:
            span.set(rules=len(grammar.rules))
    timings.grammar = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:tables"):
        tables = GrammarTables.build(grammar)
    timings.tables = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("retarget:parser_generation"):
        selector = CodeSelector(grammar, tables=tables)
        matcher_module = (
            compile_matcher_module(grammar, tables=tables)
            if generate_matcher
            else None
        )
    timings.parser_generation = time.perf_counter() - start

    return RetargetResult(
        processor=netlist.name,
        netlist=netlist,
        extraction=extraction,
        raw_template_count=len(extraction.template_base),
        template_base=extended,
        grammar=grammar,
        selector=selector,
        timings=timings,
        matcher_module=matcher_module,
    )
