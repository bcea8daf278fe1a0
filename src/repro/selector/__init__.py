"""Processor-specific code selectors (tree parsers).

Optimal code selection for an expression tree is a minimum-cost derivation
of the tree in the processor's tree grammar.  The paper generates a tree
parser with iburg; this package provides the equivalent machinery in
Python:

* :mod:`repro.selector.burs` -- a BURS labeller and reducer: an on-demand
  tree-parsing automaton gives every node its state (per non-terminal, the
  cheapest rule with chain-rule closure) through one memoized transition;
  the reduce pass walks the optimal derivation top-down;
* :mod:`repro.selector.emit` -- generation of a stand-alone, grammar-specific
  matcher module, mirroring iburg's generated C parser: a fixed bottom-up
  labeller over the tables below, carried as one JSON string;
* :mod:`repro.selector.tables` -- the precomputed rule tables both build
  on (the grammar's depth-one normal form and its chain closure).
"""

from repro.selector.subject import SubjectNode
from repro.selector.burs import (
    CodeSelector,
    Match,
    Reduction,
    SelectionError,
    SelectionResult,
)
from repro.selector.tables import GrammarTables, chain_closure_from
from repro.selector.emit import compile_matcher_module, emit_matcher_source

__all__ = [
    "CodeSelector",
    "GrammarTables",
    "Match",
    "Reduction",
    "SelectionError",
    "SelectionResult",
    "SubjectNode",
    "chain_closure_from",
    "compile_matcher_module",
    "emit_matcher_source",
]
