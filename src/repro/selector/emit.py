"""Generation of a stand-alone, grammar-specific matcher module.

The paper obtains its code selector from iburg, which reads the BNF tree
grammar and *emits C code* that is then compiled.  We mirror that step:
:func:`emit_matcher_source` renders a self-contained Python module for one
grammar, and :func:`compile_matcher_module` compiles and executes it,
returning the module namespace.  The retargeting benchmark times both
steps, which corresponds to the "parser generation + parser compilation"
share of table 3.

The module is a fixed matcher over tables that depend on the grammar: the
depth-one normal form and the precomputed chain closure of
:class:`~repro.selector.tables.GrammarTables`, plus the rules and symbol
sets.  All tables travel as one JSON string literal that the module
decodes with :func:`json.loads` at import, so it needs nothing beyond the
standard library.  A string literal costs ``compile()`` next to nothing
and the decoder is native code, whereas the same tables written as nested
tuple literals made ``compile()`` the dominant cost of a retarget.

The module's ``label`` is a plain bottom-up dynamic program over the same
depth-one rules and closure the library's
:class:`~repro.selector.burs.CodeSelector` builds its automaton states
from, applied in the same order with the same tie-breaks, so its costs
and covers agree with the library's by construction.
``tests/test_selector_emit.py`` checks that agreement on kernel and
generated statements, and imports the module in an isolated interpreter.
"""

from __future__ import annotations

import json
import types
from typing import Dict, List

from repro.grammar.grammar import TreeGrammar
from repro.selector.tables import GrammarTables

_MODULE_TEMPLATE = '''"""Generated code selector for processor {processor}.

This module was emitted by repro.selector.emit; do not edit by hand.  It
needs only the standard library.  Its tables come from one JSON string:

RULES[i] is grammar rule i as (lhs, pattern text, cost).

SHAPES is the grammar's depth-one normal form: (label, arity) ->
entries (value, operands, cost, lhs, rule index or None, leaf specs) in
rule-index order.  An entry matches a node with that label and arity whose
constant equals ``value`` (when not None) and whose i-th child derives
operands[i].  Rule index None marks the zero-cost rule of a fresh
non-terminal naming an inner pattern node.  Leaf specs are (child-index
path, non-terminal) pairs locating the rule's non-terminal leaves.

CLOSURE is the precomputed chain-rule closure: for each source
non-terminal, (target, delta cost, last rule index, previous non-terminal)
entries in deterministic (cost, rule-index path) order.

Subject nodes need ``label``, ``children`` and ``const_value``.
"""

import json

_TABLES = json.loads({tables!r})

PROCESSOR = _TABLES["processor"]
START = _TABLES["start"]
RULES = tuple(map(tuple, _TABLES["rules"]))
SHAPES = {{
    (label, arity): tuple(map(tuple, entries))
    for label, arity, entries in _TABLES["shapes"]
}}
CLOSURE = {{
    source: tuple(map(tuple, entries))
    for source, entries in _TABLES["closure"].items()
}}
TERMINALS = tuple(_TABLES["terminals"])
NONTERMINALS = tuple(_TABLES["nonterminals"])
del _TABLES


def _post_order(root):
    order = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))
    return order


def label(root):
    """Bottom-up dynamic-programming labelling of a subject tree.

    Returns id(node) -> {{non-terminal: (cost, rule index, leaf specs)}}
    with absolute costs.  Depth-one rules apply in rule-index order and
    replace an entry only when strictly cheaper; the chain closure then
    applies from each entry found so far, in insertion order.
    """
    states = {{}}
    for node in _post_order(root):
        kids = [states[id(child)] for child in node.children]
        value = node.const_value
        state = {{}}
        for shape_value, operands, cost, lhs, rule, leaves in SHAPES.get(
            (node.label, len(kids)), ()
        ):
            if shape_value is not None and shape_value != value:
                continue
            for kid, operand in zip(kids, operands):
                entry = kid.get(operand)
                if entry is None:
                    break
                cost += entry[0]
            else:
                best = state.get(lhs)
                if best is None or cost < best[0]:
                    state[lhs] = (cost, rule, leaves)
        for source, entry in list(state.items()):
            for target, delta, rule, previous in CLOSURE.get(source, ()):
                cost = entry[0] + delta
                best = state.get(target)
                if best is None or cost < best[0]:
                    state[target] = (cost, rule, (((), previous),))
        states[id(node)] = state
    return states


def cover_cost(root, goal=START):
    """Cost of the optimal cover, or None when the tree is not derivable."""
    entry = label(root)[id(root)].get(goal)
    return entry[0] if entry is not None else None


def reduce(root, goal=START):
    """Rule indices of the optimal cover, children before parents."""
    states = label(root)
    if goal not in states[id(root)]:
        raise ValueError("tree not derivable from %s" % goal)
    output = []
    stack = [(root, goal)]
    while stack:
        node, nonterminal = stack.pop()
        _cost, rule, leaves = states[id(node)][nonterminal]
        output.append(rule)
        for path, leaf_nonterminal in leaves:
            leaf = node
            for index in path:
                leaf = leaf.children[index]
            stack.append((leaf, leaf_nonterminal))
    output.reverse()
    return output
'''


def _tables_json(grammar: TreeGrammar, tables: GrammarTables) -> str:
    shapes: List[list] = [
        [
            label,
            arity,
            [
                [
                    shape.value,
                    shape.operands,
                    shape.cost,
                    shape.lhs,
                    None if shape.rule is None else shape.rule.index,
                    shape.leaves,
                ]
                for shape in group
            ],
        ]
        for (label, arity), group in tables.shape_rules.items()
    ]
    closure: Dict[str, List[list]] = {
        source: [
            [target, delta, rule_path[-1].index, rule_path[-1].pattern.name]
            for target, delta, rule_path in entries
        ]
        for source, entries in tables.chain_closure.items()
    }
    return json.dumps(
        {
            "processor": grammar.processor,
            "start": grammar.start,
            "rules": [
                [rule.lhs, str(rule.pattern), rule.cost] for rule in grammar.rules
            ],
            "shapes": shapes,
            "closure": closure,
            "terminals": sorted(grammar.terminals),
            "nonterminals": sorted(grammar.nonterminals),
        },
        separators=(",", ":"),
    )


def emit_matcher_source(grammar: TreeGrammar, tables: GrammarTables = None) -> str:
    """Python source of a stand-alone, table-driven matcher for ``grammar``."""
    if tables is None:
        tables = GrammarTables.build(grammar)
    return _MODULE_TEMPLATE.format(
        processor=grammar.processor, tables=_tables_json(grammar, tables)
    )


def compile_matcher_module(
    grammar: TreeGrammar, tables: GrammarTables = None
) -> types.ModuleType:
    """Emit, compile and execute the matcher module for ``grammar``."""
    source = emit_matcher_source(grammar, tables=tables)
    module = types.ModuleType("generated_selector_%s" % grammar.processor)
    code = compile(source, "<generated selector %s>" % grammar.processor, "exec")
    exec(code, module.__dict__)
    return module
