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
sets.  All tables travel as one bytes literal that the module decodes with
:func:`pickle.loads` at import, straight into the tuples and dicts the
matcher reads, so it needs nothing beyond the standard library and
converts nothing.  A bytes literal costs ``compile()`` little and the
decoder is native code, whereas the same tables written as nested tuple
literals made ``compile()`` the dominant cost of a retarget.

The payload must depend on the grammar alone, yet pickle writes a
back-reference wherever one object occurs twice, so a raw payload follows
how the tables happen to share objects (a freshly built result and one
read back from the retarget cache differ).  :func:`_tables` therefore
hash-conses every string and tuple it takes from the grammar: equal values
become one object, shared exactly when they are equal.  That also makes
the payload small and the decoded tables share their repeated symbols and
leaf specs.

The module's ``label`` is a plain bottom-up dynamic program over the same
depth-one rules and closure the library's
:class:`~repro.selector.burs.CodeSelector` builds its automaton states
from, applied in the same order with the same tie-breaks, so its costs
and covers agree with the library's by construction.
``tests/test_selector_emit.py`` checks that agreement on kernel and
generated statements, and imports the module in an isolated interpreter.
"""

from __future__ import annotations

import pickle
import types

from repro.grammar.grammar import TreeGrammar
from repro.selector.tables import GrammarTables

_MODULE_TEMPLATE = '''"""Generated code selector for processor {processor}.

This module was emitted by repro.selector.emit; do not edit by hand.  It
needs only the standard library.  Its tables come from one pickle payload:

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

import pickle

(PROCESSOR, START, RULES, SHAPES, CLOSURE, TERMINALS,
 NONTERMINALS) = pickle.loads({tables!r})


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


#: Fixed, so that the emitted text does not follow the running Python's
#: default protocol.
_PICKLE_PROTOCOL = 4


def _tables(grammar: TreeGrammar, tables: GrammarTables) -> tuple:
    """The module's tables, every equal string and tuple in them one
    object (see the module docstring)."""
    memo: dict = {}

    def shared(value):
        found = memo.get(value)
        if found is None:
            if type(value) is tuple:
                found = tuple([shared(item) for item in value])
            else:
                found = value
            memo[value] = found
        return found

    shapes = {
        shared(shape_key): tuple(
            [
                (
                    shape.value,
                    shared(shape.operands),
                    shape.cost,
                    shared(shape.lhs),
                    None if shape.rule is None else shape.rule.index,
                    shared(shape.leaves),
                )
                for shape in group
            ]
        )
        for shape_key, group in tables.shape_rules.items()
    }
    closure = {
        shared(source): tuple(
            [
                (shared(target), delta, path[-1].index, shared(path[-1].pattern.name))
                for target, delta, path in entries
            ]
        )
        for source, entries in tables.chain_closure.items()
    }
    rules = tuple(
        [
            (shared(rule.lhs), shared(str(rule.pattern)), rule.cost)
            for rule in grammar.rules
        ]
    )
    return (
        shared(grammar.processor),
        shared(grammar.start),
        rules,
        shapes,
        closure,
        shared(tuple(sorted(grammar.terminals))),
        shared(tuple(sorted(grammar.nonterminals))),
    )


def emit_matcher_source(grammar: TreeGrammar, tables: GrammarTables = None) -> str:
    """Python source of a stand-alone, table-driven matcher for ``grammar``."""
    if tables is None:
        tables = GrammarTables.build(grammar)
    payload = pickle.dumps(_tables(grammar, tables), protocol=_PICKLE_PROTOCOL)
    return _MODULE_TEMPLATE.format(processor=grammar.processor, tables=payload)


def compile_matcher_module(
    grammar: TreeGrammar, tables: GrammarTables = None
) -> types.ModuleType:
    """Emit, compile and execute the matcher module for ``grammar``."""
    source = emit_matcher_source(grammar, tables=tables)
    module = types.ModuleType("generated_selector_%s" % grammar.processor)
    code = compile(source, "<generated selector %s>" % grammar.processor, "exec")
    exec(code, module.__dict__)
    return module
