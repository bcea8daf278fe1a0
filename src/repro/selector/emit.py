"""Generation of a stand-alone, grammar-specific matcher module.

The paper obtains its code selector from iburg, which reads the BNF tree
grammar and *emits C code* that is then compiled.  We mirror that step:
:func:`emit_matcher_source` renders a self-contained Python module embedding
the offline-compiled tables of one grammar -- the linearized match programs
and the precomputed chain-rule closure of
:class:`~repro.selector.tables.GrammarTables` -- and
:func:`compile_matcher_module` compiles and executes it, returning the
module namespace.  The retargeting benchmark times both steps, which
corresponds to the "parser generation + parser compilation" share of
table 3.

The emitted module labels every node by running all match programs
rooted at its label, while the library's
:class:`~repro.selector.burs.CodeSelector` runs an on-demand automaton
over the grammar's depth-one normal form.  Both follow the same rule
order and closure tie-breaks; ``tests/test_selector_emit.py`` checks
that their costs and rule sequences agree on every DSPStone kernel
statement of the DSP targets.
"""

from __future__ import annotations

import types
from typing import Dict, List, Tuple

from repro.grammar.grammar import PatNonterm, PatTerm, PatternNode, TreeGrammar
from repro.selector.tables import GrammarTables

_MODULE_TEMPLATE = '''"""Generated code selector for processor {processor}.

This module was emitted by repro.selector.emit; do not edit by hand.

RULES encodes every grammar rule as (lhs, pattern, cost) with patterns as
nested tuples:
    ("T", label, value_or_None, (child, ...))   -- terminal pattern node
    ("N", nonterminal)                          -- non-terminal pattern leaf

PROGRAMS maps each pattern-root terminal to its linearized match programs:
(rule_index, code) pairs whose code is a tuple of instructions
    (1, label, value_or_None, arity)            -- terminal check
    (0, nonterminal)                            -- non-terminal leaf probe
run non-recursively against an explicit node stack.

CLOSURE is the precomputed chain-rule closure: for each source
non-terminal, (target, delta_cost, rule_index, previous_nonterminal)
entries in deterministic (cost, rule-index path) order.
"""

PROCESSOR = {processor!r}
START = {start!r}

RULES = {rules!r}

PROGRAMS = {programs!r}

CLOSURE = {closure!r}

TERMINALS = {terminals!r}
NONTERMINALS = {nonterminals!r}


def _run(code, node, states):
    stack = [node]
    cost = 0
    leaves = []
    for instruction in code:
        current = stack.pop()
        if instruction[0]:
            _, label, value, arity = instruction
            if current.label != label:
                return None
            if value is not None and current.const_value != value:
                return None
            children = current.children
            if len(children) != arity:
                return None
            if arity:
                stack.extend(reversed(children))
        else:
            entry = states[id(current)].get(instruction[1])
            if entry is None:
                return None
            cost += entry[0]
            leaves.append((current, instruction[1]))
    return cost, leaves


def label(root):
    """Table-driven dynamic-programming labelling pass over a subject tree."""
    states = {{}}
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
    for node in order:
        state = {{}}
        for rule_index, code in PROGRAMS.get(node.label, ()):
            result = _run(code, node, states)
            if result is None:
                continue
            rule = RULES[rule_index]
            total = rule[2] + result[0]
            entry = state.get(rule[0])
            if entry is None or total < entry[0]:
                state[rule[0]] = (total, rule_index, result[1])
        for source, entry in list(state.items()):
            base = entry[0]
            for target, delta, rule_index, previous in CLOSURE.get(source, ()):
                total = base + delta
                existing = state.get(target)
                if existing is None or total < existing[0]:
                    state[target] = (total, rule_index, [(node, previous)])
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
    stack = [(root, goal, False)]
    while stack:
        node, nonterminal, expanded = stack.pop()
        entry = states[id(node)][nonterminal]
        if expanded:
            output.append(entry[1])
            continue
        stack.append((node, nonterminal, True))
        for leaf_node, leaf_nonterminal in reversed(entry[2]):
            stack.append((leaf_node, leaf_nonterminal, False))
    return output
'''


def _encode_pattern(pattern: PatternNode):
    if isinstance(pattern, PatNonterm):
        return ("N", pattern.name)
    if isinstance(pattern, PatTerm):
        return (
            "T",
            pattern.name,
            pattern.value,
            tuple(_encode_pattern(child) for child in pattern.operands),
        )
    raise TypeError("unexpected pattern node %r" % pattern)


def _encode_programs(tables: GrammarTables) -> Dict[str, Tuple[tuple, ...]]:
    programs: Dict[str, Tuple[tuple, ...]] = {}
    for label_name, op_id in tables.op_ids.items():
        encoded: List[tuple] = []
        for program in tables.programs_by_op[op_id]:
            code = tuple(
                instruction
                if instruction[0]
                else (0, instruction[1])  # drop the leaf path: memo-only info
                for instruction in program.code
            )
            encoded.append((program.rule.index, code))
        programs[label_name] = tuple(encoded)
    return programs


def _encode_closure(tables: GrammarTables) -> Dict[str, Tuple[tuple, ...]]:
    closure: Dict[str, Tuple[tuple, ...]] = {}
    for source, entries in tables.chain_closure.items():
        closure[source] = tuple(
            (target, delta, rule_path[-1].index, rule_path[-1].pattern.name)
            for target, delta, rule_path in entries
        )
    return closure


def emit_matcher_source(grammar: TreeGrammar, tables: GrammarTables = None) -> str:
    """Python source of a stand-alone, table-driven matcher for ``grammar``."""
    if tables is None:
        tables = GrammarTables.build(grammar)
    rules = tuple(
        (rule.lhs, _encode_pattern(rule.pattern), rule.cost) for rule in grammar.rules
    )
    return _MODULE_TEMPLATE.format(
        processor=grammar.processor,
        start=grammar.start,
        rules=rules,
        programs=_encode_programs(tables),
        closure=_encode_closure(tables),
        terminals=tuple(sorted(grammar.terminals)),
        nonterminals=tuple(sorted(grammar.nonterminals)),
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
