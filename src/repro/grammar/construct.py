"""Translation of an RT template base into a tree grammar (section 3.1)."""

from __future__ import annotations

from typing import Dict

from repro.grammar.grammar import (
    ASSIGN_TERMINAL,
    CONST_TERMINAL,
    PatNonterm,
    PatTerm,
    PatternNode,
    RuleKind,
    START_SYMBOL,
    TreeGrammar,
    nonterminal_for,
)
from repro.hdl.ast import ModuleKind, PortDirection
from repro.ise.templates import (
    ConstLeaf,
    ImmLeaf,
    OpNode,
    Pattern,
    PortLeaf,
    RegLeaf,
    RTTemplateBase,
)
from repro.netlist.netlist import Netlist


class GrammarConstructionError(Exception):
    """Raised when an RT template cannot be expressed in the grammar."""


def build_tree_grammar(netlist: Netlist, template_base: RTTemplateBase) -> TreeGrammar:
    """Construct ``G = (sigma_T, sigma_N, S, R, c)`` for a processor.

    ``SEQ`` is the set of sequential components (registers, memories and
    mode registers), ``PORTS`` the primary processor ports.  The rule set
    consists of start rules (one per possible ET destination), RT rules (one
    per template of the extended base) and stop rules (one per sequential
    component).
    """
    grammar = TreeGrammar(processor=netlist.name, start=START_SYMBOL)

    sequential = [
        module.name
        for module in netlist.modules.values()
        if module.kind in (ModuleKind.REGISTER, ModuleKind.MEMORY, ModuleKind.MODE_REGISTER)
    ]
    ports = list(netlist.primary_ports)
    output_ports = [
        name
        for name, port in netlist.primary_ports.items()
        if port.direction == PortDirection.OUT
    ]

    # -- terminals ----------------------------------------------------------------
    grammar.terminals.add(ASSIGN_TERMINAL)
    grammar.terminals.add(CONST_TERMINAL)
    grammar.terminals.update(sequential)
    grammar.terminals.update(ports)
    grammar.terminals.update(template_base.operators())

    # -- non-terminals -------------------------------------------------------------
    grammar.nonterminals.add(START_SYMBOL)
    for name in sequential + ports:
        grammar.nonterminals.add(nonterminal_for(name))

    # -- start rules ----------------------------------------------------------------
    for destination in sequential + output_ports:
        pattern = PatTerm(
            ASSIGN_TERMINAL,
            (PatTerm(destination), PatNonterm(nonterminal_for(destination))),
        )
        grammar.add_rule(START_SYMBOL, pattern, cost=0, kind=RuleKind.START)

    # -- RT rules --------------------------------------------------------------------
    lowered: Dict[Pattern, PatternNode] = {}
    for template in template_base:
        lhs = nonterminal_for(template.destination)
        if lhs not in grammar.nonterminals:
            raise GrammarConstructionError(
                "template destination %r is neither a sequential component "
                "nor a primary port" % template.destination
            )
        pattern = _lower_pattern(template.pattern, grammar, lowered)
        grammar.add_rule(lhs, pattern, cost=1, kind=RuleKind.RT, template=template)

    # -- stop rules -------------------------------------------------------------------
    for name in sequential:
        grammar.add_rule(
            nonterminal_for(name), PatTerm(name), cost=0, kind=RuleKind.STOP
        )
    # Primary input ports may likewise terminate derivations so that port
    # operands can feed chained operations through their non-terminal.
    for name, port in netlist.primary_ports.items():
        if port.direction == PortDirection.IN:
            grammar.add_rule(
                nonterminal_for(name), PatTerm(name), cost=0, kind=RuleKind.STOP
            )
    return grammar


def _lower_pattern(
    pattern: Pattern, grammar: TreeGrammar, memo: Dict[Pattern, PatternNode]
) -> PatternNode:
    """The ``L(exp)`` mapping of table 2 in the paper, memoized per
    pattern node for one grammar: shared sub-patterns are lowered once."""
    lowered = memo.get(pattern)
    if lowered is None:
        lowered = memo[pattern] = _lower_node(pattern, grammar, memo)
    return lowered


def _lower_node(
    pattern: Pattern, grammar: TreeGrammar, memo: Dict[Pattern, PatternNode]
) -> PatternNode:
    if isinstance(pattern, ConstLeaf):
        return PatTerm(CONST_TERMINAL, value=pattern.value)
    if isinstance(pattern, ImmLeaf):
        return PatTerm(CONST_TERMINAL)
    if isinstance(pattern, RegLeaf):
        nonterm = nonterminal_for(pattern.storage)
        if nonterm not in grammar.nonterminals:
            raise GrammarConstructionError(
                "pattern references unknown storage %r" % pattern.storage
            )
        return PatNonterm(nonterm)
    if isinstance(pattern, PortLeaf):
        if pattern.port not in grammar.terminals:
            raise GrammarConstructionError(
                "pattern references unknown port %r" % pattern.port
            )
        return PatTerm(pattern.port)
    if isinstance(pattern, OpNode):
        children = tuple(_lower_pattern(child, grammar, memo) for child in pattern.operands)
        return PatTerm(pattern.op, children)
    raise GrammarConstructionError("unsupported pattern node %r" % type(pattern).__name__)
