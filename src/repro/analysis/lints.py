"""Target/grammar lints (``repro lint-target``).

Static diagnosis of a retargeted tree grammar, computed from the same
:class:`~repro.selector.tables.GrammarTables` the matcher runs on:

* **unreachable rules** -- rules whose left-hand side no derivation
  starting at the start symbol ever demands; they can never take part in
  a cover (typically a template whose destination storage has no route
  to any assignment destination);
* **shadowed rules** -- a rule with the same left-hand side and the same
  pattern as an earlier rule at no lower cost; the matcher's
  deterministic tie-break (first rule wins) makes it dead;
* **zero-cost chain cycles** -- cycles of cost-0 chain rules; the
  closure's settled-set makes them harmless operationally, but they
  always indicate a modelling mistake (a storage move that costs
  nothing in both directions);
* **inert operators** -- operator terminals used in rule patterns that
  neither the frontend nor any expansion rewrite can ever put into a
  subject tree, so the rules carrying them never match.

Severity calibration: a clean target reports zero errors -- every
built-in target must lint clean -- so grammar oddities that working
targets legitimately exhibit are warnings or notes, and only genuine
impossibilities (the zero-cost cycle) are errors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.verify import Finding
from repro.grammar.grammar import (
    ASSIGN_TERMINAL,
    CONST_TERMINAL,
    PatNonterm,
    PatTerm,
    PatternNode,
    Rule,
    TreeGrammar,
)

#: Operator vocabulary the frontend can lower into subject trees
#: (``repro.frontend.lowering``); relational operators evaluate on the
#: condition logic and never enter tree covering.
IR_OPERATORS = frozenset(
    ["add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "neg", "not"]
)


def _pattern_nonterminals(pattern) -> Set[str]:
    names: Set[str] = set()
    stack = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, PatNonterm):
            names.add(node.name)
        else:
            stack.extend(node.children())
    return names


def _pattern_operators(pattern) -> Set[str]:
    """Names of interior (operator) terminals of a rule pattern --
    ``PatTerm`` nodes with operands, excluding the ``ASSIGN`` root."""
    names: Set[str] = set()
    stack = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, PatTerm):
            if node.operands and node.name != ASSIGN_TERMINAL:
                names.add(node.name)
            stack.extend(node.operands)
    return names


def _reachable_rules(grammar: TreeGrammar) -> Set[int]:
    """Indexes of rules demanded by some derivation from the start symbol."""
    rules_by_lhs: Dict[str, List[Rule]] = {}
    for rule in grammar.rules:
        rules_by_lhs.setdefault(rule.lhs, []).append(rule)
    demanded: Set[str] = {grammar.start}
    reachable: Set[int] = set()
    worklist = [grammar.start]
    while worklist:
        nonterminal = worklist.pop()
        for rule in rules_by_lhs.get(nonterminal, ()):
            reachable.add(rule.index)
            for name in _pattern_nonterminals(rule.pattern):
                if name not in demanded:
                    demanded.add(name)
                    worklist.append(name)
    return reachable


def _zero_cost_cycles(grammar: TreeGrammar) -> List[List[str]]:
    """Cycles in the cost-0 chain-rule graph, one representative per
    strongly-entangled node (deterministic order)."""
    edges: Dict[str, List[str]] = {}
    for rule in grammar.chain_rules():
        if rule.cost == 0:
            assert isinstance(rule.pattern, PatNonterm)
            edges.setdefault(rule.pattern.name, []).append(rule.lhs)
    cycles: List[List[str]] = []
    claimed: Set[str] = set()
    for start in sorted(edges):
        if start in claimed:
            continue
        # DFS from ``start`` looking for a path back to it.
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            for target in edges.get(node, ()):
                if target == start:
                    cycles.append(path + [start])
                    claimed.update(path)
                    stack = []
                    break
                if target not in seen:
                    seen.add(target)
                    stack.append((target, path + [target]))
    return cycles


def lint_grammar(
    grammar: TreeGrammar, producible_operators: Optional[Set[str]] = None
) -> List[Finding]:
    """All grammar lints over one tree grammar.

    ``producible_operators`` overrides the operator vocabulary subject
    trees can contain (defaults to :data:`IR_OPERATORS`).
    """
    findings: List[Finding] = []
    producible = (
        frozenset(producible_operators)
        if producible_operators is not None
        else IR_OPERATORS
    )

    for problem in grammar.validate():
        findings.append(Finding("grammar", "error", problem))

    reachable = _reachable_rules(grammar)
    for rule in grammar.rules:
        if rule.index not in reachable:
            findings.append(
                Finding(
                    "unreachable-rule",
                    "warning",
                    "no derivation from %r ever demands this rule"
                    % grammar.start,
                    str(rule),
                )
            )

    first_of: Dict[Tuple[str, PatternNode], Rule] = {}
    for rule in grammar.rules:
        key = (rule.lhs, rule.pattern)
        earlier = first_of.get(key)
        if earlier is None:
            first_of[key] = rule
        elif rule.cost >= earlier.cost:
            findings.append(
                Finding(
                    "shadowed-rule",
                    "warning",
                    "shadowed by rule %d (%s): identical pattern at cost "
                    "%d vs %d -- the first matching rule always wins"
                    % (earlier.index, earlier, earlier.cost, rule.cost),
                    str(rule),
                )
            )
        elif rule.cost < earlier.cost:
            first_of[key] = rule

    for cycle in _zero_cost_cycles(grammar):
        findings.append(
            Finding(
                "chain-cycle",
                "error",
                "zero-cost chain cycle: %s" % " -> ".join(cycle),
            )
        )

    for rule in grammar.rules:
        inert = _pattern_operators(rule.pattern) - producible
        inert.discard(CONST_TERMINAL)
        for operator in sorted(inert):
            findings.append(
                Finding(
                    "inert-operator",
                    "note",
                    "operator %r never occurs in a subject tree (frontend "
                    "and expansion rewrites cannot produce it)" % operator,
                    str(rule),
                )
            )
    return findings


def lint_target(retarget_result) -> List[Finding]:
    """Lint one retargeted processor: grammar lints plus cross-checks
    against the selector's precomputed :class:`GrammarTables`."""
    grammar = retarget_result.grammar
    findings = lint_grammar(grammar)
    tables = getattr(retarget_result.selector, "tables", None)
    if tables is not None:
        indexed: Set[int] = set()
        for rules in tables.rules_by_root.values():
            indexed.update(rule.index for rule in rules)
        for rules in tables.chain_rules_by_source.values():
            indexed.update(rule.index for rule in rules)
        for rule in grammar.rules:
            if rule.index not in indexed:
                findings.append(
                    Finding(
                        "tables",
                        "error",
                        "rule missing from the matcher tables",
                        str(rule),
                    )
                )
    return findings
