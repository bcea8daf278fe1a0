"""Offline-compiled matcher tables for the tree parser.

iburg compiles a grammar into static tables consulted by the generated
parser; :meth:`GrammarTables.build` plays the same role for our Python
matcher.  One pass over the rules produces:

* **the depth-one normal form** -- the grammar the library's on-demand
  automaton (:class:`~repro.selector.burs.CodeSelector`) and the emitted
  matcher module (:mod:`repro.selector.emit`) label with.  Every inner
  pattern node (a terminal below a rule's root, leaves such as ``Const``,
  ``Const#2`` and the destination storage under ``ASSIGN`` included) is
  named by a fresh non-terminal with exactly one zero-cost rule;
  identical inner sub-patterns share one.  Each non-chain rule then
  becomes one :class:`ShapeRule` over child non-terminals, grouped by
  ``(label, arity)`` in rule-index order and carrying the original rule
  with its leaf specs, so a cover found on the normal form reduces to the
  original rules.  Fresh non-terminals take no part in the chain closure;
* **precomputed chain closure** -- the full transitive closure of the
  chain-rule graph, per source non-terminal: for every reachable target
  the minimal extra cost and the exact rule path realizing it.  The
  labeller applies this matrix directly, with no per-node fixpoint.
  Ties are broken deterministically by the lexicographically smallest
  rule-index path, which both the automaton and the interpretive
  matcher honour so their covers are identical;
* **rule indexes** -- non-chain rules by pattern-root terminal and chain
  rules by source non-terminal, read by the interpretive matcher (the
  test oracle) and the target lints.

Tables depend only on the grammar, are built once per retarget (the
``tables`` phase of :func:`repro.record.retarget.retarget`), pickle with
the :class:`~repro.record.retarget.RetargetResult` through the retarget
cache (warm starts skip generation), and are shared read-only by every
session and service thread using the selector.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.grammar.grammar import PatNonterm, PatternNode, PatTerm, Rule, TreeGrammar

#: Where one non-terminal leaf of a rule pattern sits: ``(child-index path
#: from the pattern root, non-terminal)``.
LeafSpec = Tuple[Tuple[int, ...], str]

#: One chain-closure entry: ``(target, delta_cost, rule_path)`` -- deriving
#: ``target`` from the source costs ``delta_cost`` more, applying the chain
#: rules of ``rule_path`` in order (source first).
ClosureEntry = Tuple[str, int, Tuple[Rule, ...]]


class ShapeRule(NamedTuple):
    """One depth-one rule of the normal form: ``lhs -> label(operands)``.

    A node matches when it carries the rule's label (the key of its
    ``shape_rules`` group), the hardwired ``value`` (when not None) and
    one child per operand, each deriving that operand non-terminal.
    ``rule`` is the grammar rule this stands for and ``leaves`` its leaf
    specs; the zero-cost rule of a fresh non-terminal has ``rule`` None
    and no leaves.
    """

    value: Optional[int]
    operands: Tuple[str, ...]
    cost: int
    lhs: str
    rule: Optional[Rule]
    leaves: Tuple[LeafSpec, ...]


def chain_closure_from(
    source: str, chain_rules_by_source: Dict[str, List[Rule]]
) -> Tuple[ClosureEntry, ...]:
    """Shortest chain-rule paths from ``source`` to every reachable
    non-terminal (the trivial ``source -> source`` entry excluded).

    Dijkstra over the chain-rule graph; ties on cost are broken by the
    lexicographically smallest rule-index path, making the result -- and
    therefore the selected covers -- deterministic.  Entries come back in
    settle order (by ``(delta, rule-index path)``).
    """
    settled: Dict[str, bool] = {}
    entries: List[ClosureEntry] = []
    heap: List[tuple] = [(0, (), source, ())]
    while heap:
        delta, index_path, nonterminal, rule_path = heapq.heappop(heap)
        if nonterminal in settled:
            continue
        settled[nonterminal] = True
        if rule_path:
            entries.append((nonterminal, delta, rule_path))
        for rule in chain_rules_by_source.get(nonterminal, ()):
            if rule.lhs in settled:
                continue
            heapq.heappush(
                heap,
                (
                    delta + rule.cost,
                    index_path + (rule.index,),
                    rule.lhs,
                    rule_path + (rule,),
                ),
            )
    return tuple(entries)


class _NormalForm:
    """Builder of the depth-one normal form, one rule at a time.  Work is
    memoized per (hash-consed) pattern node: each distinct root's operands
    and leaf specs, and each distinct inner pattern's fresh name."""

    def __init__(self, nonterminals: Set[str]):
        self.shapes: Dict[Tuple[str, int], List[ShapeRule]] = {}
        self.hardwired: Set[int] = set()
        # root pattern -> (operand non-terminals, leaf specs)
        self._roots: Dict[PatternNode, Tuple[Tuple[str, ...], Tuple[LeafSpec, ...]]] = {}
        # inner pattern -> fresh non-terminal
        self._inner: Dict[PatternNode, str] = {}
        self._taken = set(nonterminals)

    def add_rule(self, rule: Rule) -> None:
        root = rule.pattern
        shape = self._roots.get(root)
        if shape is None:
            # Leaf specs in left-to-right pre-order, the order in which the
            # rule's non-terminal leaves are reduced.
            leaves: List[LeafSpec] = []
            stack: List[Tuple[PatternNode, Tuple[int, ...]]] = [(root, ())]
            while stack:
                pattern, path = stack.pop()
                if isinstance(pattern, PatNonterm):
                    leaves.append((path, sys.intern(pattern.name)))
                    continue
                operands = pattern.operands
                for index in range(len(operands) - 1, -1, -1):
                    stack.append((operands[index], path + (index,)))
            operands = tuple([self._operand(operand) for operand in root.operands])
            shape = self._roots[root] = (operands, tuple(leaves))
        self._add(root, shape[0], rule.cost, rule.lhs, rule, shape[1])

    def _add(
        self,
        pattern: PatTerm,
        operands: Tuple[str, ...],
        cost: int,
        lhs: str,
        rule: Optional[Rule],
        leaves: Tuple[LeafSpec, ...],
    ) -> None:
        if pattern.value is not None:
            self.hardwired.add(pattern.value)
        self.shapes.setdefault((sys.intern(pattern.name), len(operands)), []).append(
            ShapeRule(pattern.value, operands, cost, lhs, rule, leaves)
        )

    def _operand(self, pattern) -> str:
        """The non-terminal a pattern operand is read through: its own
        name, or the fresh one naming an inner pattern node.  Equal inner
        sub-patterns are one node and share one fresh name."""
        if isinstance(pattern, PatNonterm):
            return pattern.name
        name = self._inner.get(pattern)
        if name is None:
            operands = tuple([self._operand(operand) for operand in pattern.operands])
            name = "<%s>" % pattern
            while name in self._taken:
                name += "'"
            name = sys.intern(name)
            self._taken.add(name)
            self._inner[pattern] = name
            self._add(pattern, operands, 0, name, None, ())
        return name


@dataclass
class GrammarTables:
    """Matcher tables derived offline from one tree grammar."""

    grammar: TreeGrammar
    # Rule indexes, read by the interpretive matcher and the target lints.
    rules_by_root: Dict[str, List[Rule]] = field(default_factory=dict)
    chain_rules_by_source: Dict[str, List[Rule]] = field(default_factory=dict)
    # Precomputed chain closure, per source non-terminal.
    chain_closure: Dict[str, Tuple[ClosureEntry, ...]] = field(default_factory=dict)
    # The depth-one normal form, grouped by (label, arity).
    shape_rules: Dict[Tuple[str, int], Tuple[ShapeRule, ...]] = field(
        default_factory=dict
    )
    # Constant values some pattern hardwires: the only ones a node's
    # state can depend on.
    hardwired_values: FrozenSet[int] = frozenset()
    #: Wall-clock seconds spent building these tables (the ``tables``
    #: retargeting phase).
    build_time_s: float = 0.0

    @classmethod
    def build(cls, grammar: TreeGrammar) -> "GrammarTables":
        from repro.obs.trace import current_tracer

        started = time.perf_counter()
        with current_tracer().span(
            "tables:build", rules=len(grammar.rules)
        ):
            tables = cls._build_inner(grammar)
        tables.build_time_s = time.perf_counter() - started
        return tables

    @classmethod
    def _build_inner(cls, grammar: TreeGrammar) -> "GrammarTables":
        tables = cls(grammar=grammar)
        normal_form = _NormalForm(grammar.nonterminals)
        for rule in grammar.rules:
            pattern = rule.pattern
            if isinstance(pattern, PatNonterm):
                tables.chain_rules_by_source.setdefault(pattern.name, []).append(rule)
            elif isinstance(pattern, PatTerm):
                tables.rules_by_root.setdefault(pattern.name, []).append(rule)
                normal_form.add_rule(rule)
        # Shape rules stay in rule index order, which fixes the tie-break:
        # the first matching rule of equal cost wins, exactly like the
        # interpretive matcher.
        tables.shape_rules = {
            shape: tuple(rules) for shape, rules in normal_form.shapes.items()
        }
        tables.hardwired_values = frozenset(normal_form.hardwired)
        # Full chain closure from every non-terminal that can appear in a
        # node state (any rule lhs) -- precomputing from all lhs symbols
        # keeps the labeller lookup total.
        sources = {rule.lhs for rule in grammar.rules}
        sources.update(tables.chain_rules_by_source)
        for source in sorted(sources):
            closure = chain_closure_from(source, tables.chain_rules_by_source)
            if closure:
                tables.chain_closure[source] = closure
        return tables

    # -- lookups ---------------------------------------------------------------

    def candidate_rules(self, label: str) -> List[Rule]:
        """Non-chain rules whose pattern root carries the given terminal."""
        return self.rules_by_root.get(label, [])

    def chain_candidates(self, nonterminal: str) -> List[Rule]:
        """Chain rules that can fire once ``nonterminal`` has been derived."""
        return self.chain_rules_by_source.get(nonterminal, [])

    def closure_from(self, source: str) -> Tuple[ClosureEntry, ...]:
        """The precomputed chain closure of ``source``."""
        return self.chain_closure.get(source, ())

    def stats(self) -> Dict[str, object]:
        return {
            "root_labels": len(self.rules_by_root),
            "indexed_rules": sum(len(r) for r in self.rules_by_root.values()),
            "chain_sources": len(self.chain_rules_by_source),
            "chain_rules": sum(len(r) for r in self.chain_rules_by_source.values()),
            "shape_rules": sum(len(s) for s in self.shape_rules.values()),
            "fresh_nonterminals": sum(
                shape.rule is None
                for shapes in self.shape_rules.values()
                for shape in shapes
            ),
            "closure_sources": len(self.chain_closure),
            "closure_entries": sum(len(c) for c in self.chain_closure.values()),
            "build_time_s": self.build_time_s,
        }
