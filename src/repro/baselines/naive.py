"""Greedy maximal-munch code selection, a non-optimal baseline selector."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.grammar.grammar import PatNonterm, PatTerm, PatternNode, RuleKind, TreeGrammar
from repro.selector.burs import SelectionError
from repro.selector.subject import SubjectNode
from repro.selector.tables import GrammarTables


class GreedyMaximalMunch:
    """Greedy top-down maximal-munch code selection.

    At every node the largest matching rule (most pattern nodes) is chosen
    without cost comparison -- the classic non-optimal strategy that
    pre-BURS code generators used.  It returns the number of RT rules
    selected; when the greedy choice runs into a dead end the affected
    subtree falls back to single-operation rules.
    """

    def __init__(self, grammar: TreeGrammar):
        self.grammar = grammar
        self.tables = GrammarTables.build(grammar)

    # -- public API ---------------------------------------------------------------

    def cover_size(self, root: SubjectNode, goal: Optional[str] = None) -> int:
        """Number of RT rules used to cover ``root`` (greedy, not optimal)."""
        goal = goal if goal is not None else self.grammar.start
        size = self._munch(root, goal, set())
        if size is None:
            raise SelectionError(
                "greedy selection failed for %r on %s" % (root, self.grammar.processor)
            )
        return size

    # -- internals -------------------------------------------------------------------

    def _munch(self, node: SubjectNode, goal: str, active: set) -> Optional[int]:
        key = (id(node), goal)
        if key in active:
            return None
        active = active | {key}
        candidates = self._candidate_rules(node, goal)
        for rule, pattern_size in candidates:
            bindings: List[Tuple[SubjectNode, str]] = []
            if not self._match(rule.pattern, node, bindings):
                continue
            total = 1 if rule.kind == RuleKind.RT else 0
            failed = False
            for child_node, child_goal in bindings:
                child_size = self._munch(child_node, child_goal, active)
                if child_size is None:
                    failed = True
                    break
                total += child_size
            if not failed:
                return total
        return None

    def _candidate_rules(self, node: SubjectNode, goal: str):
        """Rules with lhs == goal, largest pattern first."""
        scored = []
        for rule in self.grammar.rules:
            if rule.lhs != goal:
                continue
            scored.append((rule, _pattern_size(rule.pattern)))
        scored.sort(key=lambda item: (-item[1], item[0].index))
        return scored

    def _match(
        self,
        pattern: PatternNode,
        node: SubjectNode,
        bindings: List[Tuple[SubjectNode, str]],
    ) -> bool:
        if isinstance(pattern, PatNonterm):
            bindings.append((node, pattern.name))
            return True
        if isinstance(pattern, PatTerm):
            if node.label != pattern.name:
                return False
            if pattern.value is not None and node.const_value != pattern.value:
                return False
            if len(node.children) != len(pattern.operands):
                return False
            for child_pattern, child_node in zip(pattern.operands, node.children):
                if not self._match(child_pattern, child_node, bindings):
                    return False
            return True
        return False


def _pattern_size(pattern: PatternNode) -> int:
    return 1 + sum(_pattern_size(child) for child in pattern.children())
