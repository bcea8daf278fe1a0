"""Tree grammar data structures."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hashcons import HashConsed

# The designated grammar start symbol and the designated terminal capturing
# the assignment of an ET result to its destination (paper, section 3.1).
START_SYMBOL = "START"
ASSIGN_TERMINAL = "ASSIGN"
# Terminal label of program constants; hardwired constants additionally carry
# the required value.
CONST_TERMINAL = "Const"


class PatternNode(HashConsed):
    """Base class of grammar-rule pattern nodes.  Patterns are hash-consed
    (:mod:`repro.hashcons`): equal means identical, nodes are immutable,
    and each caches its text."""

    __slots__ = ()

    def children(self) -> Tuple["PatternNode", ...]:
        return ()


class PatTerm(PatternNode):
    """A terminal occurrence in a rule pattern.

    ``value`` is only used for hardwired-constant terminals: the pattern then
    matches only constant ET nodes with exactly that value.  A ``Const``
    terminal without value matches any program constant (immediate fields).
    """

    __slots__ = _fields = ("name", "operands", "value")
    _defaults = {"operands": (), "value": None}
    name: str
    operands: Tuple[PatternNode, ...]
    value: Optional[int]

    def children(self) -> Tuple[PatternNode, ...]:
        return self.operands

    def _render(self) -> str:
        label = self.name if self.value is None else "%s#%d" % (self.name, self.value)
        if not self.operands:
            return label
        return "%s(%s)" % (label, ", ".join(str(c) for c in self.operands))


class PatNonterm(PatternNode):
    """A non-terminal occurrence (always a leaf) in a rule pattern."""

    __slots__ = _fields = ("name",)
    name: str

    def _render(self) -> str:
        return self.name


class RuleKind(enum.Enum):
    START = "start"
    RT = "rt"
    STOP = "stop"


@dataclass
class Rule:
    """One grammar rule ``lhs -> pattern`` with its cost."""

    index: int
    lhs: str
    pattern: PatternNode
    cost: int
    kind: RuleKind
    template: object = None  # the originating RTTemplate for RT rules

    def is_chain(self) -> bool:
        """A chain rule derives a bare non-terminal (e.g. register-register
        moves, stop rules)."""
        return isinstance(self.pattern, PatNonterm)

    def __str__(self) -> str:
        return "%s -> %s  [cost %d, %s]" % (self.lhs, self.pattern, self.cost, self.kind.value)


@dataclass
class TreeGrammar:
    """A complete tree grammar ``G = (sigma_T, sigma_N, S, R, c)``."""

    processor: str
    terminals: Set[str] = field(default_factory=set)
    nonterminals: Set[str] = field(default_factory=set)
    start: str = START_SYMBOL
    rules: List[Rule] = field(default_factory=list)

    # -- construction helpers --------------------------------------------------

    def add_rule(
        self,
        lhs: str,
        pattern: PatternNode,
        cost: int,
        kind: RuleKind,
        template: object = None,
    ) -> Rule:
        rule = Rule(
            index=len(self.rules),
            lhs=lhs,
            pattern=pattern,
            cost=cost,
            kind=kind,
            template=template,
        )
        self.rules.append(rule)
        return rule

    # -- views -------------------------------------------------------------------

    def rt_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.kind == RuleKind.RT]

    def start_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.kind == RuleKind.START]

    def stop_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.kind == RuleKind.STOP]

    def chain_rules(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_chain()]

    def rules_by_root(self) -> Dict[str, List[Rule]]:
        """Non-chain rules indexed by the terminal label at their pattern
        root; used by the BURS labeller for fast candidate lookup."""
        index: Dict[str, List[Rule]] = {}
        for rule in self.rules:
            if rule.is_chain():
                continue
            root = rule.pattern
            if isinstance(root, PatTerm):
                index.setdefault(root.name, []).append(rule)
        return index

    def chain_rules_by_source(self) -> Dict[str, List[Rule]]:
        """Chain rules indexed by the non-terminal they derive from."""
        index: Dict[str, List[Rule]] = {}
        for rule in self.chain_rules():
            assert isinstance(rule.pattern, PatNonterm)
            index.setdefault(rule.pattern.name, []).append(rule)
        return index

    def stats(self) -> Dict[str, int]:
        return {
            "terminals": len(self.terminals),
            "nonterminals": len(self.nonterminals),
            "rules": len(self.rules),
            "rt_rules": len(self.rt_rules()),
            "start_rules": len(self.start_rules()),
            "stop_rules": len(self.stop_rules()),
            "chain_rules": len(self.chain_rules()),
        }

    # -- consistency ----------------------------------------------------------------

    def validate(self) -> List[str]:
        """Structural consistency problems (empty list when the grammar is
        well formed)."""
        problems: List[str] = []
        if self.start not in self.nonterminals:
            problems.append("start symbol %r is not a non-terminal" % self.start)
        for rule in self.rules:
            if rule.lhs not in self.nonterminals:
                problems.append("rule %d: unknown lhs %r" % (rule.index, rule.lhs))
            problems.extend(self._check_pattern(rule, rule.pattern))
            if rule.cost < 0:
                problems.append("rule %d: negative cost" % rule.index)
        return problems

    def _check_pattern(self, rule: Rule, pattern: PatternNode) -> List[str]:
        problems: List[str] = []
        if isinstance(pattern, PatNonterm):
            if pattern.name not in self.nonterminals:
                problems.append(
                    "rule %d: unknown non-terminal %r in pattern" % (rule.index, pattern.name)
                )
            return problems
        if isinstance(pattern, PatTerm):
            if pattern.name not in self.terminals:
                problems.append(
                    "rule %d: unknown terminal %r in pattern" % (rule.index, pattern.name)
                )
            for child in pattern.operands:
                problems.extend(self._check_pattern(rule, child))
            return problems
        problems.append("rule %d: unexpected pattern node %r" % (rule.index, pattern))
        return problems


def nonterminal_for(name: str) -> str:
    """The unique non-terminal symbol for a storage resource or port
    (``NonTerm(x)`` in the paper)."""
    return "nt_%s" % name


def storage_of_nonterminal(nonterminal: str) -> str:
    """Inverse of :func:`nonterminal_for`."""
    if nonterminal.startswith("nt_"):
        return nonterminal[3:]
    return nonterminal
