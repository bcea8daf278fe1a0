"""Offline-compiled matcher tables for the tree parser.

iburg compiles a grammar into static tables consulted by the generated
parser; :meth:`GrammarTables.build` plays the same role for our Python
matcher.  One pass over the rules produces:

* **dense interning** -- every terminal label that roots a rule pattern
  is assigned a dense integer id (``op_ids``), and non-terminals get ids
  too (``nt_ids``), as table metadata for tooling and stats;
* **linearized match programs** -- each non-chain rule pattern is
  flattened into a :class:`MatchProgram`: a pre-order tuple of constant
  instructions (terminal checks with arity/value, non-terminal leaf
  probes with their subtree path).  The emitted matcher module
  (:mod:`repro.selector.emit`) runs these programs;
* **the depth-one normal form** -- the grammar the library's on-demand
  automaton (:class:`~repro.selector.burs.CodeSelector`) labels with.
  Every inner pattern node (a terminal below a rule's root, leaves such
  as ``Const``, ``Const#2`` and the destination storage under ``ASSIGN``
  included) is named by a fresh non-terminal with exactly one zero-cost
  rule; identical inner sub-patterns share one.  Each non-chain rule then
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
  matcher honour so their covers are identical.

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

from repro.grammar.grammar import PatNonterm, PatTerm, Rule, TreeGrammar

#: One linear match instruction.  Two shapes:
#:   ``(True, label, value, arity)``  -- terminal check: the current subject
#:       node must carry ``label``, the hardwired ``value`` (when not None)
#:       and exactly ``arity`` children (which are then scheduled);
#:   ``(False, nonterminal, path)``   -- non-terminal leaf probe: the current
#:       subject node must derive ``nonterminal``; ``path`` is the child-index
#:       path of this leaf inside the pattern (the normal form's leaf specs).
MatchInstruction = tuple

#: Where one non-terminal leaf of a rule pattern sits: ``(child-index path
#: from the pattern root, non-terminal)``.
LeafSpec = Tuple[Tuple[int, ...], str]

#: One chain-closure entry: ``(target, delta_cost, rule_path)`` -- deriving
#: ``target`` from the source costs ``delta_cost`` more, applying the chain
#: rules of ``rule_path`` in order (source first).
ClosureEntry = Tuple[str, int, Tuple[Rule, ...]]


@dataclass(frozen=True)
class MatchProgram:
    """A rule pattern compiled to a linear instruction tuple."""

    rule: Rule
    code: Tuple[MatchInstruction, ...]
    leaf_count: int


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


def linearize_pattern(rule: Rule) -> MatchProgram:
    """Flatten one non-chain rule pattern into a :class:`MatchProgram`.

    Instructions are emitted in pre-order; the matcher runs them against
    an explicit node stack, so pattern matching never recurses.
    """
    code: List[MatchInstruction] = []
    leaves = 0
    stack: List[Tuple[object, Tuple[int, ...]]] = [(rule.pattern, ())]
    while stack:
        pattern, path = stack.pop()
        if isinstance(pattern, PatNonterm):
            code.append((False, sys.intern(pattern.name), path))
            leaves += 1
            continue
        if not isinstance(pattern, PatTerm):
            raise TypeError("unexpected pattern node %r" % (pattern,))
        operands = pattern.operands
        code.append((True, sys.intern(pattern.name), pattern.value, len(operands)))
        for index in range(len(operands) - 1, -1, -1):
            stack.append((operands[index], path + (index,)))
    return MatchProgram(rule=rule, code=tuple(code), leaf_count=leaves)


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
    """Builder of the depth-one normal form, one rule at a time."""

    def __init__(self, nonterminals: Set[str]):
        self.shapes: Dict[Tuple[str, int], List[ShapeRule]] = {}
        self.hardwired: Set[int] = set()
        # (label, value, operand non-terminals) -> fresh non-terminal
        self._inner: Dict[tuple, str] = {}
        self._taken = set(nonterminals)
        # Equal tuples are stored once: on ref, 2,227 shape rules use 238
        # distinct operand tuples and 179 distinct leaf specs.
        self._shared: Dict[tuple, tuple] = {}

    def add_rule(self, rule: Rule, program: MatchProgram) -> None:
        root = rule.pattern
        leaves = tuple(
            (instruction[2], instruction[1])
            for instruction in program.code
            if not instruction[0]
        )
        operands = tuple([self._operand(operand) for operand in root.operands])
        self._add(root, operands, rule.cost, rule.lhs, rule, leaves)

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
        shared = self._shared.setdefault
        self.shapes.setdefault((sys.intern(pattern.name), len(operands)), []).append(
            ShapeRule(
                pattern.value,
                shared(operands, operands),
                cost,
                lhs,
                rule,
                shared(leaves, leaves),
            )
        )

    def _operand(self, pattern) -> str:
        """The non-terminal a pattern operand is read through: its own
        name, or the fresh one naming an inner pattern node.  Operands
        are named bottom-up, so equal inner sub-patterns have equal
        ``(label, value, operand names)`` and share one fresh name."""
        if isinstance(pattern, PatNonterm):
            return pattern.name
        operands = tuple([self._operand(operand) for operand in pattern.operands])
        key = (pattern.name, pattern.value, operands)
        name = self._inner.get(key)
        if name is None:
            name = "<%s>" % pattern
            while name in self._taken:
                name += "'"
            name = sys.intern(name)
            self._taken.add(name)
            self._inner[key] = name
            self._add(pattern, operands, 0, name, None, ())
        return name


@dataclass
class GrammarTables:
    """Matcher tables derived offline from one tree grammar."""

    grammar: TreeGrammar
    # Legacy rule indexes (kept -- cheap, and still the clearest view).
    rules_by_root: Dict[str, List[Rule]] = field(default_factory=dict)
    chain_rules_by_source: Dict[str, List[Rule]] = field(default_factory=dict)
    # Dense interning of pattern-root operators and non-terminals.
    op_ids: Dict[str, int] = field(default_factory=dict)
    op_names: List[str] = field(default_factory=list)
    nt_ids: Dict[str, int] = field(default_factory=dict)
    nt_names: List[str] = field(default_factory=list)
    # Linearized match programs, indexed by dense operator id.
    programs_by_op: List[Tuple[MatchProgram, ...]] = field(default_factory=list)
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
        programs: Dict[str, List[MatchProgram]] = {}
        for rule in grammar.rules:
            pattern = rule.pattern
            if isinstance(pattern, PatNonterm):
                tables.chain_rules_by_source.setdefault(pattern.name, []).append(rule)
            elif isinstance(pattern, PatTerm):
                tables.rules_by_root.setdefault(pattern.name, []).append(rule)
                # Dense ids: pattern-root operators in first-appearance
                # (rule index) order.
                if pattern.name not in tables.op_ids:
                    tables.op_ids[sys.intern(pattern.name)] = len(tables.op_names)
                    tables.op_names.append(pattern.name)
                program = linearize_pattern(rule)
                programs.setdefault(pattern.name, []).append(program)
                normal_form.add_rule(rule, program)
        for name in sorted(grammar.nonterminals):
            tables.nt_ids[sys.intern(name)] = len(tables.nt_names)
            tables.nt_names.append(name)
        # Match programs and shape rules stay in rule index order, which
        # fixes the tie-break: the first matching rule of equal cost wins,
        # exactly like the interpretive matcher.
        tables.programs_by_op = [tuple(programs[name]) for name in tables.op_names]
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

    def programs_for(self, label: str) -> Tuple[MatchProgram, ...]:
        """The linearized match programs rooted at ``label``."""
        op = self.op_ids.get(label)
        if op is None:
            return ()
        return self.programs_by_op[op]

    def closure_from(self, source: str) -> Tuple[ClosureEntry, ...]:
        """The precomputed chain closure of ``source``."""
        return self.chain_closure.get(source, ())

    def stats(self) -> Dict[str, object]:
        return {
            "root_labels": len(self.rules_by_root),
            "indexed_rules": sum(len(r) for r in self.rules_by_root.values()),
            "chain_sources": len(self.chain_rules_by_source),
            "chain_rules": sum(len(r) for r in self.chain_rules_by_source.values()),
            "operators": len(self.op_names),
            "nonterminals": len(self.nt_names),
            "match_programs": sum(len(p) for p in self.programs_by_op),
            "program_instructions": sum(
                len(program.code)
                for programs in self.programs_by_op
                for program in programs
            ),
            "closure_sources": len(self.chain_closure),
            "closure_entries": sum(len(c) for c in self.chain_closure.values()),
            "build_time_s": self.build_time_s,
        }
