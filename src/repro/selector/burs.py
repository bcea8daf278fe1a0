"""BURS-style dynamic-programming tree parsing.

The labeller computes, bottom-up, for every subject node and every
non-terminal the cheapest rule deriving the node from that non-terminal
(including chain-rule closure).  The reducer then walks the optimal
derivation top-down from the start symbol and returns the ordered list of
selected rules (the *cover*), children before parents, so that RT rules can
be emitted directly as instructions.

The computed derivations are optimal with respect to the accumulated rule
costs, mirroring the guarantee of parsers generated by iburg.

Two matcher backends share this guarantee and produce identical covers:

* ``matcher="tables"`` (the default) is an on-demand tree-parsing
  automaton (Ertl, Casey and Gregg, PLDI 2006).  A node's *state* maps
  each non-terminal it derives to the cheapest rule and that rule's cost
  *relative to the state's cheapest entry*, so subtrees that differ only
  in absolute cost share one state.  Each subject node gets its state
  through one memoized transition ``(label, const value, child state ids)
  -> (state, base cost)``; only a miss computes a state, from the
  depth-one normal form of
  :class:`~repro.selector.tables.GrammarTables` and its precomputed chain
  closure.  A node's absolute cost for a non-terminal is the sum of its
  children's base costs, plus its transition's base cost, plus the
  entry's relative cost.  States and transitions depend only on the
  grammar, so they repeat across statements, programs and requests that
  never repeat a subtree.  ``memo_size`` bounds the transition memo
  (``0`` disables it);
* ``matcher="interpretive"``: recursive pattern matching over grammar
  objects and chain closure recomputed at every node.  It is the
  differential-testing oracle (see ``tests/test_selector_differential.py``).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.grammar.grammar import (
    PatNonterm,
    PatTerm,
    PatternNode,
    Rule,
    RuleKind,
    TreeGrammar,
    storage_of_nonterminal,
)
from repro.selector.subject import SubjectNode
from repro.selector.tables import GrammarTables, LeafSpec, chain_closure_from

#: Matcher backends accepted by :class:`CodeSelector`.
MATCHERS = ("tables", "interpretive")

#: Default bound of the transition memo (memoized transitions kept).
DEFAULT_MEMO_SIZE = 8192


class SelectionError(Exception):
    """Raised when a subject tree has no derivation from the start symbol."""


@dataclass
class Match:
    """The best known way to derive a subject node from one non-terminal."""

    cost: int
    rule: Rule
    # For every non-terminal leaf of the rule pattern (in left-to-right
    # order): the subject node it matched and the required non-terminal.
    leaves: List[Tuple[SubjectNode, str]]


@dataclass
class Reduction:
    """One rule application in the optimal cover."""

    rule: Rule
    node: SubjectNode
    nonterminal: str
    leaves: List[Tuple[SubjectNode, str]]


#: One step of a cover: ``(rule, node, non-terminal, leaves)``, as in
#: :class:`Reduction`.
Step = Tuple[Rule, SubjectNode, str, List[Tuple[SubjectNode, str]]]


@dataclass
class SelectionResult:
    """The optimal cover of a subject tree: its ``steps`` in reduction
    order, children before parents."""

    cost: int
    steps: List[Step]

    @property
    def reductions(self) -> List[Reduction]:
        """The steps as :class:`Reduction` objects, built when read."""
        return [Reduction(*step) for step in self.steps]

    def rt_reductions(self) -> List[Reduction]:
        """Only the reductions that correspond to actual RT instructions."""
        return [r for r in self.reductions if r.rule.kind == RuleKind.RT]

    def rule_indices(self) -> List[int]:
        return [step[0].index for step in self.steps]


# State of one subject node on the interpretive path: non-terminal -> best
# match, with absolute costs.
_NodeState = Dict[str, Match]

#: One automaton state entry: ``(cost relative to the state's cheapest
#: entry, rule, leaf specs)``.  Fresh (inner-pattern) non-terminals carry
#: rule ``None``; a chain entry's single leaf spec is ``((), source)``.
_Entry = Tuple[int, Optional[Rule], Tuple[LeafSpec, ...]]


class _State:
    """One automaton state.  ``id`` comes from the selector's monotone
    counter, so a transition keyed on it can never hit for another
    state."""

    __slots__ = ("id", "entries")

    def __init__(self, state_id: int, entries: Dict[str, _Entry]):
        self.id = state_id
        self.entries = entries


def _leaves_at(
    node: SubjectNode, specs: Tuple[LeafSpec, ...]
) -> List[Tuple[SubjectNode, str]]:
    """Resolve leaf specs to the concrete subject nodes below ``node``."""
    leaves: List[Tuple[SubjectNode, str]] = []
    for path, nonterminal in specs:
        leaf = node
        for index in path:
            leaf = leaf.children[index]
        leaves.append((leaf, nonterminal))
    return leaves


class _StateView(Mapping):
    """One node's automaton state as returned by :meth:`CodeSelector.label`:
    grammar non-terminal -> :class:`Match` with absolute cost.  Matches
    are built when looked up, so labelling stays one transition per node."""

    __slots__ = ("_node", "_state", "_base")

    def __init__(self, node: SubjectNode, state: _State, base: int):
        self._node = node
        self._state = state
        self._base = base

    def __getitem__(self, nonterminal: str) -> Match:
        cost, rule, specs = self._state.entries[nonterminal]
        if rule is None:  # a fresh non-terminal of the normal form
            raise KeyError(nonterminal)
        return Match(cost=self._base + cost, rule=rule, leaves=_leaves_at(self._node, specs))

    def __iter__(self) -> Iterator[str]:
        for nonterminal, entry in self._state.entries.items():
            if entry[1] is not None:
                yield nonterminal

    def __len__(self) -> int:
        return sum(1 for _nonterminal in self)


class CodeSelector:
    """A processor-specific code selector for expression trees.

    ``matcher`` selects the backend (see module docstring); ``memo_size``
    bounds the transition memo of the automaton (``0`` disables it).  The
    selector is safe to share read-only across threads: the grammar
    tables are immutable after construction, and the transition memo and
    state table are plain dicts touched only through GIL-atomic
    operations, cleared together on overflow.  State ids are never
    reused, so a racing clear or two threads interning the same state
    cost misses, never wrong hits.
    """

    def __init__(
        self,
        grammar: TreeGrammar,
        tables: Optional[GrammarTables] = None,
        matcher: str = "tables",
        memo_size: int = DEFAULT_MEMO_SIZE,
    ):
        if matcher not in MATCHERS:
            raise ValueError(
                "unknown matcher %r; expected one of %s" % (matcher, ", ".join(MATCHERS))
            )
        self.grammar = grammar
        self.tables = tables if tables is not None else GrammarTables.build(grammar)
        self.matcher = matcher
        self.memo_size = memo_size
        self.memo_hits = 0
        self.memo_misses = 0
        self.nodes_labelled = 0
        self._init_automaton()

    def _init_automaton(self) -> None:
        # (label, const value, child state ids...) -> (state, base cost)
        self._transitions: Dict[tuple, Tuple[_State, int]] = {}
        # Interning table: state signature -> the state carrying it.
        self._states: Dict[frozenset, _State] = {}
        self._state_ids = itertools.count()
        # rule index -> rule_storages(rule)
        self._storages: Dict[int, Tuple[str, Tuple[str, ...]]] = {}

    # Process-local runtime state (automaton, storage table); a selector
    # pickled through the retarget cache comes back with empty ones.
    _RUNTIME = ("_transitions", "_states", "_state_ids", "_storages")

    def __getstate__(self):
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._RUNTIME
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_automaton()

    # -- public API -----------------------------------------------------------

    def select(self, root: SubjectNode, goal: Optional[str] = None) -> SelectionResult:
        """Optimal cover of ``root`` deriving it from ``goal`` (default: the
        grammar start symbol)."""
        goal = goal if goal is not None else self.grammar.start
        if self.matcher == "interpretive":
            states = self._label_subtree(root)
            match = states[id(root)].get(goal)
            if match is None:
                raise self._underivable(root, goal)
            return SelectionResult(match.cost, self._reduce(root, goal, states))
        self._run_automaton(root)
        entry = root.state.entries.get(goal)
        if entry is None:
            raise self._underivable(root, goal)
        # The cover is a right-to-left pre-order walk of the derivation
        # (explicit stack; safe on arbitrarily deep trees and chain-rule
        # paths), reversed into children-before-parents order.
        steps: List[Step] = []
        stack: List[Tuple[SubjectNode, str]] = [(root, goal)]
        while stack:
            node, nonterminal = stack.pop()
            _cost, rule, specs = node.state.entries[nonterminal]
            leaves = _leaves_at(node, specs)
            steps.append((rule, node, nonterminal, leaves))
            stack.extend(leaves)
        steps.reverse()
        return SelectionResult(root.base_cost + entry[0], steps)

    def label(self, root: SubjectNode) -> Dict[int, Mapping]:
        """The labelling pass: per-node, per-non-terminal optimal costs.

        Returns a state for every node of the tree, keyed by ``id(node)``:
        a mapping from grammar non-terminal to :class:`Match` with
        absolute cost.
        """
        if self.matcher == "interpretive":
            return self._label_subtree(root)
        return {
            id(node): _StateView(node, node.state, node.base_cost)
            for node in self._run_automaton(root)
        }

    def node_cost(self, root: SubjectNode, goal: Optional[str] = None) -> Optional[int]:
        """Cost of the optimal cover, or ``None`` when no cover exists."""
        goal = goal if goal is not None else self.grammar.start
        if self.matcher == "interpretive":
            match = self._label_subtree(root)[id(root)].get(goal)
            return match.cost if match is not None else None
        self._run_automaton(root)
        entry = root.state.entries.get(goal)
        return root.base_cost + entry[0] if entry is not None else None

    def rule_storages(self, rule: Rule) -> Tuple[str, Tuple[str, ...]]:
        """The storage ``rule`` writes and those its non-terminal leaves
        read, in leaf order (iburg's ``_nts``), built once per rule."""
        found = self._storages.get(rule.index)
        if found is None:
            leaves: List[str] = []
            stack: List[PatternNode] = [rule.pattern]
            while stack:  # left-to-right pre-order, as the leaves reduce
                pattern = stack.pop()
                if isinstance(pattern, PatNonterm):
                    leaves.append(storage_of_nonterminal(pattern.name))
                else:
                    stack.extend(reversed(pattern.operands))
            found = (storage_of_nonterminal(rule.lhs), tuple(leaves))
            self._storages[rule.index] = found
        return found

    def stats(self) -> Dict[str, object]:
        """Labeller statistics (memo behaviour and table provenance)."""
        lookups = self.memo_hits + self.memo_misses
        return {
            "matcher": self.matcher,
            "nodes_labelled": self.nodes_labelled,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": (self.memo_hits / lookups) if lookups else 0.0,
            "memo_entries": len(self._transitions),
            "memo_size": self.memo_size,
            "states": len(self._states),
            "table_build_time_s": self.tables.build_time_s,
        }

    def _underivable(self, root: SubjectNode, goal: str) -> SelectionError:
        return SelectionError(
            "expression tree %r has no derivation from %s in the grammar of %s"
            % (root, goal, self.grammar.processor)
        )

    # -- the automaton -----------------------------------------------------------

    def _run_automaton(self, root: SubjectNode) -> List[SubjectNode]:
        """Label every node in place (its ``state`` and ``base_cost``, as
        iburg's ``STATE_LABEL``): one transition per node, bottom-up over
        an explicit-stack post-order, which is returned."""
        hardwired = self.tables.hardwired_values
        memo_size = self.memo_size
        transitions = self._transitions
        order = root.post_order()
        misses = 0
        for node in order:
            # A state depends on the constant only through the equality
            # tests of hardwired-value patterns.
            value = node.const_value
            if value is not None and value not in hardwired:
                value = None
            children = node.children
            if children:
                key: tuple = (node.label, value, *[child.state.id for child in children])
                base = sum([child.base_cost for child in children])
            else:
                key = (node.label, value)
                base = 0
            found = transitions.get(key) if memo_size > 0 else None
            if found is None:
                misses += 1
                found = self._transition(
                    node.label, value, [child.state for child in children]
                )
                if memo_size > 0:
                    if len(transitions) >= memo_size:
                        transitions.clear()
                        self._states.clear()
                    transitions[key] = found
            node.state, delta = found
            node.base_cost = base + delta
        self.nodes_labelled += len(order)
        if memo_size > 0:
            self.memo_misses += misses
            self.memo_hits += len(order) - misses
        return order

    def _transition(
        self, label: str, value: Optional[int], kids: Sequence[_State]
    ) -> Tuple[_State, int]:
        """The state a node with these children's states reaches, and its
        base cost: the depth-one rules in rule-index order (strict ``<``),
        the chain closure in insertion order (as :meth:`_apply_closure`),
        then every cost made relative to the cheapest entry.  Every
        depth-one rule reads each child once, so leaving the children's
        base costs out shifts all candidates alike and keeps this exact."""
        entries: Dict[str, _Entry] = {}
        for shape in self.tables.shape_rules.get((label, len(kids)), ()):
            if shape.value is not None and shape.value != value:
                continue
            cost = shape.cost
            for kid, operand in zip(kids, shape.operands):
                entry = kid.entries.get(operand)
                if entry is None:
                    break
                cost += entry[0]
            else:
                best = entries.get(shape.lhs)
                if best is None or cost < best[0]:
                    entries[shape.lhs] = (cost, shape.rule, shape.leaves)
        closure_from = self.tables.closure_from
        for source, (base_cost, _rule, _leaves) in list(entries.items()):
            for target, delta, rule_path in closure_from(source):
                cost = base_cost + delta
                best = entries.get(target)
                if best is None or cost < best[0]:
                    last = rule_path[-1]
                    entries[target] = (cost, last, (((), last.pattern.name),))
        low = min(entry[0] for entry in entries.values()) if entries else 0
        if low:
            entries = {
                nonterminal: (cost - low, rule, leaves)
                for nonterminal, (cost, rule, leaves) in entries.items()
            }
        if self.memo_size <= 0:
            return _State(next(self._state_ids), entries), low
        signature = frozenset(
            (nonterminal, cost, None if rule is None else rule.index)
            for nonterminal, (cost, rule, _leaves) in entries.items()
        )
        state = self._states.get(signature)
        if state is None:
            state = _State(next(self._state_ids), entries)
            self._states[signature] = state
        return state, low

    # -- interpretive backend (the differential oracle) ---------------------------

    def _label_subtree(self, root: SubjectNode) -> Dict[int, _NodeState]:
        states: Dict[int, _NodeState] = {}
        for node in root.post_order():
            if id(node) not in states:
                states[id(node)] = self._label_node_interpretive(node, states)
                self.nodes_labelled += 1
        return states

    @staticmethod
    def _apply_closure(node, state, closure_lookup) -> None:
        """Chain-rule closure via precomputed ``(delta, rule path)`` entries.

        Applied from every base (pattern-derived) entry; the closure
        matrix is transitive, so one pass replaces the legacy per-node
        fixpoint.  Strict-improvement updates keep tie-breaking identical
        across base entries in insertion (rule) order.
        """
        for source, match in list(state.items()):
            base_cost = match.cost
            for target, delta, rule_path in closure_lookup(source):
                cost = base_cost + delta
                best = state.get(target)
                if best is None or cost < best.cost:
                    last = rule_path[-1]
                    state[target] = Match(
                        cost=cost,
                        rule=last,
                        leaves=[(node, last.pattern.name)],
                    )

    def _label_node_interpretive(
        self, node: SubjectNode, states: Dict[int, _NodeState]
    ) -> _NodeState:
        state: _NodeState = {}
        for rule in self.tables.candidate_rules(node.label):
            matched = self._match_pattern(rule.pattern, node, states)
            if matched is None:
                continue
            leaf_cost, leaves = matched
            cost = rule.cost + leaf_cost
            best = state.get(rule.lhs)
            if best is None or cost < best.cost:
                state[rule.lhs] = Match(cost=cost, rule=rule, leaves=leaves)
        # Chain closure recomputed at every node (the cost the table-driven
        # backend eliminates); the same deterministic shortest-path entries
        # keep both backends' covers identical.
        chain_rules = self.tables.chain_rules_by_source
        self._apply_closure(
            node, state, lambda source: chain_closure_from(source, chain_rules)
        )
        return state

    def _match_pattern(
        self,
        pattern: PatternNode,
        node: SubjectNode,
        states: Dict[int, _NodeState],
    ) -> Optional[Tuple[int, List[Tuple[SubjectNode, str]]]]:
        """Recursive pattern match of the interpretive backend."""
        if isinstance(pattern, PatNonterm):
            match = states[id(node)].get(pattern.name)
            if match is None:
                return None
            return match.cost, [(node, pattern.name)]
        if isinstance(pattern, PatTerm):
            if node.label != pattern.name:
                return None
            if pattern.value is not None and node.const_value != pattern.value:
                return None
            if len(node.children) != len(pattern.operands):
                return None
            total_cost = 0
            leaves: List[Tuple[SubjectNode, str]] = []
            for child_pattern, child_node in zip(pattern.operands, node.children):
                matched = self._match_pattern(child_pattern, child_node, states)
                if matched is None:
                    return None
                child_cost, child_leaves = matched
                total_cost += child_cost
                leaves.extend(child_leaves)
            return total_cost, leaves
        return None

    def _reduce(
        self,
        root: SubjectNode,
        goal: str,
        states: Dict[int, _NodeState],
    ) -> List[Step]:
        """The optimal cover over interpretive states, children before
        parents (explicit stack; safe on arbitrarily deep subject trees and
        chain-rule paths)."""
        output: List[Step] = []
        # Frames carry the resolved match on the second (emit) visit, so
        # every node state is fetched exactly once per reduction.
        stack: List[Tuple[SubjectNode, str, Optional[Match]]] = [(root, goal, None)]
        while stack:
            node, nonterminal, match = stack.pop()
            if match is not None:
                output.append((match.rule, node, nonterminal, list(match.leaves)))
                continue
            match = states[id(node)].get(nonterminal)
            if match is None:
                raise SelectionError(
                    "no derivation of %r from %s" % (node, nonterminal)
                )
            stack.append((node, nonterminal, match))
            for leaf_node, leaf_nonterminal in reversed(match.leaves):
                stack.append((leaf_node, leaf_nonterminal, None))
        return output
