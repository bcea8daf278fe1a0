"""A hash-consed ROBDD manager.

The manager owns all nodes; BDD handles are lightweight wrappers around a
node index so that equality of functions is pointer (index) equality.  The
variable order is the order in which variables are first declared, which for
instruction-set extraction means instruction-word bits followed by
mode-register bits -- a natural and effective order for decoder logic.

Each connective (``and``, ``or``, ``xor``, ``not``) is its own recursion
with its terminal cases inlined and its own computed table keyed by an
integer built from the (ordered) operand indices.  A pickled manager
stores only its node list and variable order: the unique table is rebuilt
on load and the computed tables start empty.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class BDD:
    """Handle to a Boolean function owned by a :class:`BDDManager`."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: "BDDManager", node: int):
        self.manager = manager
        self.node = node

    # -- structural queries -------------------------------------------------

    def is_true(self) -> bool:
        return self.node == BDDManager.TRUE

    def is_false(self) -> bool:
        return self.node == BDDManager.FALSE

    def is_constant(self) -> bool:
        return self.node in (BDDManager.TRUE, BDDManager.FALSE)

    # -- Boolean connectives ------------------------------------------------

    def __and__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._and(self.node, other.node))

    def __or__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._or(self.node, other.node))

    def __xor__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager._xor(self.node, other.node))

    def __invert__(self) -> "BDD":
        return BDD(self.manager, self.manager._negate(self.node))

    def iff(self, other: "BDD") -> "BDD":
        return ~(self ^ other)

    # -- equality / hashing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDD)
            and other.manager is self.manager
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __repr__(self) -> str:
        if self.is_true():
            return "BDD(true)"
        if self.is_false():
            return "BDD(false)"
        return "BDD(node=%d)" % self.node

    # -- queries --------------------------------------------------------------

    def satisfiable(self) -> bool:
        """Whether at least one assignment satisfies the function."""
        return self.node != BDDManager.FALSE

    def one_sat(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (only variables on the chosen path),
        or ``None`` when unsatisfiable."""
        return self.manager._one_sat(self.node)

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment (missing variables read as 0)."""
        return self.manager._evaluate(self.node, assignment)

    def _check(self, other: "BDD") -> None:
        if other.manager is not self.manager:
            raise ValueError("cannot combine BDDs from different managers")


class BDDManager:
    """Owns BDD nodes, the unique table and the computed tables."""

    FALSE = 0
    TRUE = 1

    def __init__(self) -> None:
        # node storage: (level, low, high); indices 0/1 are the terminals.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._var_names: List[str] = []
        self._derive()

    def _derive(self) -> None:
        """Build everything the node list and the variable order determine."""
        nodes = self._nodes
        self._unique: Dict[Tuple[int, int, int], int] = {
            nodes[index]: index for index in range(2, len(nodes))
        }
        self._var_levels: Dict[str, int] = {
            name: level for level, name in enumerate(self._var_names)
        }
        # Computed tables: (smaller << 32 | larger) operand index -> result.
        self._and_cache: Dict[int, int] = {}
        self._or_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        self._not_cache: Dict[int, int] = {}
        self._true = BDD(self, self.TRUE)
        self._false = BDD(self, self.FALSE)

    def __getstate__(self):
        return {"nodes": self._nodes, "variables": self._var_names}

    def __setstate__(self, state) -> None:
        self._nodes = state["nodes"]
        self._var_names = state["variables"]
        self._derive()

    # -- construction ---------------------------------------------------------

    @property
    def true(self) -> BDD:
        return self._true

    @property
    def false(self) -> BDD:
        return self._false

    def constant(self, value: bool) -> BDD:
        return self._true if value else self._false

    def variable(self, name: str) -> BDD:
        """Return (declaring on first use) the BDD for a single variable."""
        level = self._var_levels.get(name)
        if level is None:
            level = len(self._var_names)
            self._var_names.append(name)
            self._var_levels[name] = level
        return BDD(self, self._mk(level, self.FALSE, self.TRUE))

    def declared_variables(self) -> List[str]:
        return list(self._var_names)

    def num_nodes(self) -> int:
        return len(self._nodes)

    # -- core algorithms ------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    # The three binary connectives share one shape: order the operands
    # (each is commutative), settle the terminal cases, look up the computed
    # table, then split both operands on the top variable, low side first.
    # Terminals (indices 0 and 1) sit below every variable, so past the
    # terminal cases both operands are inner nodes.

    def _and(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a <= self.TRUE:
            return b if a else a
        if a == b:
            return a
        key = a << 32 | b
        result = self._and_cache.get(key)
        if result is None:
            a_level, a_low, a_high = self._nodes[a]
            b_level, b_low, b_high = self._nodes[b]
            if a_level == b_level:
                low = self._and(a_low, b_low)
                high = self._and(a_high, b_high)
            elif a_level < b_level:
                low = self._and(a_low, b)
                high = self._and(a_high, b)
            else:
                a_level = b_level
                low = self._and(a, b_low)
                high = self._and(a, b_high)
            result = self._and_cache[key] = self._mk(a_level, low, high)
        return result

    def _or(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a <= self.TRUE:
            return a if a else b
        if a == b:
            return a
        key = a << 32 | b
        result = self._or_cache.get(key)
        if result is None:
            a_level, a_low, a_high = self._nodes[a]
            b_level, b_low, b_high = self._nodes[b]
            if a_level == b_level:
                low = self._or(a_low, b_low)
                high = self._or(a_high, b_high)
            elif a_level < b_level:
                low = self._or(a_low, b)
                high = self._or(a_high, b)
            else:
                a_level = b_level
                low = self._or(a, b_low)
                high = self._or(a, b_high)
            result = self._or_cache[key] = self._mk(a_level, low, high)
        return result

    def _xor(self, a: int, b: int) -> int:
        if a == b:
            return self.FALSE
        if a > b:
            a, b = b, a
        if a <= self.TRUE:
            return self._negate(b) if a else b
        key = a << 32 | b
        result = self._xor_cache.get(key)
        if result is None:
            a_level, a_low, a_high = self._nodes[a]
            b_level, b_low, b_high = self._nodes[b]
            if a_level == b_level:
                low = self._xor(a_low, b_low)
                high = self._xor(a_high, b_high)
            elif a_level < b_level:
                low = self._xor(a_low, b)
                high = self._xor(a_high, b)
            else:
                a_level = b_level
                low = self._xor(a, b_low)
                high = self._xor(a, b_high)
            result = self._xor_cache[key] = self._mk(a_level, low, high)
        return result

    def _negate(self, node: int) -> int:
        if node <= self.TRUE:
            return self.TRUE - node
        result = self._not_cache.get(node)
        if result is None:
            level, low, high = self._nodes[node]
            result = self._mk(level, self._negate(low), self._negate(high))
            self._not_cache[node] = result
        return result

    def _one_sat(self, node: int) -> Optional[Dict[str, bool]]:
        if node == self.FALSE:
            return None
        assignment: Dict[str, bool] = {}
        current = node
        while current != self.TRUE:
            level, low, high = self._nodes[current]
            name = self._var_names[level]
            if high != self.FALSE:
                assignment[name] = True
                current = high
            else:
                assignment[name] = False
                current = low
        return assignment

    def _evaluate(self, node: int, assignment: Dict[str, bool]) -> bool:
        current = node
        while current not in (self.FALSE, self.TRUE):
            level, low, high = self._nodes[current]
            name = self._var_names[level]
            current = high if assignment.get(name, False) else low
        return current == self.TRUE

    # -- convenience ----------------------------------------------------------

    def disjoin(self, functions: Iterator[BDD]) -> BDD:
        """OR together an iterable of BDDs (false for an empty iterable)."""
        result = self.false
        for function in functions:
            result = result | function
        return result
