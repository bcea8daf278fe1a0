"""Interned expression DAGs over the IR (program-scoped value numbering).

This module interns :mod:`repro.ir` expression trees *scoped to one
program region*: two occurrences of an expression share one DAG node
exactly when they are structurally identical **and** provably compute the
same value at both occurrence sites.

That second condition is what plain structural hashing cannot give: in ::

    y0 = a * b + c;
    a  = a + 1;
    y1 = a * b + c;

the two ``a * b + c`` trees are structurally identical but read different
values of ``a``.  The :class:`ProgramDAG` therefore keys every variable
(and port) leaf on the variable's *version* -- a fresh serial drawn whenever
a statement assigns the name -- so value numbers bake in exactly which
definition each leaf reads.  Equal node ids then mean equal runtime values
regardless of any writes between the occurrences, which is the invariant
global value numbering (:mod:`repro.opt.gvn`) relies on.

Use counts are DAG-edge counts (one per distinct parent slot, plus one per
statement-root occurrence), so a subexpression that only ever appears
inside one repeated parent counts a single use: materializing the parent
is enough, the child comes along for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ir.expr import ArrayRef, Const, IRNode, Op, PortInput, VarRef, base_array
from repro.ir.program import Statement


@dataclass(frozen=True)
class DAGNode:
    """One interned expression value.

    ``kind`` is ``"const"`` / ``"var"`` / ``"port"`` / ``"aref"`` /
    ``"op"``; ``label`` carries the variable, port, array or operator
    name; ``value`` the constant value; ``children`` the ids of the
    operand nodes (for ``"aref"``: the index expression).
    """

    id: int
    kind: str
    label: str = ""
    value: int = 0
    children: Tuple[int, ...] = ()

    def is_operation(self) -> bool:
        return self.kind == "op"


class ExprDAG:
    """The interning pool: structural keys to dense node ids.

    Tracks, per node: ``uses`` (distinct parent edges + statement-root
    occurrences), ``op_counts`` (number of operator nodes in the subtree,
    the optimizer's size measure) and ``has_port`` (whether the subtree
    reads a primary input port -- port reads are never duplicated *or*
    deleted by the optimizer, so they poison CSE/discard rewrites).
    """

    def __init__(self):
        self._ids: Dict[tuple, int] = {}
        self.nodes: List[DAGNode] = []
        self.uses: List[int] = []
        self.op_counts: List[int] = []
        self.has_port: List[bool] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> DAGNode:
        return self.nodes[node_id]

    def intern(self, key: tuple, kind: str, label: str, value: int,
               children: Tuple[int, ...]) -> int:
        """Intern one node; edges to children are counted exactly once
        (on creation), so ``uses`` stays a distinct-parent count."""
        got = self._ids.get(key)
        if got is not None:
            return got
        node_id = len(self.nodes)
        self._ids[key] = node_id
        self.nodes.append(
            DAGNode(id=node_id, kind=kind, label=label, value=value, children=children)
        )
        self.op_counts.append(
            (1 if kind == "op" else 0) + sum(self.op_counts[c] for c in children)
        )
        self.has_port.append(
            kind == "port" or any(self.has_port[c] for c in children)
        )
        self.uses.append(0)
        for child in children:
            self.uses[child] += 1
        return node_id


def _make_expr(node: DAGNode, children: List[IRNode]) -> IRNode:
    if node.kind == "const":
        return Const(node.value)
    if node.kind == "var":
        return VarRef(node.label)
    if node.kind == "port":
        return PortInput(node.label)
    if node.kind == "aref":
        return ArrayRef(node.label, children[0])
    return Op(node.label, tuple(children))


class ProgramDAG:
    """Versioned value numbering over statements fed in execution order.

    Feed statements through :meth:`add_statement`; the builder interns
    every subexpression into :attr:`dag`, records one root id per
    statement in :attr:`roots`, and bumps the destination's version
    *after* interning the right-hand side (a statement reads its inputs
    before it writes, so ``x = x + 1`` reads the old version of ``x``).

    Every bump draws a fresh value from one monotone serial, so the
    version state can be snapshotted, restored and killed for
    dominator-tree-scoped value numbering across a whole CFG
    (:mod:`repro.opt.gvn`): after a restore (DFS backtrack), a later bump
    can never reproduce a version already interned under a *different*
    reaching definition, so every (name, version) pair identifies one
    reaching state forever.  Within one block this tells the same
    definitions apart as counting writes per name would.
    """

    def __init__(self):
        self.dag = ExprDAG()
        self.roots: List[int] = []
        self._serial = 0
        self._versions: Dict[str, int] = {}
        # Array write tracking for runtime-indexed accesses: a *dynamic*
        # store (``a[i] = ...``) may write any element, so element leaves
        # of ``a`` are additionally keyed on the array's dynamic-store
        # epoch; an ``a[j]`` *read* may read any element, so ``aref``
        # nodes are keyed on the epoch of *any* store into ``a``
        # (constant-index or dynamic).  Equal node ids keep meaning equal
        # runtime values in the presence of array writes.
        self._dynamic_epochs: Dict[str, int] = {}
        self._store_epochs: Dict[str, int] = {}

    def kill_statement_effects(self, statement: Statement) -> None:
        """Apply exactly the version/epoch effects executing ``statement``
        would have, without interning anything.  The global value
        numberer uses this to invalidate values across CFG paths that may
        re-execute a block."""
        self._serial += 1
        destination = statement.destination
        self._versions[destination] = self._serial
        if statement.destination_index is not None:
            self._dynamic_epochs[destination] = self._serial
            self._store_epochs[destination] = self._serial
        else:
            array = base_array(destination)
            if array is not None:
                self._store_epochs[array] = self._serial

    def add_statement(self, statement: Statement) -> int:
        if statement.destination_index is not None:
            # The index expression is read by the store; intern it so its
            # subexpressions participate in value numbering like any read.
            self.intern_expr(statement.destination_index)
        root = self.intern_expr(statement.expression)
        self.dag.uses[root] += 1  # statement-root occurrence
        self.roots.append(root)
        self.kill_statement_effects(statement)
        return root

    def intern_expr(self, expr: IRNode) -> int:
        """Intern one IR expression bottom-up (explicit stack)."""
        dag = self.dag
        versions = self._versions
        results: List[int] = []
        stack: List[Tuple[IRNode, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Const):
                key = ("const", node.value)
                results.append(dag.intern(key, "const", "", node.value, ()))
                continue
            if isinstance(node, VarRef):
                key = ("var", node.name, versions.get(node.name, 0))
                array = base_array(node.name)
                if array is not None:
                    key = key + (self._dynamic_epochs.get(array, 0),)
                results.append(dag.intern(key, "var", node.name, 0, ()))
                continue
            if isinstance(node, PortInput):
                key = ("port", node.port, versions.get("@%s" % node.port, 0))
                results.append(dag.intern(key, "port", node.port, 0, ()))
                continue
            if isinstance(node, ArrayRef):
                if expanded:
                    index_id = results.pop()
                    key = ("aref", node.name, self._store_epochs.get(node.name, 0), index_id)
                    results.append(
                        dag.intern(key, "aref", node.name, 0, (index_id,))
                    )
                    continue
                stack.append((node, True))
                stack.append((node.index, False))
                continue
            if not isinstance(node, Op):
                raise TypeError("unexpected IR node %r" % type(node).__name__)
            if expanded:
                arity = len(node.operands)
                children = tuple(results[len(results) - arity:]) if arity else ()
                del results[len(results) - arity:]
                key = ("op", node.op, children)
                results.append(dag.intern(key, "op", node.op, 0, children))
                continue
            stack.append((node, True))
            for operand in reversed(node.operands):
                stack.append((operand, False))
        return results[0]

    def snapshot(self) -> tuple:
        """The current version state (the interned nodes are *not* part
        of the snapshot -- the pool only ever grows)."""
        return (
            dict(self._versions),
            dict(self._dynamic_epochs),
            dict(self._store_epochs),
        )

    def restore(self, state: tuple) -> None:
        versions, dynamic_epochs, store_epochs = state
        self._versions = dict(versions)
        self._dynamic_epochs = dict(dynamic_epochs)
        self._store_epochs = dict(store_epochs)
