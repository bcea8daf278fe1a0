"""Compiler temporaries: their names, and how a stage puts one in place.

Three optimizer stages introduce temporaries, each under its own
prefix: global value numbering (``__cse``), loop-invariant code motion
(``__licm``) and strength reduction (``__sr``).  Everything that must
tell a temporary from a program variable -- dead-temporary
elimination, the pipeline verifier, the fuzz oracles and the
differential suites -- reads :data:`OPT_TEMP_PREFIXES`.  The module
lives in :mod:`repro.ir`, so the verifier reads it without importing
the optimizer.

A stage names its temporaries with a :class:`TempNamer` and replaces
the subtrees a temporary stands for with :func:`replace_in_statement`,
which rewrites through :func:`replace_subtrees`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.expr import ArrayRef, IRNode, Op, structurally_equal
from repro.ir.program import Program, Statement

#: Prefix of global-value-numbering temporaries.
TEMP_PREFIX = "__cse"

#: Prefix of loop-invariant code motion temporaries.
LICM_TEMP_PREFIX = "__licm"

#: Prefix of strength-reduction temporaries.
SR_TEMP_PREFIX = "__sr"

#: Every prefix an optimizer stage names temporaries under.
OPT_TEMP_PREFIXES = (TEMP_PREFIX, LICM_TEMP_PREFIX, SR_TEMP_PREFIX)


class TempNamer:
    """Hands out ``<prefix>0``, ``<prefix>1``, ... skipping every name
    ``program`` uses (a user may declare a scalar called ``__cse0``).

    The names in use are collected on the first call, so a stage that
    names nothing pays nothing.  ``names`` lists the names handed out,
    in order."""

    def __init__(self, program: Program, prefix: str):
        self._program = program
        self._prefix = prefix
        self._serial = 0
        self._taken: Optional[Set[str]] = None
        self.names: List[str] = []

    def __call__(self) -> str:
        taken = self._taken
        if taken is None:
            taken = self._taken = self._program.all_variables() | set(self._program.scalars)
        while True:
            name = "%s%d" % (self._prefix, self._serial)
            self._serial += 1
            if name not in taken:
                self.names.append(name)
                return name


def replace_subtrees(
    expr: IRNode, patterns: Sequence[IRNode], replacement: IRNode
) -> IRNode:
    """``expr`` with every subtree structurally equal to one of
    ``patterns`` replaced by ``replacement``: the outermost occurrence
    wins, and array indices are searched too.

    Iterative, for deep chains.  A subtree holding no occurrence comes
    back as the same object, so ``expr`` itself comes back when nothing
    matches."""
    built: Dict[int, IRNode] = {}
    stack: List[Tuple[IRNode, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            children = node.children()
            rebuilt = [built[id(child)] for child in children]
            if all(new is old for new, old in zip(rebuilt, children)):
                built[id(node)] = node
            elif isinstance(node, Op):
                built[id(node)] = Op(node.op, tuple(rebuilt))
            elif isinstance(node, ArrayRef):
                built[id(node)] = ArrayRef(node.name, rebuilt[0])
        elif id(node) in built:
            continue
        elif any(structurally_equal(node, pattern) for pattern in patterns):
            built[id(node)] = replacement
        elif node.children():
            stack.append((node, True))
            stack.extend((child, False) for child in node.children())
        else:
            built[id(node)] = node
    return built[id(expr)]


def replace_in_statement(
    statement: Statement, patterns: Sequence[IRNode], replacement: IRNode
) -> Statement:
    """:func:`replace_subtrees` over ``statement``'s expression and store
    index -- ``statement`` itself when neither changes."""
    expression = replace_subtrees(statement.expression, patterns, replacement)
    index = statement.destination_index
    if index is not None:
        index = replace_subtrees(index, patterns, replacement)
    if expression is statement.expression and index is statement.destination_index:
        return statement
    return Statement(statement.destination, expression, index)
