"""Subject trees: the input of the tree parser.

The code generator lowers IR expression trees into subject trees whose node
labels use exactly the terminal vocabulary of the processor's tree grammar
(``ASSIGN``, storage names, port names, operator names, ``Const``).  Keeping
this a small dedicated type decouples the selector from the IR.

The labeller reads a node's ``label``, ``const_value`` and ``children``
only, and stores its result in the node: the automaton state and base
cost (iburg's ``STATE_LABEL``).  The ``payload`` carries emission-side
identity such as the originating variable name, so code emission works
on the concrete nodes while subtrees that differ only in payload label
alike.
"""

from __future__ import annotations

import sys
from typing import List, Optional


class SubjectNode:
    """One node of a subject (expression) tree."""

    # ``state`` and ``base_cost``: set by the labeller, never pickled.
    __slots__ = ("label", "children", "const_value", "payload", "state", "base_cost")

    def __init__(
        self,
        label: str,
        children: Optional[List["SubjectNode"]] = None,
        const_value: Optional[int] = None,
        payload: object = None,
    ):
        # Interned labels make the hot label comparisons and hashes of the
        # labeller pointer operations in the common case.
        self.label = sys.intern(label)
        self.children = children if children is not None else []
        self.const_value = const_value
        self.payload = payload

    def __getstate__(self):
        return (self.label, self.children, self.const_value, self.payload)

    def __setstate__(self, state):
        label, children, const_value, payload = state
        self.label = sys.intern(label)
        self.children = children
        self.const_value = const_value
        self.payload = payload

    def is_leaf(self) -> bool:
        return not self.children

    def size(self) -> int:
        count = 0
        stack: List[SubjectNode] = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def post_order(self) -> List["SubjectNode"]:
        """All nodes, children before parents, left to right."""
        # The reverse of a right-to-left pre-order: one push per node.
        nodes: List[SubjectNode] = []
        stack: List[SubjectNode] = [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        nodes.reverse()
        return nodes

    def __repr__(self) -> str:
        """``label(child, ...)``, a constant leaf as ``label(value)``;
        walked with a stack, so a tree of any depth renders."""
        parts: List[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                parts.append(node)
            elif node.children:
                parts.append(node.label + "(")
                stack.append(")")
                for child in reversed(node.children[1:]):
                    stack.append(child)
                    stack.append(", ")
                stack.append(node.children[0])
            elif node.const_value is not None:
                parts.append("%s(%d)" % (node.label, node.const_value))
            else:
                parts.append(node.label)
        return "".join(parts)
