"""Register-transfer templates and their tree patterns.

An RT template represents one primitive processor operation of the form
``destination := expression`` executable in a single machine cycle, together
with its execution condition (required instruction-word / mode-register
bits).  Patterns are trees whose inner nodes are hardware operators and
whose leaves are sequential components, primary ports, hardwired constants
or instruction-field immediates -- exactly the behavioural view the paper's
tree-grammar construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bdd.manager import BDD
from repro.hashcons import HashConsed


# ---------------------------------------------------------------------------
# Pattern trees
# ---------------------------------------------------------------------------


class Pattern(HashConsed):
    """Base class of RT template pattern nodes.  Patterns are hash-consed
    (:mod:`repro.hashcons`): equal means identical, nodes are immutable,
    and each caches its text."""

    __slots__ = ()

    def children(self) -> Tuple["Pattern", ...]:
        return ()


class RegLeaf(Pattern):
    """Read of a sequential component (register, register file or memory)."""

    __slots__ = _fields = ("storage",)
    storage: str

    def _render(self) -> str:
        return self.storage


class PortLeaf(Pattern):
    """Read of a primary processor input port."""

    __slots__ = _fields = ("port",)
    port: str

    def _render(self) -> str:
        return self.port


class ConstLeaf(Pattern):
    """A hardwired constant available in the data path."""

    __slots__ = _fields = ("value",)
    value: int

    def _render(self) -> str:
        return "#%d" % self.value


class ImmLeaf(Pattern):
    """An immediate operand taken from an instruction-word field."""

    __slots__ = _fields = ("field_name", "width")
    field_name: str
    width: int

    def _render(self) -> str:
        return "imm<%s:%d>" % (self.field_name, self.width)


class OpNode(Pattern):
    """A hardware operator applied to sub-patterns."""

    __slots__ = _fields = ("op", "operands")
    op: str
    operands: Tuple[Pattern, ...]

    def children(self) -> Tuple[Pattern, ...]:
        return self.operands

    def _render(self) -> str:
        return "%s(%s)" % (self.op, ", ".join(str(c) for c in self.operands))


def pattern_size(pattern: Pattern) -> int:
    """Number of nodes in a pattern tree."""
    return 1 + sum(pattern_size(child) for child in pattern.children())


def pattern_depth(pattern: Pattern) -> int:
    """Height of a pattern tree (a single leaf has depth 1)."""
    children = pattern.children()
    if not children:
        return 1
    return 1 + max(pattern_depth(child) for child in children)


def pattern_operators(pattern: Pattern) -> Set[str]:
    """All operator names used in a pattern tree."""
    operators: Set[str] = set()
    stack: List[Pattern] = [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, OpNode):
            operators.add(node.op)
            stack.extend(node.operands)
    return operators


def pattern_leaves(pattern: Pattern) -> List[Pattern]:
    """All leaves of a pattern tree, left to right."""
    if not pattern.children():
        return [pattern]
    leaves: List[Pattern] = []
    for child in pattern.children():
        leaves.extend(pattern_leaves(child))
    return leaves


def pattern_storages(pattern: Pattern) -> Set[str]:
    """All sequential components read by a pattern."""
    return {leaf.storage for leaf in pattern_leaves(pattern) if isinstance(leaf, RegLeaf)}


def pattern_constants(pattern: Pattern) -> Set[int]:
    """All hardwired constant values occurring in a pattern."""
    return {leaf.value for leaf in pattern_leaves(pattern) if isinstance(leaf, ConstLeaf)}


def chained_operation_count(pattern: Pattern) -> int:
    """Number of operator nodes; patterns with more than one are *chained*
    operations (e.g. multiply-accumulate), which the paper's code selector
    exploits and conventional compilers typically do not."""
    count = 1 if isinstance(pattern, OpNode) else 0
    return count + sum(chained_operation_count(child) for child in pattern.children())


# ---------------------------------------------------------------------------
# RT templates
# ---------------------------------------------------------------------------


@dataclass
class RTTemplate:
    """One register transfer ``destination := pattern`` with its execution
    condition."""

    destination: str
    pattern: Pattern
    condition: BDD
    origin: str = "extracted"
    addressing: Optional[str] = None

    def render(self) -> str:
        text = "%s := %s" % (self.destination, self.pattern)
        if self.addressing:
            text += " [%s]" % self.addressing
        return text

    def partial_instruction(self) -> Dict[str, bool]:
        """One satisfying assignment of the execution condition: the binary
        partial instruction (and mode-register state) that activates this RT."""
        assignment = self.condition.one_sat()
        return assignment if assignment is not None else {}

    def is_chained(self) -> bool:
        return chained_operation_count(self.pattern) > 1

    def is_data_move(self) -> bool:
        """Pure data transport: no operator nodes at all."""
        return chained_operation_count(self.pattern) == 0

    def __str__(self) -> str:
        return self.render()


@dataclass
class RTTemplateBase:
    """The (possibly extended) set of RT templates of one processor."""

    processor: str
    templates: List[RTTemplate] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self) -> Iterator[RTTemplate]:
        return iter(self.templates)

    def add(self, template: RTTemplate) -> None:
        self.templates.append(template)

    def extend(self, templates: Iterable[RTTemplate]) -> None:
        self.templates.extend(templates)

    def destinations(self) -> Set[str]:
        return {t.destination for t in self.templates}

    def operators(self) -> Set[str]:
        operators: Set[str] = set()
        for pattern in dict.fromkeys(t.pattern for t in self.templates):
            operators.update(pattern_operators(pattern))
        return operators

    def constants(self) -> Set[int]:
        constants: Set[int] = set()
        for pattern in dict.fromkeys(t.pattern for t in self.templates):
            constants.update(pattern_constants(pattern))
        return constants

    def chained_templates(self) -> List[RTTemplate]:
        return [t for t in self.templates if t.is_chained()]

    def by_destination(self) -> Dict[str, List[RTTemplate]]:
        grouped: Dict[str, List[RTTemplate]] = {}
        for template in self.templates:
            grouped.setdefault(template.destination, []).append(template)
        return grouped

    def stats(self) -> Dict[str, int]:
        return {
            "templates": len(self.templates),
            "destinations": len(self.destinations()),
            "operators": len(self.operators()),
            "chained": len(self.chained_templates()),
            "data_moves": sum(1 for t in self.templates if t.is_data_move()),
        }
