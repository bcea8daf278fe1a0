"""Rewrite-rule based template expansion.

A rewrite rule states that an expression-tree shape (the *source* schema,
what the compiler's IR may contain) can be computed by a hardware pattern
shape (the *hardware* schema).  For every extracted RT template whose
pattern matches the hardware schema, a new template with the source schema
(instantiated with the matched sub-patterns) is added: the processor can
then cover IR nodes of the source shape directly.

Schemas are pattern trees in which :class:`Slot` leaves act as pattern
variables; equal slot indices must bind to the same sub-pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ise.templates import OpNode, Pattern, RTTemplate


class Slot(Pattern):
    """A pattern variable inside a rewrite-rule schema."""

    __slots__ = _fields = ("index",)
    index: int

    def _render(self) -> str:
        return "$%d" % self.index


@dataclass(frozen=True)
class RewriteRule:
    """``source_schema`` (IR shape) is computable by ``hardware_schema``."""

    name: str
    hardware_schema: Pattern
    source_schema: Pattern

    def apply(self, template: RTTemplate) -> Optional[RTTemplate]:
        """A new template for the source shape, or ``None`` when the
        template's pattern does not match the hardware schema."""
        rewritten = self.rewrite(template.pattern)
        if rewritten is None:
            return None
        return _derived(template, rewritten, self)

    def rewrite(self, pattern: Pattern) -> Optional[Pattern]:
        """The source-schema pattern computed by ``pattern``, or ``None``
        when ``pattern`` does not match the hardware schema."""
        bindings: Dict[int, Pattern] = {}
        if not _match(self.hardware_schema, pattern, bindings):
            return None
        return _instantiate(self.source_schema, bindings)


def _derived(template: RTTemplate, pattern: Pattern, rule: RewriteRule) -> RTTemplate:
    return RTTemplate(
        destination=template.destination,
        pattern=pattern,
        condition=template.condition,
        origin="rewrite:%s" % rule.name,
        addressing=template.addressing,
    )


def _match(schema: Pattern, pattern: Pattern, bindings: Dict[int, Pattern]) -> bool:
    if isinstance(schema, Slot):
        bound = bindings.setdefault(schema.index, pattern)
        return bound is pattern
    if isinstance(schema, OpNode):
        if not isinstance(pattern, OpNode) or pattern.op != schema.op:
            return False
        if len(pattern.operands) != len(schema.operands):
            return False
        return all(
            _match(sub_schema, sub_pattern, bindings)
            for sub_schema, sub_pattern in zip(schema.operands, pattern.operands)
        )
    # Any other schema leaf matches only itself.
    return schema is pattern


def _instantiate(schema: Pattern, bindings: Dict[int, Pattern]) -> Optional[Pattern]:
    if isinstance(schema, Slot):
        return bindings.get(schema.index)
    if isinstance(schema, OpNode):
        children: Tuple[Pattern, ...] = ()
        for child_schema in schema.operands:
            child = _instantiate(child_schema, bindings)
            if child is None:
                return None
            children = children + (child,)
        return OpNode(schema.op, children)
    return schema


def apply_rewrite_rules(
    templates: List[RTTemplate], rules: List[RewriteRule]
) -> List[RTTemplate]:
    """Additional templates obtained by applying every rule to every
    template.  Duplicates of existing patterns are filtered by the caller.
    Each rule rewrites each distinct pattern once per call."""
    additional: List[RTTemplate] = []
    rewrites: Dict[Pattern, List[Tuple[RewriteRule, Optional[Pattern]]]] = {}
    for template in templates:
        pattern = template.pattern
        derived = rewrites.get(pattern)
        if derived is None:
            derived = rewrites[pattern] = [(rule, rule.rewrite(pattern)) for rule in rules]
        for rule, rewritten in derived:
            if rewritten is not None and rewritten is not pattern:
                additional.append(_derived(template, rewritten, rule))
    return additional
