"""Commutativity expansion of RT templates.

Variants are memoized per (hash-consed) pattern node, so a sub-pattern
shared by many templates is expanded once.  A memo lives for one call;
:func:`repro.expansion.expand_template_base` shares one between its two
commutativity passes.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List

from repro.ise.routes import COMMUTATIVE_OPERATORS
from repro.ise.templates import OpNode, Pattern, RTTemplate

#: Pattern node -> all its variants, the node itself first.
VariantMemo = Dict[Pattern, List[Pattern]]


def swap_variants(pattern: Pattern) -> List[Pattern]:
    """All distinct patterns obtainable by swapping the operands of
    commutative operator nodes anywhere in ``pattern`` (excluding the
    original pattern itself)."""
    return _variants(pattern, {})[1:]


def _variants(pattern: Pattern, memo: VariantMemo) -> List[Pattern]:
    variants = memo.get(pattern)
    if variants is not None:
        return variants
    if not isinstance(pattern, OpNode):
        variants = [pattern]
    else:
        # A dict keeps the first occurrence of each variant, in order.
        combos: Dict[Pattern, None] = {}
        swappable = pattern.op in COMMUTATIVE_OPERATORS and len(pattern.operands) == 2
        for combo in product(*[_variants(child, memo) for child in pattern.operands]):
            combos[OpNode(pattern.op, combo)] = None
            if swappable:
                combos[OpNode(pattern.op, combo[::-1])] = None
        variants = list(combos)
    memo[pattern] = variants
    return variants


def expand_commutative(templates: List[RTTemplate]) -> List[RTTemplate]:
    """Complementary templates with swapped arguments for every commutative
    operator occurrence.  The original templates are not included in the
    returned list."""
    return commutative_templates(templates, {})


def commutative_templates(templates: List[RTTemplate], memo: VariantMemo) -> List[RTTemplate]:
    """:func:`expand_commutative` with a caller-owned variant memo."""
    additional: List[RTTemplate] = []
    for template in templates:
        for variant in _variants(template.pattern, memo)[1:]:
            additional.append(
                RTTemplate(
                    destination=template.destination,
                    pattern=variant,
                    condition=template.condition,
                    origin="commutativity",
                    addressing=template.addressing,
                )
            )
    return additional
