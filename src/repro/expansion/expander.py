"""Driver combining commutativity expansion and rewrite rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.expansion.commutativity import VariantMemo, commutative_templates
from repro.expansion.library import default_transformation_library
from repro.expansion.rewrite import RewriteRule, apply_rewrite_rules
from repro.ise.templates import Pattern, RTTemplate, RTTemplateBase


@dataclass
class ExpansionOptions:
    """Knobs of the template-base extension phase.

    ``use_commutativity`` and ``use_rewrite_rules`` correspond to the two
    expansion mechanisms of section 3; turning them off is used by the
    ablation benchmarks and by the conventional-compiler baseline.
    """

    use_commutativity: bool = True
    use_rewrite_rules: bool = True
    rules: Optional[List[RewriteRule]] = None

    def effective_rules(self) -> List[RewriteRule]:
        if not self.use_rewrite_rules:
            return []
        if self.rules is None:
            return default_transformation_library()
        return self.rules


def expand_template_base(
    base: RTTemplateBase, options: Optional[ExpansionOptions] = None
) -> RTTemplateBase:
    """The extended RT template base: extracted templates plus commutative
    variants plus rewrite-rule derived templates, with duplicates removed."""
    options = options if options is not None else ExpansionOptions()
    extended = RTTemplateBase(processor=base.processor)
    seen: Set[Tuple[str, Pattern, int]] = set()
    variants: VariantMemo = {}

    def add(template: RTTemplate) -> None:
        key = (template.destination, template.pattern, template.condition.node)
        if key not in seen:
            seen.add(key)
            extended.add(template)

    for template in base:
        add(template)
    if options.use_commutativity:
        for template in commutative_templates(list(base), variants):
            add(template)
    rules = options.effective_rules()
    if rules:
        # Rewrite rules are applied to the commutatively extended base so
        # that e.g. both operand orders of a multiply-accumulate benefit.
        for template in apply_rewrite_rules(list(extended), rules):
            add(template)
    if options.use_commutativity and rules:
        # A final commutativity pass over rewrite-derived templates keeps the
        # extension closed under operand swapping.
        for template in commutative_templates(list(extended), variants):
            add(template)
    return extended
