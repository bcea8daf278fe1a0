"""Restricted code selectors, memoized per retargeting result."""

from __future__ import annotations

from repro.grammar.construct import build_tree_grammar
from repro.ise.templates import RTTemplateBase
from repro.record.retarget import RetargetResult
from repro.selector.burs import CodeSelector


def restricted_selector(
    retarget_result: RetargetResult,
    allow_chained: bool = True,
    use_expanded_templates: bool = True,
) -> CodeSelector:
    """The code selector for a (possibly restricted) template base.

    Dropping chained templates models conventional code generators that
    only know single-operation instructions; dropping expansion-derived
    templates disables the commutativity / rewrite-rule search space.

    Restricted grammars are memoized *on the retarget result*, so every
    session sharing one result also shares one selector per
    restriction -- ablation sweeps stop paying repeated grammar
    construction.  (The memo lives in a ``_``-prefixed attribute, which
    the retarget cache deliberately does not pickle.)
    """
    if allow_chained and use_expanded_templates:
        return retarget_result.selector
    memo = retarget_result.__dict__.setdefault("_restricted_selectors", {})
    key = (allow_chained, use_expanded_templates)
    if key not in memo:
        base = retarget_result.template_base
        restricted = RTTemplateBase(processor=base.processor)
        for template in base:
            if not allow_chained and template.is_chained():
                continue
            if not use_expanded_templates and template.origin != "extracted":
                continue
            restricted.add(template)
        grammar = build_tree_grammar(retarget_result.netlist, restricted)
        memo[key] = CodeSelector(grammar)
    return memo[key]
