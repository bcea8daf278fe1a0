"""The identity-keyed, memoized retargeting path against text-keyed,
unmemoized oracles.

Pattern trees are hash-consed, so extraction, expansion, grammar
construction and table generation compare patterns by identity and
memoize per node.  The oracles below are the text-keyed code that did
the same work before: dedup keys built from pattern text, commutative
variants and rewrites derived again for every template, ``L(exp)``
lowering and the matcher's normal form derived per rule, and every
module output re-enumerated for every route that reaches it.  Both
paths must give the same template bases (in order, with their condition
nodes), grammar rules and matcher tables.
"""

from __future__ import annotations

import os
import pickle
import runpy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansion import (
    ExpansionOptions,
    RewriteRule,
    default_transformation_library,
    identity_rules,
)
from repro.expansion.commutativity import swap_variants
from repro.expansion.rewrite import Slot
from repro.grammar import construct
from repro.grammar.construct import build_tree_grammar
from repro.grammar.grammar import CONST_TERMINAL, PatNonterm, PatTerm, nonterminal_for
from repro.hdl import parse_processor
from repro.ise import InstructionSetExtractor
from repro.ise.routes import COMMUTATIVE_OPERATORS, RouteEnumerator
from repro.ise.templates import (
    ConstLeaf,
    ImmLeaf,
    OpNode,
    PortLeaf,
    RegLeaf,
    RTTemplate,
    RTTemplateBase,
)
from repro.netlist import build_netlist
from repro.record.retarget import retarget
from repro.selector import tables as tables_module
from repro.selector.tables import GrammarTables, ShapeRule
from repro.toolchain import default_registry

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


# ---------------------------------------------------------------------------
# Oracles: text-keyed, unmemoized
# ---------------------------------------------------------------------------


def reference_swap_variants(pattern):
    variants = _reference_variants(pattern)
    return [variant for variant in variants if str(variant) != str(pattern)]


def _reference_variants(pattern):
    if not isinstance(pattern, OpNode):
        return [pattern]
    child_variant_lists = [_reference_variants(child) for child in pattern.operands]
    combos = []
    for combo in _reference_product(child_variant_lists):
        combos.append(OpNode(pattern.op, tuple(combo)))
        if pattern.op in COMMUTATIVE_OPERATORS and len(combo) == 2:
            combos.append(OpNode(pattern.op, (combo[1], combo[0])))
    return _reference_unique(combos)


def _reference_product(lists):
    if not lists:
        yield []
        return
    for head in lists[0]:
        for tail in _reference_product(lists[1:]):
            yield [head] + tail


def _reference_unique(patterns):
    seen = set()
    unique = []
    for pattern in patterns:
        key = str(pattern)
        if key not in seen:
            seen.add(key)
            unique.append(pattern)
    return unique


def reference_expand_commutative(templates):
    return [
        RTTemplate(
            destination=template.destination,
            pattern=variant,
            condition=template.condition,
            origin="commutativity",
            addressing=template.addressing,
        )
        for template in templates
        for variant in reference_swap_variants(template.pattern)
    ]


def _reference_match(schema, pattern, bindings):
    if isinstance(schema, Slot):
        bound = bindings.get(schema.index)
        if bound is None:
            bindings[schema.index] = pattern
            return True
        return str(bound) == str(pattern)
    if isinstance(schema, OpNode):
        if not isinstance(pattern, OpNode) or pattern.op != schema.op:
            return False
        if len(pattern.operands) != len(schema.operands):
            return False
        return all(
            _reference_match(sub_schema, sub_pattern, bindings)
            for sub_schema, sub_pattern in zip(schema.operands, pattern.operands)
        )
    if isinstance(schema, ConstLeaf):
        return isinstance(pattern, ConstLeaf) and pattern.value == schema.value
    return type(schema) is type(pattern) and str(schema) == str(pattern)


def _reference_instantiate(schema, bindings):
    if isinstance(schema, Slot):
        return bindings.get(schema.index)
    if isinstance(schema, OpNode):
        children = ()
        for child_schema in schema.operands:
            child = _reference_instantiate(child_schema, bindings)
            if child is None:
                return None
            children = children + (child,)
        return OpNode(schema.op, children)
    return schema


def reference_rewrite(rule, pattern):
    bindings = {}
    if not _reference_match(rule.hardware_schema, pattern, bindings):
        return None
    return _reference_instantiate(rule.source_schema, bindings)


def reference_apply_rewrite_rules(templates, rules):
    additional = []
    for template in templates:
        for rule in rules:
            rewritten = reference_rewrite(rule, template.pattern)
            if rewritten is not None and str(rewritten) != str(template.pattern):
                additional.append(
                    RTTemplate(
                        destination=template.destination,
                        pattern=rewritten,
                        condition=template.condition,
                        origin="rewrite:%s" % rule.name,
                        addressing=template.addressing,
                    )
                )
    return additional


def reference_expand_template_base(base, options):
    extended = RTTemplateBase(processor=base.processor)
    seen = set()

    def add(template):
        key = "%s:=%s@%d" % (template.destination, template.pattern, template.condition.node)
        if key not in seen:
            seen.add(key)
            extended.add(template)

    for template in base:
        add(template)
    if options.use_commutativity:
        for template in reference_expand_commutative(list(base)):
            add(template)
    rules = options.effective_rules()
    if rules:
        for template in reference_apply_rewrite_rules(list(extended), rules):
            add(template)
    if options.use_commutativity and rules:
        for template in reference_expand_commutative(list(extended)):
            add(template)
    return extended


class _UnmemoizedRoutes(RouteEnumerator):
    """Route enumeration that re-enumerates a module output every time a
    route reaches it."""

    def _expand_output(self, module, port_name, depth, visited):
        return self._enumerate_output(module, port_name, depth, visited)


def reference_extract(netlist):
    extractor = InstructionSetExtractor(netlist)
    enumerator = _UnmemoizedRoutes(netlist, extractor.control)
    base = RTTemplateBase(processor=netlist.name)
    seen = set()
    duplicates = 0
    for template in enumerator.enumerate_all():
        key = (template.destination, str(template.pattern), template.condition.node)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        base.add(template)
    return base, duplicates, enumerator.truncated


def reference_lower(pattern, grammar):
    if isinstance(pattern, ConstLeaf):
        return PatTerm(CONST_TERMINAL, value=pattern.value)
    if isinstance(pattern, ImmLeaf):
        return PatTerm(CONST_TERMINAL)
    if isinstance(pattern, RegLeaf):
        nonterm = nonterminal_for(pattern.storage)
        assert nonterm in grammar.nonterminals
        return PatNonterm(nonterm)
    if isinstance(pattern, PortLeaf):
        assert pattern.port in grammar.terminals
        return PatTerm(pattern.port)
    assert isinstance(pattern, OpNode)
    return PatTerm(
        pattern.op, tuple(reference_lower(child, grammar) for child in pattern.operands)
    )


class ReferenceNormalForm:
    """The depth-one normal form with inner patterns keyed by ``(label,
    value, operand names)`` and every rule's operands and leaf specs
    derived again."""

    def __init__(self, nonterminals):
        self.shapes = {}
        self.hardwired = set()
        self._inner = {}
        self._taken = set(nonterminals)

    def add_rule(self, rule):
        root = rule.pattern
        leaves = []
        stack = [(root, ())]
        while stack:
            pattern, path = stack.pop()
            if isinstance(pattern, PatNonterm):
                leaves.append((path, pattern.name))
                continue
            operands = pattern.operands
            for index in range(len(operands) - 1, -1, -1):
                stack.append((operands[index], path + (index,)))
        operands = tuple(self._operand(operand) for operand in root.operands)
        self._add(root, operands, rule.cost, rule.lhs, rule, tuple(leaves))

    def _add(self, pattern, operands, cost, lhs, rule, leaves):
        if pattern.value is not None:
            self.hardwired.add(pattern.value)
        self.shapes.setdefault((pattern.name, len(operands)), []).append(
            ShapeRule(pattern.value, operands, cost, lhs, rule, leaves)
        )

    def _operand(self, pattern):
        if isinstance(pattern, PatNonterm):
            return pattern.name
        operands = tuple(self._operand(operand) for operand in pattern.operands)
        key = (pattern.name, pattern.value, operands)
        name = self._inner.get(key)
        if name is None:
            name = "<%s>" % pattern
            while name in self._taken:
                name += "'"
            self._taken.add(name)
            self._inner[key] = name
            self._add(pattern, operands, 0, name, None, ())
        return name


def reference_retarget(hdl, options):
    """Extraction, expansion, grammar and tables through the oracles."""
    netlist = build_netlist(parse_processor(hdl))
    raw, duplicates, truncated = reference_extract(netlist)
    extended = reference_expand_template_base(raw, options or ExpansionOptions())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            construct, "_lower_pattern", lambda pattern, grammar, memo: reference_lower(pattern, grammar)
        )
        patch.setattr(tables_module, "_NormalForm", ReferenceNormalForm)
        grammar = build_tree_grammar(netlist, extended)
        tables = GrammarTables.build(grammar)
    return raw, duplicates, truncated, extended, grammar, tables


# ---------------------------------------------------------------------------
# Comparable views
# ---------------------------------------------------------------------------


def _templates(base):
    return [
        (t.destination, str(t.pattern), t.condition.node, t.origin, t.addressing)
        for t in base
    ]


def _rules(grammar):
    return [(str(rule), rule.cost, rule.kind) for rule in grammar.rules]


def _shapes(tables):
    return [
        (
            shape,
            [
                (s.value, s.operands, s.cost, s.lhs, s.rule.index if s.rule else None, s.leaves)
                for s in rules
            ],
        )
        for shape, rules in tables.shape_rules.items()
    ]


def _closure(tables):
    return {
        source: [(target, delta, [rule.index for rule in path]) for target, delta, path in entries]
        for source, entries in tables.chain_closure.items()
    }


def _quirk():
    """The custom ASIP of ``examples/custom_processor.py`` with its extra
    rewrite rule."""
    example = runpy.run_path(os.path.join(EXAMPLES, "custom_processor.py"))
    x, y = Slot(0), Slot(1)
    rule = RewriteRule(
        name="add_via_double_sub",
        hardware_schema=OpNode("sub", (x, OpNode("sub", (ConstLeaf(0), y)))),
        source_schema=OpNode("add", (x, y)),
    )
    return example["CUSTOM_HDL"], ExpansionOptions(
        rules=default_transformation_library() + [rule]
    )


#: A data path with a combinational cycle (ALU -> MUXB -> ALU) that the
#: destination reaches through two routes of the same length, MUXD -> ALU
#: -> MUXB and MUXD -> MUXC -> MUXB.  The cycle is cut at ALU on the first
#: route only, so MUXB's output has other alternatives on each: a route
#: memo not keyed by the visited set would reuse the cut-short ones.
CYCLIC_HDL = """
processor cyclic;

module IM kind instruction_memory
  out word : 16;
end module;

module DMEM kind memory
  in  addr : 6;
  in  din  : 16;
  in  wr   : 1;
  out dout : 16;
behavior
  dout := mem[addr];
  mem[addr] := din when wr == 1;
end module;

module ACC kind register
  in  d  : 16;
  in  ld : 1;
  out q  : 16;
behavior
  q := d when ld == 1;
end module;

module ALU kind combinational
  in  a : 16;
  in  b : 16;
  in  f : 1;
  out y : 16;
behavior
  y := case f
         when 0 => a + b;
         when 1 => a;
       end;
end module;

module MUXB kind combinational
  in  a : 16;
  in  b : 16;
  in  s : 1;
  out y : 16;
behavior
  y := case s
         when 0 => a;
         when 1 => b;
       end;
end module;

module MUXC kind combinational
  in  a : 16;
  in  b : 16;
  in  s : 1;
  out y : 16;
behavior
  y := case s
         when 0 => a;
         when 1 => b;
       end;
end module;

module MUXD kind combinational
  in  a : 16;
  in  b : 16;
  in  s : 1;
  out y : 16;
behavior
  y := case s
         when 0 => a;
         when 1 => b;
       end;
end module;

structure
  connect IM.word[15:15] -> ALU.f;
  connect IM.word[14:14] -> MUXB.s;
  connect IM.word[13:13] -> MUXC.s;
  connect IM.word[12:12] -> MUXD.s;
  connect IM.word[11:11] -> ACC.ld;
  connect IM.word[10:10] -> DMEM.wr;
  connect IM.word[5:0] -> DMEM.addr;
  connect ACC.q -> ALU.a;
  connect MUXB.y -> ALU.b;
  connect DMEM.dout -> MUXB.a;
  connect ALU.y -> MUXB.b;
  connect MUXB.y -> MUXC.a;
  connect DMEM.dout -> MUXC.b;
  connect ALU.y -> MUXD.a;
  connect MUXC.y -> MUXD.b;
  connect MUXD.y -> ACC.d;
  connect ACC.q -> DMEM.din;
end structure;
"""


OPTIONS = {
    "default": None,
    "no-commutativity": ExpansionOptions(use_commutativity=False),
    "no-rewrite-rules": ExpansionOptions(use_rewrite_rules=False),
    "identity-rules": ExpansionOptions(
        rules=default_transformation_library() + identity_rules()
    ),
}

CASES = [
    (name, option) for option in OPTIONS for name in default_registry().names()
] + [("quirk", "example-rule"), ("cyclic", "default")]


@pytest.mark.parametrize("target, option", CASES)
def test_retarget_matches_the_text_keyed_reference(target, option):
    if target == "quirk":
        hdl, options = _quirk()
    elif target == "cyclic":
        hdl, options = CYCLIC_HDL, None
    else:
        hdl, options = default_registry().hdl_source(target), OPTIONS[option]
    result = retarget(hdl, expansion=options, generate_matcher=False)
    raw, duplicates, truncated, extended, grammar, tables = reference_retarget(hdl, options)

    assert _templates(result.extraction.template_base) == _templates(raw)
    assert result.extraction.duplicates_merged == duplicates
    assert result.extraction.truncated == truncated
    assert _templates(result.template_base) == _templates(extended)
    assert _rules(result.grammar) == _rules(grammar)
    assert _shapes(result.selector.tables) == _shapes(tables)
    assert _closure(result.selector.tables) == _closure(tables)
    assert result.selector.tables.hardwired_values == tables.hardwired_values


# ---------------------------------------------------------------------------
# Random patterns
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.sampled_from(["A", "B", "ACC"]).map(RegLeaf),
    st.sampled_from(["P", "Q"]).map(PortLeaf),
    st.integers(-1, 2).map(ConstLeaf),
    st.builds(ImmLeaf, st.sampled_from(["IM.word[7:0]", "IM.word[3:0]"]), st.sampled_from([4, 8])),
)
# Commutative and non-commutative binary operators, and a unary one.
_BINARY = ["add", "mul", "xor", "sub", "shl"]


def _patterns(depth):
    if depth == 1:
        return _LEAVES
    child = _patterns(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds(lambda op, left, right: OpNode(op, (left, right)), st.sampled_from(_BINARY), child, child),
        child.map(lambda operand: OpNode("neg", (operand,))),
    )


def _nodes(pattern):
    yield pattern
    for child in pattern.children():
        yield from _nodes(child)


_RULES = default_transformation_library() + identity_rules()


@settings(max_examples=300, deadline=None)
@given(pattern=_patterns(4))
def test_random_patterns_match_the_reference(pattern):
    assert swap_variants(pattern) == reference_swap_variants(pattern)
    for rule in _RULES:
        assert rule.rewrite(pattern) is reference_rewrite(rule, pattern)
    for node in _nodes(pattern):
        fields = [getattr(node, name) for name in node._fields]
        assert type(node)(*fields) is node
        assert pickle.loads(pickle.dumps(node)) is node
