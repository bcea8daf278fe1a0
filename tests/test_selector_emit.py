"""Unit tests for the generated (emitted) matcher module."""

import json
import subprocess
import sys

import pytest

from repro.codegen.selection import build_subject_tree
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.frontend import lower_to_program
from repro.fuzz.generator import generate_source
from repro.ir.binding import BindingError, bind_program
from repro.selector import CodeSelector, SubjectNode, compile_matcher_module, emit_matcher_source
from repro.selector.burs import SelectionError


def _subjects(program, netlist):
    """Subject trees of every statement of ``program`` (none when the
    program does not bind to the target)."""
    try:
        binding = bind_program(program, netlist)
    except BindingError:
        return []
    return [
        build_subject_tree(statement, binding)
        for block in program.blocks
        for statement in block.statements
    ]


def _assert_agrees(module, selector, subject):
    """Equal cost and rule indices, or rejection by both."""
    try:
        expected = selector.select(subject)
    except SelectionError:
        assert module.cover_cost(subject) is None
        return
    assert module.cover_cost(subject) == expected.cost
    assert module.reduce(subject) == expected.rule_indices()


class TestEmittedMatcher:
    def test_source_is_valid_python(self, demo_result):
        source = emit_matcher_source(demo_result.grammar)
        compile(source, "<test>", "exec")
        assert "RULES" in source
        assert "def label(" in source

    def test_module_metadata(self, demo_result):
        module = compile_matcher_module(demo_result.grammar)
        assert module.PROCESSOR == "demo"
        assert module.START == demo_result.grammar.start
        assert len(module.RULES) == len(demo_result.grammar.rules)
        assert set(module.TERMINALS) == demo_result.grammar.terminals
        assert set(module.NONTERMINALS) == demo_result.grammar.nonterminals

    def test_module_tables_mirror_grammar_tables(self, ref_result):
        """The JSON-decoded tables carry the normal form and closure field
        for field, with rules as indices and patterns as text."""
        module = ref_result.matcher_module
        tables = ref_result.selector.tables
        grammar = ref_result.grammar
        assert module.RULES == tuple(
            (rule.lhs, str(rule.pattern), rule.cost) for rule in grammar.rules
        )
        assert list(module.SHAPES) == list(tables.shape_rules)
        for shape, group in tables.shape_rules.items():
            assert [
                (value, tuple(operands), cost, lhs, rule,
                 tuple((tuple(path), nonterminal) for path, nonterminal in leaves))
                for value, operands, cost, lhs, rule, leaves in module.SHAPES[shape]
            ] == [
                (entry.value, entry.operands, entry.cost, entry.lhs,
                 None if entry.rule is None else entry.rule.index, entry.leaves)
                for entry in group
            ]
        assert module.CLOSURE == {
            source: tuple(
                (target, delta, path[-1].index, path[-1].pattern.name)
                for target, delta, path in entries
            )
            for source, entries in tables.chain_closure.items()
        }

    def test_generated_matcher_agrees_with_library_selector(self, demo_result):
        module = compile_matcher_module(demo_result.grammar)
        selector = CodeSelector(demo_result.grammar)
        # d := ACC + DMEM, with the destination in memory
        root = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
            ],
        )
        expected = selector.select(root)
        assert module.cover_cost(root) == expected.cost
        indices = module.reduce(root)
        assert indices == expected.rule_indices()

    @pytest.mark.parametrize("target", ["demo", "ref", "tms320c25"])
    def test_generated_matcher_agrees_on_every_kernel_statement(
        self, target, retarget_results
    ):
        """The emitted module's dynamic program and the library's automaton
        apply the same depth-one rules and closure in the same order: equal
        cost and rule indices on every statement of the 16 DSPStone kernels
        (or both reject it)."""
        result = retarget_results[target]
        compared = 0
        for kernel in all_kernel_names() + loop_kernel_names():
            for subject in _subjects(kernel_program(kernel), result.netlist):
                _assert_agrees(result.matcher_module, result.selector, subject)
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("target", ["ref", "tms320c25"])
    def test_generated_matcher_agrees_on_generated_programs(
        self, target, retarget_results
    ):
        """The same agreement on every statement of generator seeds 0-99,
        whose trees bring constants and logic operators the kernels lack."""
        result = retarget_results[target]
        compared = 0
        for seed in range(100):
            program = lower_to_program(generate_source(seed), name="gen%d" % seed)
            for subject in _subjects(program, result.netlist):
                _assert_agrees(result.matcher_module, result.selector, subject)
                compared += 1
        assert compared > 1000

    def test_emitted_module_runs_without_repro(self, ref_result, tmp_path):
        """The emitted source imports in an isolated interpreter that cannot
        import ``repro`` and covers a kernel statement built from its own
        node class exactly like the library."""
        path = tmp_path / "ref_selector.py"
        path.write_text(emit_matcher_source(ref_result.grammar))
        subject = max(
            _subjects(kernel_program("fir"), ref_result.netlist),
            key=lambda tree: tree.size(),
        )
        expected = ref_result.selector.select(subject)

        def encode(node):
            return [node.label, node.const_value, [encode(c) for c in node.children]]

        script = """
import importlib.util, json, sys
sys.modules["repro"] = None  # any import of the package now fails
class Node:
    def __init__(self, label, const_value, children):
        self.label = label
        self.const_value = const_value
        self.children = [Node(*child) for child in children]
spec = importlib.util.spec_from_file_location("ref_selector", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
root = Node(*json.load(sys.stdin))
print(json.dumps([module.cover_cost(root), module.reduce(root)]))
"""
        completed = subprocess.run(
            [sys.executable, "-I", "-c", script, str(path)],
            input=json.dumps(encode(subject)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        cost, indices = json.loads(completed.stdout)
        assert cost == expected.cost
        assert indices == expected.rule_indices()

    def test_generated_matcher_reports_unmatchable_trees(self, demo_result):
        module = compile_matcher_module(demo_result.grammar)
        bad = SubjectNode("nonsense")
        assert module.cover_cost(bad) is None
        with pytest.raises(ValueError):
            module.reduce(bad)

    def test_matcher_module_is_retarget_output(self, demo_result):
        # retarget() stores the generated matcher so that users can inspect it
        assert demo_result.matcher_module is not None
        assert demo_result.matcher_module.PROCESSOR == "demo"
