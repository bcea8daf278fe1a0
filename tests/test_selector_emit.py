"""Unit tests for the generated (emitted) matcher module."""

import pytest

from repro.codegen.selection import build_subject_tree
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.ir.binding import BindingError, bind_program
from repro.selector import CodeSelector, SubjectNode, compile_matcher_module, emit_matcher_source
from repro.selector.burs import SelectionError


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
        """The emitted module runs the linearized match programs while the
        library runs the automaton: equal cost and rule indices on every
        statement of the 16 DSPStone kernels (or both reject it)."""
        result = retarget_results[target]
        module = result.matcher_module
        compared = 0
        for kernel in all_kernel_names() + loop_kernel_names():
            program = kernel_program(kernel)
            try:
                binding = bind_program(program, result.netlist)
            except BindingError:
                continue
            for block in program.blocks:
                for statement in block.statements:
                    subject = build_subject_tree(statement, binding)
                    compared += 1
                    try:
                        expected = result.selector.select(subject)
                    except SelectionError:
                        assert module.cover_cost(subject) is None
                        continue
                    assert module.cover_cost(subject) == expected.cost
                    assert module.reduce(subject) == expected.rule_indices()
        assert compared > 0

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
