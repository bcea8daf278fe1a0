"""Unit tests for the figure-2 baselines."""

import pytest

from repro.baselines import (
    GreedyMaximalMunch,
    hand_reference_size,
    hand_reference_table,
)
from repro.dspstone import all_kernel_names, get_kernel
from repro.selector import SubjectNode
from repro.toolchain import PipelineConfig, Session


class TestConventionalOptions:
    def test_everything_is_disabled(self):
        config = PipelineConfig.preset("conventional")
        assert not config.allow_chained
        assert not config.use_expanded_templates
        assert not config.use_scheduling
        assert not config.use_compaction

    def test_conventional_preset_uses_restricted_grammar(self, tms_result):
        baseline = Session(tms_result, config=PipelineConfig.preset("conventional"))
        rt_rules = baseline.selector.grammar.rt_rules()
        assert all(not rule.template.is_chained() for rule in rt_rules)
        assert all(rule.template.origin == "extracted" for rule in rt_rules)

    def test_baseline_never_beats_record(self, tms_result, tms_compiler):
        baseline = Session(tms_result, config=PipelineConfig.preset("conventional"))
        for name in ("real_update", "fir", "dot_product"):
            kernel = get_kernel(name)
            record_size = tms_compiler.compile(kernel.source, name=name).code_size
            baseline_size = baseline.compile(kernel.source, name=name).code_size
            assert baseline_size >= record_size


class TestHandReference:
    def test_every_kernel_has_a_reference_size(self):
        for name in all_kernel_names():
            assert hand_reference_size(name) > 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            hand_reference_size("no_such_kernel")

    def test_table_is_a_copy(self):
        table = hand_reference_table()
        table["fir"] = 0
        assert hand_reference_size("fir") > 0

    def test_reference_scales_with_workload(self):
        assert hand_reference_size("n_real_updates") == 4 * hand_reference_size("real_update")
        assert hand_reference_size("biquad_n") == 4 * hand_reference_size("biquad_one")
        assert hand_reference_size("convolution") == hand_reference_size("fir")


class TestGreedyMaximalMunch:
    def test_greedy_covers_simple_trees(self, tms_result):
        greedy = GreedyMaximalMunch(tms_result.grammar)
        root = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("DMEM"), SubjectNode("DMEM")]),
            ],
        )
        assert greedy.cover_size(root) >= 1

    def test_greedy_never_undercuts_optimal(self, tms_result):
        from repro.selector import CodeSelector

        greedy = GreedyMaximalMunch(tms_result.grammar)
        optimal = CodeSelector(tms_result.grammar)
        root = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode(
                    "add",
                    [
                        SubjectNode("DMEM"),
                        SubjectNode("mul", [SubjectNode("DMEM"), SubjectNode("DMEM")]),
                    ],
                ),
            ],
        )
        assert greedy.cover_size(root) >= optimal.select(root).cost
