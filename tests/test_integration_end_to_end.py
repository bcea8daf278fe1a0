"""Integration tests across the whole flow.

These tests reproduce, in miniature, the two experiments of the paper:
retargeting every built-in processor (table 3) and comparing code quality
on the TMS320C25 against the conventional baseline and hand-written
reference sizes (figure 2).
"""

import random

import pytest

from repro.baselines import hand_reference_size
from repro.dspstone import all_kernel_names, kernel_program
from repro.sim import simulate_statement_code
from repro.toolchain import PipelineConfig, Session


class TestTable3Shape:
    def test_every_target_retargets_quickly(self, retarget_results):
        for name, result in retarget_results.items():
            assert result.timings.total < 60.0, name

    def test_template_bases_are_nonempty_and_cover_destinations(self, retarget_results):
        for name, result in retarget_results.items():
            assert result.template_count > 0, name
            assert result.template_base.destinations(), name

    def test_generated_selector_exists_for_all_targets(self, retarget_results):
        for name, result in retarget_results.items():
            assert result.matcher_module is not None, name
            assert result.matcher_module.PROCESSOR == name


class TestFigure2Shape:
    @pytest.fixture(scope="class")
    def figure2(self, tms_result, tms_compiler):
        baseline = Session(tms_result, config=PipelineConfig.preset("conventional"))
        rows = {}
        for name in all_kernel_names():
            program = kernel_program(name)
            rows[name] = {
                "hand": hand_reference_size(name),
                "record": tms_compiler.compile_program(program).code_size,
                "baseline": baseline.compile_program(program).code_size,
            }
        return rows

    def test_all_kernels_compile_on_both_compilers(self, figure2):
        assert len(figure2) == 10
        assert all(row["record"] > 0 and row["baseline"] > 0 for row in figure2.values())

    def test_record_never_loses_to_the_baseline(self, figure2):
        for name, row in figure2.items():
            assert row["record"] <= row["baseline"], name

    def test_record_is_close_to_hand_written_code(self, figure2):
        """The paper: 'in many cases, Record achieves a low overhead compared
        to hand-written code'."""
        for name, row in figure2.items():
            ratio = row["record"] / row["hand"]
            assert ratio <= 1.5, (name, ratio)

    def test_baseline_overhead_is_largest_on_mac_kernels(self, figure2):
        def overhead(name):
            return figure2[name]["baseline"] / figure2[name]["hand"]

        mac_heavy = min(overhead("fir"), overhead("convolution"))
        simple = overhead("real_update")
        assert mac_heavy >= simple

    def test_relative_code_size_is_within_figure2_range(self, figure2):
        """All bars of figure 2 lie between 100% and 700%."""
        for name, row in figure2.items():
            for compiler in ("record", "baseline"):
                ratio = 100.0 * row[compiler] / row["hand"]
                assert 50.0 <= ratio <= 700.0, (name, compiler, ratio)


class TestCrossTargetCompilation:
    """The same source program must compile and run correctly on several
    different retargeted processors (the point of a retargetable compiler)."""

    SOURCE = "int a, b, c, d; d = c + a * b; c = d - b; b = a & c;"

    @pytest.mark.parametrize("target", ["demo", "ref", "tms320c25"])
    def test_compile_and_simulate(self, retarget_results, target):
        compiler = Session(retarget_results[target])
        compiled = compiler.compile(self.SOURCE, name="cross")
        assert compiled.code_size > 0
        rng = random.Random(42)
        env = {name: rng.randint(-50, 50) for name in ("a", "b", "c", "d")}
        # Reference-execute the *source* program, not compiled.program:
        # the latter is the optimizer's output, which would make this
        # check blind to optimizer miscompiles.
        from repro.frontend.lowering import lower_to_program

        reference = lower_to_program(self.SOURCE, name="cross").single_block().execute(env)
        simulated = simulate_statement_code(list(compiled.statement_codes), env)
        mask = 0xFFFF
        for key, value in reference.items():
            assert (value & mask) == (simulated.get(key, 0) & mask), (target, key)

    def test_code_size_differs_across_architectures(self, retarget_results):
        sizes = {}
        for target in ("demo", "ref", "tms320c25"):
            compiler = Session(retarget_results[target])
            sizes[target] = compiler.compile(self.SOURCE, name="cross").code_size
        # the HW/SW trade-off the paper motivates: different architectures
        # need different numbers of instructions for the same program
        assert len(set(sizes.values())) >= 2, sizes
