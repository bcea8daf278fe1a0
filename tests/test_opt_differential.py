"""Differential correctness suite for the IR optimizer.

For every registered target x every DSPStone kernel (and a set of
synthetic CSE/fold-heavy programs), the optimized pipeline must be
*observably equivalent* to the unoptimized one under the RT simulator --
same final values for every user-visible variable and port, on several
deterministic environments -- and optimized code size (instruction
words, and RT operation count) must never be worse.  Compiler
temporaries (``__cse*``) are the one permitted difference in the final
environment; everything else must match exactly.

Combinations the *unoptimized* pipeline cannot compile (unbindable
variables on tiny targets, uncoverable statements) are skipped -- but if
the unoptimized pipeline compiles, the optimized one must too: the
optimizer never narrows the set of ingestible programs.
"""

import pytest

from repro.diagnostics import ReproError
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.fuzz.oracles import observables
from repro.ir.binding import BindingError
from repro.toolchain import PipelineConfig, Session, default_registry

from helpers import SEEDS, seeded_environment


def _compile_pair(retarget_result, program):
    """(optimized, unoptimized) results, or None when the *unoptimized*
    pipeline cannot handle the program on this target."""
    plain = Session(retarget_result, config=PipelineConfig(use_optimizer=False))
    try:
        unoptimized = plain.compile_program(program)
    except (BindingError, ReproError):
        return None
    # If the baseline compiles, the optimized pipeline must too.
    optimized = Session(retarget_result).compile_program(program)
    return optimized, unoptimized


def _assert_equivalent_and_never_worse(pair, program, context):
    optimized, unoptimized = pair
    assert optimized.code_size <= unoptimized.code_size, (
        "%s: optimized code size %d worse than unoptimized %d"
        % (context, optimized.code_size, unoptimized.code_size)
    )
    assert optimized.operation_count <= unoptimized.operation_count, context
    for seed in SEEDS:
        environment = seeded_environment(program, seed)
        got = observables(optimized.simulate(dict(environment)))
        expected = observables(unoptimized.simulate(dict(environment)))
        assert got == expected, context


class TestKernelsDifferential:
    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    def test_all_kernels_equivalent_and_never_worse(self, target, retarget_results):
        result = retarget_results[target]
        compared = 0
        for kernel in all_kernel_names():
            program = kernel_program(kernel)
            pair = _compile_pair(result, program)
            if pair is None:
                continue
            compared += 1
            _assert_equivalent_and_never_worse(
                pair, program, "%s/%s" % (target, kernel)
            )
        if compared == 0:
            # Tiny pedagogical targets (no multiplier / no data memory
            # for the kernel arrays) compile no DSPStone kernel at all --
            # with or without the optimizer.
            pytest.skip("no DSPStone kernel compiles on %s" % target)

    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    def test_all_loop_kernels_equivalent_and_never_worse(
        self, target, retarget_results
    ):
        """The loop-form kernels exercise the whole global pipeline
        (rotation, LICM, GVN, hardware-loop annotation): optimized must
        stay observably equal to unoptimized and never larger."""
        result = retarget_results[target]
        compared = 0
        for kernel in loop_kernel_names():
            program = kernel_program(kernel)
            pair = _compile_pair(result, program)
            if pair is None:
                continue
            compared += 1
            _assert_equivalent_and_never_worse(
                pair, program, "%s/%s" % (target, kernel)
            )
        if compared == 0:
            pytest.skip("no loop kernel compiles on %s" % target)


#: Synthetic programs exercising exactly the rewrites the kernels do not
#: contain: cross-statement CSE, within-statement duplication, folding,
#: identities, and write hazards that must block CSE.
SYNTHETIC_SOURCES = {
    "cse_chain": (
        "int a, b, c, d, e, f, y0, y1, y2, y3;\n"
        "y0 = a * b + c * d + e;\n"
        "y1 = a * b + c * d - f;\n"
        "y2 = a * b + c * d;\n"
        "y3 = a * b + c * d + f;\n"
    ),
    "cse_within_statement": (
        "int a, b, c, y;\n"
        "y = (a * b + c) * (a * b + c);\n"
    ),
    "cse_write_hazard": (
        "int a, b, c, y0, y1;\n"
        "y0 = a * b + c;\n"
        "a = y0 + 1;\n"
        "y1 = a * b + c;\n"
    ),
    "fold_identities": (
        "int a, b, y0, y1, y2;\n"
        "y0 = a + 0;\n"
        "y1 = (a * 1) + (b - 0);\n"
        "y2 = a - a;\n"
    ),
    "fold_constants": (
        "int a, y0, y1;\n"
        "y0 = a + (3 + 4);\n"
        "y1 = a + 40000 + 40000;\n"
    ),
    "self_reference": (
        "int a, b, acc;\n"
        "acc = a * b + acc;\n"
        "acc = a * b + acc;\n"
    ),
}


class TestSyntheticDifferential:
    @pytest.mark.parametrize("target", sorted(default_registry().names()))
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_SOURCES))
    def test_synthetic_equivalent_and_never_worse(
        self, target, name, retarget_results
    ):
        program = lower_to_program(SYNTHETIC_SOURCES[name], name=name)
        pair = _compile_pair(retarget_results[target], program)
        if pair is None:
            pytest.skip("unoptimized pipeline cannot compile %s on %s" % (name, target))
        _assert_equivalent_and_never_worse(
            pair, program, "%s/%s" % (target, name)
        )

    def test_cse_actually_fires_somewhere(self, tms_result):
        program = lower_to_program(SYNTHETIC_SOURCES["cse_chain"], name="cse_chain")
        optimized, unoptimized = _compile_pair(tms_result, program)
        assert optimized.metrics.opt_temps >= 1
        assert optimized.code_size < unoptimized.code_size

    def test_hazard_case_keeps_both_computations(self, tms_result):
        program = lower_to_program(
            SYNTHETIC_SOURCES["cse_write_hazard"], name="hazard"
        )
        optimized, _unoptimized = _compile_pair(tms_result, program)
        assert optimized.metrics.opt_temps == 0


class TestOptimizedAgainstReferenceExecution:
    """The optimized pipeline against the IR-level golden model of the
    *original* program (not just opt-vs-no-opt agreement)."""

    @pytest.mark.parametrize("kernel", sorted(all_kernel_names()))
    def test_kernel_matches_reference_on_tms(self, kernel, tms_result):
        program = kernel_program(kernel)
        pair = _compile_pair(tms_result, program)
        if pair is None:
            pytest.skip("%s not compilable on tms320c25" % kernel)
        optimized, _unoptimized = pair
        for seed in SEEDS:
            environment = seeded_environment(program, seed)
            reference = dict(environment)
            for block in program.blocks:
                reference = block.execute(reference)
            simulated = observables(optimized.simulate(dict(environment)))
            for name in program.all_variables():
                assert simulated[name] == reference[name], (kernel, name)
