"""Tests of the DSPStone kernel collection."""

from dataclasses import FrozenInstanceError

import pytest

from repro.dspstone import (
    FIGURE2_ORDER,
    LOOP_KERNELS,
    all_kernel_names,
    get_kernel,
    kernel_program,
    loop_kernel_names,
)
from repro.frontend import parse_source


class TestKernelCollection:
    def test_ten_kernels_in_figure2_order(self):
        names = all_kernel_names()
        assert len(names) == 10
        assert names == FIGURE2_ORDER
        assert names[0] == "real_update"
        assert "fir" in names and "convolution" in names

    def test_kernel_program_is_lowered_once_and_shared(self):
        # Programs are frozen, so every caller can share the one lowered
        # program.
        for name in all_kernel_names() + loop_kernel_names():
            assert kernel_program(name) is kernel_program(name)
        program = kernel_program("fir")
        with pytest.raises(FrozenInstanceError):
            program.blocks = ()
        with pytest.raises(FrozenInstanceError):
            program.blocks[0].statements = ()
        assert isinstance(program.blocks[0].statements, tuple)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            get_kernel("fft")

    def test_kernel_sources_parse(self):
        for name in all_kernel_names():
            kernel = get_kernel(name)
            program = parse_source(kernel.source, name=name)
            assert program.assignments, name

    def test_kernel_programs_lower(self):
        for name in all_kernel_names():
            program = kernel_program(name)
            assert program.name == name
            assert program.statement_count() >= 1

    def test_descriptions_present(self):
        for name in all_kernel_names():
            assert get_kernel(name).description


class TestKernelShapes:
    def test_real_update_is_single_statement(self):
        assert kernel_program("real_update").statement_count() == 1

    def test_complex_kernels_have_two_components(self):
        assert kernel_program("complex_multiply").statement_count() == 2
        assert kernel_program("complex_update").statement_count() == 2

    def test_parameterised_kernels_match_their_parameters(self):
        n_real = get_kernel("n_real_updates")
        assert kernel_program("n_real_updates").statement_count() == n_real.parameters["N"]
        fir = get_kernel("fir")
        program = kernel_program("fir")
        # single statement summing `taps` products
        assert program.statement_count() == 1
        assert len(program.arrays) == 2
        assert program.arrays["x"] == fir.parameters["taps"]

    def test_biquad_n_cascades_sections(self):
        kernel = get_kernel("biquad_n")
        program = kernel_program("biquad_n")
        assert program.statement_count() == 2 * kernel.parameters["sections"]

    def test_no_trivial_copy_statements(self):
        """Bare variable-to-variable copies would be covered at zero cost
        (both live in the same memory), which would distort the code-size
        experiment; the kernels must not contain any."""
        from repro.ir.expr import VarRef

        for name in all_kernel_names():
            program = kernel_program(name)
            for statement in program.single_block().statements:
                assert not isinstance(statement.expression, VarRef), (name, str(statement))

    def test_mac_dominated_kernels_use_multiplication(self):
        from repro.ir.expr import Op

        for name in ("fir", "convolution", "dot_product"):
            program = kernel_program(name)
            expression = program.single_block().statements[0].expression
            assert isinstance(expression, Op)

    def test_convolution_reverses_coefficients(self):
        kernel = get_kernel("convolution")
        assert "h[7]" in kernel.source and "x[0]" in kernel.source


class TestLoopKernels:
    def test_loop_kernel_collection(self):
        names = loop_kernel_names()
        assert names == LOOP_KERNELS
        assert "fir_loop" in names and "dot_product_loop" in names
        # The figure-2 collection is untouched by the loop forms.
        assert set(names).isdisjoint(all_kernel_names())

    def test_every_loop_kernel_names_an_unrolled_counterpart(self):
        for name in loop_kernel_names():
            kernel = get_kernel(name)
            assert kernel.unrolled in all_kernel_names(), name

    def test_loop_kernels_lower_to_cfgs(self):
        for name in loop_kernel_names():
            program = kernel_program(name)
            assert not program.is_straight_line(), name
            assert len(program.blocks) >= 3, name

    def test_loop_kernels_match_unrolled_reference_execution(self):
        for name in loop_kernel_names():
            kernel = get_kernel(name)
            loop_program = kernel_program(name)
            unrolled_program = kernel_program(kernel.unrolled)
            environment = {}
            for array, size in sorted(loop_program.arrays.items()):
                for index in range(size):
                    environment["%s[%d]" % (array, index)] = index * 7 + 3
            loop_out = loop_program.execute(dict(environment))
            unrolled_out = unrolled_program.execute(dict(environment))
            for key in unrolled_program.all_variables():
                if key in loop_out:
                    assert loop_out[key] == unrolled_out.get(key, 0), (name, key)

    def test_trip_counts_documented(self):
        for name in loop_kernel_names():
            assert get_kernel(name).parameters, name
