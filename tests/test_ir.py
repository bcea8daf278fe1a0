"""Unit tests for the IR: expressions, programs, binding."""

import pytest

from repro.hdl import parse_processor
from repro.ir import (
    BasicBlock,
    Const,
    Op,
    PortInput,
    Program,
    Statement,
    VarRef,
    bind_program,
    evaluate_expr,
    expr_variables,
)
from repro.ir.binding import BindingError, default_data_memory
from repro.ir.expr import apply_operator, expr_size, wrap_word
from repro.netlist import build_netlist
from repro.toolchain import default_registry


class TestExpressions:
    def test_evaluate_constants_and_vars(self):
        expr = Op("add", (VarRef("a"), Const(5)))
        assert evaluate_expr(expr, {"a": 3}) == 8

    def test_missing_variables_default_to_zero(self):
        assert evaluate_expr(VarRef("nope"), {}) == 0

    def test_port_inputs_read_at_prefixed_names(self):
        expr = Op("add", (PortInput("PIN"), Const(1)))
        assert evaluate_expr(expr, {"@PIN": 41}) == 42

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 7, 9, 16),
            ("sub", 7, 9, wrap_word(-2)),
            ("mul", 300, 300, wrap_word(90000)),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("shl", 3, 2, 12),
            ("shr", 12, 2, 3),
            ("eq", 4, 4, 1),
            ("ne", 4, 4, 0),
            ("lt", 3, 4, 1),
            ("div", 9, 2, 4),
            ("mod", 9, 2, 1),
        ],
    )
    def test_binary_operators(self, op, a, b, expected):
        assert apply_operator(op, [a, b]) == expected

    def test_division_by_zero_is_zero(self):
        assert apply_operator("div", [5, 0]) == 0
        assert apply_operator("mod", [5, 0]) == 0

    def test_unary_operators(self):
        assert apply_operator("neg", [1]) == wrap_word(-1)
        assert apply_operator("not", [0]) == wrap_word(~0)
        assert apply_operator("lnot", [0]) == 1
        assert apply_operator("lnot", [7]) == 0

    def test_bit_slice_operator(self):
        assert apply_operator("bits_7_4", [0xAB]) == 0xA

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            apply_operator("bogus", [1, 2])

    def test_expr_variables_and_size(self):
        expr = Op("add", (VarRef("a"), Op("mul", (VarRef("b"), VarRef("a")))))
        assert expr_variables(expr) == {"a", "b"}
        assert expr_size(expr) == 5

    def test_wrapping_semantics(self):
        assert wrap_word(0x1_0005) == 5
        assert evaluate_expr(Const(-1), {}) == 0xFFFF


class TestProgramsAndBlocks:
    def _block(self):
        return BasicBlock(
            name="entry",
            statements=[
                Statement("t", Op("mul", (VarRef("a"), VarRef("b")))),
                Statement("d", Op("add", (VarRef("t"), VarRef("c")))),
            ],
        )

    def test_statement_variables(self):
        statement = Statement("d", Op("add", (VarRef("a"), Const(1))))
        assert statement.variables() == {"a", "d"}
        port_statement = Statement("@POUT", VarRef("a"))
        assert port_statement.variables() == {"a"}

    def test_block_execution_updates_environment(self):
        block = self._block()
        env = block.execute({"a": 3, "b": 4, "c": 5})
        assert env["t"] == 12
        assert env["d"] == 17

    def test_block_execution_does_not_mutate_input(self):
        block = self._block()
        original = {"a": 1, "b": 1, "c": 1}
        block.execute(original)
        assert "d" not in original

    def test_program_views(self):
        program = Program(name="p", blocks=[self._block()], scalars=["a", "b", "c", "d", "t"])
        assert program.statement_count() == 2
        assert program.single_block() is program.blocks[0]
        assert {"a", "b", "c", "d", "t"} == program.all_variables()

    def test_single_block_rejects_multiple_blocks(self):
        program = Program(name="p", blocks=[self._block(), self._block()])
        with pytest.raises(ValueError):
            program.single_block()


class TestBinding:
    def _netlist(self, name="tms320c25"):
        return build_netlist(parse_processor(default_registry().hdl_source(name)))

    def _program(self):
        return Program(
            name="p",
            blocks=[BasicBlock(name="entry", statements=[Statement("d", VarRef("a"))])],
            scalars=["a", "d"],
        )

    def test_default_binding_uses_main_memory(self):
        netlist = self._netlist()
        assert default_data_memory(netlist) == "DMEM"
        binding = bind_program(self._program(), netlist)
        assert binding.storage_of("a") == "DMEM"
        assert binding.storage_of("anything_else") == "DMEM"

    def test_overrides(self):
        netlist = self._netlist()
        binding = bind_program(self._program(), netlist, overrides={"a": "ACC"})
        assert binding.storage_of("a") == "ACC"
        assert binding.storage_of("d") == "DMEM"
        assert list(binding.bound_variables()) == ["a"]

    def test_override_to_unknown_storage_rejected(self):
        netlist = self._netlist()
        with pytest.raises(BindingError):
            bind_program(self._program(), netlist, overrides={"a": "NOWHERE"})

    def test_memoryless_processor_falls_back_to_register(self):
        source = """
        processor tiny;
        module IM kind instruction_memory
          out word : 4;
        end module;
        module R kind register
          in d : 4;
          in ld : 1;
          out q : 4;
        behavior
          q := d when ld == 1;
        end module;
        """
        netlist = build_netlist(parse_processor(source))
        assert default_data_memory(netlist) is None
        binding = bind_program(self._program(), netlist)
        assert binding.storage_of("a") == "R"
