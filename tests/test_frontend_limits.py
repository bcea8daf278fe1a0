"""Regression tests for the frontend resource ceilings (ISSUE 8).

Adversarial inputs -- deeply nested expressions, thousand-term chains,
deeply nested blocks, huge programs -- must fail with a structured
:class:`ResourceLimitError` (phase ``limits``), never a
``RecursionError`` or a memory blow-up.
"""

import pytest

from repro.diagnostics import ReproError, ResourceLimitError
from repro.frontend import (
    DEFAULT_LIMITS,
    FrontendLimits,
    MAX_SOURCE_BYTES,
    parse_source,
    tokenize_source,
)
from repro.frontend.lowering import lower_to_program


class TestExpressionDepthLimit:
    def test_deep_parentheses_raise_structured_error(self):
        source = "int a, b; b = %s a %s;" % ("(" * 200, ")" * 200)
        with pytest.raises(ResourceLimitError, match="expression nesting"):
            parse_source(source)

    def test_deep_unary_chain_raises_structured_error(self):
        source = "int a, b; if (%s(a < b)) { b = a; }" % ("!" * 200)
        with pytest.raises(ResourceLimitError, match="expression nesting"):
            parse_source(source)

    def test_limit_is_configurable(self):
        shallow = FrontendLimits(max_expr_depth=4)
        ok = "int a, b; b = ((a));"
        too_deep = "int a, b; b = %s a %s;" % ("(" * 6, ")" * 6)
        parse_source(ok, limits=shallow)
        with pytest.raises(ResourceLimitError):
            parse_source(too_deep, limits=shallow)

    def test_error_is_a_repro_error_with_limits_phase(self):
        source = "int a, b; b = %s a %s;" % ("(" * 200, ")" * 200)
        with pytest.raises(ReproError) as excinfo:
            parse_source(source)
        assert excinfo.value.phase == "limits"


class TestExpressionNodeLimit:
    def test_thousand_term_chain_raises_structured_error(self):
        source = "int a, b; b = %s;" % " + ".join(["a"] * 2000)
        with pytest.raises(ResourceLimitError, match="nodes"):
            parse_source(source)

    def test_counter_resets_between_statements(self):
        # Many medium statements must not trip the per-statement cap.
        chain = " + ".join(["a"] * 100)
        source = "int a, b;\n" + "\n".join("b = %s;" % chain for _ in range(20))
        program = parse_source(source)
        assert len(program.statements) == 20


def _nested_sum(depth: int) -> str:
    """``(...((a + a) + a)...)`` with ``depth`` parentheses: ``2 * depth + 1`` nodes."""
    expression = "a"
    for _ in range(depth):
        expression = "(%s + a)" % expression
    return expression


class TestBacktrackedConditionNodes:
    """A parenthesis in a condition is first read as a condition; what the
    parser counted before it found an expression there is counted once."""

    def test_each_node_counts_once(self):
        source = "int a, b; if (%s < 1) { b = a; }" % _nested_sum(16)  # 35 nodes
        parse_source(source, limits=FrontendLimits(max_expr_nodes=35))
        with pytest.raises(ResourceLimitError, match="exceeds 34 nodes"):
            parse_source(source, limits=FrontendLimits(max_expr_nodes=34))

    def test_deep_condition_within_the_default_budget_parses(self):
        source = "int a, b; if (%s < 1) { b = a; }" % _nested_sum(24)  # 51 nodes
        assert len(parse_source(source).statements) == 1

    def test_the_same_expression_assigned_counts_two_nodes_less(self):
        source = "int a, b; b = %s;" % _nested_sum(16)  # 33 nodes
        parse_source(source, limits=FrontendLimits(max_expr_nodes=33))
        with pytest.raises(ResourceLimitError, match="exceeds 32 nodes"):
            parse_source(source, limits=FrontendLimits(max_expr_nodes=32))


class TestBlockDepthLimit:
    def test_deeply_nested_ifs_raise_structured_error(self):
        depth = 200
        source = ["int a, b;"]
        source += ["if (a < b) {"] * depth
        source += ["b = a;"]
        source += ["}"] * depth
        with pytest.raises(ResourceLimitError, match="block nesting"):
            parse_source("\n".join(source))

    def test_nesting_within_the_limit_parses(self):
        depth = DEFAULT_LIMITS.max_block_depth - 1
        source = ["int a, b;"]
        source += ["if (a < b) {"] * depth
        source += ["b = a;"]
        source += ["}"] * depth
        program = parse_source("\n".join(source))
        assert program.statements


class TestProgramSizeLimits:
    def test_statement_flood_raises_structured_error(self):
        source = "int a, b;\n" + "b = a;\n" * 5000
        with pytest.raises(ResourceLimitError, match="statements"):
            parse_source(source)

    def test_oversized_source_is_rejected_before_lexing(self):
        with pytest.raises(ResourceLimitError, match="too large"):
            tokenize_source("b = a;" * (MAX_SOURCE_BYTES // 4))

    def test_oversized_source_is_rejected_through_lowering(self):
        source = "int a, b;\n" + " " * MAX_SOURCE_BYTES + "b = a;\n"
        with pytest.raises(ResourceLimitError, match="too large"):
            lower_to_program(source, name="huge")

    def test_zero_disables_a_ceiling(self):
        unlimited = FrontendLimits(max_statements=0)
        source = "int a, b;\n" + "b = a;\n" * 5000
        program = parse_source(source, limits=unlimited)
        assert len(program.statements) == 5000


class TestSelectorSubjectCap:
    def test_runaway_ir_tree_fails_structurally(self):
        # Programs built through the IR API bypass the frontend caps;
        # the selector enforces its own ceiling before labelling.
        from repro.codegen.selection import MAX_SUBJECT_NODES, select_statement
        from repro.ir import Const, Op, Statement, VarRef

        expression = VarRef("a")
        for _ in range(MAX_SUBJECT_NODES):
            expression = Op(op="add", operands=(expression, Const(1)))
        statement = Statement(destination="b", expression=expression)
        with pytest.raises(ResourceLimitError, match="selector limit"):
            select_statement(statement, selector=None, binding=None)


def _chain(operator: str, terms: int = 250) -> str:
    """``y = a op a op ... a`` with ``terms`` terms: ``2 * terms - 1`` IR
    nodes, so 250 terms (499) sit just inside the 512-node default."""
    return "int a, y; y = %s;" % (" %s " % operator).join(["a"] * terms)


class TestLongestAcceptedChain:
    """Every phase after the frontend handles the deepest tree the
    frontend accepts: nothing on the way renders it recursively."""

    def test_a_long_sum_compiles_serializes_and_simulates(self, demo_result):
        from repro.toolchain import Session

        result = Session(demo_result).compile(_chain("+"))
        assert result.to_dict()["statements"][0]["statement"].startswith("y = add(add(")
        assert result.simulate({"a": 3})["y"] == 750

    def test_an_uncoverable_chain_is_a_code_generation_error(self, demo_result):
        # demo has no divider: the error message names the statement.
        from repro.codegen.selection import CodeGenerationError
        from repro.toolchain import Session

        with pytest.raises(CodeGenerationError, match="cannot be covered on demo"):
            Session(demo_result).compile(_chain("/"))


def _deep_induction_loop(depth):
    """``i = 0; s = 0; while (i < 3000) { s = s + 1; i = <update>; }``
    built through the IR API, with an update of ``i`` that is a
    ``depth``-deep ``add(..., 1)`` chain (the frontend caps a statement
    at 512 nodes, so only IR-level callers build one)."""
    from repro.ir import Const, Op, Statement, VarRef
    from repro.ir.program import BasicBlock, CBranch, Jump, Program

    update = VarRef("i")
    for _ in range(depth):
        update = Op("add", (update, Const(1)))
    return Program(
        "deep_induction",
        [
            BasicBlock("entry", [Statement("i", Const(0)), Statement("s", Const(0))], Jump("head")),
            BasicBlock("head", [], CBranch(Op("lt", (VarRef("i"), Const(3000))), "body", "done")),
            BasicBlock(
                "body",
                [Statement("s", Op("add", (VarRef("s"), Const(1)))), Statement("i", update)],
                Jump("head"),
            ),
            BasicBlock("done", []),
        ],
        scalars=["i", "s"],
    )


class TestDeepInductionUpdate:
    """The loops stage memoizes trip counts by the induction update and
    the loop condition; keying on their renderings, not the trees, lets
    an update of any depth through."""

    @pytest.mark.parametrize("depth", [900, 3000])
    def test_a_deep_update_compiles_with_its_trip_count(self, ref_result, depth):
        from repro.toolchain import Session

        program = _deep_induction_loop(depth)
        result = Session(ref_result).compile_program(program)
        trips = program.execute({})["s"]
        assert trips == -(-3000 // depth)
        assert [loop.trip_count for loop in result.program.hw_loops.values()] == [trips]

    def test_a_deeper_update_hits_the_selector_limit(self, ref_result):
        from repro.toolchain import Session

        with pytest.raises(ResourceLimitError, match="selector limit"):
            Session(ref_result).compile_program(_deep_induction_loop(9000))
