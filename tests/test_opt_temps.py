"""Compiler temporaries: one prefix definition, one namer, one rewriter.

Strength reduction, LICM and GVN name their temporaries with
:class:`~repro.ir.temps.TempNamer` and put them in place with
:func:`~repro.ir.temps.replace_in_statement`; DCE, the verifier and the
fuzz oracles read the one :data:`~repro.ir.temps.OPT_TEMP_PREFIXES`.
Also pinned here: LICM on a loop body too deep for recursive ``str``
and ``==``, and GVN hit counts that never go negative.
"""

import sys
from dataclasses import replace

import pytest

import repro.analysis.verify as verify_module
import repro.fuzz.oracles as oracles_module
import repro.opt as opt_package
from repro.ir.expr import ArrayRef, Const, Op, VarRef
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement
from repro.ir.temps import (
    OPT_TEMP_PREFIXES,
    TempNamer,
    replace_in_statement,
    replace_subtrees,
)
from repro.opt import OptPipeline
from repro.toolchain import PipelineConfig, Session


def _add(left, right):
    return Op("add", (left, right))


def _mul(left, right):
    return Op("mul", (left, right))


class TestOnePrefixDefinition:
    def test_every_reader_shares_the_one_tuple(self):
        assert OPT_TEMP_PREFIXES == ("__cse", "__licm", "__sr")
        assert verify_module.OPT_TEMP_PREFIXES is OPT_TEMP_PREFIXES
        assert oracles_module.OPT_TEMP_PREFIXES is OPT_TEMP_PREFIXES
        assert opt_package.OPT_TEMP_PREFIXES is OPT_TEMP_PREFIXES
        assert (opt_package.TEMP_PREFIX, opt_package.LICM_TEMP_PREFIX, opt_package.SR_TEMP_PREFIX) == (
            OPT_TEMP_PREFIXES
        )


class TestTempNamer:
    def _program(self):
        return Program(
            "p",
            [BasicBlock("entry", [Statement("__sr1", VarRef("__sr0"))])],
            scalars=["__sr0", "__sr1", "__sr3"],
        )

    def test_names_count_from_zero_and_skip_program_names(self):
        namer = TempNamer(self._program(), "__sr")
        assert [namer(), namer(), namer()] == ["__sr2", "__sr4", "__sr5"]
        assert namer.names == ["__sr2", "__sr4", "__sr5"]
        assert TempNamer(self._program(), "__licm")() == "__licm0"

    def test_a_namer_that_names_nothing_reads_nothing(self, monkeypatch):
        def unexpected(self):
            raise AssertionError("all_variables read before the first name")

        program = self._program()
        monkeypatch.setattr(Program, "all_variables", unexpected)
        namer = TempNamer(program, "__cse")
        assert namer.names == []


class TestReplaceSubtrees:
    def test_nothing_matched_returns_the_expression_itself(self):
        expr = _add(_mul(VarRef("a"), Const(3)), ArrayRef("x", VarRef("i")))
        assert replace_subtrees(expr, (_mul(VarRef("b"), Const(3)),), VarRef("t")) is expr

    def test_outermost_occurrence_wins_and_untouched_subtrees_are_shared(self):
        inner = _mul(VarRef("a"), VarRef("b"))
        kept = _add(VarRef("c"), Const(1))
        expr = _add(_add(inner, Const(2)), kept)
        got = replace_subtrees(
            expr, (_mul(VarRef("a"), VarRef("b")), _add(inner, Const(2))), VarRef("t")
        )
        assert got == _add(VarRef("t"), kept)
        assert got.operands[1] is kept

    def test_array_indices_are_searched(self):
        expr = ArrayRef("x", _mul(VarRef("i"), Const(4)))
        got = replace_subtrees(expr, (_mul(VarRef("i"), Const(4)),), VarRef("t"))
        assert got == ArrayRef("x", VarRef("t"))

    def test_deep_chains_rewrite_without_recursion(self):
        expr = VarRef("a")
        for _ in range(5000):
            expr = _add(expr, VarRef("b"))
        got = replace_subtrees(expr, (VarRef("b"),), Const(1))
        node, depth = got, 0
        while isinstance(node, Op):
            assert node.operands[1] == Const(1)
            node, depth = node.operands[0], depth + 1
        assert depth == 5000 and node == VarRef("a")

    def test_statement_helper_keeps_an_unchanged_statement(self):
        statement = Statement("x", _add(VarRef("a"), Const(1)), VarRef("i"))
        assert replace_in_statement(statement, (VarRef("b"),), VarRef("t")) is statement
        rewritten = replace_in_statement(statement, (VarRef("i"),), VarRef("t"))
        assert rewritten == Statement("x", _add(VarRef("a"), Const(1)), VarRef("t"))


def three_temporaries_program():
    """A counted self-loop with two ``i * 3`` products (strength
    reduction) and two uses of an invariant ``b * c + b`` (LICM), then
    two uses of ``a * b + c`` after the loop (GVN)."""

    def triple():
        return _mul(VarRef("i"), Const(3))

    def invariant():
        return _add(_mul(VarRef("b"), VarRef("c")), VarRef("b"))

    def shared():
        return _add(_mul(VarRef("a"), VarRef("b")), VarRef("c"))

    return Program(
        name="three_temporaries",
        blocks=[
            BasicBlock("entry", [Statement("i", Const(0))], Jump("body")),
            BasicBlock(
                "body",
                [
                    Statement("s", _add(VarRef("s"), triple())),
                    Statement("t", _add(VarRef("t"), triple())),
                    Statement("u", _add(invariant(), VarRef("i"))),
                    Statement("v", _mul(invariant(), VarRef("i"))),
                    Statement("i", _add(VarRef("i"), Const(1))),
                ],
                CBranch(Op("lt", (VarRef("i"), Const(4))), "body", "exit"),
            ),
            BasicBlock(
                "exit",
                [
                    Statement("y0", _add(shared(), VarRef("d"))),
                    Statement("y1", Op("sub", (shared(), VarRef("d")))),
                ],
            ),
        ],
        scalars=["a", "b", "c", "d", "i", "s", "t", "u", "v", "y0", "y1"],
    )


class TestStagesNameThroughTheNamer:
    def test_each_stage_names_its_temporaries_with_the_namer(self, monkeypatch):
        named = []
        call = TempNamer.__call__

        def recording(namer):
            name = call(namer)
            named.append(name)
            return name

        monkeypatch.setattr(TempNamer, "__call__", recording)
        introduced = {}
        program = three_temporaries_program()
        scalars = [program.scalars]

        def observe(stage, result):
            introduced[stage] = [name for name in result.scalars if name not in scalars[0]]
            scalars[0] = result.scalars

        optimized, _stats = OptPipeline().run(program, observer=observe)
        assert introduced == {
            "fold": [],
            "loops": ["__sr0"],
            "licm": ["__licm0"],
            "gvn": ["__cse0"],
            "dce": [],
        }
        assert named == ["__sr0", "__licm0", "__cse0"]
        environment = {name: 3 + len(name) for name in program.scalars}
        expected = program.execute(dict(environment))
        got = optimized.execute(dict(environment))
        assert {name: got[name] for name in expected} == expected


def deep_loop_program():
    """A self-loop whose body holds a 3,001-node invariant chain: the
    ``x`` statement stays (it reads ``i``), ``y`` is hoisted whole, and
    ``z`` keeps an invariant product."""
    chain = VarRef("a")
    for _ in range(3000):
        chain = _add(chain, VarRef("a"))

    def product():
        return _add(_mul(VarRef("b"), VarRef("c")), VarRef("b"))

    return Program(
        name="deep_licm",
        blocks=[
            BasicBlock("entry", [Statement("i", Const(0))], Jump("body")),
            BasicBlock(
                "body",
                [
                    Statement("x", _add(chain, VarRef("i"))),
                    Statement("y", _add(product(), product())),
                    Statement("z", _mul(product(), VarRef("x"))),
                    Statement("i", _add(VarRef("i"), Const(1))),
                ],
                CBranch(Op("lt", (VarRef("i"), Const(4))), "body", "exit"),
            ),
            BasicBlock("exit"),
        ],
        scalars=["a", "b", "c", "i", "x", "y", "z"],
    )


def _assert_executes_alike(program, optimized):
    environment = {"a": 3, "b": 5, "c": 7}
    expected = program.execute(dict(environment))
    got = optimized.execute(dict(environment))
    assert {name: got[name] for name in expected} == expected


def _recursive_str(node):
    """The recursive ``str`` IR nodes had: one call per tree level."""
    if isinstance(node, Op):
        return "%s(%s)" % (node.op, ", ".join(_recursive_str(o) for o in node.operands))
    if isinstance(node, ArrayRef):
        return "%s[%s]" % (node.name, _recursive_str(node.index))
    return str(node)


def _recursive_repr(node):
    """The recursive dataclass ``repr`` IR nodes had."""
    if isinstance(node, Op):
        operands = ", ".join(_recursive_repr(o) for o in node.operands)
        comma = "," if len(node.operands) == 1 else ""
        return "Op(op=%r, operands=(%s%s))" % (node.op, operands, comma)
    if isinstance(node, ArrayRef):
        return "ArrayRef(name=%r, index=%s)" % (node.name, _recursive_repr(node.index))
    return repr(node)


def _mixed_chain(depth: int):
    """Unary operators and runtime array indices, ``depth`` levels deep."""
    node = VarRef("a")
    for level in range(depth):
        if level % 3 == 0:
            node = Op("neg", (node,))
        elif level % 3 == 1:
            node = ArrayRef("x", node)
        else:
            node = _add(Const(level), node)
    return node


class TestDeepLoopBody:
    @pytest.mark.parametrize("stages", [None, ["licm"]], ids=["default", "licm"])
    def test_licm_optimizes_it_and_keeps_its_meaning(self, stages):
        program = deep_loop_program()
        optimized, stats = OptPipeline(stages).run(program)
        assert stats.licm_hoisted >= 1
        _assert_executes_alike(program, optimized)

    def test_a_deep_invariant_read_twice_is_hoisted_whole(self):
        # The 3,001-node chain and each of its ~3,000 operator subtrees
        # are candidates; all sizes differ, so none is rendered as text.
        program = deep_loop_program()
        body = program.block("body")
        chain = body.statements[0].expression.operands[0]
        statements = (
            body.statements[0],
            Statement("w", _mul(chain, VarRef("i"))),
        ) + body.statements[3:]
        looped = replace(
            program,
            blocks=(program.blocks[0], replace(body, statements=statements), program.blocks[2]),
            scalars=program.scalars + ("w",),
        )
        optimized, stats = OptPipeline(["licm"]).run(looped)
        assert stats.licm_hoisted == 1
        (hoisted,) = [
            statement
            for block in optimized.blocks
            for statement in block.statements
            if statement.destination == "__licm0"
        ]
        assert hoisted.expression is chain
        _assert_executes_alike(looped, optimized)

    @pytest.mark.parametrize("which", ["chain", "mixed"])
    def test_it_renders_without_recursion(self, which):
        # str and repr walk the tree with a stack: at the default limit
        # they give what the recursive forms give with a raised limit.
        if which == "chain":
            expression = deep_loop_program().block("body").statements[0].expression
        else:
            expression = _mixed_chain(3000)
        statement = Statement("x", expression)
        rendered = (str(expression), repr(expression), str(statement), repr(statement))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            text, form = _recursive_str(expression), _recursive_repr(expression)
        finally:
            sys.setrecursionlimit(limit)
        expected_repr = "Statement(destination='x', expression=%s, destination_index=None)"
        assert rendered == (text, form, "x = " + text, expected_repr % form)

    def test_it_compiles_on_ref(self, ref_result):
        program = deep_loop_program()
        session = Session(
            ref_result, config=PipelineConfig(use_scheduling=False, use_compaction=False)
        )
        compiled = session.compile_program(program)
        assert compiled.metrics.opt_licm_hoisted >= 1
        assert compiled.code_size >= 3000
