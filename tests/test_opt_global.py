"""Unit and oracle tests for the global optimizer layers.

Covers the loop analysis (back edges against a brute-force dominator-set
oracle and natural loops), LICM's preheaders (reused and created, and
random loop programs on which LICM creates them), the counted-loop
transformations (rotation, strength reduction), cross-block GVN, LICM,
and the end-to-end hardware-loop contract on the TMS320C25: every
loop-form DSPStone kernel must pick up at least one LICM hoist or one
hardware loop, and RT simulation of the optimized compile must agree
with IR-level reference execution of the *original* program.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_optimized_program
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.loops import (
    back_edges,
    loop_nesting_forest,
    naive_back_edges,
    render_forest,
)
from repro.dspstone import kernel_program, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement
from repro.ir.expr import Const, Op, VarRef
from repro.opt import OPT_TEMP_PREFIXES, OptPipeline, OptRun, optimize_program
from repro.opt.licm import hoist_loop_invariants
from repro.opt.loops import annotate_hardware_loops, find_counted_loops
from repro.toolchain import Session

SEEDS = (0, 1, 2)


def _environment(program, seed):
    return {
        name: (seed * 41 + index * 17 + 3) % 251 + 1
        for index, name in enumerate(sorted(program.all_variables()))
    }


def _observable(environment):
    return {
        name: value
        for name, value in environment.items()
        if not name.startswith(OPT_TEMP_PREFIXES)
    }


def _assert_same_execution(original, transformed):
    """Reference-execute both programs on several environments and demand
    identical observable final states."""
    for seed in SEEDS:
        environment = _environment(original, seed)
        expected = _observable(original.execute(dict(environment)))
        got = _observable(transformed.execute(dict(environment)))
        # Temporaries aside, every variable of the original must agree.
        for name in original.all_variables():
            assert got[name] == expected[name], (seed, name)


# ---------------------------------------------------------------------------
# Back-edge analysis against the brute-force oracle
# ---------------------------------------------------------------------------


@st.composite
def random_cfgs(draw):
    """Arbitrary small digraphs (irreducible shapes included): entry b0,
    each block 0..2 successors among all blocks."""
    count = draw(st.integers(min_value=1, max_value=8))
    names = ["b%d" % index for index in range(count)]
    edges = {}
    for name in names:
        edges[name] = draw(
            st.lists(
                st.sampled_from(names),
                min_size=0,
                max_size=min(2, count),
                unique=True,
            )
        )
    return ControlFlowGraph.from_edges("b0", edges)


class TestBackEdgeOracle:
    @settings(max_examples=200, deadline=None)
    @given(random_cfgs())
    def test_back_edges_match_naive_dominator_sets(self, cfg):
        assert set(back_edges(cfg)) == set(naive_back_edges(cfg))

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_kernel_cfgs_agree_with_oracle(self, kernel):
        cfg = ControlFlowGraph.from_program(kernel_program(kernel))
        assert set(back_edges(cfg)) == set(naive_back_edges(cfg))
        forest = loop_nesting_forest(cfg)
        assert len(forest) == 1  # every loop kernel is a single loop
        assert render_forest(forest)  # renders without error

    def test_nested_loop_forest_depths(self):
        cfg = ControlFlowGraph.from_edges(
            "entry",
            {
                "entry": ["outer"],
                "outer": ["inner", "exit"],
                "inner": ["inner", "outer"],
                "exit": [],
            },
        )
        forest = loop_nesting_forest(cfg)
        assert forest.roots == ["outer"]
        assert forest.children["outer"] == ["inner"]
        assert forest.loops["outer"].depth == 1
        assert forest.loops["inner"].depth == 2
        assert forest.loops["inner"].parent == "outer"

    def test_loops_sharing_a_header_are_merged(self):
        cfg = ControlFlowGraph.from_edges(
            "entry",
            {
                "entry": ["head"],
                "head": ["a", "exit"],
                "a": ["head", "b"],
                "b": ["head"],
                "exit": [],
            },
        )
        loops = loop_nesting_forest(cfg).loops
        assert set(loops) == {"head"}
        assert set(loops["head"].blocks) == {"head", "a", "b"}
        assert len(loops["head"].back_edges) == 2


# ---------------------------------------------------------------------------
# LICM's preheaders
# ---------------------------------------------------------------------------


def _hoisting_loop(name, statements=()):
    """A counted self-loop block ``name`` whose first two statements are
    invariant (``t = a * b``, ``u = a + 3``), after ``statements``."""
    return BasicBlock(
        name=name,
        statements=list(statements)
        + [
            Statement("t", Op("mul", (VarRef("a"), VarRef("b")))),
            Statement("u", Op("add", (VarRef("a"), Const(3)))),
            Statement("z", Op("add", (VarRef("z"), VarRef("t")))),
            Statement("i", Op("add", (VarRef("i"), Const(1)))),
        ],
        terminator=CBranch(Op("lt", (VarRef("i"), Const(4))), name, "exit"),
    )


class TestPreheaders:
    def test_existing_jump_predecessor_is_reused(self):
        # The entry ends in an unconditional jump to the loop: it already
        # is a preheader, and the hoisted statements land in it.
        program = Program(
            name="jump_entry",
            blocks=[
                BasicBlock("entry", [Statement("i", Const(0))], Jump("loop")),
                _hoisting_loop("loop"),
                BasicBlock("exit"),
            ],
            scalars=["a", "b", "i", "t", "u", "z"],
        )
        hoisted = hoist_loop_invariants(program, OptRun())
        assert [block.name for block in hoisted.blocks] == ["entry", "loop", "exit"]
        assert [s.destination for s in hoisted.block("entry").statements] == ["i", "t", "u"]
        _assert_same_execution(program, hoisted)

    def test_if_join_predecessor_is_reused_as_preheader(self):
        # The join block after an ``if`` ends in an unconditional jump to
        # the loop header: it already serves as the preheader.
        source = (
            "int a, b, k, z, i;\n"
            "z = 0;\n"
            "i = 0;\n"
            "if (a < 3) { z = 1; }\n"
            "do { k = a * b; z = z + k; i = i + 1; } while (i < 4);\n"
        )
        program = lower_to_program(source, name="cond_entry")
        run = OptRun()
        hoisted = hoist_loop_invariants(program, run)
        assert len(hoisted.blocks) == len(program.blocks)
        assert [str(s) for s in hoisted.block("L2_join").statements] == ["k = mul(a, b)"]
        assert run.stats.licm_hoisted == 1
        _assert_same_execution(program, hoisted)

    def test_multiple_outside_predecessors_get_fresh_preheader(self):
        # Two blocks branch straight into the loop header: no reusable
        # landing pad exists, so a fresh ``.pre`` block is created and
        # both edges are redirected through it.
        program = Program(
            name="multi_pred",
            scalars=["a", "b", "p", "t", "u", "z", "i"],
            blocks=[
                BasicBlock(
                    name="entry",
                    statements=[Statement("i", Const(0))],
                    terminator=CBranch(Op("lt", (VarRef("p"), Const(2))), "left", "right"),
                ),
                BasicBlock("left", [Statement("z", Const(1))], Jump("head")),
                BasicBlock("right", [Statement("z", Const(2))], Jump("head")),
                _hoisting_loop("head"),
                BasicBlock(name="exit", statements=[], terminator=None),
            ],
        )
        before = repr(program)
        reshaped = hoist_loop_invariants(program, OptRun())
        cfg = ControlFlowGraph.from_program(reshaped)
        assert set(cfg.predecessors["head.pre"]) == {"left", "right"}
        assert set(cfg.predecessors["head"]) == {"head.pre", "head"}
        assert [s.destination for s in reshaped.block("head.pre").statements] == ["t", "u"]
        _assert_same_execution(program, reshaped)
        assert repr(program) == before
        # The blocks that were not retargeted or hoisted from are shared
        # with the input.
        assert reshaped.block("entry") is program.block("entry")
        assert reshaped.block("exit") is program.block("exit")
        assert reshaped.block("left") is not program.block("left")

    def test_entry_header_moves_program_entry(self):
        # A do-while at the very top: the header IS the entry block, so
        # the preheader must become the new program entry.
        program = Program(
            name="entry_header",
            blocks=[_hoisting_loop("top"), BasicBlock("exit")],
            scalars=["a", "b", "i", "t", "u", "z"],
        )
        reshaped = hoist_loop_invariants(program, OptRun())
        assert reshaped.entry_block_name() == "top.pre"
        assert reshaped.block("top.pre").terminator == Jump("top")
        assert program.entry_block_name() == "top"
        _assert_same_execution(program, reshaped)


# ---------------------------------------------------------------------------
# Random loop programs: preheader creation through the whole pipeline
# ---------------------------------------------------------------------------

#: Loop-invariant operands: no loop body assigns a, b, c or d.
_INVARIANTS = (
    Op("mul", (VarRef("a"), VarRef("b"))),
    Op("add", (VarRef("c"), Const(3))),
    Op("sub", (VarRef("d"), VarRef("a"))),
    Op("xor", (VarRef("b"), VarRef("c"))),
)

#: How control enters a loop.  No source program can make LICM create a
#: preheader: the frontend ends the block in front of every loop with a
#: jump into it, which LICM reuses ("jump").  These shapes cannot reuse
#: one: two outside predecessors ("fork"), a conditional branch into the
#: loop ("branch"), the previous loop's exit branch ("direct"), or the
#: program entry ("entry").
_FIRST_SHAPES = ("entry", "fork", "branch", "jump")
_LATER_SHAPES = ("direct", "fork", "branch", "jump")


@st.composite
def loop_programs(draw):
    """Up to three counted self-loops in sequence, each with two or three
    hoistable invariant statements and sometimes a repeated invariant
    subexpression.  Returns ``(program, shapes)``."""
    count = draw(st.integers(min_value=1, max_value=3))
    shapes = [draw(st.sampled_from(_FIRST_SHAPES))] + [
        draw(st.sampled_from(_LATER_SHAPES)) for _ in range(count - 1)
    ]
    entries = [
        "L%d" % k if shape in ("entry", "direct") else "P%d" % k
        for k, shape in enumerate(shapes)
    ] + ["exit"]
    guard = Op("lt", (VarRef("p"), Const(100)))
    blocks = []
    scalars = {"a", "b", "c", "d", "p", "z"}
    for k, shape in enumerate(shapes):
        header, after = "L%d" % k, entries[k + 1]
        induction, total = "i%d" % k, "s%d" % k
        init = [Statement(induction, Const(0))]
        if shape == "jump":
            blocks.append(BasicBlock("P%d" % k, init, Jump(header)))
        elif shape == "branch":
            blocks.append(BasicBlock("P%d" % k, init, CBranch(guard, header, after)))
        elif shape == "fork":
            blocks += [
                BasicBlock("P%d" % k, init, CBranch(guard, "A%d" % k, "B%d" % k)),
                BasicBlock("A%d" % k, [Statement("z", Const(1))], Jump(header)),
                BasicBlock("B%d" % k, [Statement("z", Const(2))], Jump(header)),
            ]
        picks = draw(
            st.lists(st.sampled_from(_INVARIANTS), min_size=2, max_size=3, unique=True)
        )
        body = [Statement("t%d_%d" % (k, j), pick) for j, pick in enumerate(picks)]
        body.append(Statement(total, Op("add", (VarRef(total), VarRef("t%d_0" % k)))))
        if draw(st.booleans()):
            shared = Op("add", (draw(st.sampled_from(_INVARIANTS)), VarRef("d")))
            body += [
                Statement("z", Op("add", (VarRef("z"), shared))),
                Statement(total, Op("sub", (VarRef(total), shared))),
            ]
        body.append(Statement(induction, Op("add", (VarRef(induction), Const(1)))))
        trips = draw(st.integers(min_value=1, max_value=5))
        condition = Op("lt", (VarRef(induction), Const(trips)))
        blocks.append(BasicBlock(header, body, CBranch(condition, header, after)))
        scalars |= {statement.destination for statement in body}
    blocks.append(BasicBlock("exit", [Statement("z", Op("add", (VarRef("z"), Const(1))))]))
    return Program("loops", blocks, scalars=sorted(scalars)), shapes


class TestRandomLoopPrograms:
    @settings(max_examples=150, deadline=None)
    @given(loop_programs())
    def test_created_preheaders_keep_the_semantics(self, drawn):
        program, shapes = drawn
        before = repr(program)
        optimized, stats = OptPipeline().run(program)
        assert repr(program) == before
        _assert_same_execution(program, optimized)
        assert check_optimized_program(optimized) == []
        created = [block.name for block in optimized.blocks if block.name.endswith(".pre")]
        assert len(created) == sum(shape != "jump" for shape in shapes), (created, shapes)
        assert stats.licm_hoisted >= 2 * len(shapes)
        # Every block the run did not change is the input's own.
        for block in optimized.blocks:
            for original in program.blocks:
                if block == original:
                    assert block is original


# ---------------------------------------------------------------------------
# Rotation and strength reduction (the "loops" stage)
# ---------------------------------------------------------------------------


class TestRotation:
    def test_while_kernel_rotates_to_do_while(self):
        program = kernel_program("dot_product_loop")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 1
        names = [block.name for block in optimized.blocks]
        assert names == ["entry", "L2_body", "L3_endwhile"]
        latch = optimized.block("L2_body")
        assert isinstance(latch.terminator, CBranch)
        assert "L2_body" in latch.terminator.targets()
        _assert_same_execution(program, optimized)

    def test_do_while_kernel_needs_no_rotation(self):
        program = kernel_program("mac_dowhile")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 0
        _assert_same_execution(program, optimized)

    def test_zero_trip_loop_is_not_rotated(self):
        # Rotation moves the test to the bottom, which would execute the
        # body once -- only proven >= 1 trip loops may rotate.
        source = (
            "int z, i;\n"
            "z = 0;\n"
            "i = 5;\n"
            "while (i < 4) { z = z + 1; i = i + 1; }\n"
        )
        program = lower_to_program(source, name="zero_trip")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 0
        _assert_same_execution(program, optimized)

    def test_counted_loop_recognition_proves_trip_count(self):
        program = kernel_program("fir_loop")
        loops = find_counted_loops(program, OptRun())
        (loop,) = loops.values()
        assert loop.induction == "i"
        assert loop.trip_count == 8
        assert loop.step == 1


class TestStrengthReduction:
    SOURCE = (
        "int z, y, i;\n"
        "z = 0;\n"
        "y = 0;\n"
        "i = 0;\n"
        "while (i < 5) { z = z + i * 3; y = y + i * 3; i = i + 1; }\n"
    )

    def test_induction_products_become_increments(self):
        program = lower_to_program(self.SOURCE, name="sr")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.strength_reductions >= 2
        assert any(name.startswith("__sr") for name in optimized.scalars)
        _assert_same_execution(program, optimized)

    def test_single_occurrence_is_left_alone(self):
        source = (
            "int z, i;\n"
            "z = 0;\n"
            "i = 0;\n"
            "while (i < 5) { z = z + i * 3; i = i + 1; }\n"
        )
        program = lower_to_program(source, name="sr_single")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.strength_reductions == 0
        assert not any(name.startswith("__sr") for name in optimized.scalars)


# ---------------------------------------------------------------------------
# LICM and cross-block GVN
# ---------------------------------------------------------------------------


class TestLICM:
    # LICM operates on rotated/do-while self-loops; ``k = a * b`` is an
    # invariant *statement* (single def, invariant reads) and moves
    # wholesale into the reused preheader.
    SOURCE = (
        "int a, b, k, z, i;\n"
        "z = 0;\n"
        "i = 0;\n"
        "do { k = a * b; z = z + k; i = i + 1; } while (i < 4);\n"
    )

    def test_invariant_statement_is_hoisted_out_of_the_loop(self):
        program = lower_to_program(self.SOURCE, name="licm")
        optimized, stats = optimize_program(program, stages=("licm",))
        assert stats.licm_hoisted >= 1
        forest = loop_nesting_forest(ControlFlowGraph.from_program(optimized))
        (loop,) = forest.loops.values()
        # The multiply left the loop body...
        body_text = " ".join(
            str(statement)
            for name in loop.blocks
            for statement in optimized.block(name).statements
        )
        assert "mul(a, b)" not in body_text
        # ...and lives in a block outside it.
        outside_text = " ".join(
            str(statement)
            for block in optimized.blocks
            if block.name not in loop.blocks
            for statement in block.statements
        )
        assert "mul(a, b)" in outside_text
        _assert_same_execution(program, optimized)

    def test_invariant_subexpression_is_materialized_once(self):
        source = (
            "int a, b, c, y, z, i;\n"
            "y = 0;\n"
            "z = 0;\n"
            "i = 0;\n"
            "do {\n"
            "  z = z + (a * b + c);\n"
            "  y = y - (a * b + c);\n"
            "  i = i + 1;\n"
            "} while (i < 4);\n"
        )
        program = lower_to_program(source, name="licm_subexpr")
        optimized, stats = optimize_program(program, stages=("licm",))
        assert stats.licm_hoisted >= 1
        assert any(name.startswith("__licm") for name in optimized.scalars)
        _assert_same_execution(program, optimized)

    def test_variant_expressions_stay_in_the_loop(self):
        # x[i] * h[i] varies with i: nothing to hoist even after rotation.
        program = kernel_program("fir_loop")
        optimized, stats = optimize_program(program, stages=("loops", "licm"))
        assert stats.licm_hoisted == 0
        _assert_same_execution(program, optimized)


#: Programs whose repeats cross blocks.
GVN_SOURCES = {
    "gvn_cross": (
        "int a, b, p, y0, y1, y2;\n"
        "y0 = a * b + 7;\n"
        "if (p < 4) { y1 = a * b + 7; }\n"
        "y2 = a * b + 7;\n"
    ),
    "gvn_siblings": (
        "int a, b, p, y0, y1, y2;\n"
        "if (p < 4) { y0 = a * b + 7; } else { y1 = a * b + 7; }\n"
        "y2 = a * b + 7;\n"
    ),
}


class TestGlobalValueNumbering:
    def test_redundancy_across_dominated_blocks_is_removed(self):
        program = lower_to_program(GVN_SOURCES["gvn_cross"], name="gvn_cross")
        optimized, stats = optimize_program(program, stages=("gvn", "dce"))
        assert stats.gvn_hits >= 2
        _assert_same_execution(program, optimized)
        # The product is computed in exactly one (dominating) block.
        computing_blocks = [
            block.name
            for block in optimized.blocks
            if "mul(a, b)" in " ".join(str(s) for s in block.statements)
        ]
        assert computing_blocks == ["entry"]

    def test_sibling_branches_do_not_share(self):
        # Neither branch of an if/else dominates the other: GVN must not
        # reuse a value computed in only one of them afterwards.
        program = lower_to_program(GVN_SOURCES["gvn_siblings"], name="gvn_siblings")
        optimized, _stats = optimize_program(program, stages=("gvn", "dce"))
        _assert_same_execution(program, optimized)


# ---------------------------------------------------------------------------
# Hardware loops, end to end on the TMS320C25
# ---------------------------------------------------------------------------


class TestHardwareLoopsEndToEnd:
    def test_annotation_targets_single_block_self_loops(self):
        program = kernel_program("dot_product_loop")
        optimized, _stats = optimize_program(program)  # default stages
        annotations = annotate_hardware_loops(optimized, OptRun())
        assert set(annotations) == {"L2_body"}
        loop = annotations["L2_body"]
        assert loop.trip_count == 4
        assert loop.kind == "repeat"

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_every_loop_kernel_gains_a_hoist_or_hardware_loop(
        self, kernel, tms_result
    ):
        program = kernel_program(kernel)
        result = Session(tms_result).compile_program(program)
        metrics = result.metrics
        assert metrics.opt_licm_hoisted >= 1 or metrics.opt_hw_loops >= 1, (
            "%s: no LICM hoist and no hardware loop on tms320c25" % kernel
        )
        assert metrics.opt_hw_loops == len(result.program.hw_loops)

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_rt_simulation_matches_reference_execution(self, kernel, tms_result):
        original = kernel_program(kernel)
        result = Session(tms_result).compile_program(kernel_program(kernel))
        for seed in SEEDS:
            environment = _environment(original, seed)
            reference = original.execute(dict(environment))
            simulated = _observable(result.simulate(dict(environment)))
            for name in original.all_variables():
                assert simulated[name] == reference[name], (kernel, seed, name)

    def test_repeat_lowering_reenters_fresh_on_outer_iterations(self, tms_result):
        # An inner counted loop nested in an outer loop: the repeat
        # counter must reset between outer iterations.
        source = (
            "int z, i, j;\n"
            "z = 0;\n"
            "j = 0;\n"
            "while (j < 3) {\n"
            "  i = 0;\n"
            "  do { z = z + 1; i = i + 1; } while (i < 4);\n"
            "  j = j + 1;\n"
            "}\n"
        )
        program = lower_to_program(source, name="nested")
        original = lower_to_program(source, name="nested")
        result = Session(tms_result).compile_program(program)
        for seed in SEEDS:
            environment = _environment(original, seed)
            reference = original.execute(dict(environment))
            simulated = _observable(result.simulate(dict(environment)))
            assert simulated["z"] == reference["z"] == 12


class TestPipelineObserver:
    def test_observer_sees_every_stage_in_order(self):
        program = kernel_program("fir_loop")
        seen = []
        OptPipeline().run(
            program, observer=lambda stage, prog: seen.append(stage)
        )
        assert tuple(seen) == OptPipeline.DEFAULT_STAGES
