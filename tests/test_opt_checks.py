"""The optimizer's read-only stage checks, against the ungated stages.

Every stage of :class:`~repro.opt.pipeline.OptPipeline` first checks
whether it has anything to do and hands its input through when it has
not.  :func:`_ungated_run` is the reference: every stage function called
on the previous stage's result with a run of its own, whatever the check
would say, and annotation at the end.  The pipeline must match it
program for program and statistic for statistic, and its result must
compute what its input computes on seeded environments.  The two
checks that are walks of their own have oracles here too: ``fold``'s
against folding itself, and GVN's against the earlier two-stack scan,
with a soundness property: where GVN's check says no, ungated GVN
keeps nothing.  Also pinned here: the work the checks save (IR objects
built, CFG builds, copies, one counted-loop scan per rotation round),
the analyses one run shares between its stages (one CFG, dominator tree
and loop forest per block structure, block structures and counted loops
equal to a fresh analysis), rotation rounds, the one rule for
``hw_loops``, and a deep expression chain inside a loop.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.loops as analysis_loops_module
import repro.opt.gvn as gvn_module
import repro.opt.licm as licm_module
import repro.opt.loops as loops_module
import repro.opt.pipeline as pipeline_module
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.loops import BlockStructure
from repro.dspstone import kernel_program
from repro.dspstone.kernels import all_kernel_names, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.fuzz.generator import GENERATOR_PROFILES, generate_source
from repro.ir.expr import ArrayRef, Const, Op, PortInput, VarRef
from repro.ir.program import BasicBlock, CBranch, HardwareLoop, Jump, Program, Statement
from repro.fuzz.oracles import SIMULATION_STEP_LIMIT, observables
from repro.opt import (
    OptPipeline,
    OptRun,
    OptStats,
    annotate_hardware_loops,
    eliminate_dead_temporaries,
    fold_expr,
    fold_statement,
    global_value_numbering,
    hoist_loop_invariants,
    rotate_counted_loops,
    strength_reduce,
)
from repro.opt.cse import MIN_OCCURRENCES, MIN_OPS
from repro.opt.fold import split_rewrite_counts, structurally_equal, would_fold, would_fold_statement
from repro.toolchain.passes import introducible_ops

KERNELS = tuple(all_kernel_names()) + tuple(loop_kernel_names())
STAGE_LISTS = (None, ("loops",), ("licm",), ("gvn",), ("dce",))


#: The stage functions of each stage but ``fold``, in order.
_STAGE_FUNCTIONS = {
    "loops": (rotate_counted_loops, strength_reduce),
    "licm": (hoist_loop_invariants,),
    "gvn": (global_value_numbering,),
    "dce": (eliminate_dead_temporaries,),
}
#: The counts the reference takes from each call's run;
#: ``temps_introduced`` it counts itself.
_CALL_COUNTS = (
    "loops_rotated",
    "strength_reductions",
    "licm_hoisted",
    "gvn_hits",
    "dead_removed",
)


def _ungated_run(pipeline, program, supported_ops):
    """Every stage of ``pipeline`` run unconditionally on the previous
    stage's result, then the final annotation; ``fold`` folds every
    statement and condition, and GVN skips its structural scan.

    Each stage function gets a fresh ``OptRun``, so no analysis, counted
    loop or trip count crosses from one call to the next.  The
    temporaries are the scalars the calls add, counted here and handed
    to every later call's run."""
    stats = OptStats(
        nodes_before=program.expression_node_count(),
        statements_before=program.statement_count(),
    )
    current = program
    introduced = set()
    for stage in pipeline.stages:
        if stage == "fold":
            current = replace(
                current,
                blocks=[
                    BasicBlock(
                        name=block.name,
                        statements=[
                            fold_statement(
                                statement,
                                supported_ops=supported_ops,
                                rewrites=stats.rewrites,
                            )
                            for statement in block.statements
                        ],
                        terminator=(
                            CBranch(
                                fold_expr(block.terminator.condition, rewrites=stats.rewrites),
                                block.terminator.true_target,
                                block.terminator.false_target,
                            )
                            if isinstance(block.terminator, CBranch)
                            else block.terminator
                        ),
                    )
                    for block in current.blocks
                ],
            )
            continue
        for function in _STAGE_FUNCTIONS[stage]:
            run = OptRun(supported_ops)
            run.introduce(introduced)
            result = function(current, run)
            for name in _CALL_COUNTS:
                setattr(stats, name, getattr(stats, name) + getattr(run.stats, name))
            added = set(result.scalars) - set(current.scalars)
            stats.temps_introduced += len(added)
            introduced |= added
            current = result
    current = replace(
        current,
        hw_loops=(
            annotate_hardware_loops(current, OptRun()) if "loops" in pipeline.stages else {}
        ),
    )
    stats.hw_loops = len(current.hw_loops)
    stats.folds, stats.algebraic = split_rewrite_counts(stats.rewrites)
    stats.nodes_after = current.expression_node_count()
    stats.statements_after = current.statement_count()
    return current, stats


def _shape(program):
    return (
        [
            (block.name, [str(statement) for statement in block.statements], block.terminator)
            for block in program.blocks
        ],
        program.scalars,
        program.arrays,
        program.entry,
        program.hw_loops,
    )


def _supported(result):
    return frozenset(introducible_ops(result.grammar))


def _seeded_environments(program):
    """Two seeded initial states over every array element and scalar the
    program declares, with small values so data-dependent loops stay
    short."""
    for seed in (0, 1):
        rng = random.Random(seed)
        environment = {
            "%s[%d]" % (name, index): rng.randrange(64)
            for name, size in sorted(program.arrays.items())
            for index in range(size)
        }
        environment.update((name, rng.randrange(64)) for name in sorted(program.scalars))
        yield environment


def _assert_computes_the_same(program, optimized, label):
    for environment in _seeded_environments(program):
        expected = program.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
        got = optimized.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
        assert observables(got) == observables(expected), label


def _assert_matches_ungated(stages, programs, targets, retarget_results, monkeypatch):
    pipeline = OptPipeline(stages=stages)
    if "fold" not in pipeline.stages:
        targets = targets[:1]  # only folding reads supported_ops
    for target in targets:
        supported_ops = _supported(retarget_results[target])
        for label, program in programs:
            with monkeypatch.context() as patch:
                patch.setattr(gvn_module, "_has_repeated_subtree", lambda *args: True)
                expected, expected_stats = _ungated_run(pipeline, program, supported_ops)
            before = repr(program)
            optimized, stats = pipeline.run(program, supported_ops=supported_ops)
            assert repr(program) == before, label
            assert _shape(optimized) == _shape(expected), (stages, target, label)
            assert stats.to_dict() == expected_stats.to_dict(), (stages, target, label)
            _assert_computes_the_same(program, optimized, (stages, target, label))


class TestChecksMatchUngatedStages:
    @pytest.mark.parametrize("stages", STAGE_LISTS)
    def test_kernels(self, stages, retarget_results, monkeypatch):
        programs = [(kernel, kernel_program(kernel)) for kernel in KERNELS]
        targets = ("demo", "ref", "tms320c25")
        _assert_matches_ungated(stages, programs, targets, retarget_results, monkeypatch)

    @pytest.mark.parametrize("stages", STAGE_LISTS)
    def test_generated_programs(self, stages, generated, retarget_results, monkeypatch):
        targets = ("ref", "tms320c25")
        _assert_matches_ungated(stages, generated, targets, retarget_results, monkeypatch)


@pytest.fixture(scope="module")
def generated():
    """Seeds 0-99 of the default generator and 0-49 of the loop-heavy one,
    lowered.  Neither the pipeline nor the reference mutates its input."""
    loops = GENERATOR_PROFILES["loops"]
    return [("seed%d" % seed, lower_to_program(generate_source(seed))) for seed in range(100)] + [
        ("loops%d" % seed, lower_to_program(generate_source(seed, loops))) for seed in range(50)
    ]


#: Three loops, all counted at first: one rotation round.
THREE_LOOP_SOURCE = (
    "int i, j, k, s; s = 0;\n"
    "i = 0; while (i < 3) { s = s + i; i = i + 1; }\n"
    "j = 0; while (j < 4) { s = s + j; j = j + 1; }\n"
    "k = 0; while (k < 5) { s = s + k; k = k + 1; }\n"
)

#: Two loops, the second counted only once the first has rotated.
TWO_ROUND_SOURCE = (
    "int i, j, s; i = 0; s = 0;\n"
    "while (i < 3) { j = 0; i = i + 1; }\n"
    "while (j < 5) { s = s + j; j = j + 1; }\n"
)


class TestWorkDone:
    """What one default ``OptPipeline().run`` builds, copies and scans."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = dict.fromkeys(
            ("cfg", "copy", "scan", "Statement", "BasicBlock", "Program"), 0
        )

        def counting(key, function):
            def counted(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            ControlFlowGraph, "__init__", counting("cfg", ControlFlowGraph.__init__)
        )
        monkeypatch.setattr(
            pipeline_module, "copy_program", counting("copy", pipeline_module.copy_program)
        )
        monkeypatch.setattr(
            loops_module,
            "find_counted_loops",
            counting("scan", loops_module.find_counted_loops),
        )
        for constructor in (Statement, BasicBlock, Program):
            monkeypatch.setattr(
                constructor,
                "__init__",
                counting(constructor.__name__, constructor.__init__),
            )
        return counts

    @pytest.mark.parametrize("target", ["demo", "ref", "tms320c25"])
    @pytest.mark.parametrize("kernel", all_kernel_names())
    def test_figure2_kernel_builds_nothing_and_returns_its_input(
        self, kernel, target, retarget_results, work
    ):
        program = kernel_program(kernel)
        supported_ops = _supported(retarget_results[target])
        work.update(dict.fromkeys(work, 0))  # the fixture's setup is not the run's
        optimized, _stats = OptPipeline().run(program, supported_ops=supported_ops)
        assert optimized is program
        assert work == dict.fromkeys(work, 0)

    @pytest.mark.parametrize("kernel", loop_kernel_names())
    def test_loop_kernel_scans_once_per_rotation_round_and_copies_nothing(
        self, kernel, work, tms_result
    ):
        _optimized, stats = OptPipeline().run(
            kernel_program(kernel), supported_ops=_supported(tms_result)
        )
        rounds = 1 if stats.loops_rotated else 0  # a kernel has one loop
        assert work["copy"] == 0
        assert work["scan"] == 1 + rounds + (1 if stats.strength_reductions else 0)
        # One CFG for the input's blocks and one after each rotation
        # round; no loop kernel gets a new preheader.
        assert work["cfg"] == 1 + rounds

    @pytest.mark.parametrize(
        ("source", "rotations", "rounds"),
        [(THREE_LOOP_SOURCE, 3, 1), (TWO_ROUND_SOURCE, 2, 2)],
        ids=["three_loops", "two_rounds"],
    )
    def test_rotation_recognizes_once_per_round(self, source, rotations, rounds, work):
        program = lower_to_program(source)
        work.update(dict.fromkeys(work, 0))
        _optimized, stats = OptPipeline(stages=["loops"]).run(program)
        assert stats.loops_rotated == rotations
        # The input's recognition and CFG, then one of each per round.
        assert work["scan"] == work["cfg"] == 1 + rounds

    @pytest.mark.parametrize("kernel", loop_kernel_names())
    def test_loop_kernel_shares_every_unchanged_block(self, kernel, tms_result):
        program = kernel_program(kernel)
        optimized, _stats = OptPipeline().run(program, supported_ops=_supported(tms_result))
        assert optimized is not program
        for block in optimized.blocks:
            for original in program.blocks:
                if block == original:
                    assert block is original, (kernel, block.name)

    @pytest.fixture
    def analysed(self, monkeypatch):
        """The block structures each CFG, dominator tree and loop forest
        was built for."""
        built = {"cfg": [], "idom": [], "forest": []}
        init = ControlFlowGraph.__init__

        def recording_init(cfg, entry, edges):
            built["cfg"].append(
                (entry, tuple(sorted((name, tuple(targets)) for name, targets in edges.items())))
            )
            init(cfg, entry, edges)

        def recording(key, function):
            def recorded(cfg, *args):
                built[key].append((cfg.entry, tuple(sorted(cfg.successors.items()))))
                return function(cfg, *args)

            return recorded

        monkeypatch.setattr(ControlFlowGraph, "__init__", recording_init)
        for key, name in (("idom", "immediate_dominators"), ("forest", "loop_nesting_forest")):
            monkeypatch.setattr(
                analysis_loops_module, name, recording(key, getattr(analysis_loops_module, name))
            )
        return built

    @staticmethod
    def _structures_analysed_once(analysed, program, supported_ops=None):
        """Run the pipeline; each analysis is built at most once per block
        structure the run produces: the input's, one after the rotation
        round (one round rotates every loop of these programs: no
        rotation makes another of their loops counted), and one after
        preheader insertion.  Returns (rotations, created preheaders)."""
        for keys in analysed.values():
            keys.clear()
        optimized, stats = OptPipeline().run(program, supported_ops=supported_ops)
        created = len(optimized.blocks) - len(program.blocks) + stats.loops_rotated
        structures = 1 + (1 if stats.loops_rotated else 0) + (1 if created else 0)
        for key, keys in analysed.items():
            assert len(keys) == len(set(keys)), key
            assert len(keys) <= structures, key
        return stats.loops_rotated, created

    def test_generated_loops_analyse_each_block_structure_once(self, analysed, ref_result):
        supported_ops = _supported(ref_result)
        loops = GENERATOR_PROFILES["loops"]
        rotations = []
        for seed in range(60):
            program = lower_to_program(generate_source(seed, loops))
            rotated, _created = self._structures_analysed_once(analysed, program, supported_ops)
            rotations.append(rotated)
        # Some program rotates several loops, so a recognition after each
        # rotation would build more than one structure per round.
        assert max(rotations) >= 2

    def test_preheader_insertion_analyses_its_structure_once(self, analysed):
        # The loop is entered from a conditional branch, so two hoists
        # pay for a new preheader.
        program = Program(
            name="guarded",
            blocks=[
                BasicBlock(
                    "entry",
                    [Statement("i", Const(0))],
                    CBranch(Op("lt", (VarRef("n"), Const(9))), "body", "exit"),
                ),
                BasicBlock(
                    "body",
                    [
                        Statement("t", Op("mul", (VarRef("a"), VarRef("b")))),
                        Statement("u", Op("add", (VarRef("a"), Const(3)))),
                        Statement("s", Op("add", (VarRef("s"), VarRef("i")))),
                        Statement("i", Op("add", (VarRef("i"), Const(1)))),
                    ],
                    CBranch(Op("lt", (VarRef("i"), Const(4))), "body", "exit"),
                ),
                BasicBlock("exit"),
            ],
            scalars=["a", "b", "i", "n", "s", "t", "u"],
        )
        assert self._structures_analysed_once(analysed, program) == (0, 1)
        assert len(analysed["cfg"]) == 2


def _structure_facts(structure):
    cfg = structure.cfg
    return (
        cfg.entry,
        cfg.names,
        cfg.successors,
        cfg.predecessors,
        structure.idom,
        structure.forest.loops,
    )


class TestSharedAnalysesMatchFreshRecognition:
    """Every block structure a stage is handed, counted-loop recognition,
    LICM plan and final annotation of a run equals the one a from-scratch
    call makes on the same program."""

    @pytest.mark.parametrize("profile", sorted(GENERATOR_PROFILES))
    def test_generated_programs(self, profile, monkeypatch, ref_result):
        structure_of = OptRun.structure
        recognize = loops_module.find_counted_loops
        plan = licm_module.plan_loop_invariants
        checked = {"structure": 0, "counted": 0, "plan": 0}

        def checked_structure(run, program):
            structure = structure_of(run, program)
            assert _structure_facts(structure) == _structure_facts(BlockStructure(program))
            checked["structure"] += 1
            return structure

        def checked_recognition(program, run):
            counted = recognize(program, run)
            fresh = recognize(program, OptRun())
            assert list(counted.items()) == list(fresh.items())
            checked["counted"] += 1
            return counted

        def checked_plan(program, run):
            planned = plan(program, run)
            assert planned == plan(program, OptRun())
            checked["plan"] += 1
            return planned

        monkeypatch.setattr(OptRun, "structure", checked_structure)
        monkeypatch.setattr(loops_module, "find_counted_loops", checked_recognition)
        monkeypatch.setattr(licm_module, "plan_loop_invariants", checked_plan)
        supported_ops = _supported(ref_result)
        config = GENERATOR_PROFILES[profile]
        for seed in range(200):
            program = lower_to_program(generate_source(seed, config))
            optimized, _stats = OptPipeline().run(program, supported_ops=supported_ops)
            final = replace(optimized, hw_loops={})
            assert optimized.hw_loops == loops_module.annotate_hardware_loops(
                final, OptRun()
            ), seed
        assert all(checked.values())

    def test_memoized_trip_counts_keep_the_branch_sense(self):
        # Two self-loops with the same init, update and condition: "a"
        # loops while the condition holds, "b" while it does not.
        def step(name):
            return Statement(name, Op("add", (VarRef(name), Const(1))))

        below_four = Op("lt", (VarRef("i"), Const(4)))
        program = Program(
            name="senses",
            blocks=[
                BasicBlock("entry", [Statement("i", Const(0))], Jump("a")),
                BasicBlock("a", [step("s"), step("i")], CBranch(below_four, "a", "mid")),
                BasicBlock("mid", [Statement("i", Const(0))], Jump("b")),
                BasicBlock("b", [step("t"), step("i")], CBranch(below_four, "end", "b")),
                BasicBlock("end"),
            ],
            scalars=["i", "s", "t"],
        )
        counted = loops_module.find_counted_loops(program, OptRun())
        assert {header: loop.trip_count for header, loop in counted.items()} == {"a": 4, "b": 1}
        optimized, _stats = OptPipeline().run(program)
        assert {latch: loop.trip_count for latch, loop in optimized.hw_loops.items()} == {
            "a": 4,
            "b": 1,
        }


class TestRotationRounds:
    def test_a_rotation_round_can_make_another_loop_counted(self):
        # j's init walk stops at the empty two-predecessor header of the
        # first loop, so only that loop is counted at first.  Its rotation
        # lets the walk reach "j = 0" in its latch, and the next round
        # rotates the second loop.
        program = lower_to_program(TWO_ROUND_SOURCE, name="two_rounds")
        optimized, stats = OptPipeline().run(program)
        assert stats.loops_rotated == 2
        assert [
            (block.name, [str(statement) for statement in block.statements], str(block.terminator))
            for block in optimized.blocks
        ] == [
            ("entry", ["i = 0", "s = 0", "j = 0"], "jump L2_body"),
            ("L2_body", ["i = add(i, 1)"], "if lt(i, 3) goto L2_body else L3_endwhile"),
            ("L3_endwhile", [], "jump L5_body"),
            (
                "L5_body",
                ["s = add(s, j)", "j = add(j, 1)"],
                "if lt(j, 5) goto L5_body else L6_endwhile",
            ),
            ("L6_endwhile", [], "None"),
        ]
        assert dict(optimized.hw_loops) == {
            "L2_body": HardwareLoop(latch="L2_body", trip_count=3, kind="rpt")
        }
        _assert_computes_the_same(program, optimized, "two_rounds")

    def test_one_round_rotates_two_loops_entered_from_one_block(self):
        # Both headers are targets of the entry's branch: the second
        # rotation must retarget the entry as the first one left it.
        def loop(header, latch, name, bound):
            return [
                BasicBlock(
                    header, [], CBranch(Op("lt", (VarRef(name), Const(bound))), latch, "exit")
                ),
                BasicBlock(
                    latch,
                    [
                        Statement("s", Op("add", (VarRef("s"), VarRef(name)))),
                        Statement(name, Op("add", (VarRef(name), Const(1)))),
                    ],
                    Jump(header),
                ),
            ]

        program = Program(
            name="forked",
            blocks=[
                BasicBlock(
                    "entry",
                    [Statement("i", Const(0)), Statement("j", Const(0))],
                    CBranch(Op("lt", (VarRef("p"), Const(4))), "head_i", "head_j"),
                ),
                *loop("head_i", "body_i", "i", 3),
                *loop("head_j", "body_j", "j", 5),
                BasicBlock("exit"),
            ],
            scalars=["i", "j", "p", "s"],
        )
        optimized, stats = OptPipeline(stages=["loops"]).run(program)
        assert stats.loops_rotated == 2
        assert [block.name for block in optimized.blocks] == ["entry", "body_i", "body_j", "exit"]
        assert optimized.block("entry").terminator.targets() == ("body_i", "body_j")
        assert {latch: loop.trip_count for latch, loop in optimized.hw_loops.items()} == {
            "body_i": 3,
            "body_j": 5,
        }
        _assert_computes_the_same(program, optimized, "forked")


class TestHardwareLoopRule:
    @pytest.mark.parametrize(
        "stages",
        [
            ["licm"],
            ["gvn"],
            [],
            ["fold"],
            ["licm", "gvn", "dce"],
            ["dce"],
            ["fold", "gvn"],
            ["gvn", "dce"],
            ["loops"],
            None,
        ],
    )
    def test_hw_loops_come_only_from_this_runs_loops_stage(self, stages):
        annotated, _stats = OptPipeline().run(kernel_program("fir_loop"))
        assert set(annotated.hw_loops) == {"L2_body"}
        again, stats = OptPipeline(stages=stages).run(annotated)
        expected = annotated.hw_loops if stages is None or "loops" in stages else {}
        assert again.hw_loops == expected
        assert stats.hw_loops == len(expected)
        assert annotated.hw_loops  # the input keeps its own annotation


def test_deep_chain_inside_a_loop_is_hoisted_and_numbered():
    chain = VarRef("a")
    for _ in range(2500):
        chain = Op("add", (chain, Const(1)))
    program = Program(
        name="deep_loop",
        blocks=[
            BasicBlock("entry", [Statement("i", Const(0))], Jump("body")),
            BasicBlock(
                "body",
                [
                    Statement("acc", chain),
                    Statement("acc2", Op("mul", (chain, Const(3)))),
                    Statement("i", Op("add", (VarRef("i"), Const(1)))),
                ],
                CBranch(Op("lt", (VarRef("i"), Const(4))), "body", "exit"),
            ),
            BasicBlock("exit"),
        ],
        scalars=["a", "acc", "acc2", "i"],
    )
    _optimized, stats = OptPipeline().run(program)
    assert stats.licm_hoisted >= 1
    assert stats.gvn_hits >= 1


class TestStagesHandTheirInputThrough:
    def test_gvn_and_dce_return_their_input_when_nothing_qualifies(self):
        program = kernel_program("fir")
        assert global_value_numbering(program, OptRun()) is program
        assert eliminate_dead_temporaries(program, OptRun()) is program

    def test_gvn_scan_counts_index_operators_like_the_dag(self):
        # a * x[i + 1] has two operators only through its array index;
        # the scan must count them as ExprDAG.op_counts does.
        def product():
            return Op("mul", (VarRef("a"), ArrayRef("x", Op("add", (VarRef("i"), Const(1))))))

        program = Program(
            name="indexed",
            blocks=[BasicBlock("entry", [Statement("y0", product()), Statement("y1", product())])],
            scalars=["a", "i", "y0", "y1"],
            arrays={"x": 4},
        )
        optimized, stats = OptPipeline(stages=["gvn"]).run(program)
        assert stats.gvn_hits == 2
        assert optimized.statement_count() == 3


class TestGvnHitCount:
    """GVN's check skips a program whose repeats lie inside one
    statement, so these tests force GVN to run."""

    @pytest.fixture(autouse=True)
    def ungated(self, monkeypatch):
        monkeypatch.setattr(gvn_module, "_has_repeated_subtree", lambda *args: True)

    def test_an_inlined_temporary_takes_back_only_what_it_earned(self):
        # Seed 7 materializes a temporary read twice by one statement
        # (``v1 = mul(__cse0, __cse0)``), earning one hit, then inlines
        # it back: the count returns to 0, not -1.
        _optimized, stats = OptPipeline().run(lower_to_program(generate_source(7)))
        assert (stats.gvn_hits, stats.temps_introduced) == (0, 0)

    def test_hits_never_go_negative(self, generated_300, ref_result):
        for supported_ops in (None, _supported(ref_result)):
            for program in generated_300:
                _optimized, stats = OptPipeline().run(program, supported_ops=supported_ops)
                assert stats.gvn_hits >= 0, program.name


class TestTempCount:
    """``temps_introduced`` counts the temporaries of every stage: each is
    a new scalar of the result or a scalar DCE removed again."""

    def test_every_temporary_is_counted(self, generated_300, ref_result):
        introduced = 0
        for supported_ops in (None, _supported(ref_result)):
            programs = [kernel_program(kernel) for kernel in KERNELS] + generated_300
            for index, program in enumerate(programs):
                seen = [set(program.scalars)]
                removed = set()

                def observe(stage, result):
                    scalars = set(result.scalars)
                    removed.update(seen[-1] - scalars)
                    seen.append(scalars)

                optimized, stats = OptPipeline().run(
                    program, supported_ops=supported_ops, observer=observe
                )
                new = set(optimized.scalars) - set(program.scalars)
                assert stats.temps_introduced == len(new) + len(removed), index
                introduced += stats.temps_introduced
        assert introduced

    @pytest.mark.parametrize(
        ("profile", "seed"),
        [("default", 6), ("default", 125), ("loops", 3), ("loops", 125), ("loops", 194)],
    )
    def test_strength_reduction_and_licm_temporaries_count(self, profile, seed):
        # These programs get an __sr* or __licm* temporary and no GVN one.
        program = lower_to_program(generate_source(seed, GENERATOR_PROFILES[profile]))
        optimized, stats = OptPipeline().run(program)
        new = set(optimized.scalars) - set(program.scalars)
        assert new and all(name.startswith(("__sr", "__licm")) for name in new)
        assert stats.temps_introduced == len(new)


# ---------------------------------------------------------------------------
# Oracles of the fold and GVN checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def generated_300():
    """Seeds 0-299 of both generator profiles, lowered."""
    return [
        lower_to_program(generate_source(seed, config))
        for config in (GENERATOR_PROFILES["default"], GENERATOR_PROFILES["loops"])
        for seed in range(300)
    ]


def _assert_fold_check_exact(statement, supported_ops):
    """``would_fold_statement`` is true exactly when ``fold_statement``
    changes the statement or counts a rewrite; when it is false, folding
    hands the expressions back as they are."""
    counts = {}
    folded = fold_statement(statement, supported_ops=supported_ops, rewrites=counts)
    index, folded_index = statement.destination_index, folded.destination_index
    changed = not structurally_equal(folded.expression, statement.expression) or (
        index is not None and not structurally_equal(folded_index, index)
    )
    assert would_fold_statement(statement, supported_ops) == bool(counts or changed), (
        str(statement),
        counts,
    )
    if not counts:
        assert folded.expression is statement.expression
        assert folded_index is index


def _assert_condition_check_exact(condition):
    counts = {}
    folded = fold_expr(condition, rewrites=counts)
    assert would_fold(condition) == bool(counts or folded is not condition), str(condition)


def _assert_program_fold_checks_exact(program, supported_ops):
    for block in program.blocks:
        for statement in block.statements:
            _assert_fold_check_exact(statement, supported_ops)
        if isinstance(block.terminator, CBranch):
            _assert_condition_check_exact(block.terminator.condition)


class TestFoldCheckOracle:
    def test_kernels_under_each_target(self, retarget_results):
        for target in ("demo", "ref", "tms320c25"):
            supported_ops = _supported(retarget_results[target])
            for kernel in KERNELS:
                _assert_program_fold_checks_exact(kernel_program(kernel), supported_ops)

    def test_generated_programs(self, generated_300, retarget_results):
        fired = 0
        for target in ("ref", "tms320c25"):
            supported_ops = _supported(retarget_results[target])
            for program in generated_300:
                _assert_program_fold_checks_exact(program, supported_ops)
                fired += sum(
                    would_fold_statement(statement, supported_ops)
                    for block in program.blocks
                    for statement in block.statements
                )
        assert fired  # some rule fires on generated programs

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.deferred(lambda: _soups), min_size=1, max_size=4),
        st.sampled_from([None, frozenset(), frozenset({"shl:1"}), frozenset({"shl", "shr:2"})]),
    )
    def test_expression_soups(self, expressions, supported_ops):
        for expression in expressions:
            _assert_fold_check_exact(Statement("y", expression), supported_ops)
            _assert_fold_check_exact(Statement("x", Const(1), expression), supported_ops)
            _assert_condition_check_exact(expression)


_LEAVES = st.one_of(
    st.builds(Const, st.integers(min_value=-70000, max_value=70000)),
    st.builds(Const, st.sampled_from([0, 1, 2, 8, 65535, 65536, -1])),
    st.builds(VarRef, st.sampled_from(["a", "b", "c"])),
    st.just(PortInput("IN")),
)


def _extend(children):
    binary = st.sampled_from(
        ["add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "lt", "eq"]
    )
    return st.one_of(
        st.builds(lambda op, left, right: Op(op, (left, right)), binary, children, children),
        # x - x, x ^ x and friends: equal operands, often the same object.
        st.builds(lambda op, operand: Op(op, (operand, operand)), binary, children),
        st.builds(
            lambda op, operand: Op(op, (operand,)),
            st.sampled_from(["neg", "not", "lnot"]),
            children,
        ),
        st.builds(
            lambda op, operand: Op(op, (Op(op, (operand,)),)),
            st.sampled_from(["neg", "not"]),
            children,
        ),
        # Gated shifts: products and quotients by powers of two.
        st.builds(
            lambda op, operand, amount, left: Op(
                op, (Const(1 << amount), operand) if left else (operand, Const(1 << amount))
            ),
            st.sampled_from(["mul", "div"]),
            children,
            st.integers(min_value=1, max_value=15),
            st.booleans(),
        ),
        st.builds(ArrayRef, st.just("x"), children),
    )


_soups = st.recursive(_LEAVES, _extend, max_leaves=12)


def _subtree_statements(program):
    """The two-stack scan GVN's check replaced: a post-order walk pushing
    ``(node, expanded)`` pairs and slicing child ids off a result list.
    Returns, for each operator subtree of ``MIN_OPS`` operators or more,
    the numbers of the statements (store indices included) it occurs in
    and how often it occurs in all."""
    ids = {}
    op_counts = []
    statements_of = {}
    occurrences = {}
    numbered = enumerate(statement for block in program.blocks for statement in block.statements)
    for number, statement in numbered:
        roots = (statement.expression, statement.destination_index)
        stack = [(root, False) for root in roots if root is not None]
        results = []
        while stack:
            node, expanded = stack.pop()
            kind = type(node)
            if kind is Op or kind is ArrayRef:
                children = node.children()
                if not expanded:
                    stack.append((node, True))
                    stack.extend([(child, False) for child in reversed(children)])
                    continue
                child_ids = tuple(results[-len(children):])
                del results[-len(children):]
                key = (kind, node.op if kind is Op else node.name) + child_ids
                ops = (kind is Op) + sum([op_counts[child] for child in child_ids])
            else:
                key, ops = (kind, str(node)), 0
            node_id = ids.setdefault(key, len(ids))
            if node_id == len(op_counts):
                op_counts.append(ops)
            if kind is Op and ops >= MIN_OPS:
                statements_of.setdefault(node_id, set()).add(number)
                occurrences[node_id] = occurrences.get(node_id, 0) + 1
            results.append(node_id)
    return [(statements_of[node_id], occurrences[node_id]) for node_id in statements_of]


def _reference_has_repeated_subtree(program):
    return any(len(statements) >= 2 for statements, _count in _subtree_statements(program))


def _assert_gvn_check_matches(program):
    assert gvn_module._has_repeated_subtree(program) == _reference_has_repeated_subtree(
        program
    ), program.name


class TestGVNCheckOracle:
    """GVN's check against the reference scan: an operator subtree of
    ``MIN_OPS`` operators occurs in two different statements."""

    def test_kernels(self):
        for kernel in KERNELS:
            _assert_gvn_check_matches(kernel_program(kernel))

    def test_generated_programs_raw_and_after_the_loop_stages(self, generated_300, ref_result):
        supported_ops = _supported(ref_result)
        pipeline = OptPipeline(stages=("fold", "loops", "licm"))
        for program in generated_300:
            _assert_gvn_check_matches(program)
            optimized, _stats = pipeline.run(program, supported_ops=supported_ops)
            _assert_gvn_check_matches(optimized)

    def test_deep_chain(self):
        chain = VarRef("a")
        for _ in range(3000):
            chain = Op("add", (chain, Const(1)))
        program = Program(
            "deep",
            [BasicBlock("entry", [Statement("y", chain), Statement("z", Op("neg", (chain,)))])],
            scalars=["a", "y", "z"],
        )
        assert gvn_module._has_repeated_subtree(program)
        _assert_gvn_check_matches(program)

    def test_a_repeat_inside_one_statement_does_not_count(self):
        shared = Op("add", (Op("mul", (VarRef("a"), VarRef("b"))), VarRef("c")))
        square = Statement("y", Op("mul", (shared, shared)))
        indexed = Statement("x", shared, Op("add", (shared, Const(1))))
        for statements in ([square], [indexed], [square, indexed]):
            program = Program(
                "within",
                [BasicBlock("entry", statements)],
                scalars=["a", "b", "c", "y"],
                arrays={"x": 4},
            )
            assert gvn_module._has_repeated_subtree(program) == (len(statements) == 2)

    @settings(max_examples=150, deadline=None)
    @given(st.deferred(lambda: _random_cfg_programs()))
    def test_random_cfgs(self, program):
        _assert_gvn_check_matches(program)


def _ungated_gvn(program, monkeypatch):
    """``global_value_numbering`` on ``program`` with its check forced to
    pass; returns the result and the run's statistics."""
    run = OptRun()
    with monkeypatch.context() as patch:
        patch.setattr(gvn_module, "_has_repeated_subtree", lambda *args: True)
        return global_value_numbering(program, run), run.stats


def _assert_gvn_check_sound(program, monkeypatch):
    """Where the check says no, ungated GVN leaves the program as it is
    and counts no hit; where ungated GVN keeps a temporary, the check
    says yes.  Returns whether GVN kept one."""
    gated = gvn_module._has_repeated_subtree(program)
    result, stats = _ungated_gvn(program, monkeypatch)
    kept = set(result.scalars) - set(program.scalars)
    if not gated:
        assert _shape(result) == _shape(program), program.name
        assert stats.gvn_hits == 0, program.name
    if kept:
        assert gated, program.name
    return bool(kept)


def _hand_built_gvn_programs():
    from test_opt_differential import SYNTHETIC_SOURCES
    from test_opt_global import GVN_SOURCES

    sources = dict(SYNTHETIC_SOURCES, **GVN_SOURCES)
    return [lower_to_program(source, name=name) for name, source in sorted(sources.items())]


class TestGVNCheckIsSound:
    """A temporary read by one statement is always inlined back, so a
    subtree repeated only inside one statement leaves nothing: GVN's
    check may skip such programs, and only them."""

    def test_kernels_and_hand_built_programs(self, monkeypatch):
        programs = [kernel_program(kernel) for kernel in KERNELS] + _hand_built_gvn_programs()
        kept = [_assert_gvn_check_sound(program, monkeypatch) for program in programs]
        assert any(kept)  # cse_chain and gvn_cross keep temporaries

    def test_generated_programs(self, generated_300, monkeypatch):
        skipped_repeats = 0
        for program in generated_300:
            _assert_gvn_check_sound(program, monkeypatch)
            skipped_repeats += not gvn_module._has_repeated_subtree(program) and any(
                count >= MIN_OCCURRENCES for _statements, count in _subtree_statements(program)
            )
        # Programs whose only repeats lie inside one statement, which the
        # occurrence count before this check sent through full GVN.
        assert skipped_repeats

    @settings(max_examples=150, deadline=None)
    @given(st.deferred(lambda: _random_cfg_programs()))
    def test_random_cfgs(self, program):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_gvn_check_sound(program, monkeypatch)


_CFG_EXPRESSIONS = st.recursive(
    st.one_of(
        st.builds(VarRef, st.sampled_from(["a", "b", "i"])),
        st.builds(Const, st.integers(min_value=0, max_value=3)),
        st.just(ArrayRef("x", VarRef("i"))),
    ),
    lambda children: st.builds(
        lambda op, left, right: Op(op, (left, right)),
        st.sampled_from(["add", "mul"]),
        children,
        children,
    ),
    max_leaves=6,
)


@st.composite
def _random_cfg_programs(draw):
    """Small CFGs whose statements draw from a few operators and leaves,
    so repeated subtrees are common, store indices included."""
    count = draw(st.integers(min_value=1, max_value=5))
    names = ["b%d" % index for index in range(count)]
    blocks = []
    for name in names:
        statements = [
            Statement("x", value, index) if index is not None else Statement("y", value)
            for value, index in draw(
                st.lists(
                    st.tuples(_CFG_EXPRESSIONS, st.one_of(st.none(), _CFG_EXPRESSIONS)),
                    max_size=3,
                )
            )
        ]
        kind = draw(st.sampled_from(["none", "jump", "cbranch"]))
        terminator = None
        if kind == "jump":
            terminator = Jump(draw(st.sampled_from(names)))
        elif kind == "cbranch":
            terminator = CBranch(
                draw(_CFG_EXPRESSIONS), draw(st.sampled_from(names)), draw(st.sampled_from(names))
            )
        blocks.append(BasicBlock(name, statements, terminator))
    return Program("random", blocks, scalars=["a", "b", "i", "y"], arrays={"x": 4})
