"""Control flow through the whole pipeline: parsing, CFG lowering,
optimization, backend code generation and RT-level simulation."""

import pytest

from repro.frontend import IfStatement, WhileStatement, parse_source
from repro.frontend.lowering import lower_to_program
from repro.ir.expr import ArrayRef, Const, Op, VarRef
from repro.ir.program import CBranch, Jump, MultiBlockError, StepLimitError
from repro.opt import optimize_program
from repro.toolchain import PipelineConfig, Session

DOT_LOOP = """
int a[4], b[4], z, i;
z = 0;
i = 0;
while (i < 4) {
    z = z + a[i] * b[i];
    i = i + 1;
}
"""


def _dot_env():
    env = {("a[%d]" % k): k + 1 for k in range(4)}
    env.update({("b[%d]" % k): 3 for k in range(4)})
    return env


class TestParsing:
    def test_if_else_parses(self):
        program = parse_source("int a, b; if (a < b) { a = b; } else { b = a; }")
        (statement,) = program.statements
        assert isinstance(statement, IfStatement)
        assert len(statement.then_body) == 1 and len(statement.else_body) == 1

    def test_while_parses(self):
        program = parse_source("int i; while (i < 4) i = i + 1;")
        (statement,) = program.statements
        assert isinstance(statement, WhileStatement)
        assert statement.test_first

    def test_do_while_parses(self):
        program = parse_source("int i; do { i = i + 1; } while (i < 4);")
        (statement,) = program.statements
        assert isinstance(statement, WhileStatement)
        assert not statement.test_first

    def test_nested_control_flow_parses(self):
        source = """
        int i, j, s;
        while (i < 3) {
            j = 0;
            while (j < 3) {
                if (j == i) { s = s + 1; }
                j = j + 1;
            }
            i = i + 1;
        }
        """
        program = parse_source(source)
        assert isinstance(program.statements[0], WhileStatement)

    def test_assignments_property_keeps_straight_line_view(self):
        program = parse_source("int a, b; a = b + 1; b = a;")
        assert len(program.assignments) == 2
        assert program.is_straight_line()

    def test_unterminated_block_rejected(self):
        from repro.frontend import SourceSyntaxError

        with pytest.raises(SourceSyntaxError):
            parse_source("int i; while (i < 3) { i = i + 1;")


class TestLoweringCFG:
    def test_straight_line_stays_single_block(self):
        program = lower_to_program("int a, b; a = b + 1;")
        assert program.is_straight_line()
        assert program.blocks[0].terminator is None

    def test_while_lowering_shape(self):
        program = lower_to_program(DOT_LOOP, name="dot")
        names = [block.name for block in program.blocks]
        assert names[0] == "entry"
        assert len(names) == 4  # entry, header, body, exit
        header = program.blocks[1]
        assert isinstance(header.terminator, CBranch)
        body = program.block(header.terminator.true_target)
        assert isinstance(body.terminator, Jump)
        assert body.terminator.target == header.name
        assert program.successors(header.name) == header.terminator.targets()

    def test_if_else_lowering_shape(self):
        program = lower_to_program(
            "int x, y; if (x == 0) { y = x + 1; } else { y = x - 1; }"
        )
        entry = program.blocks[0]
        assert isinstance(entry.terminator, CBranch)
        then_block = program.block(entry.terminator.true_target)
        else_block = program.block(entry.terminator.false_target)
        assert isinstance(then_block.terminator, Jump)
        assert then_block.terminator.target == else_block.terminator.target

    def test_dynamic_index_lowering(self):
        program = lower_to_program("int a[4], i; a[i] = a[i + 1] + 1;")
        statement = program.single_block().statements[0]
        assert statement.destination == "a"
        assert statement.destination_index == VarRef("i")
        assert isinstance(statement.expression, Op)
        load = statement.expression.operands[0]
        assert isinstance(load, ArrayRef)
        assert load.index == Op("add", (VarRef("i"), Const(1)))

    def test_reference_execution_runs_loop(self):
        program = lower_to_program(DOT_LOOP, name="dot")
        out = program.execute(_dot_env())
        assert out["z"] == 30 and out["i"] == 4

    def test_step_limit_raises(self):
        program = lower_to_program("int i; i = 0; while (i < 9) { i = i * 1; }")
        with pytest.raises(StepLimitError):
            program.execute({}, max_steps=200)

    def test_single_block_raises_structured_error_on_cfg(self):
        program = lower_to_program(DOT_LOOP)
        with pytest.raises(MultiBlockError):
            program.single_block()
        # Historical callers catch ValueError; the structured error still is one.
        with pytest.raises(ValueError):
            program.single_block()

    def test_unsigned_comparison_semantics(self):
        # Environment values are word-wrapped (unsigned); comparisons too.
        program = lower_to_program("int a, y; y = 0; if (a < 3) { y = 1; }")
        assert program.execute({"a": -1})["y"] == 0  # 0xFFFF is not < 3


class TestOptimizerOnCFG:
    def test_optimizer_preserves_cfg_observables(self):
        program = lower_to_program(DOT_LOOP, name="dot")
        optimized, stats = optimize_program(program)
        env = _dot_env()
        assert optimized.execute(dict(env))["z"] == program.execute(dict(env))["z"]
        # The counted while-loop is rotated: the empty L1_while header is
        # folded into the latch, which now carries the condition.
        assert [b.name for b in optimized.blocks] == [
            "entry",
            "L2_body",
            "L3_endwhile",
        ]
        assert stats.loops_rotated == 1
        assert stats.statements_before == stats.statements_after

    def test_fold_works_per_block(self):
        program = lower_to_program(
            "int i, z; z = 2 * 8; while (i < 4) { i = i + (3 - 2); }"
        )
        optimized, stats = optimize_program(program)
        assert stats.folds >= 2
        assert optimized.blocks[0].statements[0].expression == Const(16)

    def test_dce_conservative_across_blocks(self):
        # __cse-style temp defined in one block, read in a later block:
        # the CFG-conservative DCE must keep it.
        from repro.ir.program import BasicBlock, Jump, Program, Statement
        from repro.opt.cse import eliminate_dead_temporaries

        program = Program(
            name="x",
            blocks=[
                BasicBlock(
                    name="entry",
                    statements=[Statement("__cse0", Op("add", (VarRef("a"), VarRef("b"))))],
                    terminator=Jump("next"),
                ),
                BasicBlock(
                    name="next",
                    statements=[Statement("y", VarRef("__cse0"))],
                ),
            ],
            scalars=["a", "b", "y", "__cse0"],
        )
        cleaned = eliminate_dead_temporaries(program)
        assert len(cleaned.blocks[0].statements) == 1

    def test_dce_removes_never_read_temp_in_cfg(self):
        from repro.ir.program import BasicBlock, Jump, Program, Statement
        from repro.opt.cse import eliminate_dead_temporaries

        program = Program(
            name="x",
            blocks=[
                BasicBlock(
                    name="entry",
                    statements=[Statement("__cse0", VarRef("a"))],
                    terminator=Jump("next"),
                ),
                BasicBlock(name="next", statements=[Statement("y", VarRef("a"))]),
            ],
            scalars=["a", "y", "__cse0"],
        )
        cleaned = eliminate_dead_temporaries(program)
        assert cleaned.blocks[0].statements == []

    def test_branch_condition_counts_as_use(self):
        from repro.ir.program import BasicBlock, CBranch, Program, Statement
        from repro.opt.cse import eliminate_dead_temporaries

        program = Program(
            name="x",
            blocks=[
                BasicBlock(
                    name="entry",
                    statements=[Statement("__cse0", VarRef("a"))],
                    terminator=CBranch(
                        condition=VarRef("__cse0"),
                        true_target="next",
                        false_target="next",
                    ),
                ),
                BasicBlock(name="next", statements=[]),
            ],
            scalars=["a", "__cse0"],
        )
        cleaned = eliminate_dead_temporaries(program)
        assert len(cleaned.blocks[0].statements) == 1


class TestBackendCFG:
    @pytest.fixture(scope="class")
    def session(self, tms_result):
        return Session(tms_result)

    def test_compiles_and_simulates_loop(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        assert result.is_multi_block
        out = result.simulate(_dot_env())
        assert out["z"] == 30 and out["i"] == 4

    def test_listing_has_labels_and_branches(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        listing = result.listing()
        assert "entry:" in listing
        # Loop rotation removed the empty L1_while header; entry jumps
        # straight to the body, which conditionally branches to itself.
        assert "L2_body:" in listing
        assert "jump L2_body" in listing
        # On the tms320c25 the counted latch lowers to a zero-overhead
        # hardware loop instead of a per-iteration conditional branch.
        assert "repeat L2_body x4 then L3_endwhile" in listing

    def test_branches_pinned_at_block_ends(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        for word in result.words:
            control = [i for i in word.instances if i.is_control()]
            if control:
                assert len(word.instances) == 1  # barrier: never packed

    def test_binary_encoding_of_cfg_program(self, tms_result):
        session = Session(tms_result, config=PipelineConfig(encode=True))
        result = session.compile(DOT_LOOP, name="dot")
        assert "L2_body:" in result.encoding

    def test_simulation_trace_records_blocks_and_iterations(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        trace = result.simulation_trace(_dot_env())
        body_steps = [step for step in trace.steps if step.block == "L2_body"]
        assert len(body_steps) == 8  # 2 statements x 4 iterations
        assert trace.final_environment["z"] == 30

    def test_simulation_step_limit(self, session):
        from repro.sim.rtsim import SimulationError

        result = session.compile(
            "int i; i = 0; while (i < 9) { i = i * 1; }", name="spin"
        )
        with pytest.raises(SimulationError):
            result.simulate({}, max_steps=500)

    def test_if_else_both_paths(self, session):
        result = session.compile(
            "int x, y, lim; if (x > lim) { y = lim; } else { y = x; }",
            name="clip",
        )
        assert result.simulate({"x": 9, "lim": 5})["y"] == 5
        assert result.simulate({"x": 2, "lim": 5})["y"] == 2

    def test_do_while_runs_at_least_once(self, session):
        result = session.compile(
            "int i, n; i = 0; do { i = i + 1; } while (i < n);", name="dw"
        )
        assert result.simulate({"n": 0})["i"] == 1
        assert result.simulate({"n": 3})["i"] == 3

    def test_dynamic_store_through_backend(self, session):
        result = session.compile(
            "int d[4], c[4], i; i = 0; while (i < 4) { d[i] = c[i] + 1; i = i + 1; }",
            name="upd",
        )
        env = {("c[%d]" % k): 10 * k for k in range(4)}
        out = result.simulate(env)
        assert [out["d[%d]" % k] for k in range(4)] == [1, 11, 21, 31]

    def test_spill_metric_not_inflated_by_branches(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        assert result.spill_count == 0
        assert not any(d.message.startswith("storage pressure")
                       for d in result.diagnostics)

    def test_statement_count_excludes_branch_pseudocode(self, session):
        result = session.compile(DOT_LOOP, name="dot")
        assert result.metrics.statement_count == 4  # z=0; i=0; body: z,i

    def test_no_opt_preset_handles_cfg(self, tms_result):
        session = Session(tms_result, config=PipelineConfig.preset("no-opt"))
        out = session.compile(DOT_LOOP, name="dot").simulate(_dot_env())
        assert out["z"] == 30

    def test_constant_store_legalization_on_demo(self, demo_result):
        # demo has no immediate-to-storage path: "z = 0" legalizes to
        # "z = z - z" and still simulates correctly.
        session = Session(demo_result)
        result = session.compile(DOT_LOOP, name="dot")
        out = result.simulate(_dot_env())
        assert out["z"] == 30

    def test_straight_line_simulation_rejects_cfg_code(self, session):
        """The straight-line paths must fail loudly on a CFG's flat code
        (a result without block_codes), never silently execute each block
        once in layout order."""
        import dataclasses

        from repro.sim.rtsim import SimulationError

        result = session.compile(DOT_LOOP, name="dot")
        flat = dataclasses.replace(result, block_codes=())
        assert not flat.is_multi_block
        with pytest.raises(SimulationError):
            flat.simulate(_dot_env())
        assert flat.metrics.statement_count == result.metrics.statement_count

    def test_json_roundtrip_of_cfg_result(self, session):
        from repro.toolchain.results import CompilationResult

        result = session.compile(DOT_LOOP, name="dot")
        detached = CompilationResult.from_json(result.to_json())
        assert detached.metrics == result.metrics
        assert "L2_body:" in detached.listing()
