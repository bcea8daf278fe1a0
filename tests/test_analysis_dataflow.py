"""CFG analyses checked against naive oracles.

Dominators are checked against the textbook intersection equations
iterated to a fixpoint; :func:`repro.analysis.unassigned_reads` against a
path search per variable from the entry through the blocks that do not
assign it.  Both must agree on every CFG -- random graphs from hypothesis
and every DSPStone kernel, loop forms and optimized forms included.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ControlFlowGraph,
    dominance_relation,
    dominates,
    immediate_dominators,
    unassigned_reads,
)
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.ir.expr import ArrayRef, Const, Op, PortInput, VarRef, expr_variables
from repro.ir.program import BasicBlock, CBranch, Jump, Program, Statement
from repro.opt import OptPipeline


# ---------------------------------------------------------------------------
# Naive oracles
# ---------------------------------------------------------------------------


def oracle_dominators(cfg: ControlFlowGraph):
    """Textbook iterative dominator sets: Dom(entry) = {entry},
    Dom(b) = {b} | intersection of Dom(p) over predecessors."""
    names = list(cfg.names)
    dom = {name: set(names) for name in names}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for name in names:
            if name == cfg.entry:
                continue
            preds = [p for p in cfg.predecessors[name]]
            new = set(names)
            for pred in preds:
                new &= dom[pred]
            new |= {name}
            if new != dom[name]:
                dom[name] = new
                changed = True
    return dom


def _steps(block):
    """``(reads, assigned variable or None)`` of each statement, then of
    the branch condition: a runtime-indexed store reads its index and
    array base and assigns nothing, nor does an ``@port`` write."""
    steps = []
    for statement in block.statements:
        reads = expr_variables(statement.expression)
        assigned = statement.destination
        if statement.destination_index is not None:
            reads |= expr_variables(statement.destination_index) | {assigned}
            assigned = None
        elif assigned.startswith("@"):
            assigned = None
        steps.append((reads, assigned))
    if block.terminator is not None:
        steps.append((block.terminator.variables(), None))
    return steps


def oracle_unassigned_reads(program):
    """For each variable, the blocks control can enter with it unassigned
    are the entry and every successor of such a block that does not assign
    it; in those blocks, a read before the block's first assignment of the
    variable is flagged."""
    if not program.blocks:
        return []
    sites = set()
    for variable in program.all_variables():
        entered, stack = set(), [program.entry_block_name()]
        while stack:
            name = stack.pop()
            if name in entered:
                continue
            entered.add(name)
            if all(assigned != variable for _reads, assigned in _steps(program.block(name))):
                stack.extend(program.successors(name))
        for name in entered:
            for index, (reads, assigned) in enumerate(_steps(program.block(name))):
                if variable in reads:
                    sites.add((name, index, variable))
                if assigned == variable:
                    break
    return sorted(sites)


def assert_matches_oracles(program):
    cfg = ControlFlowGraph.from_program(program)
    if not cfg.names:
        return
    # Dominators.
    idom = immediate_dominators(cfg)
    relation = dominance_relation(idom)
    assert relation == oracle_dominators(cfg)
    # Definite assignment.
    assert unassigned_reads(program) == oracle_unassigned_reads(program)


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

_SCALARS = ["a", "b", "c", "d"]
#: Scalars plus two constant-index elements of the array ``x``.
_VARS = _SCALARS + ["x[0]", "x[1]"]


@st.composite
def operands(draw):
    kind = draw(st.sampled_from(["var", "var", "const", "array", "port"]))
    if kind == "var":
        return VarRef(draw(st.sampled_from(_VARS)))
    if kind == "const":
        return Const(draw(st.integers(min_value=0, max_value=3)))
    if kind == "array":
        return ArrayRef("x", VarRef(draw(st.sampled_from(_SCALARS))))
    return PortInput("PIN")


@st.composite
def statements(draw):
    expression = Op("add", (draw(operands()), draw(operands())))
    kind = draw(st.sampled_from(["assign", "assign", "store", "port"]))
    if kind == "store":
        return Statement("x", expression, VarRef(draw(st.sampled_from(_SCALARS))))
    if kind == "port":
        return Statement("@POUT", expression)
    return Statement(draw(st.sampled_from(_VARS)), expression)


@st.composite
def random_programs(draw):
    block_count = draw(st.integers(min_value=1, max_value=6))
    names = ["b%d" % i for i in range(block_count)]
    # The entry is a branch target about as often as any other block.
    targets = st.sampled_from(names)
    blocks = []
    for name in names:
        body = draw(st.lists(statements(), max_size=3))
        kind = draw(st.sampled_from(["none", "jump", "cbranch"]))
        terminator = None
        if kind == "jump":
            terminator = Jump(draw(targets))
        elif kind == "cbranch":
            terminator = CBranch(
                Op("lt", (draw(operands()), Const(10))), draw(targets), draw(targets)
            )
        blocks.append(BasicBlock(name, body, terminator))
    return Program("random", blocks, scalars=list(_SCALARS), arrays={"x": 2})


class TestAgainstOraclesOnRandomCFGs:
    @settings(max_examples=200, deadline=None)
    @given(random_programs())
    def test_analyses_match_oracles(self, program):
        assert_matches_oracles(program)


def assert_matches_oracles_optimized(program):
    """The program and its optimized form, which reads the optimizer's
    temporaries."""
    assert_matches_oracles(program)
    assert_matches_oracles(OptPipeline().run(program)[0])


class TestAgainstOraclesOnKernels:
    def test_every_unrolled_kernel(self):
        for name in all_kernel_names():
            assert_matches_oracles_optimized(kernel_program(name))

    def test_every_loop_kernel(self):
        for name in loop_kernel_names():
            program = kernel_program(name)
            assert not program.is_straight_line()
            assert_matches_oracles_optimized(program)


# ---------------------------------------------------------------------------
# Hand-checked structure
# ---------------------------------------------------------------------------


def _diamond():
    #    entry -> left/right -> exit, plus a back edge exit -> entry
    cond = Op("lt", (VarRef("a"), Const(4)))
    return Program(
        "diamond",
        [
            BasicBlock("entry", [Statement("a", Const(1))],
                       CBranch(cond, "left", "right")),
            BasicBlock("left", [Statement("b", VarRef("a"))], Jump("exit")),
            BasicBlock("right", [Statement("b", Const(9))], Jump("exit")),
            BasicBlock("exit", [Statement("c", VarRef("b"))],
                       CBranch(cond, "entry", "done")),
            BasicBlock("done", [Statement("d", VarRef("c"))]),
        ],
        scalars=["a", "b", "c", "d"],
    )


class TestDominators:
    def test_diamond_idoms(self):
        cfg = ControlFlowGraph.from_program(_diamond())
        idom = immediate_dominators(cfg)
        assert idom == {
            "entry": None,
            "left": "entry",
            "right": "entry",
            "exit": "entry",
            "done": "exit",
        }

    def test_dominance_relation(self):
        cfg = ControlFlowGraph.from_program(_diamond())
        idom = immediate_dominators(cfg)
        relation = dominance_relation(idom)
        assert relation["exit"] == {"entry", "exit"}
        assert relation["done"] == {"entry", "exit", "done"}
        assert dominates(idom, "entry", "done")
        assert dominates(idom, "exit", "done")
        assert not dominates(idom, "left", "exit")


class TestUnassignedReads:
    def test_initialized_diamond_has_no_flagged_reads(self):
        # Every read in the diamond is dominated by an assignment.
        assert unassigned_reads(_diamond()) == []

    def test_assignment_must_reach_the_join_on_both_arms(self):
        # exit reads b; with the right arm's assignment of b gone, the
        # path through right reaches exit with b unassigned.
        program = _diamond()
        program = replace(
            program,
            blocks=[
                replace(block, statements=[Statement("d", Const(9))])
                if block.name == "right"
                else block
                for block in program.blocks
            ],
        )
        assert unassigned_reads(program) == [("exit", 0, "b")]

    def test_back_edge_into_the_entry_assigns_nothing_on_entry(self):
        # The entry starts with nothing assigned, whatever its loop
        # predecessors assign: the first pass reads i unassigned.
        program = Program(
            "loop",
            [
                BasicBlock(
                    "entry",
                    [Statement("s", VarRef("i")), Statement("i", Const(1))],
                    CBranch(Op("lt", (VarRef("s"), Const(4))), "entry", "done"),
                ),
                BasicBlock("done", [Statement("t", VarRef("i"))]),
            ],
            scalars=["i", "s", "t"],
        )
        assert unassigned_reads(program) == [("entry", 0, "i")]

    def test_reads_of_program_inputs_are_flagged(self):
        program = Program(
            "inputs",
            [BasicBlock("entry", [Statement("y", VarRef("x"))])],
            scalars=["x", "y"],
        )
        assert unassigned_reads(program) == [("entry", 0, "x")]

    def test_indexed_stores_and_port_writes_assign_nothing(self):
        program = Program(
            "stores",
            [
                BasicBlock(
                    "entry",
                    [
                        Statement("i", Const(0)),
                        Statement("x", Const(1), VarRef("i")),
                        Statement("@POUT", VarRef("i")),
                        Statement("y", ArrayRef("x", VarRef("i"))),
                    ],
                    CBranch(Op("lt", (VarRef("z"), Const(1))), "entry", "done"),
                ),
                BasicBlock("done", [Statement("z", VarRef("y"))]),
            ],
            scalars=["i", "y", "z"],
            arrays={"x": 2},
        )
        # The store reads its array base, and so does the later array
        # read; the branch condition reads at index 4.
        assert unassigned_reads(program) == [
            ("entry", 1, "x"),
            ("entry", 3, "x"),
            ("entry", 4, "z"),
        ]


class TestReversePostorder:
    def test_matches_layout_on_kernels(self):
        # Single-block programs: RPO is the block itself.
        program = kernel_program("fir")
        assert program.reverse_postorder() == [b.name for b in program.blocks]

    def test_unreachable_blocks_are_dropped(self):
        program = _diamond()
        orphan = BasicBlock("orphan", [Statement("d", Const(0))])
        program = replace(program, blocks=program.blocks + (orphan,))
        order = program.reverse_postorder()
        assert "orphan" not in order
        assert order[0] == "entry"
        assert [b.name for b in program.reachable_blocks()] == order

    def test_deterministic(self):
        program = _diamond()
        assert program.reverse_postorder() == program.reverse_postorder()
