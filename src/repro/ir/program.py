"""Programs, basic blocks, terminators and statements.

A :class:`Program` is a control-flow graph of :class:`BasicBlock` objects.
Each block holds straight-line :class:`Statement` assignments and ends in
an optional :class:`Terminator` -- ``None`` means the program halts after
the block, :class:`Jump` transfers unconditionally, :class:`CBranch`
branches on an IR condition expression.  Straight-line programs (the
paper's unrolled DSPStone blocks) are the one-block, no-terminator special
case, and every historical API on that shape keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.diagnostics import ReproError
from repro.ir.expr import (
    IRNode,
    array_element_name,
    evaluate_expr,
    expr_size,
    expr_variables,
)
from repro.records import Record


class MultiBlockError(ReproError, ValueError):
    """A single-block API was applied to a multi-block (CFG) program."""

    phase = "ir"


class StepLimitError(ReproError):
    """CFG execution exceeded its step budget (runaway / diverging loop)."""

    phase = "ir"


#: Default statement budget of :meth:`Program.execute` -- generous for the
#: fixed-trip-count loop kernels, small enough to fail fast on a loop whose
#: exit condition can never become true.
DEFAULT_STEP_LIMIT = 100_000


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Terminator:
    """Base class of basic-block terminators."""

    __slots__ = ()

    def targets(self) -> tuple:
        return ()

    def variables(self) -> Set[str]:
        return set()


@dataclass(frozen=True)
class Jump(Terminator):
    """Unconditional transfer to another block."""

    target: str

    def targets(self) -> tuple:
        return (self.target,)

    def __str__(self) -> str:
        return "jump %s" % self.target


@dataclass(frozen=True)
class CBranch(Terminator):
    """Conditional branch: nonzero condition goes to ``true_target``.

    The condition is an ordinary IR expression (comparisons lower to the
    ``eq``/``ne``/``lt``/... operators); it is evaluated by the
    processor's condition/branch logic, not covered by the data-path tree
    grammar.
    """

    condition: IRNode
    true_target: str
    false_target: str

    def targets(self) -> tuple:
        return (self.true_target, self.false_target)

    def variables(self) -> Set[str]:
        return expr_variables(self.condition)

    def __str__(self) -> str:
        return "if %s goto %s else %s" % (
            self.condition,
            self.true_target,
            self.false_target,
        )


# ---------------------------------------------------------------------------
# Statements and blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One assignment ``destination := expression``.

    ``destination`` names a program variable (scalar or constant-index
    array element) or a primary output port (prefixed with ``@``).  For a
    *runtime-indexed* array store (``a[i] = ...``) the destination is the
    array's base name and ``destination_index`` carries the index
    expression (``None`` for every other statement).

    Statements are frozen values: a stage that changes one puts a new
    statement in its place, so blocks and programs may share them.
    """

    destination: str
    expression: IRNode
    destination_index: Optional[IRNode] = None

    def variables(self) -> Set[str]:
        names = expr_variables(self.expression)
        if not self.destination.startswith("@"):
            names.add(self.destination)
        if self.destination_index is not None:
            names.update(expr_variables(self.destination_index))
        return names

    def destination_text(self) -> str:
        if self.destination_index is not None:
            return "%s[%s]" % (self.destination, self.destination_index)
        return self.destination

    def execute(self, state: Dict[str, int]) -> None:
        """Reference execution of this one statement (in place)."""
        value = evaluate_expr(self.expression, state)
        if self.destination_index is not None:
            index = evaluate_expr(self.destination_index, state)
            state[array_element_name(self.destination, index)] = value
        else:
            state[self.destination] = value

    def __str__(self) -> str:
        return "%s = %s" % (self.destination_text(), self.expression)


@dataclass(frozen=True)
class BasicBlock:
    """A straight-line sequence of statements plus an optional terminator.

    Blocks are frozen values, as statements are: a stage that changes a
    block builds a new one, so programs share the blocks they did not
    change.  A statement list handed in is copied into a tuple, so the
    caller's list never aliases the block.
    """

    name: str
    statements: Tuple[Statement, ...] = ()
    terminator: Optional[Terminator] = None

    def __post_init__(self) -> None:
        if type(self.statements) is not tuple:
            object.__setattr__(self, "statements", tuple(self.statements))

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for statement in self.statements:
            names.update(statement.variables())
        if self.terminator is not None:
            names.update(self.terminator.variables())
        return names

    def execute(self, environment: Dict[str, int]) -> Dict[str, int]:
        """Reference execution of the block body: evaluate every statement
        in order, updating and returning the environment.  Used as the
        golden model against which generated code is checked.  The
        terminator (if any) is *not* interpreted here -- use
        :meth:`Program.execute` for whole-CFG reference runs."""
        state = dict(environment)
        for statement in self.statements:
            statement.execute(state)
        return state

    def __len__(self) -> int:
        return len(self.statements)

    def expression_node_count(self) -> int:
        """IR nodes over the statement right-hand sides of this block."""
        return sum(expr_size(statement.expression) for statement in self.statements)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def reverse_postorder(
    entry: str, successors: Mapping[str, Sequence[str]]
) -> List[str]:
    """Reverse postorder over ``successors`` starting at ``entry``.

    Successors are explored in *reversed* declared order, which makes the
    resulting RPO follow the first-successor path first -- for structured
    CFGs that is exactly the frontend's textual block layout.  Targets
    without an entry in ``successors`` are treated as unknown labels and
    skipped (CFG well-formedness is the verifier's job, not this walk's).
    """
    if entry not in successors:
        return []
    order: List[str] = []
    visited = {entry}
    stack: List[Tuple[str, List[str]]] = [(entry, list(successors[entry]))]
    while stack:
        name, pending = stack[-1]
        advanced = False
        while pending:
            target = pending.pop()
            if target in successors and target not in visited:
                visited.add(target)
                stack.append((target, list(successors[target])))
                advanced = True
                break
        if not advanced:
            order.append(name)
            stack.pop()
    order.reverse()
    return order


@dataclass(frozen=True)
class HardwareLoop(Record):
    """Loop metadata attached to a :class:`Program` by the optimizer.

    Describes one *counted single-block self-loop*: block ``latch`` ends
    in a conditional branch back to itself whose trip behaviour is fully
    decided at compile time -- every entry into the block executes its
    body exactly ``trip_count`` times before falling through to the exit
    target.  Backends whose target models zero-overhead looping (the
    TMS320C25 ``RPT``/``RPTK`` repeat mechanism) may lower the branch as
    a repeat instruction instead of a test-and-branch; everyone else
    keeps the ordinary :class:`CBranch` lowering.

    ``kind`` is ``"rpt"`` when the loop body is a single statement (the
    C25's single-instruction ``RPTK`` shape) and ``"repeat"`` for
    multi-statement bodies (``RPTB``-style block repeat).
    """

    latch: str
    trip_count: int
    kind: str = "repeat"


@dataclass(frozen=True)
class Program:
    """A complete program: declarations plus a CFG of basic blocks.

    ``scalars`` and ``arrays`` record the declared variables; array entries
    map the array name to its element count.  ``entry`` names the block
    execution starts in (empty string = the first block, which is what the
    frontend produces).  ``hw_loops`` maps latch block names to
    :class:`HardwareLoop` annotations (filled in by the optimizer's loop
    stage; empty everywhere else).

    Programs are frozen values: ``blocks`` and ``scalars`` become tuples,
    and ``arrays`` and ``hw_loops`` read-only views of private copies, so
    one program can be shared by every compile that reads it.  Derive a
    changed program with :func:`dataclasses.replace`.
    """

    name: str
    blocks: Tuple[BasicBlock, ...] = ()
    scalars: Tuple[str, ...] = ()
    arrays: Mapping[str, int] = field(default_factory=dict)
    entry: str = ""
    hw_loops: Mapping[str, HardwareLoop] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.blocks) is not tuple:
            object.__setattr__(self, "blocks", tuple(self.blocks))
        if type(self.scalars) is not tuple:
            object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "arrays", MappingProxyType(dict(self.arrays)))
        object.__setattr__(self, "hw_loops", MappingProxyType(dict(self.hw_loops)))

    def __reduce__(self) -> tuple:
        # A read-only mapping view does not pickle; its dict does.
        return (
            Program,
            (
                self.name,
                self.blocks,
                self.scalars,
                dict(self.arrays),
                self.entry,
                dict(self.hw_loops),
            ),
        )

    # -- CFG structure -----------------------------------------------------------

    def entry_block_name(self) -> str:
        if self.entry:
            return self.entry
        if not self.blocks:
            raise MultiBlockError("program %r has no blocks" % self.name)
        return self.blocks[0].name

    def block(self, name: str) -> BasicBlock:
        for candidate in self.blocks:
            if candidate.name == name:
                return candidate
        raise MultiBlockError(
            "program %r has no block named %r" % (self.name, name)
        )

    def successors(self, name: str) -> tuple:
        """The names of the blocks control can transfer to from ``name``."""
        terminator = self.block(name).terminator
        return terminator.targets() if terminator is not None else ()

    def edges(self) -> Dict[str, tuple]:
        """Block name -> branch targets.  Duplicate block names keep the
        first occurrence, matching :meth:`block`."""
        edges: Dict[str, tuple] = {}
        for block in self.blocks:
            if block.name not in edges:
                terminator = block.terminator
                edges[block.name] = terminator.targets() if terminator is not None else ()
        return edges

    def reverse_postorder(self) -> List[str]:
        """Reachable block names in deterministic reverse postorder (see
        :func:`reverse_postorder`): for the structured CFGs the frontend
        emits this is exactly the textual layout order (entry, then,
        else, join / entry, header, body, exit)."""
        if not self.blocks:
            return []
        return reverse_postorder(self.entry_block_name(), self.edges())

    def reachable_blocks(self) -> List[BasicBlock]:
        """The reachable basic blocks, in :meth:`reverse_postorder` order.

        The iteration the backend uses instead of raw ``blocks``:
        unreachable blocks never reach selection, so listings and
        encodings cannot silently emit dead code.
        """
        return [self.block(name) for name in self.reverse_postorder()]

    def is_straight_line(self) -> bool:
        """True for the classic one-block, fall-off-the-end shape."""
        return len(self.blocks) == 1 and self.blocks[0].terminator is None

    def single_block(self) -> BasicBlock:
        if len(self.blocks) != 1:
            raise MultiBlockError(
                "program %r has %d blocks, expected exactly one"
                % (self.name, len(self.blocks))
            )
        return self.blocks[0]

    # -- reference execution -----------------------------------------------------

    def execute(
        self,
        environment: Dict[str, int],
        max_steps: int = DEFAULT_STEP_LIMIT,
    ) -> Dict[str, int]:
        """Reference (IR-level) execution of the whole CFG.

        Starts at the entry block, interprets statements and terminators,
        and returns the final environment when a block without terminator
        completes.  ``max_steps`` bounds the total number of executed
        statements *plus* block transitions; exceeding it raises
        :class:`StepLimitError` (a diverging loop must fail loudly, not
        hang the differential suites)."""
        blocks = {block.name: block for block in self.blocks}
        state = dict(environment)
        current: Optional[str] = self.entry_block_name()
        steps = 0
        while current is not None:
            try:
                block = blocks[current]
            except KeyError:
                raise MultiBlockError(
                    "program %r branches to unknown block %r" % (self.name, current)
                ) from None
            for statement in block.statements:
                statement.execute(state)
                steps += 1
                if steps > max_steps:
                    raise StepLimitError(
                        "program %r exceeded %d execution steps in block %r"
                        % (self.name, max_steps, current)
                    )
            terminator = block.terminator
            if terminator is None:
                current = None
            elif isinstance(terminator, Jump):
                current = terminator.target
            elif isinstance(terminator, CBranch):
                taken = evaluate_expr(terminator.condition, state) != 0
                current = terminator.true_target if taken else terminator.false_target
            else:
                raise MultiBlockError(
                    "unknown terminator %r in block %r"
                    % (type(terminator).__name__, current)
                )
            steps += 1
            if steps > max_steps:
                raise StepLimitError(
                    "program %r exceeded %d execution steps" % (self.name, max_steps)
                )
        return state

    # -- aggregate queries -------------------------------------------------------

    def all_variables(self) -> Set[str]:
        names: Set[str] = set()
        for block in self.blocks:
            names.update(block.variables())
        return names

    def statement_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def expression_node_count(self) -> int:
        """Total IR nodes over all statement right-hand sides -- the size
        measure the optimizer reports (``OptStats.nodes_before/after``)
        and the proxy for the labelling work the selector will face."""
        return sum(block.expression_node_count() for block in self.blocks)
