"""Code selection: covering IR statements with RT templates.

Each statement's expression tree is lowered into a subject tree using the
terminal vocabulary of the target's tree grammar (storage names for bound
variables, ``Const`` for constants, operator names for inner nodes, and the
``ASSIGN`` root capturing the destination).  The processor-specific
:class:`~repro.selector.burs.CodeSelector` computes the optimal cover; RT
rules of the cover become :class:`RTInstance` objects, the unit from which
scheduling, spilling, compaction and simulation work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import ReproError, ResourceLimitError
from repro.grammar.grammar import RuleKind, storage_of_nonterminal
from repro.ir.binding import ResourceBinding
from repro.ir.expr import ArrayRef, Const, IRNode, Op, PortInput, VarRef, expr_size
from repro.ir.program import BasicBlock, CBranch, Jump, Statement, Terminator
from repro.selector.burs import CodeSelector, Reduction, SelectionError
from repro.selector.subject import SubjectNode


class CodeGenerationError(ReproError):
    """Raised when a statement cannot be covered by the target's templates."""

    phase = "selection"


#: Instance kinds that transfer control rather than data.  They are
#: pinned at block boundaries: the scheduler never reorders them, the
#: spill pass passes them through, and the compactor treats them as
#: packing barriers.  ``"repeat"`` is the hardware-loop form of a
#: counted latch branch (TMS320C25 ``RPT``/``RPTK`` style): the loop
#: counter lives in dedicated hardware, so no condition is evaluated on
#: the data path.
CONTROL_KINDS = ("jump", "cbranch", "repeat")

#: Pseudo storage written by control transfers.
PC_STORAGE = "@pc"


@dataclass
class RTInstance:
    """One selected register transfer (one machine operation).

    ``kind`` is ``"rt"`` for template-derived operations,
    ``"spill_store"`` / ``"spill_reload"`` for transfers inserted by the
    spill phase, and ``"jump"`` / ``"cbranch"`` for control transfers at
    basic-block ends (``targets`` names the successor blocks,
    ``condition`` carries the branch condition expression evaluated by
    the processor's condition logic).
    """

    kind: str
    result_id: str
    result_storage: str
    operands: List[tuple] = field(default_factory=list)  # (value_id, storage)
    rule: object = None
    template: object = None
    node: Optional[SubjectNode] = None
    # Subject nodes corresponding (positionally) to ``operands``; used by the
    # RT-level simulator to know where the covered region of the tree ends.
    operand_nodes: List[SubjectNode] = field(default_factory=list)
    defines_variable: Optional[str] = None
    # Runtime index expression of a dynamic array store ("a[i] = ..."):
    # the defined element of array ``defines_variable``.
    defines_index: Optional[IRNode] = None
    # Control-transfer payload (kind "jump"/"cbranch"/"repeat").
    targets: Tuple[str, ...] = ()
    condition: Optional[IRNode] = None
    # Hardware-loop payload (kind "repeat"): the block re-entered while
    # the dedicated loop counter has iterations left, and the total trip
    # count loaded into it on loop entry.
    repeat_body: str = ""
    repeat_count: int = 0

    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    def reads(self) -> List[str]:
        return [value_id for value_id, _storage in self.operands]

    def describe(self) -> str:
        if self.kind == "jump":
            return "jump %s" % self.targets[0]
        if self.kind == "cbranch":
            return "if %s goto %s else %s" % (
                self.condition,
                self.targets[0],
                self.targets[1],
            )
        if self.kind == "repeat":
            exits = [t for t in self.targets if t != self.repeat_body]
            return "repeat %s x%d then %s" % (
                self.repeat_body,
                self.repeat_count,
                exits[0] if exits else "halt",
            )
        if self.kind != "rt":
            return "%s %s (%s)" % (self.kind, self.result_id, self.result_storage)
        pattern = self.template.render() if self.template is not None else "?"
        if self.defines_variable:
            if self.defines_index is not None:
                suffix = " ; defines %s[%s]" % (self.defines_variable, self.defines_index)
            else:
                suffix = " ; defines %s" % self.defines_variable
        else:
            suffix = ""
        return "%s%s" % (pattern, suffix)


@dataclass
class StatementCode:
    """The code selected for one statement.

    ``statement`` is the source :class:`~repro.ir.program.Statement`; for
    the control-transfer pseudo-code at a block end it holds the block's
    :class:`~repro.ir.program.Terminator` instead (both render through
    ``str()``).
    """

    statement: object
    cost: int
    instances: List[RTInstance] = field(default_factory=list)

    def is_control(self) -> bool:
        return any(instance.is_control() for instance in self.instances)


def is_control_code(code: StatementCode) -> bool:
    """True for the branch/jump pseudo-code pinned at a block end."""
    return code.is_control()


def is_multi_block(block_codes) -> bool:
    """True when a block-code sequence describes a real CFG (anything but
    the classic single block falling off the end).  The one place this
    predicate lives: compaction (label or not) and result simulation
    (CFG or straight-line path) must never disagree on it."""
    block_codes = list(block_codes)
    if not block_codes:
        return False
    return len(block_codes) > 1 or block_codes[0].terminator_code is not None


@dataclass
class BlockCode:
    """The code selected for one basic block: the statement codes in
    order plus the control-transfer pseudo-code of the terminator
    (``None`` when the program halts after the block)."""

    name: str
    codes: List[StatementCode] = field(default_factory=list)
    terminator_code: Optional[StatementCode] = None

    def all_codes(self) -> List[StatementCode]:
        codes = list(self.codes)
        if self.terminator_code is not None:
            codes.append(self.terminator_code)
        return codes


# ---------------------------------------------------------------------------
# Subject-tree construction
# ---------------------------------------------------------------------------


def build_subject_tree(statement: Statement, binding: ResourceBinding) -> SubjectNode:
    """The subject tree for a statement, rooted at an ``ASSIGN`` node.

    A runtime-indexed array store uses the array's home storage as the
    destination terminal -- at selection level it is an ordinary store;
    the address computation runs on the processor's address-generation
    logic and never enters tree covering."""
    destination = statement.destination
    if destination.startswith("@"):
        dest_label = destination[1:]
    else:
        dest_label = binding.storage_of(destination)
    dest_node = SubjectNode(dest_label, payload=("dest", statement.destination_text()))
    expr_node = _build_expr_subject(statement.expression, binding)
    return SubjectNode("ASSIGN", [dest_node, expr_node])


def _build_expr_subject(expr: IRNode, binding: ResourceBinding) -> SubjectNode:
    """Lower one IR expression into a subject tree (explicit-stack
    post-order, so deep chain expressions never hit the recursion limit).

    One fresh :class:`SubjectNode` per IR node *occurrence*, exactly like
    the recursive formulation: shared IR sub-expressions stay distinct
    subject nodes, which emission identity relies on.
    """
    results: List[SubjectNode] = []
    stack: List[tuple] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Const):
            results.append(
                SubjectNode("Const", const_value=node.value, payload=("const", node.value))
            )
            continue
        if isinstance(node, VarRef):
            results.append(
                SubjectNode(binding.storage_of(node.name), payload=("var", node.name))
            )
            continue
        if isinstance(node, ArrayRef):
            # Runtime-indexed element load: a plain read of the array's
            # home storage as far as covering is concerned; the index
            # expression rides along in the payload for the simulator.
            results.append(
                SubjectNode(
                    binding.storage_of(node.name),
                    payload=("aref", node.name, node.index),
                )
            )
            continue
        if isinstance(node, PortInput):
            results.append(SubjectNode(node.port, payload=("port", node.port)))
            continue
        if not isinstance(node, Op):
            raise CodeGenerationError("unexpected IR node %r" % type(node).__name__)
        if expanded:
            arity = len(node.operands)
            children = results[len(results) - arity:] if arity else []
            del results[len(results) - arity:]
            results.append(SubjectNode(node.op, children))
            continue
        stack.append((node, True))
        for operand in reversed(node.operands):
            stack.append((operand, False))
    return results[0]


# ---------------------------------------------------------------------------
# Cover -> RT instances
# ---------------------------------------------------------------------------


def _value_id(node: SubjectNode, serials: Dict[int, str]) -> str:
    payload = node.payload
    if isinstance(payload, tuple):
        tag = payload[0]
        if tag == "var":
            return "var:%s" % payload[1]
        if tag == "const":
            return "const:%d" % payload[1]
        if tag == "port":
            return "port:%s" % payload[1]
        if tag == "dest":
            return "dest:%s" % payload[1]
        if tag == "aref":
            # One unique id per runtime-indexed load occurrence: the
            # element (hence the value) is unknown until execution, so
            # occurrences never share an id.
            key = id(node)
            if key not in serials:
                serials[key] = "aref:%d" % len(serials)
            return serials[key]
    key = id(node)
    if key not in serials:
        serials[key] = "tmp:%d" % len(serials)
    return serials[key]


def _instances_from_cover(
    statement: Statement, reductions: List[Reduction]
) -> List[RTInstance]:
    serials: Dict[int, str] = {}
    instances: List[RTInstance] = []
    last_rt_for_node: Dict[int, RTInstance] = {}
    root_expr_node: Optional[SubjectNode] = None
    for reduction in reductions:
        if reduction.rule.kind == RuleKind.START:
            # ASSIGN root: remember which node carries the final value.
            root_expr_node = reduction.node.children[1]
            continue
        if reduction.rule.kind != RuleKind.RT:
            continue
        node = reduction.node
        instance = RTInstance(
            kind="rt",
            result_id=_value_id(node, serials),
            result_storage=storage_of_nonterminal(reduction.rule.lhs),
            operands=[
                (_value_id(leaf_node, serials), storage_of_nonterminal(leaf_nonterm))
                for leaf_node, leaf_nonterm in reduction.leaves
            ],
            rule=reduction.rule,
            template=reduction.rule.template,
            node=node,
            operand_nodes=[leaf_node for leaf_node, _ in reduction.leaves],
        )
        instances.append(instance)
        last_rt_for_node[id(node)] = instance
    # The last RT computing the root expression's value also defines the
    # statement's destination variable (for a runtime-indexed store, the
    # element selected by ``defines_index`` at execution time).
    if root_expr_node is not None and id(root_expr_node) in last_rt_for_node:
        defining = last_rt_for_node[id(root_expr_node)]
    elif instances:
        defining = instances[-1]
    else:
        defining = None
    if defining is not None:
        defining.defines_variable = statement.destination
        defining.defines_index = statement.destination_index
    return instances


def _legalized_constant_store(statement: Statement) -> Optional[Statement]:
    """A coverable rewrite of a bare-constant store for targets without an
    immediate-to-storage path (e.g. the ``demo`` model).

    ``dest = c`` becomes ``dest = (dest - dest) + c`` (plain
    ``dest - dest`` for ``c == 0``): ``x - x`` is 0 for *every* current
    value of ``x``, including an uninitialized one, so the rewrite is
    observation-equivalent and needs only ALU subtraction -- which any
    target that computes at all provides."""
    if not isinstance(statement.expression, Const):
        return None
    if statement.destination.startswith("@"):
        return None  # output ports cannot be read back
    if statement.destination_index is not None:
        self_read: IRNode = ArrayRef(
            statement.destination, statement.destination_index
        )
    else:
        self_read = VarRef(statement.destination)
    zero: IRNode = Op("sub", (self_read, self_read))
    value = statement.expression.value
    expression = zero if value == 0 else Op("add", (zero, Const(value)))
    return Statement(
        destination=statement.destination,
        expression=expression,
        destination_index=statement.destination_index,
    )


#: Ceiling on the IR node count of one statement's expression before it
#: is handed to the BURS labeller.  The frontend already caps source
#: expressions, but programs built through the IR API bypass it; the
#: labeller's state tables are quadratic-ish in pathological shapes, so
#: a runaway tree must fail structurally, not by exhausting memory.
#: Sized above the deep-chain differential suite (~5k-node trees),
#: which must keep compiling.
MAX_SUBJECT_NODES = 10_000


def select_statement(
    statement: Statement, selector: CodeSelector, binding: ResourceBinding
) -> StatementCode:
    """Optimal RT cover of one statement."""
    nodes = expr_size(statement.expression)
    if nodes > MAX_SUBJECT_NODES:
        raise ResourceLimitError(
            "statement expression has %d IR nodes (selector limit %d)"
            % (nodes, MAX_SUBJECT_NODES)
        )
    subject = build_subject_tree(statement, binding)
    try:
        result = selector.select(subject)
    except SelectionError as error:
        fallback = _legalized_constant_store(statement)
        if fallback is not None:
            try:
                code = select_statement(fallback, selector, binding)
            except CodeGenerationError:
                pass  # report the original, clearer error below
            else:
                # Keep the *source* statement on the code object: listings
                # and traces show "i = 0", the instances implement it.
                return StatementCode(
                    statement=statement, cost=code.cost, instances=code.instances
                )
        raise CodeGenerationError(
            "statement %r cannot be covered on %s: %s"
            % (str(statement), selector.grammar.processor, error)
        )
    instances = _instances_from_cover(statement, result.reductions)
    if not instances:
        # A statement like "a = b" where source and destination share their
        # storage may be covered entirely by zero-cost rules; it still needs
        # one data move to be observable, so we keep the cover empty and let
        # the caller treat it as free.
        pass
    return StatementCode(statement=statement, cost=result.cost, instances=instances)


def select_terminator(
    terminator: Terminator, block_name: str, hardware_loop=None
) -> StatementCode:
    """The control-transfer pseudo-code for a block terminator.

    Branches are not covered by the data-path tree grammar: the target
    machines execute them on dedicated branch/condition logic, so the
    terminator maps 1:1 onto one ``jump``/``cbranch`` instance pinned at
    the block end (it still occupies an instruction word).

    When ``hardware_loop`` (a :class:`~repro.ir.program.HardwareLoop`
    annotating this block as a counted latch) is given and the target
    supports it, the conditional latch branch lowers to a ``repeat``
    instance instead: the trip count is loaded into the dedicated loop
    counter and no condition is evaluated on the data path.  The
    instance keeps ``targets == terminator.targets()`` so the pipeline
    verifier's terminator invariant holds on both lowerings."""
    if isinstance(terminator, Jump):
        instance = RTInstance(
            kind="jump",
            result_id="br:%s" % block_name,
            result_storage=PC_STORAGE,
            targets=(terminator.target,),
        )
    elif isinstance(terminator, CBranch):
        if hardware_loop is not None and block_name in (
            terminator.true_target,
            terminator.false_target,
        ):
            instance = RTInstance(
                kind="repeat",
                result_id="br:%s" % block_name,
                result_storage=PC_STORAGE,
                targets=(terminator.true_target, terminator.false_target),
                condition=terminator.condition,
                repeat_body=block_name,
                repeat_count=hardware_loop.trip_count,
            )
        else:
            instance = RTInstance(
                kind="cbranch",
                result_id="br:%s" % block_name,
                result_storage=PC_STORAGE,
                targets=(terminator.true_target, terminator.false_target),
                condition=terminator.condition,
            )
    else:
        raise CodeGenerationError(
            "unknown terminator %r in block %r"
            % (type(terminator).__name__, block_name)
        )
    return StatementCode(statement=terminator, cost=1, instances=[instance])


def select_block(
    block: BasicBlock, selector: CodeSelector, binding: ResourceBinding
) -> List[StatementCode]:
    """Select code for every statement of a basic block, in order (the
    terminator, if any, is *not* included -- see :func:`select_block_code`)."""
    return [select_statement(statement, selector, binding) for statement in block.statements]


def select_block_code(
    block: BasicBlock,
    selector: CodeSelector,
    binding: ResourceBinding,
    hardware_loop=None,
) -> BlockCode:
    """Select a whole basic block including its terminator pseudo-code
    (``hardware_loop`` flows through to :func:`select_terminator`)."""
    codes = select_block(block, selector, binding)
    terminator_code = (
        None
        if block.terminator is None
        else select_terminator(block.terminator, block.name, hardware_loop)
    )
    return BlockCode(name=block.name, codes=codes, terminator_code=terminator_code)
