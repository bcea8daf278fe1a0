"""Register-transfer simulation of selected RT sequences.

Each RT instance covers a region of the statement's subject tree: the
region's frontier is given by the instance's operand nodes (intermediate
results produced by earlier RTs) and its interior leaves are program
variables, constants or ports.  The simulator evaluates exactly that
region, which validates both the data flow of the cover (operands come
from the right producers) and the operator semantics of chained
templates.

The simulator models the processor's storages as the hardware has them:
the named memories hold many values, and every other storage a result
lands in is a register that holds one.  An operand read from a register
consumes whatever the register holds at that point, so a scheduling or
spill bug that leaves a stale value in a register produces the stale
result.  An RT's own top node is evaluated from its children, so a chain
RT (a move such as ``DMEM := ACC``, whose operand is its top node)
re-evaluates that subtree instead of reading the register.

Every program runs along its CFG (:meth:`RTSimulator.run_cfg`) as a list
of :class:`~repro.codegen.selection.BlockCode` objects (a straight-line
program is one block), following the ``jump``/``cbranch``/``repeat``
pseudo-instances at block ends, under a step limit (a diverging loop
fails loudly instead of hanging a test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.codegen.selection import BlockCode, RTInstance, StatementCode
from repro.ir import apply_operator, evaluate_expr, wrap_word
from repro.ir.expr import array_element_name
from repro.ir.program import DEFAULT_STEP_LIMIT
from repro.records import Record
from repro.selector.subject import SubjectNode


class SimulationError(Exception):
    """Raised when an RT sequence references an undefined value, branches
    to an unknown block, or exceeds its step budget."""


class RTSimulator:
    """Executes RT instances over a program-variable environment.

    ``memory_storages`` names the storages that hold many values; every
    other storage a result lands in is a register whose content is
    tracked per statement, and operand reads consume that content even
    when it is stale.
    """

    def __init__(self, environment: Dict[str, int], memory_storages: Iterable[str]):
        self.environment: Dict[str, int] = dict(environment)
        self.memory_storages: FrozenSet[str] = frozenset(memory_storages)
        # Per statement: the values produced, what each register holds
        # and the spilled values.
        self._values: Dict[str, int] = {}
        self._register_values: Dict[str, int] = {}
        self._spill_values: Dict[str, int] = {}
        self._repeat_executed: Dict[str, int] = {}

    # -- execution -------------------------------------------------------------

    def run_statement(self, code: StatementCode) -> None:
        """Execute the RT instances of one statement, updating the
        environment with the statement's destination value."""
        self._values = {}
        self._register_values = {}
        self._spill_values = {}
        executed_any = False
        has_control = False
        for instance in code.instances:
            self._execute_instance(instance)
            executed_any = instance.kind == "rt" or executed_any
            has_control = instance.is_control() or has_control
        if not executed_any and not has_control:
            # Zero-cost cover (source and destination share storage): the
            # statement is a plain variable copy.
            self._execute_copy(code)

    def run_cfg(
        self,
        block_codes: List[BlockCode],
        entry: Optional[str] = None,
        max_steps: int = DEFAULT_STEP_LIMIT,
        _record=None,
    ) -> Dict[str, int]:
        """Execute a program's block codes by following its terminators.

        ``entry`` defaults to the first block (selection emits the entry
        block first).  ``max_steps`` bounds the executed statements plus
        block transitions."""
        blocks = {block_code.name: block_code for block_code in block_codes}
        if not blocks:
            return dict(self.environment)
        current: Optional[str] = entry if entry else block_codes[0].name
        # Dedicated hardware loop counters: executed body count per
        # ``repeat`` latch, reset on loop exit (so re-entering the loop
        # later starts a fresh repeat).
        self._repeat_executed: Dict[str, int] = {}
        steps = 0
        while current is not None:
            block_code = blocks.get(current)
            if block_code is None:
                raise SimulationError("branch to unknown block %r" % current)
            for code in block_code.codes:
                self.run_statement(code)
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        "exceeded %d simulation steps in block %r"
                        % (max_steps, current)
                    )
                if _record is not None:
                    _record(current, code)
            current = self._next_block(block_code)
            steps += 1
            if steps > max_steps:
                raise SimulationError("exceeded %d simulation steps" % max_steps)
        return dict(self.environment)

    def _next_block(self, block_code: BlockCode) -> Optional[str]:
        terminator_code = block_code.terminator_code
        if terminator_code is None:
            return None
        instance = terminator_code.instances[0]
        if instance.kind == "jump":
            return instance.targets[0]
        if instance.kind == "cbranch":
            taken = evaluate_expr(instance.condition, self.environment) != 0
            return instance.targets[0] if taken else instance.targets[1]
        if instance.kind == "repeat":
            # Zero-overhead hardware loop: the latch body just ran once;
            # the dedicated counter decides whether to re-enter it.  The
            # condition is never evaluated -- that is the point.
            executed = self._repeat_executed.get(instance.result_id, 0) + 1
            if executed < instance.repeat_count:
                self._repeat_executed[instance.result_id] = executed
                return instance.repeat_body
            self._repeat_executed.pop(instance.result_id, None)
            exits = [t for t in instance.targets if t != instance.repeat_body]
            return exits[0] if exits else None
        raise SimulationError(
            "block %r ends in non-control instance %r"
            % (block_code.name, instance.kind)
        )

    # -- internals ----------------------------------------------------------------

    def _execute_instance(self, instance: RTInstance) -> None:
        if instance.is_control():
            # Control transfers are interpreted by run_cfg.
            return
        if instance.kind == "spill_store":
            value_id, storage = instance.operands[0]
            self._spill_values[value_id] = self._read_operand(value_id, storage)
            return
        if instance.kind == "spill_reload":
            value_id = instance.result_id
            if value_id in self._spill_values:
                value = self._spill_values[value_id]
            else:
                value = self._lookup_value(value_id)
            self._write_register(instance.result_storage, value)
            return
        if instance.kind != "rt":
            # Unknown transfer kinds are identity at value level.
            return
        if instance.node is None:
            raise SimulationError("RT instance without a subject node")
        frontier = {
            id(node): (value_id, storage)
            for node, (value_id, storage) in zip(
                instance.operand_nodes, instance.operands
            )
        }
        value = self._evaluate_region(instance.node, frontier, top=True)
        self._values[instance.result_id] = value
        self._write_register(instance.result_storage, value)
        if instance.defines_variable is not None:
            if instance.defines_index is not None:
                index = evaluate_expr(instance.defines_index, self.environment)
                element = array_element_name(instance.defines_variable, index)
                self.environment[element] = value
            else:
                self.environment[instance.defines_variable] = value

    def _write_register(self, storage: str, value: int) -> None:
        if storage not in self.memory_storages:
            self._register_values[storage] = value

    def _read_operand(self, value_id: str, storage: str) -> int:
        """The value an operand read actually produces.

        A read from a register the statement wrote returns the
        register's current content -- stale or not; everywhere else
        (memories, registers not written yet) it is the value the id
        denotes."""
        if storage in self._register_values:
            return self._register_values[storage]
        return self._lookup_value(value_id)

    def _evaluate_region(
        self, node: SubjectNode, frontier: Dict[int, tuple], top: bool = False
    ) -> int:
        if not top and id(node) in frontier:
            value_id, storage = frontier[id(node)]
            if not value_id.startswith("aref:"):
                return self._read_operand(value_id, storage)
            # Runtime-indexed loads carry no producer value: fall through
            # to the payload evaluation below.
        payload = node.payload
        if isinstance(payload, tuple):
            tag = payload[0]
            if tag == "var":
                return wrap_word(self.environment.get(payload[1], 0))
            if tag == "const":
                return wrap_word(payload[1])
            if tag == "port":
                return wrap_word(self.environment.get("@%s" % payload[1], 0))
            if tag == "aref":
                index = evaluate_expr(payload[2], self.environment)
                element = array_element_name(payload[1], index)
                return wrap_word(self.environment.get(element, 0))
        if not node.children:
            # A chain-rule instance whose node is also its operand node.
            if id(node) in frontier:
                value_id, storage = frontier[id(node)]
                return self._read_operand(value_id, storage)
            raise SimulationError("leaf node %r has no value" % node)
        operands = [self._evaluate_region(child, frontier) for child in node.children]
        return apply_operator(node.label, operands)

    def _lookup_value(self, value_id: str) -> int:
        if value_id.startswith("var:"):
            return wrap_word(self.environment.get(value_id[4:], 0))
        if value_id.startswith("const:"):
            return wrap_word(int(value_id[6:]))
        if value_id.startswith("port:"):
            return wrap_word(self.environment.get("@%s" % value_id[5:], 0))
        if value_id in self._values:
            return self._values[value_id]
        raise SimulationError("value %r used before being defined" % value_id)

    def _execute_copy(self, code: StatementCode) -> None:
        statement = code.statement
        value = evaluate_expr(statement.expression, self.environment)
        if getattr(statement, "destination_index", None) is not None:
            index = evaluate_expr(statement.destination_index, self.environment)
            element = array_element_name(statement.destination, index)
            self.environment[element] = value
        else:
            self.environment[statement.destination] = value


# ---------------------------------------------------------------------------
# Structured execution traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep(Record):
    """The simulation record of one statement's RT sequence."""

    statement: str
    operations: List[str]
    environment: Dict[str, int]
    block: str


@dataclass(frozen=True)
class SimulationTrace:
    """A step-by-step simulation record of a whole program's code.

    One :class:`TraceStep` per *executed* statement (its source text, the
    executed RT operations, the environment snapshot after the statement,
    and the block it ran in; a loop body appears once per iteration) plus the final environment -- the
    machine-readable view behind
    :meth:`repro.toolchain.results.CompilationResult.simulation_trace`.
    """

    steps: List[TraceStep] = field(default_factory=list)
    initial_environment: Dict[str, int] = field(default_factory=dict)
    final_environment: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "initial_environment": dict(self.initial_environment),
            "steps": [step.to_dict() for step in self.steps],
            "final_environment": dict(self.final_environment),
        }

    def __len__(self) -> int:
        return len(self.steps)


def trace_cfg_execution(
    block_codes: List[BlockCode],
    environment: Dict[str, int],
    memory_storages: Iterable[str],
    entry: Optional[str] = None,
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> SimulationTrace:
    """Simulate a program's block codes on a processor with the memories
    ``memory_storages``, recording every executed statement with its
    block (loop bodies appear once per iteration)."""
    simulator = RTSimulator(environment, memory_storages)
    initial = dict(simulator.environment)
    steps: List[TraceStep] = []

    def record(block_name: str, code: StatementCode) -> None:
        steps.append(
            TraceStep(
                statement=str(code.statement),
                operations=[instance.describe() for instance in code.instances],
                environment=dict(simulator.environment),
                block=block_name,
            )
        )

    simulator.run_cfg(block_codes, entry=entry, max_steps=max_steps, _record=record)
    return SimulationTrace(
        steps=steps,
        initial_environment=initial,
        final_environment=dict(simulator.environment),
    )
