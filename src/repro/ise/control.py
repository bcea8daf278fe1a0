"""Analysis of control signals (section 2 of the paper).

Control signals originate from the instruction memory and (optionally) mode
registers.  On their way to the control ports of data-path modules they may
pass random logic such as instruction decoders.  This module propagates the
value of every control wire *symbolically* as a vector of BDDs over the
primary control variables (instruction-word bits, mode-register bits), so
that arbitrary decoder logic is handled by Boolean manipulation rather than
by pattern matching on specific decoder structures.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.bdd.expr import BitVector
from repro.bdd.manager import BDD, BDDManager
from repro.hdl.ast import (
    BinaryExpr,
    CaseExpr,
    HdlExpr,
    IdentExpr,
    MemRefExpr,
    ModuleKind,
    NumberExpr,
    PortDirection,
    SliceExpr,
    UnaryExpr,
)
from repro.netlist.module import NetModule
from repro.netlist.netlist import BusEndpoint, Netlist, PortEndpoint, PrimaryEndpoint

# Width used for numeric literals whose context width is unknown.
_DEFAULT_LITERAL_WIDTH = 16

# Propagating control values through very wide ports would create huge BDD
# vectors for no benefit; ports wider than this are treated as data.
_MAX_CONTROL_WIDTH = 24


class ControlAnalyzer:
    """Computes symbolic values of control signals and execution conditions."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.manager = BDDManager()
        self._output_cache: Dict[Tuple[str, str], Optional[BitVector]] = {}
        self._in_progress: Set[Tuple[str, str]] = set()
        self._declare_control_variables()

    # -- public API -------------------------------------------------------------

    def instruction_bit_names(self) -> list:
        """Names of all primary control variables, in declaration order."""
        return self.manager.declared_variables()

    def output_vector(self, module_name: str, port_name: str) -> Optional[BitVector]:
        """Symbolic value of a module output port over the control variables,
        or ``None`` when the port does not carry a statically analysable
        control signal (e.g. it depends on data registers)."""
        key = (module_name, port_name)
        if key in self._output_cache:
            return self._output_cache[key]
        if key in self._in_progress:
            # Combinational cycle through this port: not a valid control signal.
            return None
        self._in_progress.add(key)
        try:
            vector = self._compute_output_vector(module_name, port_name)
        finally:
            self._in_progress.discard(key)
        self._output_cache[key] = vector
        return vector

    def input_vector(self, module_name: str, port_name: str) -> Optional[BitVector]:
        """Symbolic value arriving at a module input port."""
        driver = self.netlist.driver_of_input(module_name, port_name)
        if driver is None:
            return None
        return self.endpoint_vector(driver)

    def endpoint_vector(self, endpoint) -> Optional[BitVector]:
        """Symbolic value produced by a connection endpoint."""
        if isinstance(endpoint, PrimaryEndpoint):
            return None  # primary input pins carry run-time data
        if isinstance(endpoint, BusEndpoint):
            return None  # bus values depend on which driver is enabled
        if isinstance(endpoint, PortEndpoint):
            vector = self.output_vector(endpoint.module, endpoint.port)
            if vector is None:
                return None
            if endpoint.is_sliced():
                return vector.slice(endpoint.low, endpoint.high)
            return vector
        return None

    def evaluate_expression(
        self, module: NetModule, expr: HdlExpr
    ) -> Optional[BitVector]:
        """Symbolically evaluate a behaviour expression of ``module`` over
        control variables; ``None`` when the value is data dependent."""
        return self._eval(module, expr)

    def condition_true(self, module: NetModule, expr: Optional[HdlExpr]) -> Optional[BDD]:
        """BDD for "``expr`` evaluates to a non-zero value" in the context of
        ``module``.  ``None`` for a data-dependent condition, ``true`` when
        ``expr`` is omitted."""
        if expr is None:
            return self.manager.true
        vector = self._eval(module, expr)
        if vector is None:
            return None
        return self.manager.disjoin(iter(vector.bits))

    def condition_equals(
        self, module: NetModule, expr: HdlExpr, value: int
    ) -> Optional[BDD]:
        """BDD for "``expr`` equals ``value``" in the context of ``module``."""
        vector = self._eval(module, expr)
        if vector is None:
            return None
        return vector.equals_constant(value)

    def output_enable_condition(self, module_name: str, port_name: str) -> Optional[BDD]:
        """Condition under which a module drives the given output port.

        Used for tristate bus contention analysis: the disjunction of the
        conditions of all (conditional) assignments to the port.  ``True``
        when any assignment is unconditional, ``None`` when a condition is
        data dependent.
        """
        module = self.netlist.module(module_name)
        assignments = module.assignments_to(port_name)
        if not assignments:
            return self.manager.false
        enable = self.manager.false
        for assign in assignments:
            if assign.condition is None:
                return self.manager.true
            condition = self.condition_true(module, assign.condition)
            if condition is None:
                return None
            enable = enable | condition
        return enable

    # -- internals -----------------------------------------------------------------

    def _declare_control_variables(self) -> None:
        """Declare instruction-word bits first, then mode-register bits, so
        the BDD variable order groups related control bits together."""
        for kind in (ModuleKind.INSTRUCTION_MEMORY, ModuleKind.MODE_REGISTER):
            for module in self.netlist.modules.values():
                if module.kind != kind:
                    continue
                for port in module.output_ports():
                    for bit in range(port.width):
                        self.manager.variable(self._bit_name(module.name, port.name, bit))

    @staticmethod
    def _bit_name(module_name: str, port_name: str, bit: int) -> str:
        return "%s.%s[%d]" % (module_name, port_name, bit)

    def _control_source_vector(self, module: NetModule, port_name: str) -> BitVector:
        port = module.port(port_name)
        bits = [
            self.manager.variable(self._bit_name(module.name, port_name, bit))
            for bit in range(port.width)
        ]
        return BitVector(self.manager, bits)

    def _compute_output_vector(
        self, module_name: str, port_name: str
    ) -> Optional[BitVector]:
        module = self.netlist.module(module_name)
        port = module.port(port_name)
        if port is None or port.direction != PortDirection.OUT:
            return None
        if port.width > _MAX_CONTROL_WIDTH:
            if not module.is_control_source():
                return None
        if module.is_control_source():
            return self._control_source_vector(module, port_name)
        if module.kind == ModuleKind.CONSTANT:
            assignments = module.assignments_to(port_name)
            if len(assignments) == 1 and isinstance(assignments[0].value, NumberExpr):
                return BitVector.constant(
                    self.manager, assignments[0].value.value, port.width
                )
            return None
        if module.kind in (ModuleKind.REGISTER, ModuleKind.MEMORY):
            # Data storage: its value is unknown at compile time.
            return None
        # Combinational logic (including decoders): fold the conditional
        # assignments into a single if-then-else chain.
        assignments = module.assignments_to(port_name)
        if not assignments:
            return None
        result: Optional[BitVector] = None
        for assign in reversed(assignments):
            value = self._eval(module, assign.value)
            if value is None:
                return None
            value = value.zero_extend(port.width)
            if assign.condition is None:
                result = value
                continue
            condition = self.condition_true(module, assign.condition)
            if condition is None:
                return None
            if result is None:
                # Undriven when no condition holds: treat as zero.
                result = BitVector.constant(self.manager, 0, port.width)
            result = value.if_then_else(condition, result)
        return result

    def _eval(self, module: NetModule, expr: HdlExpr) -> Optional[BitVector]:
        if isinstance(expr, NumberExpr):
            return BitVector.constant(self.manager, expr.value, _DEFAULT_LITERAL_WIDTH)
        if isinstance(expr, IdentExpr):
            port = module.port(expr.name)
            if port is None:
                return None
            if port.direction == PortDirection.IN:
                return self.input_vector(module.name, expr.name)
            return self.output_vector(module.name, expr.name)
        if isinstance(expr, SliceExpr):
            base = self._eval(module, expr.base)
            if base is None:
                return None
            high = min(expr.high, base.width - 1)
            return base.slice(expr.low, high)
        if isinstance(expr, UnaryExpr):
            operand = self._eval(module, expr.operand)
            if operand is None:
                return None
            if expr.operator == "~":
                return operand.bitwise_not()
            if expr.operator == "!":
                nonzero = self.manager.disjoin(iter(operand.bits))
                return BitVector(self.manager, [~nonzero])
            if expr.operator == "-":
                one = BitVector.constant(self.manager, 1, operand.width)
                return operand.bitwise_not().add(one)
            return None
        if isinstance(expr, BinaryExpr):
            return self._eval_binary(module, expr)
        if isinstance(expr, CaseExpr):
            return self._eval_case(module, expr)
        if isinstance(expr, MemRefExpr):
            return None
        return None

    def _eval_binary(self, module: NetModule, expr: BinaryExpr) -> Optional[BitVector]:
        left = self._eval(module, expr.left)
        right = self._eval(module, expr.right)
        if left is None or right is None:
            return None
        operator = expr.operator
        if operator == "&":
            return left.bitwise_and(right)
        if operator == "|":
            return left.bitwise_or(right)
        if operator == "^":
            return left.bitwise_xor(right)
        if operator == "+":
            return left.add(right)
        if operator == "-":
            one = BitVector.constant(self.manager, 1, right.width)
            return left.add(right.bitwise_not().add(one))
        if operator == "==":
            return BitVector(self.manager, [left.equals(right)])
        if operator == "!=":
            return BitVector(self.manager, [~left.equals(right)])
        if operator in ("<<", ">>"):
            amount = right.constant_value()
            if amount is None:
                return None
            if operator == "<<":
                bits = [self.manager.false] * amount + left.bits
                return BitVector(self.manager, bits[: left.width])
            bits = left.bits[amount:] + [self.manager.false] * min(amount, left.width)
            return BitVector(self.manager, bits[: left.width])
        # Comparisons and multiplicative operators on control signals are not
        # needed for decoder logic; treat them as data dependent.
        return None

    def _eval_case(self, module: NetModule, expr: CaseExpr) -> Optional[BitVector]:
        selector = self._eval(module, expr.selector)
        if selector is None:
            return None
        width = max(
            (_width_hint(arm.value) for arm in expr.arms), default=_DEFAULT_LITERAL_WIDTH
        )
        result = BitVector.constant(self.manager, 0, width)
        covered = self.manager.false
        else_value: Optional[BitVector] = None
        for arm in expr.arms:
            value = self._eval(module, arm.value)
            if value is None:
                return None
            value = value.zero_extend(width)
            if arm.selector is None:
                else_value = value
                continue
            condition = selector.equals_constant(arm.selector)
            covered = covered | condition
            result = value.if_then_else(condition, result)
        if else_value is not None:
            result = result.if_then_else(covered, else_value)
        return result


def _width_hint(expr: HdlExpr) -> int:
    """A conservative width estimate for case-arm expressions."""
    if isinstance(expr, NumberExpr):
        return max(expr.value.bit_length(), 1)
    return _DEFAULT_LITERAL_WIDTH
