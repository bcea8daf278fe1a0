"""Enumeration of data transfer routes (section 2 of the paper).

For every RT destination (register, memory, primary output port) the
netlist is traversed backwards.  The traversal crosses module
interconnections and combinational modules and forks at multiple-input
modules (ALUs, multiplexers, buses), so that every possible way of
computing a value for the destination within a single machine cycle is
enumerated as a tree pattern.  Every route carries the execution condition
accumulated from conditional module behaviour, decoder settings and bus
contention constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bdd.manager import BDD
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
from repro.ise.control import ControlAnalyzer
from repro.ise.templates import (
    ConstLeaf,
    ImmLeaf,
    OpNode,
    Pattern,
    PortLeaf,
    RegLeaf,
    RTTemplate,
)
from repro.netlist.module import NetModule
from repro.netlist.netlist import BusEndpoint, Netlist, PortEndpoint, PrimaryEndpoint

# Canonical operator names used in RT patterns, tree grammars and the IR.
BINARY_OPERATOR_NAMES = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    ">": "gt",
    "<=": "le",
    ">=": "ge",
}

UNARY_OPERATOR_NAMES = {
    "-": "neg",
    "~": "not",
    "!": "lnot",
}

#: Route enumeration limits: the longest chain of modules one route
#: crosses, and the most alternatives one endpoint may produce before
#: enumeration is cut short (``RouteEnumerator.truncated``).  They are
#: part of every retarget cache key.
MAX_ROUTE_DEPTH = 8
MAX_ROUTE_ALTERNATIVES = 4000

# Operators whose result is the same when the operands are swapped; used by
# the commutativity expansion in repro.expansion.
COMMUTATIVE_OPERATORS = {"add", "mul", "and", "or", "xor", "eq", "ne"}


@dataclass(frozen=True)
class _Alternative:
    """One enumerated way of producing a value: a pattern plus the execution
    condition required for the involved modules to behave accordingly."""

    pattern: Pattern
    condition: BDD


class RouteEnumerator:
    """Backward netlist traversal producing RT templates per destination."""

    def __init__(
        self,
        netlist: Netlist,
        control: ControlAnalyzer,
        max_depth: int = MAX_ROUTE_DEPTH,
        max_alternatives: int = MAX_ROUTE_ALTERNATIVES,
    ):
        self.netlist = netlist
        self.control = control
        self.max_depth = max_depth
        self.max_alternatives = max_alternatives
        self._truncated = False
        self._outputs: Dict[tuple, List[_Alternative]] = {}

    # -- public API ----------------------------------------------------------

    @property
    def truncated(self) -> bool:
        """Whether any enumeration hit the alternative cap."""
        return self._truncated

    def enumerate_all(self) -> List[RTTemplate]:
        """RT templates for every destination of the processor."""
        templates: List[RTTemplate] = []
        for module in self.netlist.sequential_modules():
            templates.extend(self.enumerate_storage_destination(module))
        for port in self.netlist.primary_output_ports():
            templates.extend(self.enumerate_port_destination(port.name))
        return templates

    def enumerate_storage_destination(self, module: NetModule) -> List[RTTemplate]:
        """Templates writing a register or memory module."""
        templates: List[RTTemplate] = []
        if module.kind == ModuleKind.MEMORY:
            for write in module.memory_writes():
                write_condition = self._condition(module, write.condition)
                addressing = self._addressing_mode(module, write.target_address)
                for alternative in self._expand_expr(
                    module, write.value, self.max_depth, frozenset()
                ):
                    condition = write_condition & alternative.condition
                    if not condition.satisfiable():
                        continue
                    templates.append(
                        RTTemplate(
                            destination=module.name,
                            pattern=alternative.pattern,
                            condition=condition,
                            addressing=addressing,
                        )
                    )
            return self._capped(templates)
        # Registers (and mode registers written from the data path).
        for port in module.output_ports():
            for assign in module.assignments_to(port.name):
                write_condition = self._condition(module, assign.condition)
                for alternative in self._expand_expr(
                    module, assign.value, self.max_depth, frozenset()
                ):
                    condition = write_condition & alternative.condition
                    if not condition.satisfiable():
                        continue
                    templates.append(
                        RTTemplate(
                            destination=module.name,
                            pattern=alternative.pattern,
                            condition=condition,
                        )
                    )
        return self._capped(templates)

    def enumerate_port_destination(self, port_name: str) -> List[RTTemplate]:
        """Templates driving a primary output port."""
        driver = self.netlist.driver_of_primary_output(port_name)
        if driver is None:
            return []
        templates = []
        for alternative in self._trace_endpoint(driver, self.max_depth, frozenset()):
            if not alternative.condition.satisfiable():
                continue
            templates.append(
                RTTemplate(
                    destination=port_name,
                    pattern=alternative.pattern,
                    condition=alternative.condition,
                )
            )
        return self._capped(templates)

    # -- expression expansion ---------------------------------------------------

    def _expand_expr(
        self,
        module: NetModule,
        expr: HdlExpr,
        depth: int,
        visited: FrozenSet[Tuple[str, str]],
    ) -> List[_Alternative]:
        manager = self.control.manager
        if isinstance(expr, NumberExpr):
            return [_Alternative(ConstLeaf(expr.value), manager.true)]
        if isinstance(expr, IdentExpr):
            port = module.port(expr.name)
            if port is None:
                return []
            if port.direction == PortDirection.IN:
                return self._trace_input(module.name, expr.name, depth, visited)
            return self._expand_output(module, expr.name, depth, visited)
        if isinstance(expr, MemRefExpr):
            return [_Alternative(RegLeaf(module.name), manager.true)]
        if isinstance(expr, UnaryExpr):
            name = UNARY_OPERATOR_NAMES.get(expr.operator)
            if name is None:
                return []
            children = self._expand_expr(module, expr.operand, depth, visited)
            return [
                _Alternative(OpNode(name, (child.pattern,)), child.condition)
                for child in children
            ]
        if isinstance(expr, BinaryExpr):
            name = BINARY_OPERATOR_NAMES.get(expr.operator)
            if name is None:
                return []
            left = self._expand_expr(module, expr.left, depth, visited)
            right = self._expand_expr(module, expr.right, depth, visited)
            alternatives: List[_Alternative] = []
            for left_alt in left:
                for right_alt in right:
                    condition = left_alt.condition & right_alt.condition
                    if not condition.satisfiable():
                        continue
                    alternatives.append(
                        _Alternative(
                            OpNode(name, (left_alt.pattern, right_alt.pattern)),
                            condition,
                        )
                    )
                    if len(alternatives) > self.max_alternatives:
                        self._truncated = True
                        return alternatives
            return alternatives
        if isinstance(expr, SliceExpr):
            name = "bits_%d_%d" % (expr.high, expr.low)
            children = self._expand_expr(module, expr.base, depth, visited)
            return [
                _Alternative(OpNode(name, (child.pattern,)), child.condition)
                for child in children
            ]
        if isinstance(expr, CaseExpr):
            return self._expand_case(module, expr, depth, visited)
        return []

    def _expand_case(
        self,
        module: NetModule,
        expr: CaseExpr,
        depth: int,
        visited: FrozenSet[Tuple[str, str]],
    ) -> List[_Alternative]:
        manager = self.control.manager
        arm_conditions: List[Optional[BDD]] = []
        explicit = manager.false
        for arm in expr.arms:
            if arm.selector is None:
                arm_conditions.append(None)
                continue
            condition = self.control.condition_equals(module, expr.selector, arm.selector)
            if condition is None:
                # Data-dependent selector: the arm may always be taken.
                condition = manager.true
            else:
                explicit = explicit | condition
            arm_conditions.append(condition)
        alternatives: List[_Alternative] = []
        for arm, condition in zip(expr.arms, arm_conditions):
            if condition is None:
                condition = ~explicit
            if not condition.satisfiable():
                continue
            for child in self._expand_expr(module, arm.value, depth, visited):
                combined = condition & child.condition
                if not combined.satisfiable():
                    continue
                alternatives.append(_Alternative(child.pattern, combined))
                if len(alternatives) > self.max_alternatives:
                    self._truncated = True
                    return alternatives
        return alternatives

    # -- netlist traversal -----------------------------------------------------------

    def _trace_input(
        self,
        module_name: str,
        port_name: str,
        depth: int,
        visited: FrozenSet[Tuple[str, str]],
    ) -> List[_Alternative]:
        driver = self.netlist.driver_of_input(module_name, port_name)
        if driver is None:
            return []
        return self._trace_endpoint(driver, depth, visited)

    def _trace_endpoint(
        self, endpoint, depth: int, visited: FrozenSet[Tuple[str, str]]
    ) -> List[_Alternative]:
        manager = self.control.manager
        if isinstance(endpoint, PrimaryEndpoint):
            return [_Alternative(PortLeaf(endpoint.port), manager.true)]
        if isinstance(endpoint, BusEndpoint):
            return self._trace_bus(endpoint.bus, depth, visited)
        if isinstance(endpoint, PortEndpoint):
            return self._trace_port_endpoint(endpoint, depth, visited)
        return []

    def _trace_bus(
        self, bus_name: str, depth: int, visited: FrozenSet[Tuple[str, str]]
    ) -> List[_Alternative]:
        drivers = self.netlist.drivers_of_bus(bus_name)
        alternatives: List[_Alternative] = []
        for index, driver in enumerate(drivers):
            contention = self.control.manager.true
            for other_index, other in enumerate(drivers):
                if other_index == index or not isinstance(other, PortEndpoint):
                    continue
                enable = self.control.output_enable_condition(other.module, other.port)
                if enable is None:
                    continue
                contention = contention & (~enable)
            if not contention.satisfiable():
                continue
            for alternative in self._trace_endpoint(driver, depth, visited):
                condition = alternative.condition & contention
                if not condition.satisfiable():
                    continue
                alternatives.append(_Alternative(alternative.pattern, condition))
        return alternatives

    def _trace_port_endpoint(
        self, endpoint: PortEndpoint, depth: int, visited: FrozenSet[Tuple[str, str]]
    ) -> List[_Alternative]:
        manager = self.control.manager
        module = self.netlist.module(endpoint.module)
        if module.kind == ModuleKind.INSTRUCTION_MEMORY:
            width = self._endpoint_width(endpoint)
            return [_Alternative(ImmLeaf(str(endpoint), width), manager.true)]
        if module.kind == ModuleKind.MODE_REGISTER:
            return [_Alternative(RegLeaf(module.name), manager.true)]
        if module.kind in (ModuleKind.REGISTER, ModuleKind.MEMORY):
            pattern: Pattern = RegLeaf(module.name)
            if endpoint.is_sliced():
                pattern = OpNode(
                    "bits_%d_%d" % (endpoint.high, endpoint.low), (pattern,)
                )
            return [_Alternative(pattern, manager.true)]
        if module.kind == ModuleKind.CONSTANT:
            value = self._constant_value(module, endpoint)
            if value is None:
                return []
            return [_Alternative(ConstLeaf(value), manager.true)]
        # Combinational logic or decoder used in the data path.
        if depth <= 0:
            return []
        key = (endpoint.module, endpoint.port)
        if key in visited:
            return []
        alternatives = self._expand_output(
            module, endpoint.port, depth - 1, visited | {key}
        )
        if endpoint.is_sliced():
            name = "bits_%d_%d" % (endpoint.high, endpoint.low)
            alternatives = [
                _Alternative(OpNode(name, (alt.pattern,)), alt.condition)
                for alt in alternatives
            ]
        return alternatives

    def _expand_output(
        self,
        module: NetModule,
        port_name: str,
        depth: int,
        visited: FrozenSet[Tuple[str, str]],
    ) -> List[_Alternative]:
        """The alternatives of one module output, enumerated once per
        ``(module, port, depth, visited)`` however many routes reach it.
        Callers must not mutate the returned list."""
        key = (module.name, port_name, depth, visited)
        if key not in self._outputs:
            self._outputs[key] = self._enumerate_output(module, port_name, depth, visited)
        return self._outputs[key]

    def _enumerate_output(
        self, module: NetModule, port_name: str, depth: int, visited: FrozenSet[Tuple[str, str]]
    ) -> List[_Alternative]:
        alternatives: List[_Alternative] = []
        for assign in module.assignments_to(port_name):
            condition = self._condition(module, assign.condition)
            if not condition.satisfiable():
                continue
            for child in self._expand_expr(module, assign.value, depth, visited):
                combined = condition & child.condition
                if not combined.satisfiable():
                    continue
                alternatives.append(_Alternative(child.pattern, combined))
                if len(alternatives) > self.max_alternatives:
                    self._truncated = True
                    return alternatives
        return alternatives

    # -- helpers ----------------------------------------------------------------------

    def _condition(self, module: NetModule, expr: Optional[HdlExpr]) -> BDD:
        condition = self.control.condition_true(module, expr)
        if condition is None:
            # Data-dependent condition (e.g. a conditional jump on a flag):
            # the RT exists, but its activation is not a static instruction
            # property.  Treat it as unconstrained.
            return self.control.manager.true
        return condition

    def _endpoint_width(self, endpoint: PortEndpoint) -> int:
        if endpoint.is_sliced():
            return endpoint.high - endpoint.low + 1
        port = self.netlist.port(endpoint.module, endpoint.port)
        return port.width

    def _constant_value(self, module: NetModule, endpoint: PortEndpoint) -> Optional[int]:
        for assign in module.assignments_to(endpoint.port):
            if isinstance(assign.value, NumberExpr):
                value = assign.value.value
                if endpoint.is_sliced():
                    width = endpoint.high - endpoint.low + 1
                    value = (value >> endpoint.low) & ((1 << width) - 1)
                return value
        return None

    def _addressing_mode(self, module: NetModule, address: Optional[HdlExpr]) -> str:
        """A descriptive label for how the memory write address is formed."""
        if address is None:
            return "implicit"
        if isinstance(address, NumberExpr):
            return "absolute"
        if isinstance(address, IdentExpr):
            driver = self.netlist.driver_of_input(module.name, address.name)
            if isinstance(driver, PortEndpoint):
                source = self.netlist.module(driver.module)
                if source.kind == ModuleKind.INSTRUCTION_MEMORY:
                    return "direct"
                if source.kind == ModuleKind.REGISTER:
                    return "register-indirect"
                if source.kind == ModuleKind.COMBINATIONAL:
                    return "computed"
            if isinstance(driver, BusEndpoint):
                return "bus"
        return "computed"

    def _capped(self, templates: List[RTTemplate]) -> List[RTTemplate]:
        if len(templates) > self.max_alternatives:
            self._truncated = True
            return templates[: self.max_alternatives]
        return templates
