"""The netlist graph: modules, primary ports, buses and their connections."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdl.ast import PortDirection, PrimaryPortDecl
from repro.hdl.errors import HdlSemanticError
from repro.netlist.module import NetModule, NetPort


@dataclass(frozen=True)
class PortEndpoint:
    """A (possibly bit-sliced) module port acting as a connection endpoint."""

    module: str
    port: str
    high: Optional[int] = None
    low: Optional[int] = None

    def is_sliced(self) -> bool:
        return self.high is not None

    def __str__(self) -> str:
        base = "%s.%s" % (self.module, self.port)
        if self.is_sliced():
            return "%s[%d:%d]" % (base, self.high, self.low)
        return base


@dataclass(frozen=True)
class PrimaryEndpoint:
    """A primary processor port acting as a connection endpoint."""

    port: str
    high: Optional[int] = None
    low: Optional[int] = None

    def is_sliced(self) -> bool:
        return self.high is not None

    def __str__(self) -> str:
        if self.is_sliced():
            return "%s[%d:%d]" % (self.port, self.high, self.low)
        return self.port


@dataclass(frozen=True)
class BusEndpoint:
    """A tristate bus acting as a connection endpoint."""

    bus: str

    def __str__(self) -> str:
        return self.bus


Endpoint = object  # PortEndpoint | PrimaryEndpoint | BusEndpoint


@dataclass
class Netlist:
    """The complete graph model of one target processor."""

    name: str
    modules: Dict[str, NetModule] = field(default_factory=dict)
    primary_ports: Dict[str, PrimaryPortDecl] = field(default_factory=dict)
    buses: Dict[str, int] = field(default_factory=dict)  # name -> width
    # sink (module, port) -> driving endpoint
    input_drivers: Dict[Tuple[str, str], Endpoint] = field(default_factory=dict)
    # primary output port name -> driving endpoint
    primary_output_drivers: Dict[str, Endpoint] = field(default_factory=dict)
    # bus name -> list of driving endpoints
    bus_drivers: Dict[str, List[Endpoint]] = field(default_factory=dict)

    # -- lookup ----------------------------------------------------------------

    def module(self, name: str) -> NetModule:
        try:
            return self.modules[name]
        except KeyError:
            raise HdlSemanticError("unknown module %r" % name)

    def port(self, module: str, port: str) -> NetPort:
        net_port = self.module(module).port(port)
        if net_port is None:
            raise HdlSemanticError("module %r has no port %r" % (module, port))
        return net_port

    def driver_of_input(self, module: str, port: str) -> Optional[Endpoint]:
        """The endpoint driving a module input port, or ``None`` when the
        input is left unconnected."""
        return self.input_drivers.get((module, port))

    def driver_of_primary_output(self, port: str) -> Optional[Endpoint]:
        return self.primary_output_drivers.get(port)

    def drivers_of_bus(self, bus: str) -> List[Endpoint]:
        return list(self.bus_drivers.get(bus, []))

    # -- convenience views --------------------------------------------------------

    def sequential_modules(self) -> List[NetModule]:
        return [m for m in self.modules.values() if m.is_sequential()]

    def control_source_modules(self) -> List[NetModule]:
        return [m for m in self.modules.values() if m.is_control_source()]

    def combinational_modules(self) -> List[NetModule]:
        return [
            m
            for m in self.modules.values()
            if not m.is_sequential() and not m.is_control_source()
        ]

    def primary_output_ports(self) -> List[PrimaryPortDecl]:
        return [
            p for p in self.primary_ports.values() if p.direction == PortDirection.OUT
        ]

    def rt_destinations(self) -> List[str]:
        """Names of all possible RT destinations: sequential modules and
        primary output ports (section 2, "Enumeration of data transfer
        routes")."""
        names = [m.name for m in self.sequential_modules()]
        names.extend(p.name for p in self.primary_output_ports())
        return names

    def stats(self) -> Dict[str, int]:
        """Simple size statistics used in reports and tests."""
        return {
            "modules": len(self.modules),
            "sequential": len(self.sequential_modules()),
            "combinational": len(self.combinational_modules()),
            "control_sources": len(self.control_source_modules()),
            "primary_ports": len(self.primary_ports),
            "buses": len(self.buses),
            "connections": len(self.input_drivers)
            + len(self.primary_output_drivers)
            + sum(len(d) for d in self.bus_drivers.values()),
        }
