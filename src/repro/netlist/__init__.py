"""Internal graph (netlist) model of the target processor.

The HDL frontend produces an AST; this package turns it into the internal
graph model of fig. 1 of the paper: modules with ports and behaviour,
interconnected by wires and tristate buses.  Instruction-set extraction
operates exclusively on this model, which keeps it independent of the
concrete HDL syntax.
"""

from repro.netlist.module import NetModule, NetPort
from repro.netlist.netlist import BusEndpoint, Netlist, PortEndpoint, PrimaryEndpoint
from repro.netlist.builder import build_netlist

__all__ = [
    "BusEndpoint",
    "NetModule",
    "NetPort",
    "Netlist",
    "PortEndpoint",
    "PrimaryEndpoint",
    "build_netlist",
]
