"""Binding of program variables to storage resources.

The paper assumes that all primary source-program inputs, program variables
and ET destinations are bound a priori to memory or register resources (or
mapped to processor ports).  This module provides that binding: by default
every program variable lives in the processor's main data memory (the
memory module with the largest address space); explicit overrides allow
mapping selected variables to registers or ports, which is how the
heterogeneous-register experiments are set up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.hdl.ast import ModuleKind
from repro.ir.program import Program
from repro.netlist.netlist import Netlist


class BindingError(Exception):
    """Raised when a variable cannot be bound to any storage resource."""


@dataclass
class ResourceBinding:
    """Mapping from program variable names to storage resource names."""

    default_storage: Optional[str]
    overrides: Dict[str, str] = field(default_factory=dict)

    def storage_of(self, variable: str) -> str:
        storage = self.overrides.get(variable, self.default_storage)
        if storage is None:
            raise BindingError(
                "variable %r is not bound and the processor has no default "
                "data memory" % variable
            )
        return storage

    def bound_variables(self) -> Iterable[str]:
        return self.overrides.keys()


def default_data_memory(netlist: Netlist) -> Optional[str]:
    """The memory used as the default home of program variables.

    Writable memories are preferred over ROMs (a coefficient ROM must not
    become the default variable storage); ties are broken by data-port
    width and then by address-space size.  ``None`` when the processor has
    no memory at all.
    """
    best_name: Optional[str] = None
    best_score = None
    for module in netlist.sequential_modules():
        if module.kind != ModuleKind.MEMORY:
            continue
        writable = bool(module.memory_writes())
        data_width = max((port.width for port in module.output_ports()), default=0)
        address_width = max((port.width for port in module.input_ports()), default=0)
        score = (writable, data_width, address_width)
        if best_score is None or score > best_score:
            best_score = score
            best_name = module.name
    return best_name


def bind_program(
    program: Program,
    netlist: Netlist,
    overrides: Optional[Dict[str, str]] = None,
) -> ResourceBinding:
    """Bind every variable of ``program`` to a storage resource of the
    processor described by ``netlist``.

    Overrides must name existing sequential modules or primary ports.
    """
    overrides = dict(overrides or {})
    valid_targets = {module.name for module in netlist.sequential_modules()}
    valid_targets.update(netlist.primary_ports)
    for variable, storage in overrides.items():
        if storage not in valid_targets:
            raise BindingError(
                "override binds %r to unknown storage %r" % (variable, storage)
            )
    default = default_data_memory(netlist)
    if default is None:
        # Fall back to the first register so register-only machines still
        # get a (tight) default binding.
        registers = [
            module.name
            for module in netlist.sequential_modules()
            if module.kind == ModuleKind.REGISTER
        ]
        default = registers[0] if registers else None
    binding = ResourceBinding(default_storage=default, overrides=overrides)
    # Fail early if any program variable ends up unbound.
    for variable in sorted(program.all_variables()):
        binding.storage_of(variable)
    return binding
