"""The target registry: one uniform namespace for processor models.

Built-in models, user HDL files and programmatically constructed models
all register the same way and are looked up by name through one
interface.  The built-ins register in the order of table 3 of the paper.

Registration styles::

    from repro.toolchain import REGISTRY, register_target

    # 1. decorator over a function returning HDL source
    @register_target("mychip", category="custom", description="my ASIP")
    def _mychip():
        return MY_HDL_SOURCE

    # 2. direct registration of HDL text
    REGISTRY.register_hdl("otherchip", hdl_source, category="custom")

    # 3. an HDL file on disk
    REGISTRY.register_file("designs/quirk.hdl")

Third-party packages can also expose targets through the
``repro.targets`` entry-point group; :meth:`TargetRegistry.load_entry_points`
picks them up when ``importlib.metadata`` is available.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.diagnostics import TargetError


@dataclass(frozen=True)
class TargetSpec:
    """Metadata of one registered target processor."""

    name: str
    hdl_source: str
    description: str = ""
    category: str = "unregistered"
    # The storage resource in which program variables live by default.
    default_variable_storage: Optional[str] = "DMEM"
    # Variables that should live in registers/ports instead of memory may be
    # listed here per experiment; empty by default.
    binding_overrides: Dict[str, str] = field(default_factory=dict)
    # True when the processor has a dedicated repeat counter
    # (TMS320C25 ``RPT``/``RPTK``): counted latch branches lower to
    # zero-overhead ``repeat`` instances instead of ``cbranch``.
    hardware_loops: bool = False
    # Origin of the registration ("builtin", "file", "user", "entry-point").
    origin: str = "user"


class TargetRegistry:
    """A named collection of :class:`TargetSpec` objects.

    Behaves like a read-only mapping from target name to spec; iteration
    order is registration order (for the built-ins: the order of table 3
    of the paper).
    """

    def __init__(self):
        self._specs: Dict[str, TargetSpec] = {}
        self._order: List[str] = []
        self._entry_points_loaded = False

    # -- registration ------------------------------------------------------------

    def register(self, spec: TargetSpec, replace: bool = False) -> TargetSpec:
        """Register a fully built :class:`TargetSpec`."""
        if not spec.name:
            raise TargetError("target name must be non-empty")
        if spec.name in self._specs and not replace:
            raise TargetError(
                "target %r is already registered; pass replace=True to override"
                % spec.name
            )
        if spec.name not in self._specs:
            self._order.append(spec.name)
        self._specs[spec.name] = spec
        return spec

    def register_hdl(
        self,
        name: str,
        hdl_source: str,
        description: str = "",
        category: str = "user",
        replace: bool = False,
        **extra,
    ) -> TargetSpec:
        """Register raw HDL text under a name."""
        spec = TargetSpec(
            name=name,
            hdl_source=hdl_source,
            description=description,
            category=category,
            **extra,
        )
        return self.register(spec, replace=replace)

    def register_file(
        self, path: str, name: Optional[str] = None, replace: bool = False
    ) -> TargetSpec:
        """Register an HDL file; the target name defaults to the file stem."""
        if not os.path.exists(path):
            raise TargetError("HDL file %r does not exist" % path)
        with open(path, "r") as handle:
            hdl_source = handle.read()
        target_name = name or os.path.splitext(os.path.basename(path))[0]
        return self.register_hdl(
            target_name,
            hdl_source,
            description="HDL model from %s" % path,
            category="file",
            replace=replace,
            origin="file",
        )

    def target(
        self,
        name: str,
        description: str = "",
        category: str = "user",
        replace: bool = False,
        **extra,
    ) -> Callable:
        """Decorator: register a function returning HDL source (or a string
        attribute-holding module) as a target."""

        def decorate(source_factory):
            hdl_source = source_factory() if callable(source_factory) else source_factory
            self.register_hdl(
                name,
                hdl_source,
                description=description or (source_factory.__doc__ or "").strip(),
                category=category,
                replace=replace,
                **extra,
            )
            return source_factory

        return decorate

    def load_entry_points(self, group: str = "repro.targets") -> int:
        """Register targets advertised by installed packages.

        Each entry point must resolve to a :class:`TargetSpec`, an HDL
        string, or a zero-argument callable returning either.  Returns the
        number of targets registered; silently does nothing when
        ``importlib.metadata`` is unavailable.
        """
        if self._entry_points_loaded:
            return 0
        self._entry_points_loaded = True
        try:
            from importlib.metadata import entry_points
        except ImportError:  # pragma: no cover - python < 3.8
            return 0
        try:
            selected = entry_points(group=group)
        except TypeError:  # pragma: no cover - python < 3.10 API
            selected = entry_points().get(group, [])
        count = 0
        for entry in selected:
            loaded = entry.load()
            if callable(loaded) and not isinstance(loaded, TargetSpec):
                loaded = loaded()
            if isinstance(loaded, TargetSpec):
                self.register(loaded, replace=True)
            else:
                self.register_hdl(
                    entry.name, str(loaded), category="entry-point",
                    replace=True, origin="entry-point",
                )
            count += 1
        return count

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> TargetSpec:
        """The spec registered under ``name`` (raises :class:`TargetError`)."""
        try:
            return self._specs[name]
        except KeyError:
            raise TargetError(
                "unknown target %r; registered targets: %s"
                % (name, ", ".join(self._order) or "(none)")
            ) from None

    def resolve(self, target: str) -> TargetSpec:
        """A registered name *or* a path to an HDL file.

        File paths are loaded ad hoc without being added to the registry,
        mirroring the CLI's historical behaviour.
        """
        if target in self._specs:
            return self._specs[target]
        if os.path.exists(target):
            with open(target, "r") as handle:
                hdl_source = handle.read()
            stem = os.path.splitext(os.path.basename(target))[0]
            return TargetSpec(
                name=stem,
                hdl_source=hdl_source,
                description="HDL model from %s" % target,
                category="file",
                origin="file",
            )
        raise TargetError(
            "%r is neither a registered target (%s) nor an HDL file"
            % (target, ", ".join(self._order) or "none registered")
        )

    def hdl_source(self, name: str) -> str:
        return self.get(name).hdl_source

    def names(self) -> List[str]:
        return list(self._order)

    def specs(self) -> List[TargetSpec]:
        return [self._specs[name] for name in self._order]

    # -- mapping protocol --------------------------------------------------------

    def __getitem__(self, name: str) -> TargetSpec:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._specs)


# ---------------------------------------------------------------------------
# The default registry with the six built-in models of the paper
# ---------------------------------------------------------------------------

REGISTRY = TargetRegistry()

_BUILTINS_LOADED = False

# Model-module name, description, category -- the order is table 3's.
_BUILTIN_MODELS = [
    ("demo", "Small single-accumulator example machine with ALU and multiplier",
     "simple example"),
    ("ref", "Reference machine: 4 registers, MAC unit, horizontal instruction word",
     "simple example"),
    ("manocpu", "Mano's basic computer (educational accumulator machine)",
     "educational"),
    ("tanenbaum", "Tanenbaum's Mac-1 (educational accumulator/stack machine)",
     "educational"),
    ("bass_boost", "Industrial-style audio filter ASIP with a single MAC path",
     "industrial ASIP"),
    ("tms320c25", "TMS320C25-style fixed-point DSP (heterogeneous registers, MAC)",
     "standard DSP"),
]


def _ensure_builtins() -> None:
    """Register the built-in models on first use."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import importlib

    for name, description, category in _BUILTIN_MODELS:
        module = importlib.import_module("repro.targets.models.%s" % name)
        REGISTRY.register(
            TargetSpec(
                name=name,
                hdl_source=module.HDL_SOURCE,
                description=description,
                category=category,
                hardware_loops=getattr(module, "HARDWARE_LOOPS", False),
                origin="builtin",
            ),
            replace=True,
        )
    REGISTRY.load_entry_points()


def default_registry() -> TargetRegistry:
    """The process-wide registry, with built-in targets loaded."""
    _ensure_builtins()
    return REGISTRY


def register_target(name: str, **kwargs) -> Callable:
    """Module-level decorator registering into the default registry."""
    return default_registry().target(name, **kwargs)
