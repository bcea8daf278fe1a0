"""Tests for classification helpers and assorted smaller behaviours."""

import pytest

from repro.expansion import ExpansionOptions, default_transformation_library
from repro.hdl import ModuleKind, parse_processor
from repro.netlist import build_netlist
from repro.netlist.classify import (
    control_source_modules,
    is_control_source,
    is_sequential,
    is_transparent,
    sequential_modules,
    storage_and_port_names,
)
from repro.toolchain import default_registry


@pytest.fixture(scope="module")
def demo_netlist():
    return build_netlist(parse_processor(default_registry().hdl_source("demo")))


class TestClassify:
    def test_sequential_modules(self, demo_netlist):
        names = {module.name for module in sequential_modules(demo_netlist)}
        assert names == {"ACC", "BREG", "DMEM"}
        for module in sequential_modules(demo_netlist):
            assert is_sequential(module)
            assert not is_control_source(module)

    def test_control_sources(self, demo_netlist):
        names = {module.name for module in control_source_modules(demo_netlist)}
        assert names == {"IM"}
        assert is_control_source(demo_netlist.module("IM"))

    def test_transparent_modules(self, demo_netlist):
        assert is_transparent(demo_netlist.module("ALU"))
        assert is_transparent(demo_netlist.module("DEC"))
        assert not is_transparent(demo_netlist.module("ACC"))
        assert not is_transparent(demo_netlist.module("IM"))

    def test_storage_and_port_names(self, demo_netlist):
        names = set(storage_and_port_names(demo_netlist))
        assert {"ACC", "BREG", "DMEM", "PIN", "POUT"} == names

    def test_mode_register_is_sequential_control_source(self):
        source = (
            "processor m; module IM kind instruction_memory out w : 4; end module;"
            " module MODE kind mode_register out m : 2; end module;"
        )
        netlist = build_netlist(parse_processor(source))
        mode = netlist.module("MODE")
        assert mode.kind == ModuleKind.MODE_REGISTER
        assert is_control_source(mode)
        assert not is_sequential(mode)


class TestExpansionOptions:
    def test_effective_rules_default(self):
        options = ExpansionOptions()
        assert len(options.effective_rules()) == len(default_transformation_library())

    def test_effective_rules_disabled(self):
        options = ExpansionOptions(use_rewrite_rules=False)
        assert options.effective_rules() == []

    def test_effective_rules_custom(self):
        custom = default_transformation_library()[:2]
        options = ExpansionOptions(rules=custom)
        assert options.effective_rules() == custom


class TestModuleHelpers:
    def test_assignments_to_and_memory_writes(self, demo_netlist):
        memory = demo_netlist.module("DMEM")
        assert len(memory.memory_writes()) == 1
        assert len(memory.assignments_to("dout")) == 1
        register = demo_netlist.module("ACC")
        assert len(register.assignments_to("q")) == 1
        assert register.memory_writes() == []

    def test_port_listings(self, demo_netlist):
        alu = demo_netlist.module("ALU")
        assert {p.name for p in alu.input_ports()} == {"a", "b", "f"}
        assert {p.name for p in alu.output_ports()} == {"y"}
        assert str(alu) == "ALU(combinational)"
        assert str(alu.port("y")) == "ALU.y"


class TestTargetSpecDefaults:
    def test_default_variable_storage_is_memory(self):
        for name in ("demo", "ref", "tms320c25"):
            assert default_registry().get(name).default_variable_storage == "DMEM"

    def test_binding_overrides_default_empty(self):
        assert default_registry().get("demo").binding_overrides == {}
