"""Unit tests for data-transfer route enumeration."""

from repro.hdl import parse_processor
from repro.ise import ControlAnalyzer, RouteEnumerator
from repro.ise.routes import BINARY_OPERATOR_NAMES, COMMUTATIVE_OPERATORS, UNARY_OPERATOR_NAMES
from repro.netlist import build_netlist


def _enumerate(source, **kwargs):
    netlist = build_netlist(parse_processor(source))
    control = ControlAnalyzer(netlist)
    enumerator = RouteEnumerator(netlist, control, **kwargs)
    return netlist, enumerator


_ACCU_MACHINE = """
processor accu;

port PIN : in 8;
port POUT : out 8;

module IM kind instruction_memory
  out word : 8;
end module;

module DMEM kind memory
  in  addr : 4;
  in  din  : 8;
  in  wr   : 1;
  out dout : 8;
behavior
  dout := mem[addr];
  mem[addr] := din when wr == 1;
end module;

module ACC kind register
  in  d : 8;
  in  ld : 1;
  out q : 8;
behavior
  q := d when ld == 1;
end module;

module ALU kind combinational
  in  a : 8;
  in  b : 8;
  in  f : 2;
  out y : 8;
behavior
  y := case f
         when 0 => a + b;
         when 1 => a - b;
         when 2 => b;
       end;
end module;

module MUXB kind combinational
  in  a : 8;
  in  b : 8;
  in  s : 1;
  out y : 8;
behavior
  y := case s
         when 0 => a;
         when 1 => b;
       end;
end module;

module DEC kind decoder
  in  opc : 2;
  out f : 2;
  out acc_ld : 1;
  out wr : 1;
  out sb : 1;
behavior
  f := case opc when 0 => 0; when 1 => 1; when 2 => 2; else => 2; end;
  acc_ld := case opc when 3 => 0; else => 1; end;
  wr := case opc when 3 => 1; else => 0; end;
  sb := case opc when 1 => 1; else => 0; end;
end module;

structure
  connect IM.word[7:6] -> DEC.opc;
  connect IM.word[3:0] -> DMEM.addr;
  connect DEC.f -> ALU.f;
  connect DEC.acc_ld -> ACC.ld;
  connect DEC.wr -> DMEM.wr;
  connect DEC.sb -> MUXB.s;
  connect ACC.q -> ALU.a;
  connect DMEM.dout -> MUXB.a;
  connect PIN -> MUXB.b;
  connect MUXB.y -> ALU.b;
  connect ALU.y -> ACC.d;
  connect ACC.q -> DMEM.din;
  connect ACC.q -> POUT;
end structure;
"""


class TestOperatorTables:
    def test_binary_names_cover_arithmetic_and_logic(self):
        for operator in ["+", "-", "*", "&", "|", "^", "<<", ">>"]:
            assert operator in BINARY_OPERATOR_NAMES

    def test_unary_names(self):
        assert UNARY_OPERATOR_NAMES["-"] == "neg"
        assert UNARY_OPERATOR_NAMES["~"] == "not"

    def test_commutative_set(self):
        assert "add" in COMMUTATIVE_OPERATORS
        assert "sub" not in COMMUTATIVE_OPERATORS


class TestAccumulatorMachine:
    def test_register_destination_routes(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("ACC"))
        rendered = {t.render() for t in templates}
        assert "ACC := add(ACC, DMEM)" in rendered
        assert "ACC := sub(ACC, PIN)" in rendered
        assert "ACC := DMEM" in rendered

    def test_encoding_conflicts_are_discarded(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("ACC"))
        rendered = {t.render() for t in templates}
        # add with the PIN operand requires f=0 (opc 0) and sb=1 (opc 1):
        # contradictory, so the route must have been discarded.
        assert "ACC := add(ACC, PIN)" not in rendered
        # sub with the memory operand requires f=1 (opc 1) and sb=0 (not 1):
        # also contradictory.
        assert "ACC := sub(ACC, DMEM)" not in rendered

    def test_conditions_identify_partial_instructions(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("ACC"))
        by_render = {t.render(): t for t in templates}
        add_template = by_render["ACC := add(ACC, DMEM)"]
        bits = add_template.partial_instruction()
        assert bits.get("IM.word[7]", False) is False
        assert bits.get("IM.word[6]", False) is False

    def test_memory_destination(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("DMEM"))
        assert [t.render() for t in templates] == ["DMEM := ACC [direct]"]
        assert templates[0].addressing == "direct"

    def test_primary_output_destination(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_port_destination("POUT")
        assert [t.render() for t in templates] == ["POUT := ACC"]

    def test_enumerate_all_covers_every_destination(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE)
        templates = enumerator.enumerate_all()
        destinations = {t.destination for t in templates}
        assert destinations == {"ACC", "DMEM", "POUT"}

    def test_unconnected_output_port_has_no_routes(self):
        source = _ACCU_MACHINE.replace("connect ACC.q -> POUT;", "")
        netlist, enumerator = _enumerate(source)
        assert enumerator.enumerate_port_destination("POUT") == []

    def test_depth_limit_stops_traversal(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE, max_depth=0)
        templates = enumerator.enumerate_storage_destination(netlist.module("ACC"))
        assert templates == []

    def test_alternative_cap_marks_truncation(self):
        netlist, enumerator = _enumerate(_ACCU_MACHINE, max_alternatives=1)
        enumerator.enumerate_storage_destination(netlist.module("ACC"))
        assert enumerator.truncated


_BUS_MACHINE = """
processor busses;

module IM kind instruction_memory
  out word : 4;
end module;

module A kind register
  in  d : 8;
  in  ld : 1;
  out q : 8;
behavior
  q := d when ld == 1;
end module;

module B kind register
  in  d : 8;
  in  ld : 1;
  out q : 8;
behavior
  q := d when ld == 1;
end module;

module DRVA kind combinational
  in  a : 8;
  in  en : 1;
  out y : 8;
behavior
  y := a when en == 1;
end module;

module DRVB kind combinational
  in  a : 8;
  in  en : 1;
  out y : 8;
behavior
  y := a when en == 1;
end module;

module C kind register
  in  d : 8;
  in  ld : 1;
  out q : 8;
behavior
  q := d when ld == 1;
end module;

structure
  bus DBUS : 8;
  connect A.q -> DRVA.a;
  connect B.q -> DRVB.a;
  connect IM.word[0:0] -> DRVA.en;
  connect IM.word[1:1] -> DRVB.en;
  connect IM.word[2:2] -> C.ld;
  connect DRVA.y -> DBUS;
  connect DRVB.y -> DBUS;
  connect DBUS -> C.d;
end structure;
"""


class TestTristateBus:
    def test_each_driver_yields_a_route(self):
        netlist, enumerator = _enumerate(_BUS_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("C"))
        rendered = {t.render() for t in templates}
        assert rendered == {"C := A", "C := B"}

    def test_bus_contention_is_excluded_from_conditions(self):
        netlist, enumerator = _enumerate(_BUS_MACHINE)
        templates = enumerator.enumerate_storage_destination(netlist.module("C"))
        by_render = {t.render(): t for t in templates}
        route_a = by_render["C := A"].condition
        # The condition must forbid the other driver being enabled.
        assert not route_a.evaluate(
            {"IM.word[0]": True, "IM.word[1]": True, "IM.word[2]": True}
        )
        assert route_a.evaluate(
            {"IM.word[0]": True, "IM.word[1]": False, "IM.word[2]": True}
        )
