#!/usr/bin/env python3
"""Retargeting RECORD to a user-defined ASIP written from scratch.

The whole point of the paper is that a compiler back end can be derived
automatically from an HDL model the hardware designer writes anyway.  This
example defines a brand-new, deliberately quirky ASIP inline (an
accumulator machine with a subtract-only ALU and a saturating shifter),
derives its code selector, and compiles a small program -- no
compiler-specific description was written at any point.

Run with::

    python examples/custom_processor.py
"""

from repro.expansion import ExpansionOptions, RewriteRule, default_transformation_library
from repro.expansion.rewrite import Slot
from repro.ise import ConstLeaf, OpNode
from repro.record.report import retargeting_report
from repro.toolchain import Toolchain, default_registry

CUSTOM_HDL = """
processor quirk;

module IM kind instruction_memory
  out word : 16;
end module;

module DMEM kind memory
  in  addr : 6;
  in  din  : 16;
  in  wr   : 1;
  out dout : 16;
behavior
  dout := mem[addr];
  mem[addr] := din when wr == 1;
end module;

module ACC kind register
  in  d  : 16;
  in  ld : 1;
  out q  : 16;
behavior
  q := d when ld == 1;
end module;

-- subtract-only ALU: additions must be synthesised from subtractions
module SALU kind combinational
  in  a : 16;
  in  b : 16;
  in  f : 2;
  out y : 16;
behavior
  y := case f
         when 0 => a - b;
         when 1 => a - (0 - b);
         when 2 => b;
         when 3 => a << 1;
       end;
end module;

module DEC kind decoder
  in  opc : 3;
  out f      : 2;
  out acc_ld : 1;
  out wr     : 1;
behavior
  f := case opc
         when 0 => 0;
         when 1 => 1;
         when 2 => 2;
         when 3 => 3;
         else => 2;
       end;
  acc_ld := case opc
              when 4 => 0;
              else => 1;
            end;
  wr := case opc
          when 4 => 1;
          else => 0;
        end;
end module;

structure
  connect IM.word[15:13] -> DEC.opc;
  connect IM.word[5:0]   -> DMEM.addr;
  connect DEC.f      -> SALU.f;
  connect DEC.acc_ld -> ACC.ld;
  connect DEC.wr     -> DMEM.wr;
  connect ACC.q      -> SALU.a;
  connect DMEM.dout  -> SALU.b;
  connect SALU.y     -> ACC.d;
  connect ACC.q      -> DMEM.din;
end structure;
"""

PROGRAM = """
int a, b, c, y;
y = a - b + c;
c = y << 1;
"""


def main():
    # The subtract-only ALU computes a + b as a - (0 - b).  An application-
    # specific rewrite rule from the "external transformation library"
    # (section 3 of the paper) teaches the code selector that IR additions
    # can be covered by that hardware pattern.
    x, y = Slot(0), Slot(1)
    add_via_double_sub = RewriteRule(
        name="add_via_double_sub",
        hardware_schema=OpNode("sub", (x, OpNode("sub", (ConstLeaf(0), y)))),
        source_schema=OpNode("add", (x, y)),
    )
    expansion = ExpansionOptions(
        rules=default_transformation_library() + [add_via_double_sub]
    )

    # Register the new ASIP next to the built-ins and retarget it through
    # the toolchain -- the registry makes user models first-class targets.
    default_registry().register_hdl(
        "quirk", CUSTOM_HDL,
        description="accumulator ASIP with a subtract-only ALU",
        category="custom", replace=True,
    )
    session = Toolchain.for_target("quirk", expansion=expansion)
    result = session.retarget_result
    print(retargeting_report(result))

    print("Extracted instruction set of the custom ASIP:")
    for template in result.extraction.template_base:
        print("  " + template.render())
    print()

    compiled = session.compile(PROGRAM, name="custom")
    print("Generated code (%d instruction words):" % compiled.code_size)
    print(compiled.listing())

    environment = {"a": 30, "b": 12, "c": 5}
    # Reference-execute the source program, not the optimizer's output.
    from repro.frontend.lowering import lower_to_program

    reference = lower_to_program(PROGRAM, name="custom").single_block().execute(environment)
    simulated = compiled.simulate(environment)
    for variable in ("y", "c"):
        match = (reference[variable] & 0xFFFF) == (simulated[variable] & 0xFFFF)
        print("  %s = %d (%s)" % (variable, simulated[variable] & 0xFFFF, "OK" if match else "MISMATCH"))


if __name__ == "__main__":
    main()
