#!/usr/bin/env python3
"""Retarget RECORD to the TMS320C25-style DSP and inspect the result.

Prints the retargeting report (the information of one row of table 3), the
processor-class feature checklist (table 1 of the paper) and the extracted
instruction set with its binary partial instructions.

Run with::

    python examples/retarget_tms320c25.py
"""

from repro.record.report import format_processor_class_report, retargeting_report
from repro.record.retarget import retarget
from repro.toolchain import default_registry


def main():
    # retarget() emits the stand-alone matcher module printed at the end;
    # sessions never build it.
    result = retarget(default_registry().hdl_source("tms320c25"))

    print(retargeting_report(result))
    print(format_processor_class_report(result))

    print("Extracted instruction set (before expansion):")
    for template in result.extraction.template_base:
        bits = template.partial_instruction()
        opcode_bits = {k: v for k, v in bits.items() if k.startswith("IM.")}
        encoded = " ".join(
            "%s=%d" % (name.split(".")[-1], value) for name, value in sorted(opcode_bits.items())
        )
        print("  %-40s %s" % (template.render(), encoded))

    chained = result.template_base.chained_templates()
    print("\nChained-operation templates in the extended base: %d" % len(chained))
    for template in chained[:10]:
        print("  " + template.render())

    print("\nGenerated code selector: %d rules, start symbol %r"
          % (len(result.grammar.rules), result.grammar.start))
    print("Generated matcher module: %s (%d encoded rules)"
          % (result.matcher_module.__name__, len(result.matcher_module.RULES)))


if __name__ == "__main__":
    main()
