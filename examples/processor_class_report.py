#!/usr/bin/env python3
"""Table 1: the target processor class, checked per built-in model.

The paper characterises the class of processors RECORD supports (table 1):
fixed-point data, time-stationary code, horizontal/encoded instruction
formats, load-store and memory-register memory structures, post-modify
addressing, heterogeneous/homogeneous register structures and mode
registers.  This example derives the checklist automatically from each
retargeted model.

Run with::

    python examples/processor_class_report.py
"""

from repro.record.report import processor_class_report
from repro.toolchain import Toolchain


def main():
    toolchain = Toolchain()
    reports = {}
    for name in toolchain.registry.names():
        result = toolchain.session(name).retarget_result
        reports[name] = processor_class_report(result)

    parameters = list(next(iter(reports.values())).keys())
    width = max(len(p) for p in parameters) + 2
    column = 18

    header = " " * width + "".join("%-*s" % (column, name) for name in reports)
    print(header)
    print("-" * len(header))
    for parameter in parameters:
        row = "%-*s" % (width, parameter)
        for name in reports:
            row += "%-*s" % (column, reports[name][parameter])
        print(row)


if __name__ == "__main__":
    main()
