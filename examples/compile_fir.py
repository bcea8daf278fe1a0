#!/usr/bin/env python3
"""Compile the DSPStone FIR kernel for the TMS320C25: RECORD vs. baseline.

Reproduces one bar pair of figure 2: the FIR basic block is compiled once
with the full RECORD flow (chained MAC templates, commutativity expansion,
compaction) and once with the conventional-compiler baseline, and both are
compared against the hand-written reference size.  The generated assembly
listings are printed so the difference is visible instruction by
instruction.

Run with::

    python examples/compile_fir.py

It exits with status 1 when a simulated value disagrees with reference
execution of the source program.
"""

import sys

from repro.baselines import hand_reference_size
from repro.dspstone import get_kernel
from repro.frontend.lowering import lower_to_program
from repro.toolchain import PipelineConfig, Toolchain


def main():
    kernel = get_kernel("fir")
    print("FIR kernel source (%s):" % kernel.description)
    print(kernel.source.strip())
    print()

    # One retargeting, two pipelines: the full RECORD flow and the
    # conventional-compiler preset share the session's retarget result.
    record = Toolchain.for_target("tms320c25")
    baseline = record.reconfigured(PipelineConfig.preset("conventional"))

    record_code = record.compile(kernel.source, name="fir")
    baseline_code = baseline.compile(kernel.source, name="fir")
    hand = hand_reference_size("fir")

    print("== RECORD code (%d words) ==" % record_code.code_size)
    print(record_code.listing())
    print("== baseline code (%d words) ==" % baseline_code.code_size)
    print(baseline_code.listing())

    print("code size: hand-written %d, RECORD %d (%.0f%%), baseline %d (%.0f%%)" % (
        hand,
        record_code.code_size,
        100.0 * record_code.code_size / hand,
        baseline_code.code_size,
        100.0 * baseline_code.code_size / hand,
    ))

    # check both code sequences against the reference execution of the
    # *source* program (not the optimizer's output carried by the result)
    environment = {"x[%d]" % i: i + 1 for i in range(8)}
    environment.update({"h[%d]" % i: 2 * i - 3 for i in range(8)})
    source_block = lower_to_program(kernel.source, name="fir").single_block()
    reference = source_block.execute(environment)["y"] & 0xFFFF
    mismatches = 0
    for name, compiled in (("RECORD", record_code), ("baseline", baseline_code)):
        simulated = compiled.simulate(environment)["y"] & 0xFFFF
        mismatches += simulated != reference
        status = "OK" if simulated == reference else "MISMATCH"
        print("simulated y (%s) = %d, reference = %d -> %s" % (name, simulated, reference, status))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
