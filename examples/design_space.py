#!/usr/bin/env python3
"""HW/SW co-design: one program, six processor architectures.

The paper motivates retargetable compilation with HW/SW co-design: short
retargeting times make it possible to study how the processor architecture
affects program execution (here: code size) without writing a compiler per
candidate architecture.  This example compiles the same two DSP kernels for
every built-in target and prints the resulting code sizes and retargeting
times side by side.

Run with::

    python examples/design_space.py
"""

from repro.codegen.selection import CodeGenerationError
from repro.dspstone import get_kernel
from repro.toolchain import Toolchain

KERNELS = ["real_update", "dot_product"]

# The paper assumes program variables are bound a priori to storage
# resources.  For the bass_boost ASIP the natural binding keeps filter
# coefficients in the coefficient ROM and the running sum in the
# accumulator; without such a binding the ASIP (by design) cannot execute
# general-purpose code.
BINDING_OVERRIDES = {
    "bass_boost": {
        "real_update": {"c": "ACC", "d": "ACC", "b": "CROM"},
        "dot_product": {"z": "ACC", **{"b[%d]" % i: "CROM" for i in range(4)}},
    }
}


def main():
    print("retargeting all built-in targets ...\n")
    header = "%-12s %-22s %12s %16s" % ("target", "category", "RT templates", "retarget time [s]")
    print(header)
    print("-" * len(header))
    toolchain = Toolchain()  # one registry + retarget cache for all sessions
    sessions = {}
    for name in toolchain.registry.names():
        session = toolchain.session(name)
        sessions[name] = session
        result = session.retarget_result
        print(
            "%-12s %-22s %12d %16.3f"
            % (name, toolchain.registry.get(name).category, result.template_count, result.timings.total)
        )

    for kernel_name in KERNELS:
        kernel = get_kernel(kernel_name)
        print("\ncode size for kernel %r (%s):" % (kernel_name, kernel.description))
        for name in toolchain.registry.names():
            overrides = BINDING_OVERRIDES.get(name, {}).get(kernel_name)
            try:
                compiled = sessions[name].compile(
                    kernel.source, name=kernel_name, binding_overrides=overrides
                )
                size = "%d instruction words, %d RT operations" % (
                    compiled.code_size,
                    compiled.operation_count,
                )
                if overrides:
                    size += "  (with ASIP-specific variable binding)"
            except CodeGenerationError as error:
                size = "not compilable: %s" % str(error).split(": expression")[0]
            print("  %-12s %s" % (name, size))

    print(
        "\nArchitectures with chained multiply-accumulate paths (ref, bass_boost,"
        "\ntms320c25) need fewer instructions for the MAC-dominated kernels, while"
        "\nplain accumulator machines pay extra loads -- the HW/SW trade-off the"
        "\npaper's retargeting speed makes explorable."
    )


if __name__ == "__main__":
    main()
