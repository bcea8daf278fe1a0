#!/usr/bin/env python3
"""Quickstart: the complete RECORD flow on the `demo` processor.

This walks the tool flow of figure 1 of the paper step by step:

    HDL model -> netlist -> instruction-set extraction -> extended template
    base -> tree grammar -> generated code selector -> compiled machine code

and finishes by simulating the generated code against the source program.

Run with::

    python examples/quickstart.py

It exits with status 1 when a simulated value disagrees with reference
execution of the source program.
"""

import sys

from repro.expansion import expand_template_base
from repro.grammar import build_tree_grammar, grammar_to_bnf
from repro.hdl import parse_processor
from repro.ise import extract_instruction_set
from repro.netlist import build_netlist
from repro.record.retarget import retarget
from repro.toolchain import Session, default_registry

SOURCE_PROGRAM = """
int a, b, c, d;
d = c + a * b;
c = d - b;
"""


def main():
    hdl = default_registry().hdl_source("demo")

    # -- step 1: HDL frontend and netlist (graph model) ----------------------
    model = parse_processor(hdl)
    netlist = build_netlist(model)
    print("== netlist for %r ==" % netlist.name)
    for key, value in netlist.stats().items():
        print("  %-15s %d" % (key, value))

    # -- step 2: instruction-set extraction ----------------------------------
    extraction = extract_instruction_set(netlist)
    print("\n== extracted RT templates (%d) ==" % len(extraction.template_base))
    for template in extraction.template_base:
        bits = template.partial_instruction()
        encoded = ", ".join("%s=%d" % (k, v) for k, v in sorted(bits.items()))
        print("  %-35s [%s]" % (template.render(), encoded))

    # -- step 3: template expansion and tree grammar -------------------------
    extended = expand_template_base(extraction.template_base)
    grammar = build_tree_grammar(netlist, extended)
    print("\n== tree grammar ==")
    for key, value in grammar.stats().items():
        print("  %-15s %d" % (key, value))
    print("\nfirst lines of the BNF specification:")
    for line in grammar_to_bnf(grammar).splitlines()[:8]:
        print("  " + line)

    # -- step 4: the full retargeting driver does all of the above (timed) ---
    result = retarget(hdl)
    print("\n== retargeting timings ==")
    for phase, seconds in result.timings.as_dict().items():
        print("  %-18s %.4f s" % (phase, seconds))

    # -- step 5: compile and simulate a small program -------------------------
    # (a Session wraps the retargeting result in the configured pass
    # pipeline; Toolchain.for_target("demo") is the one-line equivalent
    # of steps 1-5)
    session = Session(result)
    compiled = session.compile(SOURCE_PROGRAM, name="quickstart")
    print("\n== generated code (%d instruction words) ==" % compiled.code_size)
    print(compiled.listing())

    environment = {"a": 3, "b": 4, "c": 10}
    # Reference-execute the source program, not the optimizer's output.
    from repro.frontend.lowering import lower_to_program

    reference = lower_to_program(SOURCE_PROGRAM, name="quickstart").single_block().execute(environment)
    simulated = compiled.simulate(environment)
    print("== simulation vs. reference ==")
    mismatches = 0
    for variable in ("d", "c"):
        match = (reference[variable] & 0xFFFF) == (simulated[variable] & 0xFFFF)
        mismatches += not match
        print(
            "  %-3s reference=%-6d simulated=%-6d %s"
            % (
                variable,
                reference[variable] & 0xFFFF,
                simulated[variable] & 0xFFFF,
                "OK" if match else "MISMATCH",
            )
        )

    # -- step 6: the structured result API ------------------------------------
    # Every compile returns an immutable CompilationResult: metrics, per-pass
    # wall-clock timings, named views, and lossless JSON serialization.
    print("\n== structured result ==")
    print("metrics:", compiled.metrics.to_dict())
    print("pass timings:", {k: round(v, 6) for k, v in compiled.pass_timings.items()})
    trace = compiled.simulation_trace(environment)
    print("simulation trace: %d step(s), final d=%d"
          % (len(trace.steps), trace.final_environment["d"] & 0xFFFF))
    round_tripped = type(compiled).from_json(compiled.to_json())
    print("JSON round-trip lossless:", round_tripped.to_dict() == compiled.to_dict())
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
