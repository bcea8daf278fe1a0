"""Loop-form vs. unrolled DSPStone kernels: compile time and code size.

The loop kernels compile to multi-block CFGs (branch words, one loop body)
while their unrolled counterparts are straight-line blocks repeated per
iteration.  This benchmark quantifies the trade on the TMS320C25:

* **code size** -- a loop form carries branch/nop words but emits its body
  once, so from a modest trip count on it must be *smaller* than the
  unrolled kernel (asserted: total loop-form code size below the unrolled
  total);
* **compile time** -- the loop form hands the selector one body instead of
  N copies; wall clock for full-suite compile passes is reported for both
  forms (unasserted; the loop form is typically faster to compile).

A differential harness first proves every loop kernel RT-simulates
observably equal to its unrolled counterpart at the documented trip count,
so a measured win can never be bought with a wrong answer.

A second comparison pits the *global* optimizer (rotation, LICM, GVN,
hardware loops -- the default pipeline) against a fold/dce baseline on
the same loop kernels, asserting the global form is strictly smaller
across the suite (rotation alone removes one branch word per while-form
kernel).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.dspstone import get_kernel, kernel_program, loop_kernel_names
from repro.opt import OPT_TEMP_PREFIXES, OptPipeline
from repro.toolchain import PipelineConfig, Session
from repro.toolchain.passes import OptimizationPass, PassManager

#: Compile passes per timing measurement.
TIMING_PASSES = 5


def _seed_environment(program) -> Dict[str, int]:
    environment: Dict[str, int] = {}
    for name, size in sorted(program.arrays.items()):
        for index in range(size):
            environment["%s[%d]" % (name, index)] = (index * 19 + 11) % 89 + 1
    for position, scalar in enumerate(sorted(program.scalars)):
        environment[scalar] = (position * 7 + 2) % 40
    return environment


def assert_loop_forms_equivalent(session: Session) -> None:
    """Differential harness: every loop kernel simulates observably equal
    to its unrolled counterpart (and to IR reference execution)."""
    for name in loop_kernel_names():
        kernel = get_kernel(name)
        loop_program = kernel_program(name)
        unrolled_program = kernel_program(kernel.unrolled)
        environment = _seed_environment(loop_program)
        loop_result = session.compile_program(loop_program)
        loop_out = loop_result.simulate(dict(environment))
        reference = loop_program.execute(dict(environment))
        for key, value in reference.items():
            if key.startswith(OPT_TEMP_PREFIXES):
                continue
            assert loop_out.get(key, 0) == value, (name, key)
        unrolled_out = session.compile_program(unrolled_program).simulate(
            dict(environment)
        )
        for key in unrolled_program.all_variables():
            if key in loop_out:
                assert loop_out[key] == unrolled_out.get(key, 0), (name, key)


def measure_code_sizes(session: Session) -> Dict[str, Dict[str, int]]:
    sizes: Dict[str, Dict[str, int]] = {}
    for name in loop_kernel_names():
        kernel = get_kernel(name)
        sizes[name] = {
            "loop": session.compile_program(kernel_program(name)).code_size,
            "unrolled": session.compile_program(
                kernel_program(kernel.unrolled)
            ).code_size,
        }
    return sizes


def measure_compile_time(session: Session, names) -> float:
    programs = [kernel_program(name) for name in names]
    for program in programs:  # warm caches / labelling memo
        session.compile_program(program)
    started = time.perf_counter()
    for _ in range(TIMING_PASSES):
        for program in programs:
            session.compile_program(program)
    return time.perf_counter() - started


def block_local_session(tms_result) -> Session:
    """A session running the block-local stages only (fold/dce: no
    rotation, no LICM, no value numbering, no hardware loops) -- the
    baseline the global pipeline is measured against.  Block-local CSE
    changes none of these kernels, so the baseline does not run it."""
    config = PipelineConfig()
    manager = PassManager.from_config(config)
    manager.remove("opt")
    manager.insert_before(
        "select", OptimizationPass(OptPipeline(stages=("fold", "dce")))
    )
    return Session(tms_result, config=config, pass_manager=manager)


def measure_global_opt(tms_result) -> Dict[str, object]:
    """Global pipeline vs. block-local baseline on the loop-form kernels:
    per-kernel code sizes, totals, and hardware-loop counts."""
    global_session = Session(tms_result)
    local_session = block_local_session(tms_result)
    kernels: Dict[str, Dict[str, int]] = {}
    hw_loops = 0
    for name in loop_kernel_names():
        global_result = global_session.compile_program(kernel_program(name))
        local_result = local_session.compile_program(kernel_program(name))
        hw_loops += global_result.metrics.opt_hw_loops
        kernels[name] = {
            "global": global_result.code_size,
            "block_local": local_result.code_size,
            "hw_loops": global_result.metrics.opt_hw_loops,
            "licm_hoisted": global_result.metrics.opt_licm_hoisted,
        }
    global_total = sum(entry["global"] for entry in kernels.values())
    local_total = sum(entry["block_local"] for entry in kernels.values())
    return {
        "kernels": kernels,
        "code_size_global_total": global_total,
        "code_size_block_local_total": local_total,
        "code_size_ratio": round(global_total / local_total, 4)
        if local_total
        else 0.0,
        "hw_loops_total": hw_loops,
    }


def run(tms_result) -> Dict[str, object]:
    session = Session(tms_result)
    assert_loop_forms_equivalent(session)
    sizes = measure_code_sizes(session)
    loop_names = loop_kernel_names()
    unrolled_names = [get_kernel(name).unrolled for name in loop_names]
    time_loop = measure_compile_time(session, loop_names)
    time_unrolled = measure_compile_time(session, unrolled_names)
    loop_total = sum(entry["loop"] for entry in sizes.values())
    unrolled_total = sum(entry["unrolled"] for entry in sizes.values())
    return {
        "kernels": sizes,
        "code_size_loop_total": loop_total,
        "code_size_unrolled_total": unrolled_total,
        "code_size_ratio": round(loop_total / unrolled_total, 4)
        if unrolled_total
        else 0.0,
        "compile_time_loop_s": round(time_loop, 6),
        "compile_time_unrolled_s": round(time_unrolled, 6),
        "compile_speedup": round(time_unrolled / time_loop, 3) if time_loop else 0.0,
        "timing_passes": TIMING_PASSES,
    }


# ---------------------------------------------------------------------------
# The asserted benchmark (CI smoke mode runs exactly this)
# ---------------------------------------------------------------------------


def test_loop_forms_equivalent_and_smaller(tms_result):
    results = run(tms_result)
    # Loop bodies are emitted once: across the suite the loop forms must
    # be smaller than their fully unrolled counterparts even after paying
    # for branch and nop words.
    assert results["code_size_loop_total"] < results["code_size_unrolled_total"], (
        "loop forms are not smaller: %d vs %d words"
        % (results["code_size_loop_total"], results["code_size_unrolled_total"])
    )


def test_global_opt_strictly_beats_block_local(tms_result):
    results = measure_global_opt(tms_result)
    # Loop rotation removes the dedicated test block of every while-form
    # kernel (one branch word each), so on the TMS320C25 the global
    # pipeline must be *strictly* smaller across the loop suite than the
    # block-local fold/cse/dce baseline -- and never worse per kernel.
    assert (
        results["code_size_global_total"] < results["code_size_block_local_total"]
    ), "global optimizer not strictly smaller: %d vs %d words" % (
        results["code_size_global_total"],
        results["code_size_block_local_total"],
    )
    for name, entry in results["kernels"].items():
        assert entry["global"] <= entry["block_local"], (
            "%s: global %d words vs block-local %d"
            % (name, entry["global"], entry["block_local"])
        )
    # The repeat mechanism actually engages on this target.
    assert results["hw_loops_total"] >= len(loop_kernel_names())
