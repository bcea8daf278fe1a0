"""Effect of the pre-selection IR optimizer on labelling load and compile time.

The BURS labeller's cost is proportional to the subject-tree nodes it
must label, and PR 3's table-driven matcher made each node cheap -- the
optimizer attacks the *other* factor and simply hands the selector fewer
nodes.  This benchmark measures that on the TMS320C25:

* **labelled nodes** -- per-compile ``metrics.nodes_labelled`` summed
  over a suite, measured through a *memo-disabled* selector
  (``memo_size=0``) so every subject node the matcher visits is counted
  exactly once: the number is the true subject-tree workload, not an
  artifact of a warm memo.  The CSE-heavy synthetic suite
  must shrink by at least ``NODES_REDUCTION_FLOOR`` (20%); the DSPStone
  kernels (no repeated subexpressions, no literal arithmetic) are
  reported unasserted as the no-opportunity baseline.
* **end-to-end compile time** -- ``Session.compile`` wall clock with the
  normal (memoized) pipeline, optimizer on vs. off, reported unasserted
  (the optimizer pays for itself on CSE-heavy input and costs a small
  constant otherwise).

A differential harness first proves the optimized pipeline simulates
observably identically to the unoptimized one on every suite program and
never produces more instruction words, so a measured win can never be
bought with a wrong or bigger answer.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.dspstone import all_kernel_names, kernel_program
from repro.frontend.lowering import lower_to_program
from repro.opt import TEMP_PREFIX
from repro.selector.burs import CodeSelector
from repro.toolchain import PipelineConfig, Session

#: Asserted floor on the labelled-node reduction of the synthetic suite.
NODES_REDUCTION_FLOOR = 0.20

#: Compile passes per timing measurement.
TIMING_PASSES = 5


def _shared_sum_source(statements: int, terms: int) -> str:
    """``statements`` assignments all reusing one ``terms``-product sum
    (the classic filter-bank shape cross-statement CSE exists for)."""
    lines = [
        "int x[%d], h[%d];" % (terms, terms),
        "int %s;" % ", ".join(
            ["e%d" % i for i in range(statements)]
            + ["y%d" % i for i in range(statements)]
        ),
    ]
    shared = " + ".join("x[%d] * h[%d]" % (i, i) for i in range(terms))
    for i in range(statements):
        operator = "+" if i % 2 == 0 else "-"
        lines.append("y%d = %s %s e%d;" % (i, shared, operator, i))
    return "\n".join(lines)


def build_synthetic_suite() -> List[Tuple[str, object]]:
    """(name, Program) pairs of the CSE-heavy synthetic suite."""
    sources = {
        "shared_sum_4x6": _shared_sum_source(statements=6, terms=4),
        "shared_sum_8x4": _shared_sum_source(statements=4, terms=8),
        "repeated_square": (
            "int a, b, c, y0, y1;\n"
            "y0 = (a * b + c) * (a * b + c);\n"
            "y1 = (a * b + c) * a;\n"
        ),
    }
    return [
        (name, lower_to_program(source, name=name))
        for name, source in sorted(sources.items())
    ]


def build_kernel_suite() -> List[Tuple[str, object]]:
    """Every DSPStone kernel that compiles on the TMS320C25."""
    return [(name, kernel_program(name)) for name in all_kernel_names()]


def _memoless_session(tms_result, use_optimizer: bool) -> Session:
    """A session whose selector labels every node (memo disabled),
    so ``metrics.nodes_labelled`` counts the full subject-tree workload."""
    session = Session(
        tms_result, config=PipelineConfig(use_optimizer=use_optimizer)
    )
    session.selector = CodeSelector(
        tms_result.grammar, tables=tms_result.selector.tables, memo_size=0
    )
    return session


def assert_equivalent_and_never_worse(tms_result, suite) -> None:
    """The differential harness: optimized vs. unoptimized pipeline on
    every suite program -- identical observable simulation, never more
    instruction words."""
    optimizing = Session(tms_result)
    plain = Session(tms_result, config=PipelineConfig(use_optimizer=False))
    for name, program in suite:
        optimized = optimizing.compile_program(program)
        unoptimized = plain.compile_program(program)
        assert optimized.code_size <= unoptimized.code_size, name
        environment = {
            variable: (index * 23 + 7) % 199 + 1
            for index, variable in enumerate(sorted(program.all_variables()))
        }
        got = {
            key: value
            for key, value in optimized.simulate(dict(environment)).items()
            if not key.startswith(TEMP_PREFIX)
        }
        expected = {
            key: value
            for key, value in unoptimized.simulate(dict(environment)).items()
            if not key.startswith(TEMP_PREFIX)
        }
        assert got == expected, name


def measure_labelled_nodes(tms_result, suite, use_optimizer: bool) -> int:
    session = _memoless_session(tms_result, use_optimizer)
    return sum(
        session.compile_program(program).metrics.nodes_labelled
        for _name, program in suite
    )


def measure_compile_time(tms_result, suite, use_optimizer: bool) -> float:
    """Wall-clock seconds for TIMING_PASSES full-suite compile passes on
    a normal (memoized) session."""
    session = Session(
        tms_result, config=PipelineConfig(use_optimizer=use_optimizer)
    )
    for _name, program in suite:  # warm the labelling memo / caches
        session.compile_program(program)
    started = time.perf_counter()
    for _ in range(TIMING_PASSES):
        for _name, program in suite:
            session.compile_program(program)
    return time.perf_counter() - started


def _suite_section(tms_result, suite) -> Dict[str, object]:
    nodes_with = measure_labelled_nodes(tms_result, suite, use_optimizer=True)
    nodes_without = measure_labelled_nodes(tms_result, suite, use_optimizer=False)
    time_with = measure_compile_time(tms_result, suite, use_optimizer=True)
    time_without = measure_compile_time(tms_result, suite, use_optimizer=False)
    reduction = 1.0 - (nodes_with / nodes_without) if nodes_without else 0.0
    return {
        "programs": len(suite),
        "nodes_labelled_opt": nodes_with,
        "nodes_labelled_no_opt": nodes_without,
        "nodes_reduction": round(reduction, 4),
        "compile_time_opt_s": round(time_with, 6),
        "compile_time_no_opt_s": round(time_without, 6),
        "compile_speedup": round(time_without / time_with, 3) if time_with else 0.0,
    }


def run(tms_result) -> Dict[str, object]:
    synthetic = build_synthetic_suite()
    kernels = build_kernel_suite()
    assert_equivalent_and_never_worse(tms_result, synthetic + kernels)
    results = {
        "synthetic": _suite_section(tms_result, synthetic),
        "dspstone": _suite_section(tms_result, kernels),
        "nodes_reduction_floor": NODES_REDUCTION_FLOOR,
    }
    return results


# ---------------------------------------------------------------------------
# The asserted benchmark (CI smoke mode runs exactly this)
# ---------------------------------------------------------------------------


def test_optimizer_cuts_labelled_nodes_on_cse_heavy_suite(tms_result):
    results = run(tms_result)
    synthetic = results["synthetic"]
    assert synthetic["nodes_reduction"] >= NODES_REDUCTION_FLOOR, (
        "optimizer only removed %.1f%% of labelled nodes on the synthetic "
        "suite (%d -> %d)"
        % (
            100.0 * synthetic["nodes_reduction"],
            synthetic["nodes_labelled_no_opt"],
            synthetic["nodes_labelled_opt"],
        )
    )
    # The kernels have no CSE/folding opportunities: the optimizer must
    # be a no-op there, never an inflation.
    dspstone = results["dspstone"]
    assert dspstone["nodes_labelled_opt"] <= dspstone["nodes_labelled_no_opt"]
