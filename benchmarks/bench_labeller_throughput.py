"""Table-driven vs. interpretive BURS labelling throughput.

The paper's selectors are iburg-generated table matchers; our
:class:`~repro.selector.burs.CodeSelector` is an on-demand tree-parsing
automaton over tables compiled offline (the grammar's depth-one normal
form, precomputed chain closure) with memoized transitions between
cost-normalized states.  This benchmark measures what that buys on the
TMS320C25 grammar and asserts the table-driven path labels at least 3x
the interpretive baseline's throughput.

Methodology: every measured pass labels **freshly built subject trees**
(new ``SubjectNode`` objects, as every real compile produces), so the
asserted number covers first-touch transitions plus steady-state memo
hits across a repetitive batch stream.  The same-tree relabelling regime
(repeated ``node_cost`` probes) and the memo-less regime (every node
computes its transition) are reported as separate, unasserted numbers.  A
differential harness first proves both matchers produce byte-identical
covers (cost and rule index sequence per statement), so the speedup is
never bought with a different answer.
"""

from __future__ import annotations

import time
from typing import List

from repro.codegen.selection import build_subject_tree
from repro.frontend import lower_to_program
from repro.ir import bind_program
from repro.selector.burs import CodeSelector
from repro.selector.subject import SubjectNode

#: Floor asserted on fresh-tree labelling:
#: (table-driven nodes/s) / (interpretive nodes/s).
SPEEDUP_FLOOR = 3.0

#: Floor asserted on the fresh-tree full select() path.
SELECT_SPEEDUP_FLOOR = 1.5

#: Fresh copies of the workload per measured pass; sized so the slowest
#: (interpretive) measurement takes a few hundred milliseconds.
WORKLOAD_COPIES = 100


def _sum_of_products(terms: int) -> str:
    lines = ["int x[%d], h[%d], y;" % (terms, terms)]
    expression = " + ".join("x[%d] * h[%d]" % (i, i) for i in range(terms))
    lines.append("y = %s;" % expression)
    return "\n".join(lines)


def _iir_section(taps: int) -> str:
    lines = ["int w[%d], a[%d], b[%d], y, acc;" % (taps, taps, taps)]
    acc = " + ".join("w[%d] * a[%d]" % (i, i) for i in range(taps))
    out = " + ".join("w[%d] * b[%d]" % (i, i) for i in range(taps))
    lines.append("acc = %s;" % acc)
    lines.append("y = %s;" % out)
    return "\n".join(lines)


def build_workload(tms_result) -> List[SubjectNode]:
    """Subject trees of a mixed DSP batch (sum-of-products of several
    sizes plus biquad-style sections).  Every call builds fresh
    ``SubjectNode`` objects, exactly like a real compile stream."""
    sources = [
        _sum_of_products(2),
        _sum_of_products(4),
        _sum_of_products(8),
        _sum_of_products(16),
        _iir_section(4),
        _iir_section(8),
    ]
    subjects: List[SubjectNode] = []
    for index, source in enumerate(sources):
        program = lower_to_program(source, name="wl%d" % index)
        binding = bind_program(program, tms_result.netlist)
        for block in program.blocks:
            for statement in block.statements:
                subjects.append(build_subject_tree(statement, binding))
    return subjects


def assert_identical_covers(
    table_selector: CodeSelector,
    interpretive_selector: CodeSelector,
    subjects: List[SubjectNode],
) -> int:
    """The differential harness: every workload statement must cover
    identically under both matchers.  Returns the total cover cost."""
    total = 0
    for subject in subjects:
        expected = interpretive_selector.select(subject)
        got = table_selector.select(subject)
        assert got.cost == expected.cost, (got.cost, expected.cost)
        assert got.rule_indices() == expected.rule_indices()
        total += got.cost
    return total


def measure_fresh_tree_throughput(
    selector: CodeSelector, tms_result, select: bool = False
) -> float:
    """Nodes per second labelling (or selecting) a stream of freshly
    built subject trees; tree construction happens outside the timer."""
    batches = [build_workload(tms_result) for _ in range(WORKLOAD_COPIES)]
    nodes = sum(subject.size() for batch in batches for subject in batch)
    operation = selector.select if select else selector.label
    started = time.perf_counter()
    for batch in batches:
        for subject in batch:
            operation(subject)
    return nodes / (time.perf_counter() - started)


def measure_relabel_throughput(selector: CodeSelector, tms_result) -> float:
    """Nodes per second relabelling the *same* tree objects repeatedly
    (the repeated ``node_cost`` regime: every node is one memo hit)."""
    subjects = build_workload(tms_result)
    nodes_per_pass = sum(subject.size() for subject in subjects)
    for subject in subjects:  # warm
        selector.label(subject)
    passes = 0
    started = time.perf_counter()
    while True:
        for subject in subjects:
            selector.label(subject)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= 0.1 and passes >= 2:
            return nodes_per_pass * passes / elapsed


def run(tms_result) -> dict:
    tables = tms_result.selector.tables
    total_cost = assert_identical_covers(
        CodeSelector(tms_result.grammar, tables=tables),
        CodeSelector(tms_result.grammar, tables=tables, matcher="interpretive"),
        build_workload(tms_result),
    )

    # Fresh selectors for every measurement; fresh trees inside each one.
    table_selector = CodeSelector(tms_result.grammar, tables=tables)
    table_nps = measure_fresh_tree_throughput(table_selector, tms_result)
    interp_nps = measure_fresh_tree_throughput(
        CodeSelector(tms_result.grammar, tables=tables, matcher="interpretive"),
        tms_result,
    )
    table_select_nps = measure_fresh_tree_throughput(
        CodeSelector(tms_result.grammar, tables=tables), tms_result, select=True
    )
    interp_select_nps = measure_fresh_tree_throughput(
        CodeSelector(tms_result.grammar, tables=tables, matcher="interpretive"),
        tms_result,
        select=True,
    )
    # Unasserted regimes: no memoization at all, and same-tree relabelling.
    memoless_nps = measure_fresh_tree_throughput(
        CodeSelector(tms_result.grammar, tables=tables, memo_size=0), tms_result
    )
    relabel_nps = measure_relabel_throughput(
        CodeSelector(tms_result.grammar, tables=tables), tms_result
    )
    stats = table_selector.stats()
    statements_per_pass = len(build_workload(tms_result))
    return {
        "statements_per_pass": statements_per_pass,
        "workload_copies": WORKLOAD_COPIES,
        "workload_cover_cost": total_cost,
        "table_nodes_per_s": round(table_nps, 1),
        "interpretive_nodes_per_s": round(interp_nps, 1),
        "speedup": round(table_nps / interp_nps, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "select_speedup": round(table_select_nps / interp_select_nps, 2),
        "select_speedup_floor": SELECT_SPEEDUP_FLOOR,
        "memoless_speedup": round(memoless_nps / interp_nps, 2),
        "relabel_speedup": round(relabel_nps / interp_nps, 2),
        "memo_hit_rate": round(stats["memo_hit_rate"], 4),
        "tables_build_time_s": round(tables.build_time_s, 6),
    }


# ---------------------------------------------------------------------------
# The asserted benchmark (CI smoke mode runs exactly this)
# ---------------------------------------------------------------------------


def test_table_driven_labelling_is_3x_interpretive(tms_result):
    results = run(tms_result)
    assert results["memo_hit_rate"] > 0.9  # fresh trees, repeated structures
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        "table-driven labelling only %.2fx the interpretive baseline "
        "(table %.0f nodes/s, interpretive %.0f nodes/s)"
        % (
            results["speedup"],
            results["table_nodes_per_s"],
            results["interpretive_nodes_per_s"],
        )
    )
    # End-to-end selection on fresh trees must also win clearly.
    assert results["select_speedup"] >= SELECT_SPEEDUP_FLOOR, results
