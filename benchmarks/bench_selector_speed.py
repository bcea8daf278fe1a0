"""Tree-parser throughput (section 3.2 of the paper) and retarget caching.

The paper notes that parsers generated by iburg label expression trees in
time approximately linear in the number of nodes, emitting "several hundred
RT templates per CPU second" on a 1996 workstation.  These benchmarks
measure the analogous quantities for our Python selector: labelling time as
a function of expression-tree size (linearity) and the resulting
RT-per-second throughput on the TMS320C25 grammar.

The cache benchmarks at the bottom measure cold-vs-warm retargeting
through :class:`repro.toolchain.RetargetCache` -- the quantity that makes
repeated `Toolchain.for_target(...)` sessions near-free.
"""

from __future__ import annotations

import time

import pytest

from repro.codegen.selection import select_statement
from repro.frontend import lower_to_program
from repro.ir import bind_program
from repro.toolchain import RetargetCache, default_registry


def _sum_of_products(terms):
    """A DSP-style sum of products with the given number of terms."""
    lines = ["int x[%d], h[%d], y;" % (terms, terms)]
    expression = " + ".join("x[%d] * h[%d]" % (i, i) for i in range(terms))
    lines.append("y = %s;" % expression)
    return "\n".join(lines)


@pytest.mark.parametrize("terms", [2, 4, 8, 16, 32])
def test_selector_throughput_sum_of_products(benchmark, tms_result, terms):
    """Label + reduce a sum-of-products tree of growing size."""
    program = lower_to_program(_sum_of_products(terms), name="sop%d" % terms)
    binding = bind_program(program, tms_result.netlist)
    statement = program.single_block().statements[0]
    selector = tms_result.selector

    code = benchmark(select_statement, statement, selector, binding)
    benchmark.extra_info["terms"] = terms
    benchmark.extra_info["tree_nodes"] = 2 + 3 * terms
    benchmark.extra_info["selected_rts"] = len(code.instances)
    benchmark.extra_info["grammar_rt_rules"] = len(tms_result.grammar.rt_rules())
    assert code.instances


def test_selector_throughput_large_grammar(benchmark, retargeted):
    """Selection against the largest grammar (the ``ref`` machine, ~2000 RT
    rules) to measure the constant factor the grammar size contributes."""
    result = retargeted["ref"]
    program = lower_to_program(_sum_of_products(8), name="sop8")
    binding = bind_program(program, result.netlist)
    statement = program.single_block().statements[0]

    code = benchmark(select_statement, statement, result.selector, binding)
    benchmark.extra_info["grammar_rt_rules"] = len(result.grammar.rt_rules())
    benchmark.extra_info["selected_rts"] = len(code.instances)
    assert code.instances


@pytest.mark.parametrize("target", ["tms320c25", "ref"])
def test_generated_matcher_compilation(benchmark, retargeted, target):
    """Parser generation + compilation share of the retargeting time."""
    from repro.selector.emit import compile_matcher_module

    result = retargeted[target]
    module = benchmark(
        compile_matcher_module, result.grammar, tables=result.selector.tables
    )
    benchmark.extra_info["rules"] = len(module.RULES)


# ---------------------------------------------------------------------------
# Retarget caching: cold vs. warm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["tms320c25", "ref"])
def test_retarget_cache_cold_vs_warm(tmp_path, target):
    """Cold retarget vs. warm cache hit on one built-in model.

    The warm path (content-hash lookup + in-memory result) must beat the
    cold path (full retargeting flow) by at least an order of magnitude --
    that speedup is the whole point of the cache.  ``ref``, the largest
    grammar, guards the disk tier's matcher regeneration.
    """
    hdl = default_registry().hdl_source(target)
    cache = RetargetCache(directory=tmp_path)

    start = time.perf_counter()
    _result, hit = cache.get_or_retarget(hdl)
    cold_s = time.perf_counter() - start
    assert not hit

    start = time.perf_counter()
    _result, hit = cache.get_or_retarget(hdl)
    warm_s = time.perf_counter() - start
    assert hit

    # Warm hit through a fresh process-equivalent (disk tier only).
    disk_cache = RetargetCache(directory=tmp_path)
    start = time.perf_counter()
    _result, hit = disk_cache.get_or_retarget(hdl)
    disk_warm_s = time.perf_counter() - start
    assert hit

    speedup = cold_s / max(warm_s, 1e-9)
    disk_speedup = cold_s / max(disk_warm_s, 1e-9)
    print(
        "\nretarget %s: cold %.3fs, warm(memory) %.6fs (%.0fx), "
        "warm(disk) %.4fs (%.1fx)"
        % (target, cold_s, warm_s, speedup, disk_warm_s, disk_speedup)
    )
    assert speedup >= 10.0, "warm cache hit only %.1fx faster than cold" % speedup
    # The disk tier additionally pays unpickling plus matcher regeneration,
    # so it clears a lower bar; the memory tier is the steady-state path.
    assert disk_speedup >= 2.0, (
        "disk-warm cache hit only %.1fx faster than cold" % disk_speedup
    )


def test_retarget_cache_warm_hit_latency(benchmark, tmp_path):
    """Steady-state warm-hit latency (memory tier), as a pytest-benchmark."""
    hdl = default_registry().hdl_source("tms320c25")
    cache = RetargetCache(directory=tmp_path)
    cache.get_or_retarget(hdl)  # prime

    def warm_hit():
        result, hit = cache.get_or_retarget(hdl)
        assert hit
        return result

    result = benchmark(warm_hit)
    benchmark.extra_info["templates"] = result.template_count
    benchmark.extra_info["cache_hits"] = cache.hits
