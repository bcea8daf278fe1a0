"""Throughput of the differential fuzzing campaign and its oracle overhead.

The fuzz campaign's usefulness scales with how many programs it can push
through the full differential harness per second.  This benchmark
measures three quantities on a fixed-seed campaign:

* **generation throughput** -- programs generated + rendered + re-lowered
  per second (the pure-frontend ceiling, no compilation);
* **campaign throughput** -- programs fully cross-checked per second with
  every oracle on one target;
* **oracle overhead** -- campaign cost relative to compiling each program
  once (the ``sim``/``opt``/``matcher`` legs compile the program up to
  four times and simulate it up to five, so the overhead factor says
  what a CI fuzz-smoke budget actually buys).

Run as a script to merge a ``fuzz_throughput`` section into
``BENCH_results.json``::

    python benchmarks/bench_fuzz_throughput.py --output BENCH_results.json
"""

from __future__ import annotations

import json
import os
import time

from repro.frontend.lowering import lower_to_program
from repro.fuzz import generate_source, run_campaign
from repro.fuzz.oracles import TargetHarness

#: Fixed benchmark shape: one fast target, a two-figure program budget.
BENCH_TARGET = "ref"
BENCH_SEED = 0
BENCH_BUDGET = 40


def measure_generation(budget: int = BENCH_BUDGET) -> dict:
    """Generation + rendering + lowering, no compilation at all."""
    started = time.perf_counter()
    statements = 0
    for index in range(budget):
        source = generate_source(BENCH_SEED * 1_000_003 + index)
        program = lower_to_program(source, name="gen%d" % index)
        statements += sum(len(block.statements) for block in program.blocks)
    elapsed = time.perf_counter() - started
    return {
        "programs": budget,
        "elapsed_s": round(elapsed, 4),
        "programs_per_s": round(budget / elapsed, 1) if elapsed else 0.0,
        "statements": statements,
    }


def measure_compile_baseline(harness: TargetHarness, budget: int = BENCH_BUDGET) -> dict:
    """One optimized compile per program: the no-oracle baseline."""
    from repro.diagnostics import ReproError

    started = time.perf_counter()
    compiled = 0
    for index in range(budget):
        source = generate_source(BENCH_SEED * 1_000_003 + index)
        program = lower_to_program(source, name="base%d" % index)
        try:
            harness.session_opt.compile_program(program)
            compiled += 1
        except ReproError:
            pass  # uncoverable on this target; same skip the campaign takes
    elapsed = time.perf_counter() - started
    return {
        "programs": budget,
        "compiled": compiled,
        "elapsed_s": round(elapsed, 4),
        "programs_per_s": round(budget / elapsed, 1) if elapsed else 0.0,
    }


def measure_campaign(harness: TargetHarness, budget: int = BENCH_BUDGET) -> dict:
    """The full differential campaign on one target, all oracles."""
    report = run_campaign(
        seed=BENCH_SEED,
        budget=budget,
        harnesses={BENCH_TARGET: harness},
        minimize=False,
    )
    assert report.ok, [finding.to_dict() for finding in report.findings]
    return {
        "programs": report.programs,
        "checks": report.checks,
        "skips": report.skips,
        "elapsed_s": round(report.elapsed_s, 4),
        "programs_per_s": round(report.programs_per_s, 1),
    }


def collect() -> dict:
    harness = TargetHarness.create(BENCH_TARGET)
    generation = measure_generation()
    baseline = measure_compile_baseline(harness)
    campaign = measure_campaign(harness)
    overhead = (
        round(campaign["elapsed_s"] / baseline["elapsed_s"], 2)
        if baseline["elapsed_s"]
        else 0.0
    )
    return {
        "target": BENCH_TARGET,
        "seed": BENCH_SEED,
        "budget": BENCH_BUDGET,
        "generation": generation,
        "compile_baseline": baseline,
        "campaign": campaign,
        "oracle_overhead_factor": overhead,
    }


# ---------------------------------------------------------------------------
# The asserted benchmark
# ---------------------------------------------------------------------------


def test_campaign_throughput_is_usable_for_ci():
    """A CI fuzz-smoke budget (hundreds of programs) must finish in
    minutes: require at least one fully cross-checked program per second
    on one target, and a bounded oracle overhead."""
    results = collect()
    assert results["campaign"]["programs_per_s"] >= 1.0, results
    # the campaign runs <= 4 compiles + 5 simulations per program; the
    # overhead over a single compile must stay within that envelope
    assert results["oracle_overhead_factor"] <= 25.0, results


# ---------------------------------------------------------------------------
# BENCH_results.json writer (CI artifact)
# ---------------------------------------------------------------------------


def main(output: str = "BENCH_results.json") -> dict:
    results = {"schema": 1}
    if os.path.exists(output):
        try:
            with open(output, "r") as handle:
                results = json.load(handle)
        except ValueError:
            pass
    results["fuzz_throughput"] = collect()
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % output)
    print(json.dumps(results["fuzz_throughput"], indent=2))
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_results.json")
    main(parser.parse_args().output)
