"""Throughput of the concurrent compile service vs. naive per-request setup.

The service layer exists to amortize target-side setup (retargeting +
selector construction) across requests: a :class:`SessionPool` pays that
cost once per distinct ``(target, config)`` key, while a naive service
would pay it for *every* request.  This benchmark measures both on a
mixed-target batch and asserts the pooled-concurrent path is at least 2x
faster -- the quantity that decides whether the service can serve heavy
traffic.

Run as a script to write ``BENCH_results.json`` (code-size and throughput
numbers) for the CI artifact trail::

    python benchmarks/bench_service_throughput.py --output BENCH_results.json
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Tuple

from repro.baselines import hand_reference_size
from repro.dspstone import all_kernel_names
from repro.service import CompileRequest, SessionPool, ThreadCompileBackend
from repro.toolchain import RetargetCache, Toolchain

#: The mixed-target request stream: three distinct targets, twelve
#: requests, kernels and raw sources interleaved.
MIXED_TARGETS = ("demo", "ref", "tms320c25")


def make_batch() -> List[CompileRequest]:
    kernels = ["real_update", "complex_multiply", "dot_product", "fir"]
    sources = [
        "int a, b, c, d; d = c + a * b;",
        "int a, b; b = a + 1;",
    ]
    requests: List[CompileRequest] = []
    index = 0
    for target in MIXED_TARGETS:
        for kernel in kernels[:3]:
            requests.append(
                CompileRequest(
                    target=target, kernel=kernel, request_id="r%d" % index
                )
            )
            index += 1
    for target, source in zip(MIXED_TARGETS, sources * 2):
        requests.append(
            CompileRequest(
                target=target,
                source=source,
                name="src%d" % index,
                request_id="r%d" % index,
            )
        )
        index += 1
    return requests


def run_naive_sequential(requests: List[CompileRequest]) -> float:
    """The strawman service: every request builds its own toolchain and
    session from scratch (no shared cache, no pooling, no threads)."""
    started = time.perf_counter()
    for request in requests:
        toolchain = Toolchain(cache=RetargetCache(directory=False))
        session = toolchain.session(request.target, config=request.resolved_config())
        if request.kernel is not None:
            session.compile_kernel(request.kernel)
        else:
            session.compile(request.source, name=request.name)
    return time.perf_counter() - started


def run_pooled_concurrent(
    requests: List[CompileRequest],
) -> Tuple[float, ThreadCompileBackend]:
    """The real service: the thread backend's shared session pool and
    batch fan-out."""
    backend = ThreadCompileBackend()
    jobs = [request.to_dict() for request in requests]
    started = time.perf_counter()
    responses = backend.run_jobs(jobs)
    elapsed = time.perf_counter() - started
    assert all(response["ok"] for response in responses), [
        response.get("error") for response in responses if not response["ok"]
    ]
    return elapsed, backend


# ---------------------------------------------------------------------------
# The asserted benchmark
# ---------------------------------------------------------------------------


def test_pooled_concurrent_beats_naive_sequential():
    """Pooled-concurrent batching must be >= 2x faster than paying full
    per-request setup, on a mixed-target batch."""
    requests = make_batch()
    assert len(requests) >= 8
    assert len({r.target for r in requests}) == len(MIXED_TARGETS)

    naive_s = run_naive_sequential(requests)
    pooled_s, backend = run_pooled_concurrent(requests)

    # the pool retargeted once per distinct target, not once per request
    assert backend.service.pool.retarget_count == len(MIXED_TARGETS)
    speedup = naive_s / pooled_s
    assert speedup >= 2.0, (
        "pooled-concurrent service should amortize retargeting: "
        "naive %.3fs vs pooled %.3fs (%.1fx)" % (naive_s, pooled_s, speedup)
    )


def test_disabled_tracing_overhead_is_under_two_percent():
    """With no tracer installed, the pipeline's span sites hit the null
    tracer.  The null-path cost -- (spans per compile) x (cost per null
    span) -- must stay under 2% of a median compile.

    This formulation is robust where a wall-clock A/B is not: the
    instrumentation cannot be compiled out, so the measurable quantity
    is the null tracer's per-site cost, scaled by how many sites one
    real compile executes (counted from a traced run of the same
    kernel).
    """
    from repro.obs.trace import NULL_TRACER, Tracer

    pool = SessionPool()
    session = pool.session("tms320c25")
    session.compile_kernel("fir_loop")  # warm the session

    tracer = Tracer(name="bench")
    traced = session.compile_program(_kernel_program("fir_loop"), tracer=tracer)
    trace = traced.trace
    site_count = sum(
        1 for e in trace["traceEvents"] if e.get("ph") in ("X", "i")
    )
    assert site_count > 0

    iterations = 20000
    started = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("x"):
            pass
    per_span_s = (time.perf_counter() - started) / iterations

    compiles = []
    for _ in range(5):
        started = time.perf_counter()
        session.compile_program(_kernel_program("fir_loop"))
        compiles.append(time.perf_counter() - started)
    median_compile_s = sorted(compiles)[len(compiles) // 2]

    overhead = site_count * per_span_s / median_compile_s
    assert overhead < 0.02, (
        "disabled tracing costs %.2f%% of a compile (%d sites x %.0fns "
        "vs %.3fms compile)"
        % (
            100.0 * overhead,
            site_count,
            per_span_s * 1e9,
            median_compile_s * 1e3,
        )
    )


def _kernel_program(name):
    from repro.dspstone import kernel_program

    return kernel_program(name)


# ---------------------------------------------------------------------------
# BENCH_results.json writer (CI artifact)
# ---------------------------------------------------------------------------


def collect_code_sizes(target: str = "tms320c25") -> dict:
    """Code size of every DSPStone kernel on ``target`` (figure-2 data)."""
    pool = SessionPool()
    session = pool.session(target)
    sizes = {}
    for kernel in all_kernel_names():
        compiled = session.compile_kernel(kernel)
        entry = {
            "code_size": compiled.code_size,
            "operation_count": compiled.operation_count,
            "spill_count": compiled.spill_count,
        }
        try:
            hand = hand_reference_size(kernel)
            entry["hand_reference"] = hand
            entry["relative_percent"] = round(100.0 * compiled.code_size / hand, 1)
        except KeyError:
            pass
        sizes[kernel] = entry
    return sizes


def collect_throughput() -> dict:
    requests = make_batch()
    naive_s = run_naive_sequential(requests)
    pooled_s, backend = run_pooled_concurrent(requests)
    return {
        "requests": len(requests),
        "distinct_targets": len(MIXED_TARGETS),
        "naive_sequential_s": round(naive_s, 4),
        "pooled_concurrent_s": round(pooled_s, 4),
        "speedup": round(naive_s / pooled_s, 2),
        "requests_per_second_pooled": round(len(requests) / pooled_s, 1),
        "pool_retargets": backend.service.pool.retarget_count,
    }


def main(output: str = "BENCH_results.json") -> dict:
    # Merge into an existing results file (the labeller bench writes its
    # own section the same way), so the CI steps can run in any order.
    results = {"schema": 1}
    if os.path.exists(output):
        try:
            with open(output, "r") as handle:
                results = json.load(handle)
        except ValueError:
            pass
    results["code_size"] = {"tms320c25": collect_code_sizes("tms320c25")}
    results["service_throughput"] = collect_throughput()
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % output)
    print(json.dumps(results["service_throughput"], indent=2))
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_results.json")
    main(parser.parse_args().output)
