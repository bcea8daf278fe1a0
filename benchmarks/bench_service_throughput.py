"""Throughput of the concurrent compile service vs. naive per-request setup.

The service layer exists to amortize target-side setup (retargeting +
selector construction) across requests: a :class:`SessionPool` pays that
cost once per distinct ``(target, config)`` key, while a naive service
would pay it for *every* request.  This benchmark measures both on a
mixed-target batch and asserts the pooled-concurrent path is at least 2x
faster -- the quantity that decides whether the service can serve heavy
traffic.
"""

from __future__ import annotations

import time
from typing import List, Tuple

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
