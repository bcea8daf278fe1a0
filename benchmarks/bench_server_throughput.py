"""Throughput of the compile-server backends under sustained mixed traffic.

Python threads cannot use more than one core for CPU-bound compilation,
so the thread-pool service (PR 2) is hardware-blind: eight workers
compile no faster than one.  The process backend exists to fix exactly
that, and this benchmark is its scoreboard:

* **backend comparison** -- one sustained mixed-target job stream
  (every DSPStone-capable built-in target, kernels and raw sources
  interleaved) through the thread backend and through the process
  backend; on hosts with >= 4 cores the process backend must be >= 2x
  the thread backend's throughput;
* **worker scaling** -- the same stream at one worker process and at
  the assertion width; scaling must be near-linear (>= 50% parallel
  efficiency, again only asserted with >= 4 cores);
* **HTTP front end** -- a client-thread load generator posting the
  stream at a live ``repro.server`` instance, then scraping
  ``/metrics`` to cross-check the server counted every request.
"""

from __future__ import annotations

import json
import os
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import pytest

from repro.server import start_server
from repro.service import ProcessCompileBackend, ThreadCompileBackend

#: The DSPStone-capable built-ins (the other three compile no kernel).
MIXED_TARGETS = ("demo", "ref", "tms320c25")

#: Kernels in the stream -- small enough to keep per-job cost ~ms, large
#: enough that the work dominates the envelope overhead.
STREAM_KERNELS = ("fir", "dot_product", "complex_multiply", "n_real_updates")

STREAM_SOURCES = (
    "int a, b, c, d; d = c + a * b;",
    "int p, q, r; r = (p + q) * (p - q);",
)

#: Minimum cores for the scaling assertions (the ISSUE-7 acceptance
#: criterion); below this the benchmark reports but does not assert.
ASSERT_MIN_CORES = 4


def make_traffic(jobs: int) -> List[dict]:
    """A deterministic mixed-target job stream of ``jobs`` entries."""
    stream: List[dict] = []
    for index in range(jobs):
        target = MIXED_TARGETS[index % len(MIXED_TARGETS)]
        if index % 5 == 4:
            source = STREAM_SOURCES[index % len(STREAM_SOURCES)]
            stream.append(
                {
                    "target": target,
                    "source": source,
                    "name": "src%d" % index,
                    "request_id": "r%d" % index,
                }
            )
        else:
            kernel = STREAM_KERNELS[index % len(STREAM_KERNELS)]
            stream.append(
                {"target": target, "kernel": kernel, "request_id": "r%d" % index}
            )
    return stream


def _drive(backend, jobs: List[dict]) -> Tuple[float, List[dict]]:
    """One timed pass of ``jobs`` through ``backend`` (which must
    already be warm)."""
    started = time.perf_counter()
    responses = backend.run_jobs(jobs)
    elapsed = time.perf_counter() - started
    bad = [r for r in responses if not r.get("ok")]
    assert not bad, "backend dropped/failed jobs: %r" % [r.get("error") for r in bad]
    assert len(responses) == len(jobs)
    return elapsed, responses


def run_thread_backend(jobs: List[dict], workers: Optional[int] = None) -> dict:
    backend = ThreadCompileBackend(workers=workers)
    try:
        _drive(backend, jobs[: len(MIXED_TARGETS) * 2])  # warm the pool
        elapsed, _ = _drive(backend, jobs)
    finally:
        backend.close()
    return {
        "workers": backend.workers,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_second": round(len(jobs) / elapsed, 1),
    }


def run_process_backend(jobs: List[dict], workers: int) -> dict:
    backend = ProcessCompileBackend(workers=workers, warm_targets=MIXED_TARGETS)
    try:
        _drive(backend, jobs[: len(MIXED_TARGETS) * 2])  # touch every worker
        elapsed, _ = _drive(backend, jobs)
        stats = backend.stats()
    finally:
        backend.close()
    assert stats["pool_retargets"] == 0, (
        "workers re-retargeted instead of hitting the shared spool: %r" % stats
    )
    return {
        "workers": workers,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_second": round(len(jobs) / elapsed, 1),
    }


# ---------------------------------------------------------------------------
# HTTP front-end load generation
# ---------------------------------------------------------------------------


def drive_http(jobs: List[dict], client_threads: int = 8,
               backend_kind: str = "thread") -> dict:
    """Post ``jobs`` at a live server from concurrent client threads and
    cross-check the scraped ``/metrics`` counters."""
    server = start_server(backend_kind=backend_kind, port=0)
    try:
        url = server.url

        def post(job: dict) -> dict:
            request = urllib.request.Request(
                url + "/compile?results=0",
                data=json.dumps(job).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())

        post(jobs[0])  # connection + session warm-up
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=client_threads) as executor:
            responses = list(executor.map(post, jobs))
        elapsed = time.perf_counter() - started
        assert all(r.get("ok") for r in responses), [
            r for r in responses if not r.get("ok")
        ]
        metrics_text = urllib.request.urlopen(url + "/metrics", timeout=30).read().decode()
        counted = sum(
            int(line.rsplit(" ", 1)[1])
            for line in metrics_text.splitlines()
            if line.startswith("repro_compile_requests_total{")
        )
        assert counted >= len(jobs) + 1, metrics_text  # +1 warm-up
        assert "repro_phase_seconds_bucket" in metrics_text
        assert "repro_label_memo_hit_rate" in metrics_text
    finally:
        server.close()
    return {
        "requests": len(jobs),
        "client_threads": client_threads,
        "elapsed_s": round(elapsed, 4),
        "requests_per_second": round(len(jobs) / elapsed, 1),
    }


# ---------------------------------------------------------------------------
# asserted benchmarks (pytest entry points)
# ---------------------------------------------------------------------------


def _smoke() -> bool:
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _traffic_size() -> int:
    return 24 if _smoke() else 60


def test_backends_agree_on_results():
    """Thread and process backends must produce identical envelopes
    (ok, name, code size) for the same stream."""
    jobs = make_traffic(9)
    thread_backend = ThreadCompileBackend(workers=2)
    try:
        thread_responses = thread_backend.run_jobs(jobs)
    finally:
        thread_backend.close()
    process_backend = ProcessCompileBackend(workers=2, warm_targets=MIXED_TARGETS)
    try:
        process_responses = process_backend.run_jobs(jobs)
    finally:
        process_backend.close()
    for thread_r, process_r in zip(thread_responses, process_responses):
        assert thread_r["ok"] and process_r["ok"]
        assert thread_r["name"] == process_r["name"]
        assert thread_r["target"] == process_r["target"]
        assert (
            thread_r["result"]["metrics"]["code_size"]
            == process_r["result"]["metrics"]["code_size"]
        )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < ASSERT_MIN_CORES,
    reason="scaling assertions need >= %d cores" % ASSERT_MIN_CORES,
)
def test_process_backend_scales_past_the_thread_pool():
    """The ISSUE-7 acceptance criterion: on >= 4 cores the process
    backend beats the thread pool >= 2x and scales near-linearly."""
    jobs = make_traffic(_traffic_size())
    cores = os.cpu_count() or 1
    width = min(ASSERT_MIN_CORES, cores)
    thread_result = run_thread_backend(jobs)
    single = run_process_backend(jobs, 1)
    wide = run_process_backend(jobs, width)
    speedup_vs_threads = (
        wide["jobs_per_second"] / thread_result["jobs_per_second"]
    )
    assert speedup_vs_threads >= 2.0, (
        "process backend should beat the GIL-bound thread pool >= 2x on "
        "%d cores: threads %.1f jobs/s vs %d processes %.1f jobs/s (%.2fx)"
        % (cores, thread_result["jobs_per_second"], width,
           wide["jobs_per_second"], speedup_vs_threads)
    )
    efficiency = wide["jobs_per_second"] / (width * single["jobs_per_second"])
    assert efficiency >= 0.5, (
        "worker scaling fell below 50%% parallel efficiency: 1 worker "
        "%.1f jobs/s, %d workers %.1f jobs/s (%.0f%%)"
        % (single["jobs_per_second"], width, wide["jobs_per_second"],
           100.0 * efficiency)
    )


def test_http_front_end_handles_mixed_traffic():
    """The HTTP server must survive a concurrent mixed stream and its
    /metrics counters must account for every request."""
    jobs = make_traffic(12 if _smoke() else 24)
    result = drive_http(jobs, client_threads=4)
    assert result["requests_per_second"] > 0
