"""Tests for the compile server (repro.server + repro.service.backends).

The acceptance bar from ISSUE 7: malformed JSON, an unknown target, an
oversized body, a per-request timeout and a kill-injected worker crash
must each produce a structured error response -- the server never hangs
and never drops a request.
"""

import http.client
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import Histogram
from repro.server import (
    AdmissionGate,
    ServerMetrics,
    start_server,
)
from repro.service import (
    BackendError,
    CompileBackend,
    ProcessCompileBackend,
    ThreadCompileBackend,
    create_backend,
    default_process_workers,
)


def _post(url: str, payload, raw: bytes = None, timeout: float = 60.0) -> dict:
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _post_expecting_error(url: str, payload=None, raw: bytes = None) -> tuple:
    """(status_code, decoded_json_body, headers) of an HTTP error reply."""
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    error = excinfo.value
    return error.code, json.loads(error.read()), error.headers


# ---------------------------------------------------------------------------
# backend construction
# ---------------------------------------------------------------------------


class TestBackendConstruction:
    def test_default_process_workers_tracks_cpu_count(self):
        assert default_process_workers() == max(1, os.cpu_count() or 1)

    def test_create_backend_kinds(self):
        backend = create_backend("thread", workers=2)
        try:
            assert backend.kind == "thread"
            assert backend.workers == 2
        finally:
            backend.close()

    def test_create_backend_rejects_unknown_kind(self):
        with pytest.raises(BackendError) as excinfo:
            create_backend("fibers")
        assert "fibers" in str(excinfo.value)
        assert "thread" in str(excinfo.value)

    def test_thread_backend_runs_jobs_in_order(self):
        with ThreadCompileBackend(workers=2) as backend:
            responses = backend.run_jobs(
                [
                    {"target": "demo", "kernel": "fir", "request_id": "a"},
                    {"target": "demo", "source": "int a, b; b = a + 1;"},
                    {"target": "demo", "kernel": "nosuchkernel"},
                ]
            )
        assert [r["ok"] for r in responses] == [True, True, False]
        assert responses[0]["request_id"] == "a"
        # default names are positional, exactly like a batch
        assert responses[1]["name"] == "request1"
        stats = backend.stats()
        assert stats["completed"] == 2 and stats["failed"] == 1


# ---------------------------------------------------------------------------
# the process backend: isolation, crashes, timeouts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def process_backend():
    """One shared single-worker process backend with fault-injection
    hooks armed (spawn cost amortized across the module)."""
    backend = ProcessCompileBackend(
        workers=1, warm_targets=("demo",), test_hooks=True, request_timeout_s=30.0
    )
    yield backend
    backend.close()


class TestProcessBackend:
    def test_compiles_and_matches_request_envelope(self, process_backend):
        response = process_backend.run_job(
            {"target": "demo", "kernel": "fir", "request_id": "p0"}
        )
        assert response["ok"], response.get("error")
        assert response["request_id"] == "p0"
        assert response["result"]["metrics"]["code_size"] > 0

    def test_unknown_target_is_a_structured_error(self, process_backend):
        response = process_backend.run_job({"target": "nosuchchip", "kernel": "fir"})
        assert not response["ok"]
        assert response["error"]["type"] == "TargetError"

    def test_malformed_job_is_a_structured_error(self, process_backend):
        response = process_backend.run_job({"target": "demo"})  # no source/kernel
        assert not response["ok"]
        assert response["error"]["type"] == "RequestError"

    def test_workers_share_the_prewarmed_cache(self, process_backend):
        process_backend.run_job({"target": "demo", "kernel": "fir"})
        stats = process_backend.stats()
        assert stats["pool_retargets"] == 0, (
            "worker re-retargeted instead of loading the shared v2 pickle"
        )
        assert stats["per_target"]["demo"]["completed"] >= 1

    def test_timeout_kills_and_respawns_the_worker(self, process_backend):
        before = process_backend.worker_pids()
        timeouts_before = process_backend.stats()["timeouts"]
        started = time.perf_counter()
        response = process_backend.run_job(
            {"target": "demo", "kernel": "fir", "timeout_s": 0.4,
             "_test_sleep_s": 30.0}
        )
        elapsed = time.perf_counter() - started
        assert not response["ok"]
        assert response["error"]["type"] == "RequestTimeoutError"
        assert response["error"]["phase"] == "server"
        assert elapsed < 20.0, "timeout did not preempt the stuck worker"
        stats = process_backend.stats()
        assert stats["timeouts"] == timeouts_before + 1
        assert stats["respawns"] >= 1
        after = process_backend.worker_pids()
        assert after and after != before, "stuck worker was not replaced"
        # the respawned worker serves the next request normally
        again = process_backend.run_job({"target": "demo", "kernel": "fir"})
        assert again["ok"], again.get("error")

    def test_injected_crash_is_detected_and_survived(self, process_backend):
        crashes_before = process_backend.stats()["crashes"]
        response = process_backend.run_job(
            {"target": "demo", "kernel": "fir", "_test_exit": 3}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "WorkerCrashError"
        assert "exit code 3" in response["error"]["message"]
        assert process_backend.stats()["crashes"] == crashes_before + 1
        again = process_backend.run_job({"target": "demo", "kernel": "fir"})
        assert again["ok"], again.get("error")

    def test_externally_killed_idle_worker_is_replaced(self, process_backend):
        victim = process_backend.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        # the send fails on the dead pipe; the backend respawns and
        # retries once, so the caller still gets a real compile
        response = process_backend.run_job({"target": "demo", "kernel": "fir"})
        assert response["ok"], response.get("error")
        assert victim not in process_backend.worker_pids()

    def test_batch_preserves_positions_after_faults(self, process_backend):
        responses = process_backend.run_jobs(
            [
                {"target": "demo", "kernel": "fir"},
                {"target": "demo"},  # malformed
                {"target": "demo", "source": "int a, b; b = a + 3;"},
            ]
        )
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[2]["name"] == "request2"

    def test_closed_backend_refuses_jobs(self):
        backend = ProcessCompileBackend(workers=1, warm_targets=("demo",))
        backend.close()
        with pytest.raises(BackendError):
            backend.run_job({"target": "demo", "kernel": "fir"})


# ---------------------------------------------------------------------------
# the HTTP front end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    server = start_server(backend_kind="thread", workers=2, port=0)
    yield server
    server.close()


class TestHttpEndpoints:
    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["backend"] == "thread"
        assert payload["queue_limit"] >= payload["workers"]

    def test_compile_ok(self, server):
        response = _post(
            server.url + "/compile",
            {"target": "demo", "kernel": "fir", "request_id": "h1"},
        )
        assert response["ok"]
        assert response["request_id"] == "h1"
        assert response["result"]["metrics"]["code_size"] > 0

    def test_compile_results_can_be_stripped(self, server):
        response = _post(
            server.url + "/compile?results=0", {"target": "demo", "kernel": "fir"}
        )
        assert response["ok"]
        assert "result" not in response

    def test_compile_error_is_http_200_with_error_envelope(self, server):
        response = _post(server.url + "/compile", {"target": "nosuchchip",
                                                   "kernel": "fir"})
        assert not response["ok"]
        assert response["error"]["type"] == "TargetError"

    def test_malformed_json_is_400(self, server):
        code, payload, _ = _post_expecting_error(
            server.url + "/compile", raw=b"{not json"
        )
        assert code == 400
        assert payload["error"]["type"] == "BadRequest"
        assert payload["error"]["phase"] == "server"

    def test_non_object_body_is_400(self, server):
        code, payload, _ = _post_expecting_error(server.url + "/compile", raw=b"[1, 2]")
        assert code == 400

    def test_missing_content_length_is_411(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/compile", skip_host=False)
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()  # no Content-Length, no body
            reply = connection.getresponse()
            payload = json.loads(reply.read())
        finally:
            connection.close()
        assert reply.status == 411
        assert payload["error"]["type"] == "LengthRequired"

    def test_unknown_endpoint_is_404(self, server):
        code, payload, _ = _post_expecting_error(
            server.url + "/transmogrify", {"target": "demo"}
        )
        assert code == 404

    def test_batch_streams_ndjson_in_order(self, server):
        jobs = [
            {"target": "demo", "kernel": "fir", "request_id": "b0"},
            {"target": "demo", "kernel": "nosuchkernel", "request_id": "b1"},
            {"target": "demo", "source": "int a, b; b = a + 2;", "request_id": "b2"},
        ]
        request = urllib.request.Request(
            server.url + "/batch?results=0",
            data=json.dumps(jobs).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            assert reply.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in reply.read().splitlines() if line]
        assert [line["request_id"] for line in lines] == ["b0", "b1", "b2"]
        assert [line["ok"] for line in lines] == [True, False, True]

    def test_batch_accepts_jobs_object_and_ndjson_bodies(self, server):
        wrapped = {"jobs": [{"target": "demo", "kernel": "fir"}]}
        request = urllib.request.Request(
            server.url + "/batch?results=0",
            data=json.dumps(wrapped).encode("utf-8"),
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            lines = [json.loads(line) for line in reply.read().splitlines() if line]
        assert len(lines) == 1 and lines[0]["ok"]

        ndjson = (
            b'{"target": "demo", "kernel": "fir"}\n'
            b"this line is not json\n"
        )
        request = urllib.request.Request(
            server.url + "/batch?results=0", data=ndjson
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            lines = [json.loads(line) for line in reply.read().splitlines() if line]
        assert len(lines) == 2
        assert lines[0]["ok"]
        assert not lines[1]["ok"]
        assert lines[1]["error"]["type"] == "RequestError"
        assert "line 2" in lines[1]["error"]["message"]

    def test_empty_batch_is_400(self, server):
        code, payload, _ = _post_expecting_error(server.url + "/batch", raw=b"\n\n")
        assert code == 400

    def test_metrics_exposition(self, server):
        _post(server.url + "/compile", {"target": "demo", "kernel": "fir"})
        with urllib.request.urlopen(server.url + "/metrics", timeout=30) as reply:
            assert reply.headers["Content-Type"].startswith("text/plain")
            text = reply.read().decode()
        assert 'repro_compile_requests_total{status="ok",target="demo"}' in text
        assert 'repro_http_requests_total{code="200",endpoint="/compile"}' in text
        assert "repro_compiles_per_second" in text
        assert "repro_request_seconds_bucket" in text
        assert 'repro_phase_seconds_bucket{le="' in text
        assert "repro_label_memo_hit_rate" in text
        assert "repro_session_pool_hits_total" in text
        assert "repro_retarget_cache_misses_total" in text


# ---------------------------------------------------------------------------
# oversized bodies and backpressure (dedicated small-limit servers)
# ---------------------------------------------------------------------------


class _BlockingBackend(CompileBackend):
    """A stub backend whose jobs block on an event (saturation tests)."""

    kind = "stub"
    workers = 4

    def __init__(self):
        self.unblock = threading.Event()

    def run_job(self, job, index=0):
        self.unblock.wait(timeout=30.0)
        return {
            "target": job.get("target", ""),
            "name": job.get("name") or "request%d" % index,
            "ok": True,
            "elapsed_s": 0.0,
            "request_id": job.get("request_id"),
        }


class TestLimits:
    def test_oversized_body_is_413(self):
        server = start_server(backend_kind="thread", workers=1, port=0,
                              max_body_bytes=256)
        try:
            big = {"target": "demo", "source": "int a; " + "a = a + 1; " * 100}
            code, payload, _ = _post_expecting_error(server.url + "/compile", big)
            assert code == 413
            assert payload["error"]["type"] == "RequestBodyTooLarge"
            # a small request still fits afterwards
            ok = _post(server.url + "/compile?results=0",
                       {"target": "demo", "kernel": "fir"})
            assert ok["ok"]
        finally:
            server.close()

    def test_saturated_server_answers_429_with_retry_after(self):
        backend = _BlockingBackend()
        server = start_server(backend=backend, port=0, queue_limit=2)
        try:
            results = []

            def fire():
                results.append(
                    _post(server.url + "/compile", {"target": "demo", "kernel": "fir"})
                )

            threads = [threading.Thread(target=fire) for _ in range(2)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 10.0
            while server.gate.in_flight < 2 and time.time() < deadline:
                time.sleep(0.01)
            assert server.gate.in_flight == 2
            code, payload, headers = _post_expecting_error(
                server.url + "/compile", {"target": "demo", "kernel": "fir"}
            )
            assert code == 429
            assert payload["error"]["type"] == "ServerSaturated"
            assert headers.get("Retry-After") == "1"
            # a batch bigger than the whole budget is rejected outright
            code, payload, _ = _post_expecting_error(
                server.url + "/batch",
                [{"target": "demo", "kernel": "fir"}] * 3,
            )
            assert code == 429
            backend.unblock.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert [r["ok"] for r in results] == [True, True]
            assert server.gate.in_flight == 0
            with urllib.request.urlopen(server.url + "/metrics", timeout=30) as reply:
                text = reply.read().decode()
            assert "repro_http_rejected_total 2" in text
        finally:
            server.close(close_backend=False)


# ---------------------------------------------------------------------------
# the crash-proofing contract (ISSUE 8)
# ---------------------------------------------------------------------------


class _RaisingBackend(CompileBackend):
    """A stub backend whose run_job raises an unexpected exception."""

    kind = "stub"
    workers = 1

    def run_job(self, job, index=0):
        raise RuntimeError("backend exploded mid-job")


class TestCrashStorm:
    def test_crash_storm_is_structured_and_respawn_rate_is_bounded(self):
        # A worker that dies on every request: every caller still gets a
        # structured per-request error, the backoff throttles respawns
        # (no spawn livelock), and the counters surface in stats/metrics.
        backend = ProcessCompileBackend(
            workers=1,
            warm_targets=("demo",),
            test_hooks=True,
            request_timeout_s=30.0,
            respawn_backoff_s=0.02,
            respawn_backoff_max_s=0.1,
            respawn_backoff_after=2,
        )
        try:
            storm = [
                {"target": "demo", "kernel": "fir", "_test_exit": 9}
                for _ in range(6)
            ]
            responses = backend.run_jobs(storm)
            assert len(responses) == 6
            for response in responses:
                assert not response["ok"]
                assert response["error"]["type"] == "WorkerCrashError"
                assert response["error"]["phase"] == "server"
            stats = backend.stats()
            assert stats["crashes"] >= 6
            assert stats["respawns"] >= 6
            # streak 1..6 with backoff after 2 -> waits on streaks 3,4,5,6
            assert stats["backoff_waits"] == 4
            assert stats["consecutive_crashes"] == 6
            # the counters are exported as Prometheus gauges
            text = ServerMetrics(backend_stats=backend.stats).render()
            assert "repro_worker_backoff_waits_total 4" in text
            assert "repro_worker_consecutive_crashes 6" in text
            # one healthy request ends the storm and resets the streak
            recovered = backend.run_job({"target": "demo", "kernel": "fir"})
            assert recovered["ok"], recovered.get("error")
            assert backend.stats()["consecutive_crashes"] == 0
        finally:
            backend.close()


class TestInternalErrorBoundaries:
    def test_injected_pass_fault_is_a_structured_response(self, monkeypatch):
        # REPRO_INJECT_FAULT makes PassManager.run raise inside the
        # boundary; the service answers with a structured internal
        # diagnostic instead of crashing the batch.
        monkeypatch.setenv("REPRO_INJECT_FAULT", "select")
        with ThreadCompileBackend(workers=1) as backend:
            response = backend.run_job({"target": "demo", "kernel": "fir"})
        assert not response["ok"]
        assert response["error"]["type"] == "InternalCompilerError"
        assert response["error"]["phase"] == "internal"
        assert "select" in response["error"]["message"]

    def test_backend_exception_becomes_internal_error_envelope(self):
        server = start_server(backend=_RaisingBackend(), port=0)
        try:
            response = _post(
                server.url + "/compile", {"target": "demo", "kernel": "fir"}
            )
            assert not response["ok"]
            assert response["error"]["type"] == "InternalCompilerError"
            assert response["error"]["phase"] == "internal"
            assert "backend exploded" in response["error"]["message"]
        finally:
            server.close(close_backend=False)

    def test_handler_exception_is_a_structured_500(self):
        server = start_server(backend_kind="thread", workers=1, port=0)
        try:
            def broken_render():
                raise RuntimeError("metrics registry corrupted")

            server.metrics.render = broken_render
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/metrics", timeout=30)
            assert excinfo.value.code == 500
            payload = json.loads(excinfo.value.read())
            assert payload["error"]["type"] == "InternalCompilerError"
            assert payload["error"]["phase"] == "internal"
        finally:
            server.close()


# ---------------------------------------------------------------------------
# metrics units
# ---------------------------------------------------------------------------


class TestMetricsUnits:
    def test_admission_gate_is_all_or_nothing(self):
        gate = AdmissionGate(3)
        assert gate.try_acquire(2)
        assert not gate.try_acquire(2)  # only 1 slot free
        assert gate.try_acquire(1)
        assert gate.in_flight == 3
        gate.release(3)
        assert gate.in_flight == 0
        gate.release(5)  # floor at zero, never negative
        assert gate.in_flight == 0

    def test_histogram_cumulative_rendering(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        lines = hist.render("t")
        assert 't_bucket{le="0.01"} 1' in lines
        assert 't_bucket{le="0.1"} 2' in lines
        assert 't_bucket{le="1"} 3' in lines
        assert 't_bucket{le="+Inf"} 4' in lines
        assert "t_count 4" in lines
        total = [line for line in lines if line.startswith("t_sum")]
        assert total and abs(float(total[0].split()[1]) - 5.555) < 1e-9

    def test_server_metrics_aggregates_response_envelopes(self):
        metrics = ServerMetrics()
        metrics.record_compile(
            {
                "target": "demo",
                "ok": True,
                "elapsed_s": 0.02,
                "result": {
                    "pass_timings": {"select": 0.004, "schedule": 0.001},
                    "metrics": {"nodes_labelled": 100,
                                "label_memo_hit_rate": 0.25},
                },
            }
        )
        metrics.record_compile({"target": "demo", "ok": False, "elapsed_s": 0.001})
        metrics.record_http("/compile", 200)
        metrics.record_http("/compile", 429)
        snapshot = metrics.snapshot()
        assert snapshot["completed"] == 1
        assert snapshot["failed"] == 1
        assert snapshot["rejected"] == 1
        assert metrics.compiles_per_second() > 0
        text = metrics.render()
        assert 'repro_compile_requests_total{status="ok",target="demo"} 1' in text
        assert 'repro_compile_requests_total{status="error",target="demo"} 1' in text
        assert 'repro_phase_seconds_count{phase="select"} 1' in text
        assert "repro_label_memo_hit_rate 0.25" in text
        assert "repro_labelled_nodes_total 100" in text

    def test_backend_stats_become_gauges_at_render_time(self):
        stats = {
            "pool_hits": 9, "pool_misses": 1, "pool_retargets": 1,
            "pool_sessions": 2, "workers": 2, "crashes": 1,
            "respawns": 1, "timeouts": 0,
        }
        metrics = ServerMetrics(backend_stats=lambda: stats)
        text = metrics.render()
        assert "repro_session_pool_hits_total 9" in text
        assert "repro_retarget_cache_misses_total 1" in text
        assert "repro_worker_crashes_total 1" in text
        assert "repro_worker_respawns_total 1" in text
        assert "repro_request_timeouts_total 0" in text
        assert "repro_session_pool_hit_rate 0.9" in text

    def test_metrics_survive_a_broken_stats_callable(self):
        def broken():
            raise RuntimeError("backend went away")

        metrics = ServerMetrics(backend_stats=broken)
        assert "repro_uptime_seconds" in metrics.render()

    def test_compiles_per_second_decays_to_zero_after_traffic_stops(self):
        # Regression: the trailing-window rate must read exactly 0.0 at
        # scrape time once the window empties, not the last busy value.
        clock = [1000.0]
        metrics = ServerMetrics(rate_window_s=60.0, clock=lambda: clock[0])
        for _ in range(6):
            clock[0] += 1.0
            metrics.record_compile({"target": "demo", "ok": True, "elapsed_s": 0.01})
        busy = metrics.compiles_per_second()
        assert busy > 0.0
        clock[0] += 61.0  # one window past the last completion
        assert metrics.compiles_per_second() == 0.0
        assert "repro_compiles_per_second 0.0" in metrics.render()
        assert metrics.snapshot()["compiles_per_second"] == 0.0

    def test_per_worker_stats_render_as_labelled_gauges(self):
        stats = {
            "workers": 2,
            "per_worker": [
                {"worker": "g0", "pid": 11, "completed": 5, "failed": 1},
                {"worker": "g1", "pid": 12, "completed": 3, "failed": 0},
            ],
        }
        metrics = ServerMetrics(backend_stats=lambda: stats)
        text = metrics.render()
        assert 'repro_worker_requests_total{status="ok",worker="g0"} 5' in text
        assert 'repro_worker_requests_total{status="error",worker="g0"} 1' in text
        assert 'repro_worker_requests_total{status="ok",worker="g1"} 3' in text

    def test_target_phase_breakdown_accumulates(self):
        metrics = ServerMetrics()
        for _ in range(2):
            metrics.record_compile(
                {
                    "target": "tms320c25",
                    "ok": True,
                    "elapsed_s": 0.02,
                    "result": {"pass_timings": {"select": 0.25, "opt": 0.05}},
                }
            )
        text = metrics.render()
        assert (
            'repro_target_phase_seconds_total{phase="select",target="tms320c25"} 0.5'
            in text
        )
        assert 'repro_phase_seconds_count{phase="opt"} 2' in text
