"""End-to-end request-ID propagation tests.

One ``X-Request-Id`` supplied at the HTTP front end must be joinable
across every surface: the response headers, every NDJSON response line
of a batch (including timeout and injected-crash responses from the
process backend's workers), and the structured log records emitted by
the HTTP layer and by the worker processes.
"""

import json
import os
import urllib.request

import pytest

from repro.obs import log
from repro.server import start_server
from repro.service import ProcessCompileBackend


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """A process-backend server logging JSON records to a shared file.

    The env is set before the backend spawns so the worker processes
    inherit it and append their records to the same file.
    """
    log_path = tmp_path_factory.mktemp("logs") / "server.jsonl"
    os.environ["REPRO_LOG"] = "json"
    os.environ["REPRO_LOG_FILE"] = str(log_path)
    log.reset()
    backend = ProcessCompileBackend(
        workers=2,
        warm_targets=("demo",),
        test_hooks=True,
        request_timeout_s=30.0,
    )
    server = start_server(backend=backend, port=0)
    try:
        yield server, log_path
    finally:
        server.close()
        os.environ.pop("REPRO_LOG", None)
        os.environ.pop("REPRO_LOG_FILE", None)
        log.reset()


def _post(url, payload, headers=None, timeout=60.0):
    """(decoded JSON body, response headers) of one POST."""
    base = {"Content-Type": "application/json"}
    base.update(headers or {})
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=base
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read()), response.headers


def _log_records(log_path):
    return [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line.strip()
    ]


class TestSingleCompile:
    def test_inbound_header_is_echoed_everywhere(self, traffic):
        server, _log_path = traffic
        body, headers = _post(
            server.url + "/compile?results=0",
            {"target": "demo", "kernel": "fir"},
            headers={"X-Request-Id": "one-shot-42"},
        )
        assert headers["X-Request-Id"] == "one-shot-42"
        assert body["request_id"] == "one-shot-42"

    def test_missing_header_generates_an_id(self, traffic):
        server, _log_path = traffic
        body, headers = _post(
            server.url + "/compile?results=0", {"target": "demo", "kernel": "fir"}
        )
        generated = headers["X-Request-Id"]
        int(generated, 16)
        assert body["request_id"] == generated

    def test_job_level_id_wins_when_no_header(self, traffic):
        server, _log_path = traffic
        body, headers = _post(
            server.url + "/compile?results=0",
            {"target": "demo", "kernel": "fir", "request_id": "job-owned"},
        )
        assert body["request_id"] == "job-owned"
        assert headers["X-Request-Id"] == "job-owned"


class TestBatchOverProcessBackend:
    RID = "batch-rid-7"

    def test_every_response_line_and_log_record_carries_the_id(self, traffic):
        server, log_path = traffic
        jobs = [
            {"target": "demo", "kernel": "fir"},
            {"target": "demo", "kernel": "fir", "_test_exit": 9},
            {
                "target": "demo",
                "kernel": "fir",
                "timeout_s": 0.4,
                "_test_sleep_s": 30.0,
            },
            {"target": "demo"},  # malformed: neither source nor kernel
        ]
        request = urllib.request.Request(
            server.url + "/batch?results=0",
            data=json.dumps(jobs).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": self.RID,
            },
        )
        with urllib.request.urlopen(request, timeout=120) as reply:
            assert reply.headers["X-Request-Id"] == self.RID
            lines = [
                json.loads(line) for line in reply.read().splitlines() if line
            ]
        assert len(lines) == len(jobs)
        # every line -- success, crash, timeout, malformed -- is joinable
        assert [line["request_id"] for line in lines] == [self.RID] * len(jobs)
        assert [line["ok"] for line in lines] == [True, False, False, False]
        assert lines[1]["error"]["type"] == "WorkerCrashError"
        assert lines[2]["error"]["type"] == "RequestTimeoutError"

        records = _log_records(log_path)
        joined = [r for r in records if r.get("request_id") == self.RID]
        events = {r["event"] for r in joined}
        # the HTTP access log, the worker's compile record, and the
        # crash/timeout records all carry the same id
        assert "http_request" in events
        assert "compile" in events
        assert "worker_crash" in events
        assert "request_timeout" in events
        crash = next(r for r in joined if r["event"] == "worker_crash")
        assert crash["level"] == "error"
        assert isinstance(crash.get("pid"), int)

    def test_worker_boot_records_are_logged(self, traffic):
        _server, log_path = traffic
        records = _log_records(log_path)
        ready = [r for r in records if r["event"] == "worker_ready"]
        # two initial workers, plus respawns from the crash/timeout test
        assert len(ready) >= 2
        assert all(isinstance(r["pid"], int) for r in ready)


class TestWorkerStderrCapture:
    def test_crash_response_carries_the_worker_stderr_tail(self):
        backend = ProcessCompileBackend(
            workers=1,
            warm_targets=("demo",),
            test_hooks=True,
            request_timeout_s=30.0,
        )
        try:
            responses = backend.run_jobs(
                [
                    {
                        "target": "demo",
                        "kernel": "fir",
                        "request_id": "crash-1",
                        "_test_stderr": "panic: marker-9c1e",
                        "_test_exit": 3,
                    }
                ]
            )
        finally:
            backend.close()
        (response,) = responses
        assert not response["ok"]
        assert response["request_id"] == "crash-1"
        message = response["error"]["message"]
        assert "worker stderr" in message
        assert "panic: marker-9c1e" in message
