"""What a served compile sends, and what it costs the server.

* One encode: a response leaves the server as the bytes its worker
  encoded -- canonical JSON equal, timing fields aside, to what an
  in-process ``CompileService.run_dict`` answers -- on ``/compile``,
  ``?results=0``, ``/batch`` and ``repro batch --backend process``.
* Header safety: a request id reaches the ``X-Request-Id`` response
  header only when it is printable ASCII (raw-socket probes).
* Handler threads are reused, serve any number of connections at once,
  and end with the server.
* The memoized listing bits equal the unmemoized oracle, and cheap label
  lookups still reject bad label names.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.codegen.emitter import _bits_text, _format_bits, format_listing
from repro.diagnostics import ReproError
from repro.dspstone import all_kernel_names, loop_kernel_names
from repro.fuzz.generator import generate_source
from repro.obs.metrics import MetricsRegistry
from repro.server import make_server, start_server
from repro.service import CompileBackend, CompileService
from repro.toolchain import Toolchain

TARGETS = ("demo", "ref", "tms320c25")
KERNELS = tuple(all_kernel_names() + loop_kernel_names())
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _jobs():
    """The 48 kernel jobs, a source job, an unknown target and a traced job."""
    jobs = [
        {"target": target, "kernel": kernel}
        for target in TARGETS
        for kernel in KERNELS
    ]
    jobs.append({"target": "ref", "source": "int a, b, c; c = a * b + c;"})
    jobs.append({"target": "nosuchchip", "kernel": "fir"})
    jobs.append({"target": "tms320c25", "kernel": "fir_loop", "trace": True})
    return [dict(job, request_id="j%d" % index) for index, job in enumerate(jobs)]


JOBS = _jobs()


def _untimed(envelope: dict) -> dict:
    """An envelope without the fields that differ from run to run: the
    times, the span timestamps, and the label-memo hit rate (it depends
    on what the session compiled before)."""
    envelope = {key: value for key, value in envelope.items() if key != "elapsed_s"}
    result = envelope.get("result")
    if result is not None:
        result = {key: value for key, value in result.items() if key != "pass_timings"}
        result["metrics"] = {
            key: value
            for key, value in result["metrics"].items()
            if not key.endswith("_time_s") and key != "label_memo_hit_rate"
        }
        if "trace" in result:
            result["trace"] = sorted(
                (event["name"], event["ph"]) for event in result["trace"]["traceEvents"]
            )
        envelope["result"] = result
    return envelope


def _canonical(body: bytes) -> dict:
    envelope = json.loads(body)
    assert body == json.dumps(envelope).encode("utf-8")
    return envelope


def _post(url: str, payload) -> bytes:
    request = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"))
    with urllib.request.urlopen(request, timeout=120) as reply:
        return reply.read()


def _compile_counts(url: str) -> dict:
    with urllib.request.urlopen(url + "/metrics", timeout=60) as reply:
        text = reply.read().decode("utf-8")
    return {
        name: float(value)
        for name, _, value in (line.rpartition(" ") for line in text.splitlines())
        if name.startswith("repro_compile_requests_total{")
    }


# ---------------------------------------------------------------------------
# one encode, same bytes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def process_server():
    server = start_server(
        backend_kind="process", workers=1, warm_targets=TARGETS, queue_limit=len(JOBS)
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def reference():
    service = CompileService()
    return {
        "compile": [service.run_dict(job, 0) for job in JOBS],
        "batch": [service.run_dict(job, index) for index, job in enumerate(JOBS)],
    }


class TestOneEncode:
    def test_compile_bodies_match_the_in_process_envelopes(
        self, process_server, reference
    ):
        before = _compile_counts(process_server.url)
        for job, expected in zip(JOBS, reference["compile"]):
            envelope = _canonical(_post(process_server.url + "/compile", job))
            assert _untimed(envelope) == _untimed(expected), job
        assert [e["ok"] for e in reference["compile"]].count(False) == 1
        # /metrics counted the same traffic, by target and status
        after = _compile_counts(process_server.url)
        delta = {key: after[key] - before.get(key, 0.0) for key in after}
        expected_counts: dict = {}
        for envelope in reference["compile"]:
            key = 'repro_compile_requests_total{status="%s",target="%s"}' % (
                "ok" if envelope["ok"] else "error", envelope["target"],
            )
            expected_counts[key] = expected_counts.get(key, 0.0) + 1
        assert {key: value for key, value in delta.items() if value} == expected_counts

    def test_stripped_compile_bodies(self, process_server, reference):
        for job, expected in list(zip(JOBS, reference["compile"]))[::8]:
            envelope = _canonical(_post(process_server.url + "/compile?results=0", job))
            assert "result" not in envelope
            trimmed = {key: value for key, value in expected.items() if key != "result"}
            assert _untimed(envelope) == _untimed(trimmed)

    def test_batch_lines_match_the_in_process_envelopes(self, process_server, reference):
        lines = _post(process_server.url + "/batch", JOBS).splitlines()
        assert len(lines) == len(JOBS)
        for line, expected in zip(lines, reference["batch"]):
            assert _untimed(_canonical(line)) == _untimed(expected)

    def test_repro_batch_writes_the_same_bytes(self, tmp_path, reference):
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text("".join(json.dumps(job) + "\n" for job in JOBS))
        env = dict(os.environ, PYTHONPATH=SRC)
        for flags, strip in (([], False), (["--no-results"], True)):
            run = subprocess.run(
                [sys.executable, "-m", "repro", "batch", str(jobs_file),
                 "--backend", "process", "--jobs", "1", *flags],
                capture_output=True, env=env, timeout=300,
            )
            assert run.returncode == 1, run.stderr  # the unknown target fails
            lines = run.stdout.splitlines()
            assert len(lines) == len(JOBS)
            for line, expected in zip(lines, reference["batch"]):
                if strip:
                    expected = {k: v for k, v in expected.items() if k != "result"}
                assert _untimed(_canonical(line)) == _untimed(expected)


# ---------------------------------------------------------------------------
# request ids in response headers (raw sockets)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def thread_server():
    server = start_server(backend_kind="thread", workers=2, port=0)
    yield server
    server.close()


def _exchange(server, head: bytes, body: bytes = b"") -> tuple:
    """(status line, header lines, body) of one raw HTTP exchange."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as connection:
        connection.sendall(head + b"\r\n" + body)
        chunks = []
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    header_block, _, payload = reply.partition(b"\r\n\r\n")
    lines = header_block.split(b"\r\n")
    return lines[0], lines[1:], payload


def _post_raw(server, path: str, payload, extra: bytes = b"") -> tuple:
    body = json.dumps(payload).encode("utf-8")
    head = b"POST %s HTTP/1.0\r\nContent-Length: %d\r\n%s" % (
        path.encode(), len(body), extra,
    )
    return _exchange(server, head, body)


def _echoed_id(header_lines) -> str:
    [value] = [
        line.split(b":", 1)[1].strip().decode("ascii")
        for line in header_lines
        if line.lower().startswith(b"x-request-id:")
    ]
    return value


FOLDED = b"X-Request-Id: abc\r\n Set-Cookie: x\r\n"


class TestRequestIdHeaders:
    def test_crlf_in_a_job_id_adds_no_header_line(self, thread_server):
        rid = "a\r\nSet-Cookie: injected=1"
        status, headers, body = _post_raw(
            thread_server, "/compile",
            {"target": "demo", "kernel": "fir", "request_id": rid},
        )
        assert status.startswith(b"HTTP/1.0 200")
        assert not any(b"Set-Cookie" in line for line in headers)
        int(_echoed_id(headers), 16)  # a fresh id instead
        assert json.loads(body)["request_id"] == rid  # the envelope keeps it

    def test_non_ascii_job_id_still_gets_its_reply(self, thread_server):
        status, headers, body = _post_raw(
            thread_server, "/compile?results=0",
            {"target": "demo", "kernel": "fir", "request_id": "€-order-1"},
        )
        assert status.startswith(b"HTTP/1.0 200")
        int(_echoed_id(headers), 16)
        envelope = json.loads(body)
        assert envelope["ok"] and envelope["request_id"] == "€-order-1"

    def test_folded_inbound_id_is_not_echoed_on_compile(self, thread_server):
        status, headers, body = _post_raw(
            thread_server, "/compile?results=0", {"target": "demo", "kernel": "fir"},
            extra=FOLDED,
        )
        assert status.startswith(b"HTTP/1.0 200")
        assert not any(b"Set-Cookie" in line for line in headers)
        rid = _echoed_id(headers)
        int(rid, 16)
        assert json.loads(body)["request_id"] == rid

    def test_folded_inbound_id_is_not_echoed_on_batch(self, thread_server):
        status, headers, body = _post_raw(
            thread_server, "/batch?results=0",
            [{"target": "demo", "kernel": "fir", "request_id": "a\r\nb"}],
            extra=FOLDED,
        )
        assert status.startswith(b"HTTP/1.0 200")
        assert not any(b"Set-Cookie" in line for line in headers)
        int(_echoed_id(headers), 16)
        assert json.loads(body)["request_id"] == "a\r\nb"

    def test_folded_inbound_id_is_not_echoed_on_healthz(self, thread_server):
        status, headers, _body = _exchange(
            thread_server, b"GET /healthz HTTP/1.0\r\n" + FOLDED
        )
        assert status.startswith(b"HTTP/1.0 200")
        assert not any(b"Set-Cookie" in line for line in headers)
        int(_echoed_id(headers), 16)

    def test_printable_ids_are_still_echoed(self, thread_server):
        _status, headers, _body = _exchange(
            thread_server, b"GET /healthz HTTP/1.0\r\nX-Request-Id: order 7/b\r\n"
        )
        assert _echoed_id(headers) == "order 7/b"


# ---------------------------------------------------------------------------
# handler threads
# ---------------------------------------------------------------------------


def _handler_threads():
    return {t for t in threading.enumerate() if t.name == "repro-http"}


class _BlockingBackend(CompileBackend):
    kind = "stub"
    workers = 8

    def __init__(self):
        super().__init__()
        self.unblock = threading.Event()

    def _execute(self, job, index=0):
        self.unblock.wait(timeout=30.0)
        return {"target": job.get("target", ""), "name": "stub", "ok": True,
                "elapsed_s": 0.0, "request_id": job.get("request_id")}


class TestHandlerThreads:
    def test_sequential_requests_reuse_threads_and_close_ends_them(self):
        before = _handler_threads()
        server = start_server(backend_kind="thread", workers=1, port=0)
        try:
            for _ in range(50):
                envelope = json.loads(
                    _post(server.url + "/compile?results=0",
                          {"target": "demo", "kernel": "fir"})
                )
                assert envelope["ok"]
            started = _handler_threads() - before
            assert 1 <= len(started) <= 2
        finally:
            server.close()
        assert not [thread for thread in started if thread.is_alive()]

    def test_concurrent_requests_each_get_a_thread_and_an_answer(self):
        backend = _BlockingBackend()
        server = start_server(backend=backend, port=0, queue_limit=8)
        before = _handler_threads()
        answers = []
        try:
            def fire(index):
                answers.append(json.loads(_post(
                    server.url + "/compile", {"target": "demo", "request_id": "c%d" % index}
                )))

            clients = [threading.Thread(target=fire, args=(i,)) for i in range(8)]
            for client in clients:
                client.start()
            deadline = time.time() + 20.0
            while server.gate.in_flight < 8 and time.time() < deadline:
                time.sleep(0.01)
            assert server.gate.in_flight == 8  # all eight are being served at once
            backend.unblock.set()
            for client in clients:
                client.join(timeout=30.0)
            started = _handler_threads() - before
        finally:
            backend.unblock.set()
            server.close()
        assert sorted(a["request_id"] for a in answers) == ["c%d" % i for i in range(8)]
        assert len(started) >= 8
        assert not [thread for thread in started if thread.is_alive()]

    def test_hand_offs_are_never_lost_under_thread_churn(self):
        """16 clients x 15 requests against instant jobs, with a shortened
        switch interval: a lost hand-off hangs a request, a lost idle
        registration starts a thread more than there are clients."""
        backend = _BlockingBackend()
        backend.unblock.set()
        server = start_server(backend=backend, port=0, queue_limit=16)
        before = _handler_threads()
        answers = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(index):
                for round_ in range(15):
                    answers.append(json.loads(_post(
                        server.url + "/compile", {"request_id": "s%d-%d" % (index, round_)}
                    ))["request_id"])

            clients = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            started = _handler_threads() - before
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert not [thread for thread in clients if thread.is_alive()]
        assert len(answers) == len(set(answers)) == 16 * 15
        assert len(started) <= 16
        assert not [thread for thread in started if thread.is_alive()]

    def test_close_returns_when_serving_never_started(self):
        server = make_server(backend_kind="thread", port=0)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=20.0)
        assert not closer.is_alive(), "close() hung without serve_forever()"


# ---------------------------------------------------------------------------
# memoized listing bits and label lookups
# ---------------------------------------------------------------------------


def _oracle_listing(words, title: str) -> str:
    """``format_listing`` with every ``; bits:`` line computed afresh."""
    lines = ["; %s" % title, "; %d instruction words" % len(words)]
    for index, word in enumerate(words):
        if word.label:
            lines.append("%s:" % word.label)
        lines.append("%4d:  %s" % (index, word.describe()))
        lines.append("       ; bits: %s" % _format_bits(word.partial_instruction()))
    return "\n".join(lines) + "\n"


def _assert_memo_matches_oracle(result) -> None:
    words = list(result.words)
    title = "%s on %s" % (result.name, result.processor)
    for word in words:
        assert _bits_text(word) == _format_bits(word.partial_instruction())
    assert result.listing() == format_listing(words, title) == _oracle_listing(words, title)


class TestListingMemo:
    @pytest.mark.parametrize("target", TARGETS)
    def test_kernel_listings_match_the_oracle(self, target):
        session = Toolchain.for_target(target)
        for kernel in KERNELS:
            _assert_memo_matches_oracle(session.compile_kernel(kernel))

    @pytest.mark.parametrize("target", ("ref", "tms320c25"))
    def test_generated_program_listings_match_the_oracle(self, target):
        session = Toolchain.for_target(target)
        compiled = 0
        for seed in range(25):
            try:
                result = session.compile(generate_source(seed), name="g%d" % seed)
            except ReproError:
                continue  # a program the target cannot cover
            _assert_memo_matches_oracle(result)
            compiled += 1
        assert compiled > 0


class TestLabelLookups:
    MESSAGE = "metric m takes labels (status, target), got (%s)"

    @pytest.mark.parametrize("labels, given", [
        ({"target": "demo"}, "target"),
        ({"target": "demo", "status": "ok", "extra": "x"}, "extra, status, target"),
        ({"target": "demo", "statsu": "ok"}, "statsu, target"),
    ])
    def test_bad_label_names_raise_before_and_after_the_child_exists(
        self, labels, given
    ):
        family = MetricsRegistry().counter("m", labels=("target", "status"))
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                family.labels(**labels)
            assert str(excinfo.value) == self.MESSAGE % given
            family.labels(target="demo", status="ok").inc()
        assert family.labels(status="ok", target="demo").value == 2
