"""The HTTP/JSON front end of the compile server (stdlib-only).

A :class:`CompileServer` is an :class:`HTTPServer` bound to a
:class:`~repro.service.backends.CompileBackend` that hands each accepted
connection to an idle handler thread, starting a new one only when none
is idle.  Endpoints:

* ``POST /compile`` -- one decoded job object in, one
  ``CompileResponse`` envelope out (HTTP 200 even for compile *errors*:
  the envelope's ``ok``/``error`` fields carry the outcome; only
  transport-level problems map to 4xx);
* ``POST /batch`` -- a JSON array of jobs, ``{"jobs": [...]}``, or
  NDJSON lines in (:func:`~repro.service.api.parse_jobs`, the parser
  ``repro batch`` uses); a *streaming* NDJSON response out (one envelope
  line per job, input order, flushed as each job finishes, from the
  backend's
  :meth:`~repro.service.backends.CompileBackend.stream_responses`);
* ``GET /healthz`` -- liveness + backend description (JSON);
* ``GET /metrics`` -- Prometheus text exposition
  (:mod:`repro.server.metrics`).

Backpressure is a bounded admission gate over in-flight *jobs* (not
connections): ``queue_limit`` slots, all-or-nothing acquisition, HTTP
429 with a ``Retry-After`` header when saturated.  Oversized bodies get
413, malformed JSON 400 -- always a structured JSON error body, never a
hang or a dropped request.  Envelopes are written as the backend encoded
them (only ``?results=0`` decodes one, to drop its ``result``), and a
response's headers and body leave in one send.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.diagnostics import InternalCompilerError
from repro.obs import log
from repro.obs.context import new_request_id, use_request_id
from repro.server.metrics import ServerMetrics
from repro.service.api import parse_jobs
from repro.service.backends import CompileBackend, strip_result

#: Longest inbound ``X-Request-Id`` honored verbatim (longer ones are
#: truncated -- the id lands in logs, traces and metrics labels).
MAX_REQUEST_ID_CHARS = 128

#: Default cap on request-body bytes (1 MiB -- compile sources are tiny).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Default in-flight job slots per backend worker.
DEFAULT_QUEUE_SLOTS_PER_WORKER = 4


def header_safe(request_id: str) -> bool:
    """Printable ASCII: no CR/LF to start a header line, nothing to fail
    the header's latin-1 encode."""
    return request_id.isascii() and request_id.isprintable()


class AdmissionGate:
    """All-or-nothing admission of ``n`` jobs against a slot budget."""

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._in_flight = 0

    def try_acquire(self, count: int = 1) -> bool:
        with self._lock:
            if self._in_flight + count > self.capacity:
                return False
            self._in_flight += count
            return True

    def release(self, count: int = 1) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - count)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight


class CompileServer(HTTPServer):
    """The compile server: HTTP transport + backend + metrics.

    A handler thread rejoins the idle set just before its response's
    last bytes leave, so a client's next connection finds it idle.
    """

    allow_reuse_address = True
    request_queue_size = 128  # listen backlog: the default 5 resets bursts of connects

    def __init__(
        self,
        address: Tuple[str, int],
        backend: CompileBackend,
        metrics: Optional[ServerMetrics] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        queue_limit: Optional[int] = None,
        verbose: bool = False,
    ):
        super().__init__(address, CompileRequestHandler)
        self.backend = backend
        self.metrics = (
            metrics if metrics is not None else ServerMetrics(backend_stats=backend.stats)
        )
        self.max_body_bytes = max_body_bytes
        if queue_limit is None:
            queue_limit = DEFAULT_QUEUE_SLOTS_PER_WORKER * max(1, backend.workers)
        self.gate = AdmissionGate(queue_limit)
        self.verbose = verbose
        self._serving = False  # serve_forever ran or is about to
        self._handlers_lock = threading.Lock()
        self._idle: List[tuple] = []  # (thread, hand-off queue) per idle thread
        self._closing = False
        self._local = threading.local()  # a handler thread's slot and state

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    def process_request(self, request, client_address) -> None:
        with self._handlers_lock:
            idle = self._idle.pop() if self._idle else None
        if idle is not None:
            idle[1].put((request, client_address))
        else:
            threading.Thread(
                target=self._handler_loop, args=(request, client_address),
                name="repro-http", daemon=True,
            ).start()

    def _handler_loop(self, request, client_address) -> None:
        local = self._local
        local.slot = (threading.current_thread(), queue.SimpleQueue())
        while request is not None:
            local.rejoined = False
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            if not self._rejoin_idle():
                return
            request, client_address = local.slot[1].get()

    def _rejoin_idle(self) -> bool:
        """Put the calling handler thread in the idle set, once per
        connection; False when the server is closing."""
        if not self._local.rejoined:
            with self._handlers_lock:
                if self._closing:
                    return False
                self._idle.append(self._local.slot)
            self._local.rejoined = True
        return True

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def server_close(self) -> None:
        """Close the socket and end the idle handler threads; a busy one
        ends when its connection does."""
        super().server_close()
        with self._handlers_lock:
            self._closing = True
            idle, self._idle = self._idle, []
        for thread, handoff in idle:
            handoff.put((None, None))
            thread.join(timeout=5.0)  # bounded: a send to a stalled client

    def close(self, close_backend: bool = True) -> None:
        if self._serving:
            # shutdown() waits for serve_forever to notice; without a
            # serve_forever it would wait forever.
            self.shutdown()
        self.server_close()
        if close_backend:
            self.backend.close()


class CompileRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; every response body is JSON or
    NDJSON, every error structured."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"  # close-delimited: NDJSON streams
    # need no chunked framing and every client sees the stream end.
    wbufsize = 1 << 16  # holds a response until its one send

    server: CompileServer  # narrowed for type checkers

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        # Structured logging supersedes the legacy stderr access line;
        # keep the old output only for --verbose without a log format.
        if self.server.verbose and not log.enabled():
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _request_id(self) -> str:
        """This request's correlation id: the inbound ``X-Request-Id``
        (whitespace-stripped, truncated to :data:`MAX_REQUEST_ID_CHARS`)
        when it is :func:`header_safe`, else a freshly generated one."""
        inbound = (self.headers.get("X-Request-Id") or "").strip()
        if inbound and header_safe(inbound):
            return inbound[:MAX_REQUEST_ID_CHARS]
        return new_request_id()

    def _log_access(self, method: str, endpoint: str, code: int) -> None:
        log.info(
            "http_request",
            method=method,
            endpoint=endpoint,
            code=code,
            duration_s=round(time.perf_counter() - self._started, 6),
            client=self.client_address[0] if self.client_address else None,
        )

    def _send(self, code: int, body: bytes, endpoint: str,
              content_type: str = "application/json") -> None:
        self.send_response(code)
        if code == 429:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._rid)
        self.end_headers()
        self.wfile.write(body)
        self.server._rejoin_idle()
        self.wfile.flush()  # headers and body leave in one send
        self.server.metrics.record_http(endpoint, code)
        self._log_access(self.command, endpoint, code)

    def _send_json(self, code: int, payload: dict, endpoint: str) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"), endpoint)

    def _send_error_json(self, code: int, error_type: str, message: str,
                         endpoint: str, phase: str = "server") -> None:
        self._send_json(
            code,
            {"ok": False,
             "error": {"type": error_type, "message": message, "phase": phase}},
            endpoint,
        )

    def _read_body(self, endpoint: str) -> Optional[bytes]:
        """The request body, or None after an error response was sent."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._send_error_json(
                411, "LengthRequired", "Content-Length header is required", endpoint
            )
            return None
        try:
            length = int(length_header)
        except ValueError:
            self._send_error_json(
                400, "BadRequest", "malformed Content-Length", endpoint
            )
            return None
        if length > self.server.max_body_bytes:
            self._send_error_json(
                413,
                "RequestBodyTooLarge",
                "request body of %d bytes exceeds the %d byte limit"
                % (length, self.server.max_body_bytes),
                endpoint,
            )
            return None
        return self.rfile.read(length)

    def _send_internal_error(self, endpoint: str, error: BaseException) -> None:
        """Last-resort boundary: an unexpected exception in the handler
        itself answers with a structured 500 envelope (best effort --
        when the response already streamed, the connection just closes;
        HTTP/1.0 close-delimited framing keeps that unambiguous)."""
        wrapped = InternalCompilerError.wrap(
            error, context="endpoint %s" % endpoint
        )
        try:
            self._send_error_json(
                500, "InternalCompilerError", str(wrapped), endpoint, phase="internal"
            )
        except Exception:
            self.server.metrics.record_http(endpoint, 500)

    # -- routing -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve({"/healthz": self._handle_healthz, "/metrics": self._handle_metrics})

    def do_POST(self) -> None:  # noqa: N802
        self._serve({"/compile": self._handle_compile, "/batch": self._handle_batch})

    def _serve(self, routes: dict) -> None:
        endpoint = urlsplit(self.path).path
        self._started = time.perf_counter()
        self._rid = self._request_id()
        try:
            with use_request_id(self._rid):
                route = routes.get(endpoint)
                if route is None:
                    self._send_error_json(
                        404, "NotFound", "no such endpoint: %s" % endpoint, endpoint
                    )
                else:
                    route(endpoint)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as error:
            self._send_internal_error(endpoint, error)

    def _handle_healthz(self, endpoint: str) -> None:
        payload = {"status": "ok"}
        payload.update(self.server.backend.describe())
        payload["in_flight"] = self.server.gate.in_flight
        payload["queue_limit"] = self.server.gate.capacity
        payload.update(self.server.metrics.snapshot())
        self._send_json(200, payload, endpoint)

    def _handle_metrics(self, endpoint: str) -> None:
        body = self.server.metrics.render().encode("utf-8")
        self._send(200, body, endpoint, "text/plain; version=0.0.4")

    def _include_results(self) -> bool:
        values = parse_qs(urlsplit(self.path).query).get("results")
        return not (values and values[-1] in ("0", "false", "no"))

    def _handle_compile(self, endpoint: str) -> None:
        body = self._read_body(endpoint)
        if body is None:
            return
        try:
            job = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._send_error_json(
                400, "BadRequest", "request body is not valid JSON: %s" % error,
                endpoint,
            )
            return
        if not isinstance(job, dict):
            self._send_error_json(
                400, "BadRequest", "request body must be a JSON object", endpoint
            )
            return
        # One id joins everything: a job-supplied request_id wins (the
        # header then echoes it, if header-safe) unless the client pinned
        # one via X-Request-Id; a job without one (absent, null or empty)
        # inherits the request's id.  Any other id is left for the decode.
        job_rid = job.get("request_id")
        if job_rid in (None, ""):
            job = {**job, "request_id": self._rid}
        elif isinstance(job_rid, str) and header_safe(job_rid):
            if not self.headers.get("X-Request-Id"):
                self._rid = job_rid[:MAX_REQUEST_ID_CHARS]
        if not self.server.gate.try_acquire(1):
            self._send_error_json(
                429,
                "ServerSaturated",
                "server is at its in-flight request limit (%d); retry later"
                % self.server.gate.capacity,
                endpoint,
            )
            return
        try:
            summary, body = self.server.backend.respond(job)
        finally:
            self.server.gate.release(1)
        self.server.metrics.record_compile(summary)
        if not self._include_results():
            body = strip_result(body)
        self._send(200, body, endpoint)

    def _handle_batch(self, endpoint: str) -> None:
        body = self._read_body(endpoint)
        if body is None:
            return
        try:
            jobs = parse_jobs(body.decode("utf-8"))
        except UnicodeDecodeError as error:
            self._send_error_json(
                400, "BadRequest", "request body is not UTF-8: %s" % error, endpoint
            )
            return
        if not jobs:
            self._send_error_json(
                400, "BadRequest",
                "batch body contained no jobs (send a JSON array, a "
                '{"jobs": [...]} object, or NDJSON lines)', endpoint,
            )
            return
        if not self.server.gate.try_acquire(len(jobs)):
            self._send_error_json(
                429,
                "ServerSaturated",
                "batch of %d jobs exceeds the free in-flight budget "
                "(%d of %d slots free); retry later or shrink the batch"
                % (
                    len(jobs),
                    self.server.gate.capacity - self.server.gate.in_flight,
                    self.server.gate.capacity,
                ),
                endpoint,
            )
            return
        include_results = self._include_results()
        # Every job of the batch shares this request's id unless it
        # pinned its own -- one X-Request-Id joins the access log, all
        # NDJSON envelopes and any worker crash records.
        jobs = [
            {**job, "request_id": self._rid} if job.get("request_id") in (None, "") else job
            for job in jobs
        ]
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("X-Request-Id", self._rid)
            self.end_headers()
            self.wfile.flush()
            # Stream in input order; each line is flushed as soon as its
            # job (and all earlier ones) finished, so clients consume
            # results while later jobs still compile.  Closing the stream
            # waits for every job, so the gate is released after the last.
            client_gone = False
            with closing(self.server.backend.stream_responses(jobs)) as replies:
                for summary, body in replies:
                    self.server.metrics.record_compile(summary)
                    if client_gone:
                        continue  # the jobs still drain and count
                    if not include_results:
                        body = strip_result(body)
                    try:
                        self.wfile.write(body + b"\n")
                        self.wfile.flush()
                    except (BrokenPipeError, ConnectionResetError):
                        client_gone = True
        finally:
            self.server.gate.release(len(jobs))
            self.server._rejoin_idle()  # the client sees the end at the close
            self.server.metrics.record_http(endpoint, 200)
            self._log_access("POST", endpoint, 200)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    backend: Optional[CompileBackend] = None,
    backend_kind: str = "thread",
    workers: Optional[int] = None,
    queue_limit: Optional[int] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    verbose: bool = False,
    **backend_kwargs,
) -> CompileServer:
    """Build (but do not start) a :class:`CompileServer`."""
    from repro.service.backends import create_backend

    if backend is None:
        backend = create_backend(backend_kind, workers=workers, **backend_kwargs)
    return CompileServer(
        (host, port),
        backend,
        max_body_bytes=max_body_bytes,
        queue_limit=queue_limit,
        verbose=verbose,
    )


def start_server(**kwargs) -> CompileServer:
    """:func:`make_server` + a daemon serving thread (tests, benchmarks,
    embedding).  Call ``server.close()`` when done."""
    server = make_server(**kwargs)
    server._serving = True  # so a close() racing the thread still ends it
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server
