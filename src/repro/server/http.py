"""The HTTP/JSON front end of the compile server (stdlib-only).

A :class:`CompileServer` is a :class:`ThreadingHTTPServer` bound to a
:class:`~repro.service.backends.CompileBackend`.  Endpoints:

* ``POST /compile`` -- one decoded job object in, one
  ``CompileResponse`` envelope out (HTTP 200 even for compile *errors*:
  the envelope's ``ok``/``error`` fields carry the outcome; only
  transport-level problems map to 4xx);
* ``POST /batch`` -- a JSON array of jobs, ``{"jobs": [...]}``, or
  NDJSON lines in (:func:`~repro.service.api.parse_jobs`, the parser
  ``repro batch`` uses); a *streaming* NDJSON response out (one envelope
  line per job, input order, flushed as each job finishes, from the
  backend's :meth:`~repro.service.backends.CompileBackend.stream_jobs`);
* ``GET /healthz`` -- liveness + backend description (JSON);
* ``GET /metrics`` -- Prometheus text exposition
  (:mod:`repro.server.metrics`).

Backpressure is a bounded admission gate over in-flight *jobs* (not
connections): ``queue_limit`` slots, all-or-nothing acquisition, HTTP
429 with a ``Retry-After`` header when saturated.  Oversized bodies get
413, malformed JSON 400 -- always a structured JSON error body, never a
hang or a dropped request.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.diagnostics import InternalCompilerError
from repro.obs import log
from repro.obs.context import new_request_id, use_request_id
from repro.server.metrics import ServerMetrics
from repro.service.api import parse_jobs
from repro.service.backends import CompileBackend

#: Longest inbound ``X-Request-Id`` honored verbatim (longer ones are
#: truncated -- the id lands in logs, traces and metrics labels).
MAX_REQUEST_ID_CHARS = 128

#: Default cap on request-body bytes (1 MiB -- compile sources are tiny).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Default in-flight job slots per backend worker.
DEFAULT_QUEUE_SLOTS_PER_WORKER = 4


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


class CompileServer(ThreadingHTTPServer):
    """The compile server: HTTP transport + backend + metrics."""

    daemon_threads = True
    allow_reuse_address = True

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

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    def close(self, close_backend: bool = True) -> None:
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
        or a freshly generated one."""
        inbound = (self.headers.get("X-Request-Id") or "").strip()
        if inbound:
            return inbound[:MAX_REQUEST_ID_CHARS]
        return new_request_id()

    def _endpoint(self) -> str:
        return urlsplit(self.path).path

    def _query(self) -> dict:
        return parse_qs(urlsplit(self.path).query)

    def _log_access(self, method: str, endpoint: str, code: int) -> None:
        log.info(
            "http_request",
            method=method,
            endpoint=endpoint,
            code=code,
            duration_s=round(time.perf_counter() - self._started, 6),
            client=self.client_address[0] if self.client_address else None,
        )

    def _send_json(self, code: int, payload: dict, endpoint: str) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        if code == 429:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._rid)
        self.end_headers()
        self.wfile.write(body)
        self.server.metrics.record_http(endpoint, code)
        self._log_access(self.command, endpoint, code)

    def _send_error_json(self, code: int, error_type: str, message: str,
                         endpoint: str) -> None:
        self._send_json(
            code,
            {"ok": False,
             "error": {"type": error_type, "message": message, "phase": "server"}},
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
            self._send_json(
                500,
                {"ok": False,
                 "error": {"type": "InternalCompilerError",
                           "message": str(wrapped), "phase": "internal"}},
                endpoint,
            )
        except Exception:
            self.server.metrics.record_http(endpoint, 500)

    # -- GET ---------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        endpoint = self._endpoint()
        self._started = time.perf_counter()
        self._rid = self._request_id()
        try:
            with use_request_id(self._rid):
                self._route_get(endpoint)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as error:
            self._send_internal_error(endpoint, error)

    def _route_get(self, endpoint: str) -> None:
        if endpoint == "/healthz":
            payload = {"status": "ok"}
            payload.update(self.server.backend.describe())
            payload["in_flight"] = self.server.gate.in_flight
            payload["queue_limit"] = self.server.gate.capacity
            payload.update(self.server.metrics.snapshot())
            self._send_json(200, payload, endpoint)
            return
        if endpoint == "/metrics":
            body = self.server.metrics.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._rid)
            self.end_headers()
            self.wfile.write(body)
            self.server.metrics.record_http(endpoint, 200)
            self._log_access("GET", endpoint, 200)
            return
        self._send_error_json(
            404, "NotFound", "no such endpoint: %s" % endpoint, endpoint
        )

    # -- POST --------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        endpoint = self._endpoint()
        self._started = time.perf_counter()
        self._rid = self._request_id()
        try:
            with use_request_id(self._rid):
                if endpoint == "/compile":
                    self._handle_compile(endpoint)
                elif endpoint == "/batch":
                    self._handle_batch(endpoint)
                else:
                    self._send_error_json(
                        404, "NotFound", "no such endpoint: %s" % endpoint, endpoint
                    )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as error:
            self._send_internal_error(endpoint, error)

    def _include_results(self) -> bool:
        values = self._query().get("results")
        return not (values and values[-1] in ("0", "false", "no"))

    @staticmethod
    def _strip_result(response: dict) -> dict:
        slim = dict(response)
        slim.pop("result", None)
        return slim

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
        # header then echoes it) unless the client pinned one via
        # X-Request-Id; a job without one inherits the request's id.
        job_rid = job.get("request_id")
        if isinstance(job_rid, str) and job_rid:
            if not self.headers.get("X-Request-Id"):
                self._rid = job_rid[:MAX_REQUEST_ID_CHARS]
        else:
            job = dict(job)
            job["request_id"] = self._rid
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
            response = self.server.backend.run_job(job)
        finally:
            self.server.gate.release(1)
        self.server.metrics.record_compile(response)
        if not self._include_results():
            response = self._strip_result(response)
        self._send_json(200, response, endpoint)

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
            job
            if isinstance(job.get("request_id"), str) and job.get("request_id")
            else {**job, "request_id": self._rid}
            for job in jobs
        ]
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("X-Request-Id", self._rid)
            self.end_headers()
            # Stream in input order; each line is flushed as soon as its
            # job (and all earlier ones) finished, so clients consume
            # results while later jobs still compile.  Closing the stream
            # waits for every job, so the gate is released after the last.
            client_gone = False
            with closing(self.server.backend.stream_jobs(jobs)) as responses:
                for response in responses:
                    self.server.metrics.record_compile(response)
                    if client_gone:
                        continue  # the jobs still drain and count
                    if not include_results:
                        response = self._strip_result(response)
                    try:
                        self.wfile.write(
                            (json.dumps(response) + "\n").encode("utf-8")
                        )
                        self.wfile.flush()
                    except (BrokenPipeError, ConnectionResetError):
                        client_gone = True
        finally:
            self.server.gate.release(len(jobs))
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
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server
