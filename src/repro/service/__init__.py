"""The compile service: compile jobs as a service layer.

This package turns the session API of :mod:`repro.toolchain` into a
traffic-serving surface:

* :class:`CompileRequest` / :class:`CompileResponse`
  (:mod:`repro.service.api`) -- the JSON-friendly request/response
  envelope.  A response embeds a structured
  :class:`~repro.toolchain.results.CompilationResult` on success and a
  structured :class:`ErrorInfo` on failure; ``parse_jobs`` decodes a
  batch body (NDJSON, a JSON array or ``{"jobs": [...]}``);
* :class:`SessionPool` (:mod:`repro.service.pool`) -- thread-safe pooling
  of :class:`~repro.toolchain.Session` objects keyed by
  ``(target, pipeline config)``, so retargeting and selector setup are
  paid once per distinct key, not once per request;
* :class:`CompileService` (:mod:`repro.service.service`) -- fault-isolated
  execution of one request (``run``) or one decoded job object
  (``run_dict``).  A failing request yields an error response; it never
  raises;
* :class:`CompileBackend` / :class:`ThreadCompileBackend` /
  :class:`ProcessCompileBackend` (:mod:`repro.service.backends`) -- where
  batches run, behind the HTTP server and ``repro batch``: one ordered
  fan-out, one guard against escaping exceptions, and one set of
  completed/failed counts.  The process backend runs a pool of worker
  processes warmed from a shared read-only retarget-cache spool (true
  multi-core scaling), with crash detection, respawn and per-request
  timeouts.

Typical usage::

    from repro.service import ThreadCompileBackend

    with ThreadCompileBackend() as backend:
        responses = backend.run_jobs([
            {"target": "tms320c25", "kernel": "fir"},
            {"target": "demo", "source": "int a, b; b = a + 1;"},
        ])
    for response in responses:
        print(response["ok"], response["name"])
"""

from repro.service.api import CompileRequest, CompileResponse, ErrorInfo
from repro.service.backends import (
    BACKEND_KINDS,
    BackendError,
    CompileBackend,
    ProcessCompileBackend,
    ThreadCompileBackend,
    create_backend,
    default_process_workers,
)
from repro.service.pool import SessionPool
from repro.service.service import CompileService

__all__ = [
    "BACKEND_KINDS",
    "BackendError",
    "CompileBackend",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "ErrorInfo",
    "ProcessCompileBackend",
    "SessionPool",
    "ThreadCompileBackend",
    "create_backend",
    "default_process_workers",
]
