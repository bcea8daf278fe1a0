"""The compile server: an HTTP/JSON front end over the compile backends.

This package puts a network-facing, observable server on the compile
backends of :mod:`repro.service`:

* :mod:`repro.server.http` -- a stdlib ``HTTPServer`` on reused handler
  threads exposing ``POST /compile`` and ``POST /batch`` (the backend's
  encoded envelopes, written unread; ``/batch`` streams them as NDJSON),
  ``GET /healthz`` and ``GET /metrics``, with bounded-queue backpressure
  (429 when saturated);
* :mod:`repro.server.metrics` -- Prometheus-style live metrics
  (compile counters per target, compiles/s, retarget-cache and
  label-memo hit rates, per-phase latency histograms) aggregated from
  the :class:`~repro.toolchain.results.CompileMetrics` block every
  result already carries, every line rendered by one
  :class:`~repro.obs.metrics.MetricsRegistry`.

Serve from the CLI (``repro serve --backend process``) or embed::

    from repro.server import start_server

    server = start_server(backend_kind="process", workers=4)
    print(server.url)       # POST jobs at <url>/compile
    ...
    server.close()
"""

from repro.server.http import (
    DEFAULT_MAX_BODY_BYTES,
    AdmissionGate,
    CompileRequestHandler,
    CompileServer,
    make_server,
    start_server,
)
from repro.server.metrics import ServerMetrics

__all__ = [
    "AdmissionGate",
    "CompileRequestHandler",
    "CompileServer",
    "DEFAULT_MAX_BODY_BYTES",
    "ServerMetrics",
    "make_server",
    "start_server",
]
