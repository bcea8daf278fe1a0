"""The fault-isolated compile service.

:class:`CompileService` executes one :class:`CompileRequest` at a time
over a shared :class:`~repro.service.pool.SessionPool`: requests sharing
a ``(target, config)`` key reuse one pooled session.  Every failure mode
-- malformed request, unknown target, uncoverable statement, even an
unexpected internal exception -- is captured as a structured error
response for *that* request.  Batches, their fan-out and the
completed/failed counts belong to the backends
(:mod:`repro.service.backends`).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.diagnostics import InternalCompilerError, ReproError
from repro.dspstone import kernel_program
from repro.obs import log
from repro.obs.context import use_request_id
from repro.obs.trace import Tracer
from repro.service.api import (
    CompileRequest,
    CompileResponse,
    ErrorInfo,
    RequestError,
    failed_envelope,
)
from repro.service.pool import SessionPool


class CompileService:
    """Serve compile requests over a shared :class:`SessionPool`."""

    def __init__(self, pool: Optional[SessionPool] = None):
        self.pool = pool if pool is not None else SessionPool()

    def run(self, request: CompileRequest, index: int = 0) -> CompileResponse:
        """Execute one request; never raises (errors become responses).

        ``index`` positions the default request name (``request<index>``)
        of a job in a batch.  The request's ``request_id`` becomes ambient
        for the duration (log records emitted anywhere below carry it);
        ``trace=True`` runs the compile under a per-request
        :class:`Tracer` whose Chrome trace lands in
        ``response.result.trace``.
        """
        with use_request_id(request.request_id):
            return self._run_in_context(request, index)

    def run_dict(self, job: object, index: int = 0) -> dict:
        """One decoded JSON job object in, one response dict out.

        A job that does not decode into a :class:`CompileRequest` (a
        ``_malformed`` placeholder, an unknown field, a value of the
        wrong JSON type) answers with a ``RequestError`` response built
        by :func:`~repro.service.api.failed_envelope`; never raises.
        """
        try:
            request = CompileRequest.from_dict(job)
        except RequestError as error:
            return failed_envelope(job, index, ErrorInfo.from_exception(error))
        return self.run(request, index).to_dict()

    def _run_in_context(
        self, request: CompileRequest, index: int
    ) -> CompileResponse:
        started = time.perf_counter()
        name = request.display_name(index)
        try:
            request.validate()
            config = request.resolved_config()
            session = self.pool.session(request.target, config)
            overrides = request.binding_overrides or None
            tracer = (
                Tracer(name="compile", request_id=request.request_id)
                if request.trace
                else None
            )
            if request.kernel is not None:
                result = session.compile(
                    kernel_program(request.kernel),
                    name=request.name,
                    binding_overrides=overrides,
                    tracer=tracer,
                )
            else:
                result = session.compile(
                    request.source,
                    name=name,
                    binding_overrides=overrides,
                    tracer=tracer,
                )
            elapsed = time.perf_counter() - started
            response = CompileResponse(
                target=request.target,
                name=result.name,
                ok=True,
                result=result,
                request_id=request.request_id,
                elapsed_s=elapsed,
            )
            log.info(
                "compile",
                target=request.target,
                name=result.name,
                duration_s=round(elapsed, 6),
                code_size=result.code_size,
            )
            return response
        except Exception as error:  # fault isolation: one bad request,
            if not isinstance(error, ReproError):  # one error response
                # Crash-proofing contract: unexpected exceptions surface
                # as InternalCompilerError diagnostics, never as raw
                # exception types leaking implementation details.
                error = InternalCompilerError.wrap(
                    error,
                    context="request %r on target %r" % (name, request.target),
                )
            elapsed = time.perf_counter() - started
            log.warning(
                "compile_failed",
                target=request.target,
                name=name,
                error_type=type(error).__name__,
                phase=getattr(error, "phase", "") or "",
                duration_s=round(elapsed, 6),
            )
            return CompileResponse(  # never a dead batch
                target=request.target,
                name=name,
                ok=False,
                error=ErrorInfo.from_exception(error),
                request_id=request.request_id,
                elapsed_s=elapsed,
            )
