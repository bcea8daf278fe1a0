"""Request/response envelopes of the compile service.

Both dataclasses are JSON-first: :meth:`CompileRequest.from_dict` accepts
one decoded JSON-lines job object, :meth:`CompileResponse.to_dict`
produces one JSON-lines result object.  The embedded compilation result
uses the lossless serialization of
:class:`repro.toolchain.results.CompilationResult`.  :func:`parse_jobs`
turns a batch body (``repro batch`` input, ``POST /batch``) into job
objects.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional

from repro.diagnostics import ReproError
from repro.records import Record, SchemaError
from repro.toolchain.passes import PipelineConfig
from repro.toolchain.results import CompilationResult


#: The shortest ``timeout_s`` a job may ask for, in seconds.  Below it a
#: job would only buy a worker kill and respawn on the process backend;
#: such a job answers a :class:`RequestError` instead.
MIN_TIMEOUT_S = 0.1


class RequestError(ReproError):
    """A malformed compile request (missing/conflicting fields)."""

    phase = "service"


@dataclass(frozen=True)
class ErrorInfo(Record):
    """Structured description of one failed request."""

    type: str
    message: str
    phase: str = ""

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorInfo":
        return cls(
            type=type(error).__name__,
            message=str(error),
            phase=getattr(error, "phase", "") or "",
        )


@dataclass(frozen=True)
class CompileRequest(Record):
    """One compilation job.

    Exactly one of ``source`` (program text) or ``kernel`` (a DSPStone
    kernel name) must be set.  ``preset`` selects a named pipeline
    ablation; ``config`` pins an explicit :class:`PipelineConfig`
    (mutually exclusive with ``preset``).  ``opt`` overrides the IR
    optimizer knob of whichever config the request resolves to
    (``"opt": false`` in a batch job A/Bs the optimizer per request);
    ``verify`` likewise overrides the static-verifier knob
    (``"verify": true`` runs the pipeline verifier for that job).
    ``request_id`` is echoed back in the response so callers can
    correlate out-of-order streams (the HTTP front end fills it in from
    ``X-Request-Id`` when the job carries none).  ``trace`` asks the
    service to run this compile under a
    :class:`~repro.obs.trace.Tracer`; the response's result then embeds
    the Chrome trace-event JSON.  ``timeout_s`` bounds the wall-clock
    service time of this request, at least :data:`MIN_TIMEOUT_S`: the
    process backend kills and respawns the worker when it expires (a
    structured timeout error response, the worker slot survives); the
    thread backend cannot preempt a running compile and ignores it.
    """

    target: str
    source: Optional[str] = None
    kernel: Optional[str] = None
    name: Optional[str] = None
    preset: Optional[str] = None
    config: Optional[PipelineConfig] = None
    opt: Optional[bool] = None
    verify: Optional[bool] = None
    binding_overrides: Dict[str, str] = field(default_factory=dict)
    request_id: Optional[str] = None
    timeout_s: Optional[float] = None
    trace: bool = False

    def validate(self) -> None:
        """The checks the field types (see :meth:`from_dict`) cannot express."""
        if not self.target:
            raise RequestError("compile request needs a target")
        if (self.source is None) == (self.kernel is None):
            raise RequestError(
                "compile request needs exactly one of source= or kernel= "
                "(got %s)" % ("both" if self.source is not None else "neither")
            )
        if self.preset is not None and self.config is not None:
            raise RequestError("pass either preset= or config=, not both")
        if self.timeout_s is not None and self.timeout_s < MIN_TIMEOUT_S:
            raise RequestError(
                "CompileRequest.timeout_s: expected at least %g seconds, got %r"
                % (MIN_TIMEOUT_S, self.timeout_s)
            )

    def resolved_config(self) -> PipelineConfig:
        """The pipeline config this request asks for (presets resolved,
        the ``opt`` override applied last)."""
        if self.config is not None:
            config = self.config
        elif self.preset is not None:
            config = PipelineConfig.preset(self.preset)
        else:
            config = PipelineConfig()
        if self.opt is not None:
            config = config.with_updates(use_optimizer=self.opt)
        if self.verify is not None:
            config = config.with_updates(verify=self.verify)
        return config

    def display_name(self, index: int = 0) -> str:
        return self.name or self.kernel or "request%d" % index

    def to_dict(self) -> dict:
        """Every field that differs from its default, in field order
        (``target`` has none, so it is always there)."""
        data = super().to_dict()
        for spec in fields(self):
            default = spec.default if spec.default_factory is MISSING else spec.default_factory()
            if data[spec.name] == default:
                del data[spec.name]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CompileRequest":
        """Decode one JSON-lines job object; a job that does not fit the
        field annotations is a :class:`RequestError` naming the field."""
        if isinstance(data, dict) and "_malformed" in data:
            # Placeholder parse_jobs puts in place of an entry that failed
            # to decode; surface the original error.
            raise RequestError("malformed job: %s" % data["_malformed"])
        try:
            return super().from_dict(data)
        except SchemaError as error:
            raise RequestError(str(error)) from None


@dataclass(frozen=True)
class CompileResponse(Record):
    """The outcome of one :class:`CompileRequest`.

    ``ok`` responses carry a live :class:`CompilationResult`; failed ones
    carry an :class:`ErrorInfo`.  ``elapsed_s`` is the wall-clock service
    time of the request (session lookup + compilation), which is what the
    throughput benchmark aggregates.  ``to_dict`` leaves out what the
    outcome does not have.
    """

    target: str
    name: str
    ok: bool
    result: Optional[CompilationResult] = None
    error: Optional[ErrorInfo] = None
    request_id: Optional[str] = None
    elapsed_s: float = 0.0

    def to_dict(self, include_result: bool = True) -> dict:
        data: dict = {
            "target": self.target,
            "name": self.name,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }
        if self.request_id is not None:
            data["request_id"] = self.request_id
        if self.ok and self.result is not None and include_result:
            data["result"] = self.result.to_dict()
        if not self.ok and self.error is not None:
            data["error"] = self.error.to_dict()
        return data

    def to_json(self, include_result: bool = True, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(include_result=include_result), indent=indent)


def failed_envelope(
    job: object, index: int, error: ErrorInfo, elapsed_s: float = 0.0
) -> dict:
    """The response dict of a job no decoded request answers for (it did
    not decode, its worker crashed or timed out).  Only the job's string
    fields are read, and named like :meth:`CompileRequest.display_name`."""
    fields = job if isinstance(job, dict) else {}
    strings = {key: value for key, value in fields.items() if isinstance(value, str)}
    return CompileResponse(
        target=strings.get("target", ""),
        name=strings.get("name") or strings.get("kernel") or "request%d" % index,
        ok=False,
        error=error,
        request_id=strings.get("request_id"),
        elapsed_s=elapsed_s,
    ).to_dict()


def parse_jobs(text: str) -> List[dict]:
    """Decode a batch body into job objects, one per job, in order.

    Accepts a JSON array of jobs, a ``{"jobs": [...]}`` object, or NDJSON
    (one job per line; blank lines and ``#`` comment lines are skipped).
    An entry that does not decode, or is not a JSON object, becomes a
    ``{"_malformed": ...}`` placeholder naming its line or index;
    :meth:`CompileRequest.from_dict` turns it into a structured error at
    that position, so one bad entry never aborts the batch.
    """
    if text.lstrip().startswith(("[", "{")):
        try:
            decoded = json.loads(text)
        except ValueError:
            decoded = None  # maybe NDJSON whose first line is an object
        if isinstance(decoded, dict) and isinstance(decoded.get("jobs"), list):
            decoded = decoded["jobs"]
        if isinstance(decoded, list):
            return [
                job if isinstance(job, dict)
                else {"_malformed": "job %d is not an object" % index}
                for index, job in enumerate(decoded)
            ]
    jobs: List[dict] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            job = json.loads(line)
        except ValueError as error:
            jobs.append({"_malformed": "line %d: %s" % (number, error)})
            continue
        if not isinstance(job, dict):
            job = {"_malformed": "line %d is not an object" % number}
        jobs.append(job)
    return jobs
