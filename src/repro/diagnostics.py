"""Structured diagnostics shared by every layer of the toolchain.

All errors the package raises on invalid *user input* (HDL models, source
programs, target names, pipeline configurations) derive from
:class:`ReproError`, so callers of the high-level API --
:class:`repro.toolchain.Toolchain` and friends -- can catch one exception
type and still present precise, located messages.  Errors that carry a
position in an input text attach a :class:`SourceLocation`.

This module sits below every other ``repro`` package and imports none of
them, only the leaf module :mod:`repro.records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.records import Record


@dataclass(frozen=True)
class SourceLocation:
    """A position in an input text (HDL model or source program).

    ``line`` and ``column`` are 1-based; 0 means unknown.  ``filename`` is
    the origin of the text when it came from a file (``None`` for inline
    strings such as the built-in processor models).
    """

    line: int = 0
    column: int = 0
    filename: Optional[str] = None

    def __bool__(self) -> bool:
        return bool(self.line or self.column or self.filename)

    def __str__(self) -> str:
        parts = []
        if self.filename:
            parts.append(self.filename)
        if self.line:
            parts.append("line %d" % self.line)
        if self.column:
            parts.append("column %d" % self.column)
        return ", ".join(parts)


class ReproError(Exception):
    """Base class of every structured error raised by the toolchain.

    ``location`` is a :class:`SourceLocation` (possibly empty) and
    ``phase`` names the pipeline phase that raised the error (``"hdl"``,
    ``"frontend"``, ``"selection"``, ...) when known.
    """

    phase: str = ""

    def __init__(
        self,
        message: str,
        location: Optional[SourceLocation] = None,
        phase: Optional[str] = None,
    ):
        self.location = location if location is not None else SourceLocation()
        if phase is not None:
            self.phase = phase
        if self.location:
            message = "%s: %s" % (self.location, message)
        super().__init__(message)


class TargetError(ReproError, KeyError):
    """An unknown target name or an invalid target registration.

    Also a :class:`KeyError` because the registry behaves like a mapping.
    """

    phase = "target"

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return Exception.__str__(self)


class KernelError(ReproError, KeyError):
    """An unknown DSPStone kernel name.

    Also a :class:`KeyError` for compatibility with the mapping-style
    lookup API (same convention as :class:`TargetError`).
    """

    phase = "request"

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return Exception.__str__(self)


class PipelineError(ReproError):
    """An invalid pass-pipeline configuration (unknown pass or preset,
    broken pass ordering)."""

    phase = "pipeline"


class ResultError(ReproError):
    """A compilation-result artifact was requested that the result does
    not carry (e.g. live IR objects on a deserialized result)."""

    phase = "result"


class ResourceLimitError(ReproError):
    """A resource ceiling was hit while processing an input: frontend
    nesting/size limits, selector subject-node caps, simulation step
    budgets.  Pathological inputs must terminate with this structured
    error, never with ``RecursionError``/``MemoryError`` blowups."""

    phase = "limits"


#: Truncation bounds of the traceback excerpt an
#: :class:`InternalCompilerError` carries (last lines win: the frame
#: that actually raised is what a bug report needs).
TRACEBACK_MAX_LINES = 12
TRACEBACK_MAX_CHARS = 2000


class InternalCompilerError(ReproError):
    """The single internal-error boundary of the toolchain.

    Any *unexpected* exception (not a :class:`ReproError`) escaping a
    pipeline pass, the compile service, a worker process or the HTTP
    server is wrapped into one of these: a structured diagnostic naming
    the pass/stage that blew up (``pass_name``), the input being
    compiled (``context``, typically a program name/seed/hash) and a
    truncated traceback (``traceback_text``) -- instead of a raw Python
    traceback reaching a caller, a batch or a network client.

    ``cause_type`` records the wrapped exception's class name so error
    consumers can still distinguish failure modes.
    """

    phase = "internal"

    def __init__(
        self,
        message: str,
        pass_name: str = "",
        context: str = "",
        cause_type: str = "",
        traceback_text: str = "",
    ):
        self.pass_name = pass_name
        self.context = context
        self.cause_type = cause_type
        self.traceback_text = traceback_text
        parts = []
        if pass_name:
            parts.append("in pass %r" % pass_name)
        if context:
            parts.append("while compiling %s" % context)
        detail = (" (%s)" % ", ".join(parts)) if parts else ""
        super().__init__("%s%s" % (message, detail))

    @classmethod
    def wrap(
        cls,
        error: BaseException,
        pass_name: str = "",
        context: str = "",
    ) -> "InternalCompilerError":
        """Wrap an unexpected exception, capturing a truncated traceback.

        Idempotent: wrapping an :class:`InternalCompilerError` returns it
        unchanged, so nested boundaries never stack wrappers.
        """
        if isinstance(error, InternalCompilerError):
            return error
        import traceback

        lines = traceback.format_exception(type(error), error, error.__traceback__)
        text = "".join(lines[-TRACEBACK_MAX_LINES:])
        if len(text) > TRACEBACK_MAX_CHARS:
            text = "... " + text[-TRACEBACK_MAX_CHARS:]
        wrapped = cls(
            "internal error: %s: %s" % (type(error).__name__, error),
            pass_name=pass_name,
            context=context,
            cause_type=type(error).__name__,
            traceback_text=text,
        )
        wrapped.__cause__ = error
        return wrapped

    def report(self) -> str:
        """The full multi-line report: the one-line message plus the
        truncated traceback excerpt (for logs and ``--verbose`` CLI
        output; the one-line ``str()`` form is what envelopes carry)."""
        if not self.traceback_text:
            return str(self)
        return "%s\ntruncated traceback (innermost last):\n%s" % (
            self, self.traceback_text.rstrip()
        )


@dataclass(frozen=True)
class Diagnostic(Record):
    """One structured, non-fatal message attached to a compilation result.

    ``severity`` is ``"note"``, ``"warning"`` or ``"error"``; ``phase``
    names the pass or pipeline stage that emitted the message.
    """

    severity: str
    message: str
    phase: str = ""

    def __str__(self) -> str:
        origin = " [%s]" % self.phase if self.phase else ""
        return "%s%s: %s" % (self.severity, origin, self.message)


def error_report(error: ReproError) -> str:
    """A one-line, human-readable report of a structured error."""
    kind = type(error).__name__
    phase = " [%s]" % error.phase if error.phase else ""
    return "%s%s: %s" % (kind, phase, error)
