"""Structured error taxonomy for the FS-model pipeline.

The cost model is meant to run *inside a compiler pass*: a malformed
loop nest, a pathological trip count or a crashed sweep worker must
surface as a *diagnostic*, never as a raw traceback that aborts
compilation.  Every failure the pipeline can produce is therefore an
instance of :class:`ReproError` carrying

* a **stable error code** (``REPRO-F001`` …) that tools and tests can
  match on without parsing prose,
* a **category** (``frontend`` / ``model`` / ``engine`` / ``usage`` /
  ``resource``) that maps onto a CLI exit code,
* a **severity** (``warning`` < ``error`` < ``fatal``),
* an optional **source span** (file:line:column, preserved from
  pycparser coordinates rather than flattened into the message), and
* :meth:`ReproError.to_dict` for machine-readable CLI/JSON output.

Backwards compatibility: the pre-taxonomy exception classes inherited
from :class:`ValueError`/:class:`RuntimeError`; the taxonomy keeps those
bases in the MRO (``FrontendError`` is both a :class:`ReproError` *and*
a :class:`ValueError`), so existing ``except ValueError`` call sites and
tests continue to work unchanged.

Error code registry
-------------------
Codes are namespaced by layer and must be registered exactly once (the
``repro-fs doctor`` self-check and the test suite assert uniqueness):

========== ===========================================================
prefix      layer
========== ===========================================================
``REPRO-U`` usage (bad CLI arguments, malformed specs)
``REPRO-F`` frontend (preprocess, pragma, parse, lowering)
``REPRO-M`` model (FS model, regression predictor, cost models)
``REPRO-R`` resource guards (budget, deadline, state memory)
``REPRO-E`` engine (jobs, worker pool, result store, circuit breaker)
``REPRO-X`` fault injection (test harness, never in production paths)
========== ===========================================================
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Any, Mapping

__all__ = [
    "ERROR_CODES",
    "EXIT_CODES",
    "BudgetExceededError",
    "CircuitOpenError",
    "CostModelError",
    "EngineError",
    "FaultInjectedError",
    "JobCancelledError",
    "ModelError",
    "PoisonJobError",
    "QuotaExceededError",
    "ReproError",
    "ServiceOverloadedError",
    "SourceSpan",
    "StoreError",
    "UsageError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "error_from_dict",
    "register_code",
]

#: category -> process exit code (2=usage, 3=frontend, 4=model/resource,
#: 5=engine), the CLI contract documented in docs/RESILIENCE.md.
EXIT_CODES: dict[str, int] = {
    "usage": 2,
    "frontend": 3,
    "model": 4,
    "resource": 4,
    "engine": 5,
    "fault": 5,
    "general": 1,
}

#: stable code -> one-line description (rendered into docs/RESILIENCE.md
#: and checked for uniqueness by ``repro-fs doctor`` and the tests).
ERROR_CODES: dict[str, str] = {}


def register_code(code: str, description: str) -> str:
    """Register a stable error code; codes may be registered only once."""
    if not re.fullmatch(r"REPRO-[UFMREX]\d{3}", code):
        raise ValueError(f"malformed error code {code!r}")
    if code in ERROR_CODES and ERROR_CODES[code] != description:
        raise ValueError(f"error code {code!r} registered twice")
    ERROR_CODES[code] = description
    return code


@dataclass(frozen=True)
class SourceSpan:
    """A location in kernel source: file, 1-based line, 1-based column.

    ``column``/``end_line``/``end_column`` are optional — pycparser
    coordinates carry (file, line, column); hand-built spans may pin
    only the line.
    """

    file: str = "<kernel>"
    line: int | None = None
    column: int | None = None
    end_line: int | None = None
    end_column: int | None = None

    def __str__(self) -> str:
        parts = [self.file]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        return ":".join(parts)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_coord(cls, coord: Any) -> "SourceSpan | None":
        """Build a span from a pycparser ``Coord`` (or ``None``)."""
        if coord is None:
            return None
        return cls(
            file=str(getattr(coord, "file", "<kernel>") or "<kernel>"),
            line=getattr(coord, "line", None) or None,
            column=getattr(coord, "column", None) or None,
        )

    _MESSAGE_RE = re.compile(r"^(?P<file>[^:]*):(?P<line>\d+):(?:(?P<col>\d+):?)?\s*")

    @classmethod
    def from_parse_message(cls, message: str) -> "tuple[SourceSpan | None, str]":
        """Split a pycparser ``file:line:col: text`` message into
        (span, bare text).  Returns ``(None, message)`` when the message
        carries no location prefix."""
        m = cls._MESSAGE_RE.match(message)
        if not m:
            return None, message
        col = m.group("col")
        span = cls(
            file=m.group("file") or "<kernel>",
            line=int(m.group("line")),
            column=int(col) if col else None,
        )
        return span, message[m.end():] or message


_SEVERITIES = ("warning", "error", "fatal")


def _rebuild_error(cls: type, state: dict) -> "ReproError":
    """Unpickle helper: rebuild a ReproError subclass without calling
    its (possibly signature-incompatible) ``__init__``.  Needed because
    engine jobs cross process boundaries and their exceptions must
    survive the round trip with codes and spans intact."""
    err = cls.__new__(cls)
    Exception.__init__(err, state.get("_rendered", state.get("message", "")))
    err.__dict__.update(state)
    return err


class ReproError(Exception):
    """Base of the pipeline's structured error hierarchy.

    Subclasses pin class-level defaults (``code``, ``category``,
    ``severity``); individual raise sites may override the code per
    instance (one exception class, many stable codes).
    """

    code: str = register_code("REPRO-X000", "unclassified pipeline error")
    category: str = "general"
    severity: str = "error"

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        severity: str | None = None,
        span: SourceSpan | None = None,
        hint: str | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        self.message = str(message)
        if code is not None:
            self.code = code
        if severity is not None:
            if severity not in _SEVERITIES:
                raise ValueError(f"unknown severity {severity!r}")
            self.severity = severity
        self.span = span
        self.hint = hint
        self.context: dict[str, Any] = dict(context or {})
        self._rendered = (
            f"{self.span}: {self.message}" if self.span else self.message
        )
        super().__init__(self._rendered)

    # -- machine-readable form ----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able diagnostic (the CLI's ``--json`` / report form)."""
        doc: dict[str, Any] = {
            "code": self.code,
            "category": self.category,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            doc["span"] = self.span.to_dict()
        if self.hint:
            doc["hint"] = self.hint
        if self.context:
            doc["context"] = self.context
        return doc

    def one_line(self) -> str:
        """The CLI's single-line diagnostic rendering."""
        loc = f"{self.span}: " if self.span else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.severity}[{self.code}] {loc}{self.message}{hint}"

    @property
    def exit_code(self) -> int:
        """Process exit code for this error's category."""
        return EXIT_CODES.get(self.category, 1)

    def __reduce__(self):
        return (_rebuild_error, (type(self), dict(self.__dict__)))


def error_from_dict(doc: Mapping[str, Any]) -> ReproError:
    """Reconstruct a generic :class:`ReproError` from :meth:`to_dict`
    output (category/severity/code survive; the concrete class does
    not — reports only need the structured fields)."""
    span_doc = doc.get("span")
    err = ReproError(
        str(doc.get("message", "")),
        code=str(doc.get("code", ReproError.code)),
        severity=str(doc.get("severity", "error")),
        span=SourceSpan(**span_doc) if span_doc else None,
        hint=doc.get("hint"),
        context=doc.get("context"),
    )
    err.category = str(doc.get("category", "general"))
    return err


# -- usage -------------------------------------------------------------------


class UsageError(ReproError, ValueError):
    """Bad arguments/specs supplied by the caller (CLI exit 2).

    Inherits :class:`ValueError` — bad arguments were plain ValueErrors
    before the taxonomy, and ``except ValueError`` call sites remain.
    """

    code = register_code("REPRO-U001", "invalid command-line usage")
    category = "usage"


register_code("REPRO-U002", "malformed -D macro definition")
register_code("REPRO-U003", "no OpenMP parallel-for loops found in input")
register_code("REPRO-U101", "malformed service request body or job spec")
register_code("REPRO-U102", "malformed tenants file")


# -- model / resource --------------------------------------------------------


class ModelError(ReproError, ValueError):
    """The FS model was asked something it cannot answer (CLI exit 4).

    Inherits :class:`ValueError` so pre-taxonomy ``except ValueError``
    call sites keep working.
    """

    code = register_code("REPRO-M100", "invalid model parameter or state")
    category = "model"


register_code("REPRO-M101", "loop nest has no modelable array accesses")
register_code("REPRO-M102", "symbolic loop bounds unsupported by this analysis")
register_code("REPRO-M103", "regression fit is degenerate (no sampled runs)")


class CostModelError(ModelError):
    """A cost-model component received inconsistent parameters."""

    code = register_code("REPRO-M150", "invalid cost-model parameter")


class BudgetExceededError(ModelError):
    """A resource guard rejected or interrupted an analysis (CLI exit 4).

    ``context`` carries ``guard`` (``steps`` / ``state_bytes`` /
    ``deadline``), the ``limit`` and the offending ``estimate`` so the
    fallback ladder can report *why* it degraded.
    """

    code = register_code("REPRO-R001", "analysis exceeds the configured budget")
    category = "resource"

    @property
    def guard(self) -> str:
        return str(self.context.get("guard", "?"))


register_code("REPRO-R002", "deadline expired before/while running an analysis")
register_code("REPRO-R003", "estimated cache-state memory exceeds the budget")
register_code(
    "REPRO-R004", "no fallback level fits the budget (ladder exhausted)"
)


class QuotaExceededError(ReproError):
    """A service tenant hit one of its admission quotas (HTTP 429).

    The resource category maps to CLI exit 4 and, through the service's
    status table, to HTTP 429 — quota rejections are back-pressure, not
    bugs.  ``context`` names the ``quota`` (``queued_jobs`` / ``cells``
    / ``steps`` / ``rate``), the ``limit`` and the offending value.
    """

    code = register_code("REPRO-R101", "tenant job-queue quota exceeded")
    category = "resource"


register_code("REPRO-R102", "tenant rate limit exceeded (token bucket empty)")
register_code(
    "REPRO-R103", "job exceeds the tenant's per-job cell/step budget"
)


# -- engine ------------------------------------------------------------------


class EngineError(ReproError, RuntimeError):
    """Batch-engine failure (CLI exit 5).

    Inherits :class:`RuntimeError` for pre-taxonomy compatibility
    (``JobOutcome.unwrap`` raised ``RuntimeError``).
    """

    code = register_code("REPRO-E100", "engine job failed")
    category = "engine"


register_code("REPRO-E101", "unknown job kind or malformed job spec")


class WorkerCrashError(EngineError):
    """A worker process died (segfault/OOM/``os._exit``)."""

    code = register_code("REPRO-E102", "worker process crashed")


class WorkerTimeoutError(EngineError):
    """A job overran the pool's per-job wall-clock budget."""

    code = register_code("REPRO-E103", "engine job timed out")


class JobCancelledError(EngineError):
    """A job was cancelled before or while running.

    Raised (or surfaced as a per-job outcome) when a worker pool drains
    on SIGTERM/SIGINT or a service client DELETEs its job: in-flight
    work finishes, pending work reports this code instead of a
    traceback.
    """

    code = register_code(
        "REPRO-E104", "job cancelled by shutdown drain or client request"
    )


class PoisonJobError(EngineError):
    """A job was quarantined after repeatedly crashing worker processes.

    Raised by the service's supervisor when one job's cells keep
    killing engine workers: instead of readmitting the job forever
    (each crash costs a worker restart and stalls sibling tenants), the
    queue marks it terminally failed with this stable code.  ``context``
    carries the observed ``crashes`` and the ``limit`` that tripped.
    The worker pool itself survives — only the poison job stops.
    """

    code = register_code(
        "REPRO-E105", "poison job quarantined after repeated worker crashes"
    )


class ServiceOverloadedError(EngineError):
    """Admission was shed because the service is degraded/overloaded.

    Maps to HTTP 503 with a ``Retry-After`` header: the request was
    well-formed and within quota, but the service is protecting itself
    (queue depth, memory pressure, or supervisor-detected degradation)
    and wants the client to come back later.  ``context`` carries the
    shed ``reason`` and ``retry_after_s``.
    """

    code = register_code(
        "REPRO-E106", "service overloaded or degraded; admission shed"
    )


class CircuitOpenError(EngineError):
    """The sweep/suite failure-rate circuit breaker tripped."""

    code = register_code(
        "REPRO-E201", "failure-rate circuit breaker opened; run aborted"
    )


class StoreError(EngineError):
    """The result store failed in a way retries could not hide."""

    code = register_code("REPRO-E301", "result-store I/O failure")


# -- fault injection ---------------------------------------------------------


class FaultInjectedError(ReproError):
    """An error deliberately raised by the fault-injection harness."""

    code = register_code("REPRO-X901", "injected fault (test harness)")
    category = "fault"


register_code("REPRO-X902", "injected worker crash (test harness)")
register_code("REPRO-X903", "injected latency (test harness)")

# Frontend codes are registered here (single registry) but the classes
# live in repro.frontend to avoid an import cycle; see
# repro/frontend/preprocess.py / pragmas.py / lower.py.
register_code("REPRO-F001", "C parse error (pycparser rejected the source)")
register_code("REPRO-F100", "construct outside the supported C/OpenMP dialect")
register_code("REPRO-F200", "unsupported preprocessor construct")
register_code("REPRO-F300", "malformed or unsupported OpenMP pragma")
