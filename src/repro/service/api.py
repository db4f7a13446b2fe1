"""The HTTP/JSON surface of the analysis service.

Endpoints (all JSON unless noted)::

    GET    /healthz                     health state machine document
    GET    /metrics                     Prometheus text exposition
    POST   /v1/jobs                     submit a job  → 202 {id, ...}
    GET    /v1/jobs                     this tenant's jobs
    GET    /v1/jobs/{id}                poll one job's status
    GET    /v1/jobs/{id}/results        all rows so far (JSON array)
    GET    /v1/jobs/{id}/results?stream=1   live NDJSON (chunked)
    GET    /v1/jobs/{id}/results?stream=1&from=N   resume from row N
    DELETE /v1/jobs/{id}                cancel  → 202

``/healthz`` reports the ``starting → ready → degraded → draining``
state machine (:mod:`repro.service.health`): 200 while the instance
serves traffic (``ready``/``degraded``/``draining`` — existing streams
keep flowing through a drain), 503 + ``Retry-After`` during
``starting`` (journal replay in progress; job state not yet
authoritative).  Back-pressure responses (429 rate limits, 503
shed/drain) all carry ``Retry-After``.

``?from=N`` on the results endpoint skips the first N rows — row
offsets are stable across daemon crashes (see
:mod:`repro.service.journal`), so a client that saw N rows before a
disconnect resumes with ``?from=N`` and receives every row exactly
once.

Authentication: ``X-Api-Key: <key>`` or ``Authorization: Bearer
<key>``; requests without a key land on the key-less tenant when the
registry has one, else 401.  Tenants are isolated — another tenant's
job id answers 404, indistinguishable from a missing one.

Errors are structured: every non-2xx body is ``{"error": {"code":
"REPRO-...", "message": ...}}``, and :data:`STATUS_BY_EXIT` maps the
error taxonomy's process exit codes onto HTTP statuses — usage (2) →
400, frontend (3) → 422, model/resource (4) → 429, engine (5) → 503 —
so a client can branch on the same stable codes the CLI exits with.

Built entirely on :mod:`http.server` (``ThreadingHTTPServer``); the
streaming endpoint speaks HTTP/1.1 chunked transfer encoding by hand
so results flow while the sweep runs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs import get_registry, to_prometheus
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.resilience.errors import ReproError
from repro.service.queue import JobQueue, JobRequest
from repro.service.tenants import TenantConfig
from repro.util import get_logger

__all__ = ["STATUS_BY_EXIT", "ServiceHandler", "ServiceServer", "make_server"]

logger = get_logger(__name__)

#: Error-taxonomy exit code → HTTP status.  Mirrors
#: ``repro.resilience.errors.EXIT_CODES``: bad requests are the
#: client's fault (400), kernels that fail the frontend are
#: unprocessable (422), quota/budget/model-infeasibility exhaustion is
#: back-pressure (429), engine/drain conditions are transient server
#: state (503).
STATUS_BY_EXIT = {2: 400, 3: 422, 4: 429, 5: 503}

_MAX_BODY_BYTES = 4 << 20  # 4 MiB of kernel source is plenty

#: Default Retry-After (seconds) when the error context names none.
_RETRY_AFTER_DEFAULT = {429: 1, 503: 5}


class ServiceServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying the queue + drain flag."""

    daemon_threads = True

    def __init__(self, addr, queue: JobQueue):
        super().__init__(addr, ServiceHandler)
        self.queue = queue
        #: Set by the daemon when SIGTERM lands; streaming handlers
        #: poll it so long-poll readers release during the drain.
        self.draining = threading.Event()


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on the server/queue."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-fs-service"
    server: ServiceServer

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # quieter than stderr
        logger.debug("%s %s", self.address_string(), fmt % args)

    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    def _observe(self, method: str, route: str, status: int) -> None:
        reg = get_registry()
        reg.counter(
            "service_requests_total", "HTTP requests by route and status"
        ).labels(method=method, route=route, status=str(status)).inc()

    def _send_json(
        self, status: int, doc: Any, route: str, method: str,
        headers: dict | None = None,
    ) -> None:
        body = (json.dumps(doc, indent=1) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        self._observe(method, route, status)

    def _send_error_doc(
        self, status: int, code: str, message: str, route: str, method: str,
        extra: dict | None = None,
    ) -> None:
        err = {"code": code, "message": message}
        if extra:
            err.update(extra)
        self._send_json(status, {"error": err}, route, method)

    def _send_repro_error(
        self, exc: ReproError, route: str, method: str
    ) -> None:
        status = STATUS_BY_EXIT.get(exc.exit_code, 500)
        doc = exc.to_dict()
        headers = None
        if status in _RETRY_AFTER_DEFAULT:
            # Back-pressure responses tell the client when to come
            # back; the error context can carry a site-specific hint.
            context = getattr(exc, "context", None) or {}
            retry_s = context.get(
                "retry_after_s", _RETRY_AFTER_DEFAULT[status]
            )
            try:
                retry_s = max(1, int(float(retry_s) + 0.999))
            except (TypeError, ValueError):
                retry_s = _RETRY_AFTER_DEFAULT[status]
            headers = {"Retry-After": str(retry_s)}
        self._send_json(status, {"error": doc}, route, method,
                        headers=headers)

    def _tenant(self) -> TenantConfig | None:
        key = self.headers.get("X-Api-Key")
        if not key:
            auth = self.headers.get("Authorization", "")
            if auth.startswith("Bearer "):
                key = auth[len("Bearer "):].strip()
        return self.queue.tenants.authenticate(key or None)

    def _auth(self, route: str, method: str) -> TenantConfig | None:
        tenant = self._tenant()
        if tenant is None:
            self._send_error_doc(
                401, "REPRO-U101",
                "missing or unknown API key (X-Api-Key / Bearer)",
                route, method,
            )
        return tenant

    def _read_body(self) -> bytes | None:
        """The ``POST /v1/jobs`` body, or ``None`` once a malformed or
        oversized ``Content-Length`` has been answered with 400
        ``REPRO-U101``."""
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            message = f"Content-Length {header!r} is not a byte count"
        elif length > _MAX_BODY_BYTES:
            message = f"request body exceeds {_MAX_BODY_BYTES} bytes"
        else:
            return self.rfile.read(length) if length else b""
        # The body was not read, so the connection cannot carry another
        # request (``Connection: close`` also ends this handler's loop).
        self._send_json(
            400, {"error": {"code": "REPRO-U101", "message": message}},
            "/v1/jobs", "POST", headers={"Connection": "close"},
        )
        return None

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._healthz()
        elif url.path == "/metrics":
            self._metrics()
        elif parts[:1] == ["v1"] and parts[1:2] == ["jobs"]:
            tenant = self._auth("/v1/jobs", "GET")
            if tenant is None:
                return
            if len(parts) == 2:
                self._list_jobs(tenant)
            elif len(parts) == 3:
                self._job_status(tenant, parts[2])
            elif len(parts) == 4 and parts[3] == "results":
                q = parse_qs(url.query)
                stream = q.get("stream", ["0"])[0] not in ("0", "", "false")
                try:
                    start = max(0, int(q.get("from", ["0"])[0]))
                except ValueError:
                    self._send_error_doc(
                        400, "REPRO-U101",
                        "query parameter 'from' must be an integer",
                        "/v1/jobs/{id}/results", "GET",
                    )
                    return
                self._job_results(tenant, parts[2], stream=stream,
                                  start=start)
            else:
                self._send_error_doc(
                    404, "REPRO-U101", f"no such route {url.path!r}",
                    "/v1/jobs", "GET",
                )
        else:
            self._send_error_doc(
                404, "REPRO-U101", f"no such route {url.path!r}",
                url.path, "GET",
            )

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        if url.path != "/v1/jobs":
            self._send_error_doc(
                404, "REPRO-U101", f"no such route {url.path!r}",
                url.path, "POST",
            )
            return
        tenant = self._auth("/v1/jobs", "POST")
        if tenant is None:
            return
        raw = self._read_body()
        if raw is None:
            return
        try:
            doc = json.loads(raw.decode("utf-8") or "null")
        except ValueError as exc:
            self._send_error_doc(
                400, "REPRO-U101", f"request body is not valid JSON: {exc}",
                "/v1/jobs", "POST",
            )
            return
        try:
            request = JobRequest.from_dict(doc)
            job = self.queue.submit(tenant, request)
        except ReproError as exc:
            self._send_repro_error(exc, "/v1/jobs", "POST")
            return
        self._send_json(202, {
            "id": job.id,
            "status": job.status,
            "cells": job.cells_total,
            "links": {
                "self": f"/v1/jobs/{job.id}",
                "results": f"/v1/jobs/{job.id}/results",
                "stream": f"/v1/jobs/{job.id}/results?stream=1",
            },
        }, "/v1/jobs", "POST")

    def do_DELETE(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._send_error_doc(
                404, "REPRO-U101", f"no such route {url.path!r}",
                url.path, "DELETE",
            )
            return
        tenant = self._auth("/v1/jobs/{id}", "DELETE")
        if tenant is None:
            return
        job = self.queue.cancel(parts[2], tenant)
        if job is None:
            self._send_error_doc(
                404, "REPRO-U101", f"no job {parts[2]!r} for this tenant",
                "/v1/jobs/{id}", "DELETE",
            )
            return
        self._send_json(
            202, {"id": job.id, "status": job.status},
            "/v1/jobs/{id}", "DELETE",
        )

    # -- handlers ------------------------------------------------------------

    def _healthz(self) -> None:
        """The health state machine document.

        200 whenever the instance serves traffic — including
        ``degraded`` (shedding happens at admission, not here) and
        ``draining`` (existing streams must keep flowing) — and 503 +
        ``Retry-After`` only for ``starting``, when journal replay has
        not yet made job state authoritative.
        """
        doc = self.queue.health.doc()
        if self.server.draining.is_set():
            doc["status"] = "draining"
        doc.update({
            "tenants": len(self.queue.tenants),
            "queued": sum(
                1 for j in self.queue.jobs() if j.status == "queued"
            ),
            "running": sum(
                1 for j in self.queue.jobs() if j.status == "running"
            ),
        })
        if doc["status"] == "starting":
            self._send_json(503, doc, "/healthz", "GET",
                            headers={"Retry-After": "1"})
        else:
            self._send_json(200, doc, "/healthz", "GET")

    def _metrics(self) -> None:
        body = to_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", _PROM_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        self._observe("GET", "/metrics", 200)

    def _list_jobs(self, tenant: TenantConfig) -> None:
        docs = [
            j.status_doc() for j in self.queue.jobs()
            if j.tenant == tenant.name
        ]
        docs.sort(key=lambda d: d["created_at"])
        self._send_json(200, {"jobs": docs}, "/v1/jobs", "GET")

    def _job_status(self, tenant: TenantConfig, job_id: str) -> None:
        job = self.queue.get(job_id, tenant)
        if job is None:
            self._send_error_doc(
                404, "REPRO-U101", f"no job {job_id!r} for this tenant",
                "/v1/jobs/{id}", "GET",
            )
            return
        self._send_json(200, job.status_doc(), "/v1/jobs/{id}", "GET")

    def _job_results(
        self, tenant: TenantConfig, job_id: str, stream: bool,
        start: int = 0,
    ) -> None:
        job = self.queue.get(job_id, tenant)
        if job is None:
            self._send_error_doc(
                404, "REPRO-U101", f"no job {job_id!r} for this tenant",
                "/v1/jobs/{id}/results", "GET",
            )
            return
        if not stream:
            self._send_json(
                200, {"id": job.id, "status": job.status,
                      "from": start, "rows": job.rows()[start:]},
                "/v1/jobs/{id}/results", "GET",
            )
            return
        # Live NDJSON: chunked transfer, one JSON object per line,
        # following the job until it reaches a terminal state (or the
        # server starts draining).
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        sent = 0
        try:
            for row in job.stream(
                should_abort=self.server.draining.is_set, start=start
            ):
                line = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
                self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
                self.wfile.write(line + b"\r\n")
                self.wfile.flush()
                sent += 1
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            logger.debug("stream for job %s dropped after %d rows",
                         job.id, sent)
            self.close_connection = True
        self._observe("GET", "/v1/jobs/{id}/results?stream", 200)


def make_server(host: str, port: int, queue: JobQueue) -> ServiceServer:
    """Bind a :class:`ServiceServer`; ``port=0`` picks an ephemeral one."""
    return ServiceServer((host, port), queue)
