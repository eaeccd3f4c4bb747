"""The stdlib-only HTTP front end for the evaluation service.

Endpoints
---------
``POST /eval``
    Body: ``{"expr": "<source>", "stdin": "<optional>", "typecheck":
    <optional bool>}`` for one program, or ``{"programs": [...]}`` for
    a batch evaluated under a single admission ticket.  Response: one
    of the structured statuses defined in :mod:`repro.serve.schema`
    (rendered into docs/ROBUSTNESS.md; lifecycle in docs/SERVING.md).
    Rejections carry a ``Retry-After`` header.
``GET /healthz``
    Service metrics: request counts by status, breaker state and
    transition history, aggregated trace-event totals, governor trips,
    program-cache hit/miss/eviction counters and batch totals.
``GET /metrics``
    Prometheus text exposition of the service's
    :class:`~repro.obs.telemetry.MetricsRegistry`: request/stage
    latency histograms, per-status counters, breaker/cache/governor
    gauges (family list generated into docs/ROBUSTNESS.md from
    :data:`repro.serve.schema.METRIC_FAMILIES`).  Empty with
    ``--no-telemetry``.

The server is a ``ThreadingHTTPServer``: one Python thread per
connection, with the service's own admission/concurrency bounds doing
the real resource control (threads beyond ``max_concurrency`` park in
the bounded queue or are rejected instantly).
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.service import EvalService, ServiceConfig

#: Largest request body accepted, in bytes — nobody needs a megabyte
#: of expression, and an unbounded read is a memory-exhaustion vector.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # The service does its own structured accounting; per-request
    # access-log lines on stderr are just noise in tests and CI.
    def log_message(self, format, *args):  # noqa: A002
        pass

    @property
    def service(self) -> EvalService:
        return self.server.service  # type: ignore[attr-defined]

    def _respond(
        self,
        status: int,
        body: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.3f}")
        self.end_headers()
        self.wfile.write(data)

    def _respond_text(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._respond(200, self.service.health())
            return
        if self.path == "/metrics":
            self._respond_text(200, self.service.metrics_text())
            return
        self._respond(
            404, {"status": "error", "reason": "not-found"}
        )

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/eval":
            self._respond(
                404, {"status": "error", "reason": "not-found"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            # Drain what the client is still sending (bounded — the
            # declared length is untrusted) so the response isn't a
            # broken pipe on their side, then close the connection.
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._respond(
                413,
                {
                    "status": "error",
                    "reason": "body-too-large",
                    "message": f"body exceeds {MAX_BODY_BYTES} bytes",
                },
            )
            return
        if length <= 0:
            self._respond(
                400,
                {
                    "status": "error",
                    "reason": "bad-request",
                    "message": "missing body",
                },
            )
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._respond(
                400,
                {
                    "status": "error",
                    "reason": "bad-json",
                    "message": "body is not valid JSON",
                },
            )
            return
        status, body, retry_after = self.service.handle(payload)
        self._respond(status, body, retry_after)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default listen backlog (5) resets simultaneous
    # connects well below the service's own admission limits; the
    # cooperative scheduler is built for hundreds of concurrent
    # clients, so let the kernel queue them and the admission layer —
    # not the socket — decide who gets a 429.
    request_queue_size = 128


def make_server(
    host: str, port: int, service: EvalService
) -> ThreadingHTTPServer:
    """Bind (port 0 picks a free one — tests use this) and attach the
    service; the caller drives ``serve_forever``/``shutdown``."""
    server = _Server((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve_forever(host: str, port: int, config: ServiceConfig) -> int:
    """The ``repro serve`` entry point: run until interrupted."""
    service = EvalService(config)
    server = make_server(host, port, service)
    bound_host, bound_port = server.server_address[:2]
    sched = service.scheduler
    slices = (
        "unbounded"
        if sched.slice_steps is None
        else f"{sched.slice_steps}-step"
    )
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(backend={config.backend}, scheduler={config.scheduler}: "
        f"{sched.workers} run slots × {slices} slices, "
        f"concurrency={config.max_concurrency}, "
        f"queue={config.queue_depth})",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0
