"""HTTP front end for the analysis service (``repro serve``).

Stdlib only: :class:`http.server.ThreadingHTTPServer` accepts
connections, one handler thread per request parses and validates the
body (:mod:`repro.serve.schemas`), then blocks on
:meth:`~repro.serve.batching.AnalysisService.submit` for the result.
All throttling lives in the service — the HTTP layer's only defenses
are the max-body ceiling (413 before reading an oversized body) and
translating library errors into the uniform structured bodies.

Routes::

    POST /v1/pad           pad one kernel, report decisions + layout
    POST /v1/lint          static cache-hazard analysis
    POST /v1/simulate      miss rates for inline source or a benchmark
    POST /v1/run           a benchmark sweep through the warm engine pool
    POST /v1/campaign      launch (or attach to) a crash-resumable campaign
    GET  /v1/campaign      list known campaigns
    GET  /v1/campaign/<id> campaign progress (journal-replayed) + results
    GET  /livez            liveness: the process is up (always 200)
    GET  /readyz           readiness: queue depth, pool capacity, disk
                           tier — 503 while saturated or stopped
    GET  /healthz          legacy liveness + queue occupancy
    GET  /metrics          Prometheus text format (repro.obs exporter)

Campaign submissions bypass the admission queue (they are minutes-long
batch work, not interactive requests) and run serially on the service's
:class:`~repro.serve.campaigns.CampaignManager`; the POST returns 202
with the campaign id for polling.

Every request increments ``repro_serve_requests_total{endpoint,code}``
and lands one ``repro_serve_request_seconds{endpoint}`` observation, so
the scrape shows per-endpoint traffic, error mix and latency.
"""

from __future__ import annotations

import json
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import CampaignError, PayloadTooLarge, ReproError, UsageError
from repro.obs import runtime as obs
from repro.obs.export import to_prometheus
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.serve.batching import AnalysisService, ServeConfig
from repro.serve.schemas import (
    error_body,
    http_status_for,
    validate_campaign,
    validate_lint,
    validate_optimize,
    validate_pad,
    validate_run,
    validate_simulate,
)

#: POST route -> (endpoint label, validator); the simulate endpoint is
#: re-labelled per request form (source vs program) after validation.
_ROUTES = {
    "/v1/pad": ("pad", validate_pad),
    "/v1/optimize": ("optimize", validate_optimize),
    "/v1/lint": ("lint", validate_lint),
    "/v1/simulate": ("simulate", validate_simulate),
    "/v1/run": ("run", validate_run),
}

class _Handler(BaseHTTPRequestHandler):
    """One request: route, validate, submit, render.

    Every request gets an id (``X-Request-Id`` on the response, echoed
    in every error body) so a 500 in a client log can be matched to the
    server's counters.  Unexpected exceptions — anything that is not a
    mapped :class:`~repro.errors.ReproError` — never tear down the
    connection raw: :meth:`do_GET` / :meth:`do_POST` wrap their routing
    in a last-resort handler that answers a structured ``InternalError``
    500 and bumps ``repro_serve_internal_errors_total``.
    """

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    request_id: str = "-"

    # quiet by default; the metrics tell the traffic story
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def _error_body(self, exc: BaseException) -> dict:
        body = error_body(exc)
        body["error"]["request_id"] = self.request_id
        return body

    def _internal_error(self, exc: BaseException, started: float) -> None:
        """Last resort: a structured 500 that names the request id."""
        obs.counter_add(
            "repro_serve_internal_errors_total", 1,
            "unexpected handler exceptions answered as structured 500s",
            type=type(exc).__name__,
        )
        self._send_json(
            500,
            {"error": {
                "type": "InternalError",
                "message": f"{type(exc).__name__}: {exc}",
                "exit_code": 1, "http_status": 500,
                "request_id": self.request_id,
            }},
        )

    def do_GET(self) -> None:
        self.request_id = uuid.uuid4().hex[:12]
        started = time.monotonic()
        try:
            self._route_get(started)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._internal_error(exc, started)
            self._account("internal", 500, started)

    def do_POST(self) -> None:
        self.request_id = uuid.uuid4().hex[:12]
        started = time.monotonic()
        try:
            self._route_post(started)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._internal_error(exc, started)
            self._account("internal", 500, started)

    # -- GET ----------------------------------------------------------------

    def _route_get(self, started: float) -> None:
        if self.path == "/healthz":
            body = self.service.health()
            code = 200 if body["status"] == "ok" else 503
            self._send_json(code, body)
            self._account("healthz", code, started)
        elif self.path == "/livez":
            # liveness is answering at all: if this handler runs, we live
            self._send_json(200, {"status": "alive"})
            self._account("livez", 200, started)
        elif self.path == "/readyz":
            body = self.service.readiness()
            code = 200 if body["ready"] else 503
            self._send_json(code, body)
            self._account("readyz", code, started)
        elif self.path == "/v1/campaign" or self.path.startswith("/v1/campaign/"):
            self._get_campaign(started)
        elif self.path == "/metrics":
            text = to_prometheus(obs.snapshot()).encode()
            self._send_bytes(200, text, "text/plain; version=0.0.4")
            self._account("metrics", 200, started)
        else:
            self._send_json(
                404, {"error": {"type": "UsageError",
                                "message": f"no route {self.path!r}",
                                "exit_code": 3, "http_status": 404,
                                "request_id": self.request_id}},
            )
            self._account("unknown", 404, started)

    def _get_campaign(self, started: float) -> None:
        """GET /v1/campaign (list) or /v1/campaign/<id> (progress)."""
        manager = self.service.campaigns
        if manager is None:
            exc = CampaignError(
                "campaign orchestration is disabled "
                "(start the service with --campaign-dir)"
            )
            self._send_json(http_status_for(exc), self._error_body(exc))
            self._account("campaign", http_status_for(exc), started)
            return
        suffix = self.path[len("/v1/campaign"):].strip("/")
        if not suffix:
            body = {"campaigns": manager.list_campaigns()}
            self._send_json(200, body)
            self._account("campaign", 200, started)
            return
        status = manager.status(suffix)
        if status is None:
            self._send_json(
                404, {"error": {"type": "UsageError",
                                "message": f"unknown campaign {suffix!r}",
                                "exit_code": 3, "http_status": 404,
                                "request_id": self.request_id}},
            )
            self._account("campaign", 404, started)
            return
        self._send_json(200, status)
        self._account("campaign", 200, started)

    # -- POST ---------------------------------------------------------------

    def _route_post(self, started: float) -> None:
        if self.path == "/v1/campaign":
            self._post_campaign(started)
            return
        route = _ROUTES.get(self.path)
        if route is None:
            self._send_json(
                404, {"error": {"type": "UsageError",
                                "message": f"no route {self.path!r}",
                                "exit_code": 3, "http_status": 404,
                                "request_id": self.request_id}},
            )
            self._account("unknown", 404, started)
            return
        endpoint, validator = route
        try:
            body = self._read_body()
            request = validator(body)
            if endpoint == "simulate":
                endpoint = (
                    "simulate-source" if request.source is not None
                    else "simulate-program"
                )
            result = self.service.submit(endpoint, request)
            self._send_json(200, result)
            self._account(endpoint, 200, started)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            if not isinstance(exc, ReproError):
                obs.counter_add(
                    "repro_serve_internal_errors_total", 1,
                    "unexpected handler exceptions answered as "
                    "structured 500s",
                    type=type(exc).__name__,
                )
            status = http_status_for(exc)
            self._send_json(status, self._error_body(exc))
            self._account(endpoint, status, started)

    def _post_campaign(self, started: float) -> None:
        """POST /v1/campaign: validate, submit to the manager, 202."""
        try:
            request = validate_campaign(self._read_body())
            manager = self.service.campaigns
            if manager is None:
                raise CampaignError(
                    "campaign orchestration is disabled "
                    "(start the service with --campaign-dir)"
                )
            record = manager.submit(
                request.spec, allow_partial=request.allow_partial
            )
            self._send_json(202, record)
            self._account("campaign", 202, started)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            if not isinstance(exc, ReproError):
                obs.counter_add(
                    "repro_serve_internal_errors_total", 1,
                    "unexpected handler exceptions answered as "
                    "structured 500s",
                    type=type(exc).__name__,
                )
            status = http_status_for(exc)
            self._send_json(status, self._error_body(exc))
            self._account("campaign", status, started)

    def _read_body(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise UsageError(
                "a JSON body with a Content-Length header is required"
            ) from None
        limit = self.server.max_body_bytes  # type: ignore[attr-defined]
        if length > limit:
            # drain a bounded amount so a mid-upload client can still
            # read the 413 instead of dying on a broken pipe; anything
            # past the drain cap gets the connection closed under it
            remaining = min(length, max(limit, 1 << 22))
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte ceiling"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise UsageError(f"malformed JSON body: {exc}") from None

    # -- rendering ----------------------------------------------------------

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_bytes(
            code, json.dumps(payload).encode(), "application/json"
        )

    def _send_bytes(self, code: int, body: bytes, content_type: str) -> None:
        """Status line, headers and body in one write.

        Two sends (headers, then body) let Nagle's algorithm hold the
        body back until the client's delayed ACK of the headers, which
        stalls every answer on a keep-alive connection.
        """
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.request_id != "-":
                self.send_header("X-Request-Id", self.request_id)
            # end_headers() by hand, so its flush carries the body too;
            # an HTTP/0.9 request buffers no headers and gets the body
            head = getattr(self, "_headers_buffer", [])
            if head:
                head.append(b"\r\n")
            self._headers_buffer = []
            self.wfile.write(b"".join(head) + body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to salvage

    @staticmethod
    def _account(endpoint: str, code: int, started: float) -> None:
        obs.counter_add(
            "repro_serve_requests_total", 1,
            "requests handled, by endpoint and status",
            endpoint=endpoint, code=str(code),
        )
        obs.observe(
            "repro_serve_request_seconds", time.monotonic() - started,
            "request latency, by endpoint", buckets=DEFAULT_LATENCY_BUCKETS,
            endpoint=endpoint,
        )


class AnalysisServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns one :class:`AnalysisService`."""

    daemon_threads = True
    # socketserver's default listen backlog of 5 resets connections under
    # a concurrent burst; admission control belongs to the bounded queue
    # (429), not the kernel's SYN queue
    request_queue_size = 128

    def __init__(self, config: Optional[ServeConfig] = None,
                 service: Optional[AnalysisService] = None,
                 verbose: bool = False):
        self.config = config or ServeConfig()
        self.service = service or AnalysisService(self.config)
        self.max_body_bytes = self.config.max_body_bytes
        self.verbose = verbose
        super().__init__((self.config.host, self.config.port), _Handler)

    def server_activate(self) -> None:
        """Start listening: enable metrics and warm the service first."""
        obs.enable()  # /metrics must answer even without --metrics
        self.service.start()
        super().server_activate()

    def server_close(self) -> None:
        """Close the listening socket, then stop the service's threads."""
        super().server_close()
        self.service.stop()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port


def create_server(config: Optional[ServeConfig] = None,
                  verbose: bool = False) -> AnalysisServer:
    """A bound, warmed server; call ``serve_forever()`` to run it."""
    return AnalysisServer(config, verbose=verbose)


def serve_forever(config: Optional[ServeConfig] = None,
                  verbose: bool = False) -> None:
    """Run the service until interrupted (the ``repro serve`` loop)."""
    server = create_server(config, verbose=verbose)
    host, port = server.address
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={server.config.workers}, "
          f"queue-depth={server.config.queue_depth})")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
