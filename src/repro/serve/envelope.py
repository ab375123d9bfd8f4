"""The JSON-over-HTTP envelope shared by the serve node and conquer nodes.

One request is one JSON object in, one JSON object out; errors are
structured ``{"error": {"code", "message"}}`` bodies.  Both services
answer ``GET /metrics`` (Prometheus text exposition of their registry),
``GET /result/<job>?wait=<seconds>`` (long-poll a job snapshot) and
``POST /shutdown``; everything else is routed by the subclass through
:meth:`JsonHandler.get` and :meth:`JsonHandler.post`.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, urlparse

#: Hard cap on how long one HTTP request may block waiting for a result;
#: longer waits should poll (keeps worker-less proxies and tests honest).
MAX_WAIT_SECONDS = 600.0


class JsonHandler(BaseHTTPRequestHandler):
    """One HTTP request against ``service``.

    ``service`` (injected by the owning server) provides ``registry``,
    ``job(job_id)`` and ``request_shutdown(drain)``; ``service_noun``
    names it in "no job ... on this <noun>" errors.
    """

    service: Any = None
    service_noun = "server"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr-per-request logging; the tracer is the
    # observability channel.
    def log_message(self, fmt, *args):  # noqa: D102
        pass

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _error(self, code: int, err_code: str, message: str) -> None:
        self._send_json(code, {"error": {"code": err_code,
                                         "message": message}})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _job(self, job_id: str):
        """The job, or None after answering 404."""
        job = self.service.job(job_id)
        if job is None:
            self._error(404, "unknown-job", "no job {!r} on this {}".format(
                job_id, self.service_noun))
        return job

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path, query = self._route()
        if path == "/metrics":
            body = self.service.registry.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path.startswith("/result/"):
            job = self._job(path[len("/result/"):])
            if job is None:
                return
            try:
                wait = min(float(query.get("wait", 0) or 0),
                           MAX_WAIT_SECONDS)
            except ValueError:
                self._error(400, "bad-request", "wait must be a number")
                return
            if wait > 0:
                job.wait(wait)
            self._send_json(200, job.snapshot())
        elif not self.get(path, query):
            self._error(404, "not-found", "unknown endpoint {}".format(path))

    def do_POST(self) -> None:  # noqa: N802
        path, _ = self._route()
        try:
            body = self._read_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, "bad-json",
                        "malformed request body: {}".format(exc))
            return
        if path == "/shutdown":
            drain = bool(body.get("drain", True))
            self._send_json(200, {"ok": True, "drain": drain})
            self.service.request_shutdown(drain=drain)
        elif not self.post(path, body):
            self._error(404, "not-found", "unknown endpoint {}".format(path))

    def get(self, path: str, query: Dict[str, str]) -> bool:
        """Answer a service-specific GET; False for an unknown path."""
        return False

    def post(self, path: str, body: Dict[str, Any]) -> bool:
        """Answer a service-specific POST; False for an unknown path."""
        return False
