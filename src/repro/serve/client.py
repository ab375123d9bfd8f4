"""Client side of the serve protocol (stdlib ``http.client`` only).

:class:`ServeClient` is both the ``repro submit`` CLI's backend and the
load generator's workhorse.  Errors the server reports in its structured
``{"error": {...}}`` envelope are raised as :class:`ServeError` carrying
the machine-readable code, so callers can distinguish a malformed
request (400) from back-pressure (503 queue-full) and retry accordingly.

Hardening (PR 8): every request carries a per-attempt socket timeout
*and* an optional hard deadline; transient failures — connection errors
and 503 back-pressure (queue-full, draining) — are retried with bounded
exponential backoff plus jitter; and a retried ``submit`` reuses one
idempotency key, so re-sending after an ambiguous failure (the request
may or may not have been admitted before the crash) never double-solves.
Long-poll waits (``/result?wait``, ``submit(wait=...)``) are clamped to
``max_wait`` so a wedged server cannot hang the client forever.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import uuid
from typing import Any, Dict, Optional

from ..errors import ReproError


class ServeError(ReproError):
    """A serve request failed; ``code`` is the protocol error code.

    ``attempts`` counts how many transport attempts were made before the
    error was surfaced (1 for a fail-fast call) — the retry loop stamps
    it so callers can tell an immediate rejection from an exhausted
    backoff sequence without losing the server's original code/message.
    """

    def __init__(self, code: str, message: str, status: int = 0,
                 attempts: int = 1):
        super().__init__("{}: {}".format(code, message))
        self.code = code
        self.message = message
        self.status = status
        self.attempts = attempts


#: Error codes/statuses worth retrying: the request may never have
#: reached the scheduler (connection refused/reset, timeout) or the
#: server explicitly asked for backoff (503 queue-full / draining).
def _transient(exc: ServeError) -> bool:
    return exc.code == "unreachable" or exc.status == 503


class ServeClient:
    """Thin JSON-over-HTTP client for one repro server.

    ``retries`` is the number of *extra* attempts for transient failures
    (0 preserves fail-fast behaviour); backoff between attempts grows as
    ``backoff * 2**attempt`` capped at ``backoff_max``, scaled by jitter
    in [0.5, 1.5) — ``jitter_seed`` pins the jitter for tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8587,
                 timeout: float = 30.0, retries: int = 0,
                 backoff: float = 0.25, backoff_max: float = 5.0,
                 max_wait: float = 300.0,
                 jitter_seed: Optional[int] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.max_wait = max_wait
        self._rng = random.Random(jitter_seed)

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "ServeClient":
        """Build a client from ``http://host:port`` (scheme optional)."""
        from urllib.parse import urlparse
        parsed = urlparse(url if "//" in url else "//" + url)
        if parsed.scheme not in ("", "http"):
            raise ValueError("serve URLs are plain http, not {!r}".format(
                parsed.scheme))
        if not parsed.hostname:
            raise ValueError("cannot parse host from {!r}".format(url))
        return cls(host=parsed.hostname, port=parsed.port or 8587, **kwargs)

    @property
    def url(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 deadline: Optional[float] = None) -> Dict[str, Any]:
        """One protocol request with retry/deadline policy applied.

        ``deadline`` is an absolute ``time.monotonic()`` cutoff shared
        across attempts; crossing it raises ``ServeError("deadline")``.
        """
        if retries is None:
            retries = self.retries
        attempt = 0
        while True:
            per_attempt = timeout or self.timeout
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ServeError(
                        "deadline",
                        "{} {} abandoned: client deadline exceeded".format(
                            method, path))
                per_attempt = min(per_attempt, left)
            try:
                return self._request_once(method, path, body, per_attempt)
            except ServeError as exc:
                if not _transient(exc) or attempt >= retries:
                    # Surface the *original* structured error — code,
                    # message, and HTTP status stay verbatim; only the
                    # attempt count is stamped on.
                    exc.attempts = attempt + 1
                    raise
            delay = min(self.backoff_max, self.backoff * (2 ** attempt))
            delay *= 0.5 + self._rng.random()
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            time.sleep(delay)
            attempt += 1

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]],
                      timeout: float) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout)
        try:
            payload = json.dumps(body).encode("utf-8") \
                if body is not None else None
            headers = {"Content-Type": "application/json"} \
                if payload is not None else {}
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, socket.timeout,
                    http.client.HTTPException) as exc:
                raise ServeError("unreachable",
                                 "cannot reach {}:{}: {}".format(
                                     self.host, self.port, exc))
            try:
                data = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError):
                raise ServeError("bad-response",
                                 "server sent non-JSON (HTTP {})".format(
                                     response.status),
                                 status=response.status)
            if response.status >= 400 or "error" in data:
                err = data.get("error") or {}
                raise ServeError(err.get("code", "http-{}".format(
                                     response.status)),
                                 err.get("message", "request failed"),
                                 status=response.status)
            return data
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Protocol verbs
    # ------------------------------------------------------------------

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None,
             timeout: Optional[float] = None,
             retries: Optional[int] = None,
             deadline: Optional[float] = None) -> Dict[str, Any]:
        """Generic protocol request under the full retry/deadline policy.

        The distributed conquer fabric (:mod:`repro.dist`) drives its
        node endpoints (``/circuit``, ``/conquer``, ``/exchange``)
        through this, inheriting the same hardening as ``submit``.
        ``deadline`` is absolute ``time.monotonic()`` seconds.
        """
        return self._request(method, path, body=body, timeout=timeout,
                             retries=retries, deadline=deadline)

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/status")

    def submit(self,
               circuit_text: Optional[str] = None,
               instance: Optional[str] = None,
               engine: str = "csat",
               preset: Optional[str] = None,
               limits: Optional[Dict[str, Any]] = None,
               priority: int = 0,
               label: Optional[str] = None,
               fmt: Optional[str] = None,
               fault: Optional[str] = None,
               cube_workers: int = 2,
               wait: float = 0.0,
               idempotency_key: Optional[str] = None,
               retries: Optional[int] = None,
               deadline: Optional[float] = None,
               incremental: bool = True) -> Dict[str, Any]:
        """Submit one instance; returns the job snapshot.

        With ``wait > 0`` the server blocks up to that many seconds and
        the snapshot usually carries the final result already.

        ``preset`` picks a csat job's solver configuration; ``None``
        leaves the field out and the server runs its default
        (:data:`~repro.csat.options.DEFAULT_PRESET`, the flat ``kernel``).
        A sweep job ignores it.

        When the effective retry count is non-zero an idempotency key is
        minted automatically (unless one is supplied), so a submit
        retried after an ambiguous failure — crash, timeout, 503 — maps
        onto the same server-side job instead of solving twice.
        ``deadline`` bounds the whole call (all attempts) in seconds.
        """
        if retries is None:
            retries = self.retries
        if idempotency_key is None and retries > 0:
            idempotency_key = uuid.uuid4().hex
        wait = min(wait, self.max_wait)
        body: Dict[str, Any] = {"engine": engine, "priority": priority,
                                "cube_workers": cube_workers}
        if preset is not None:
            body["preset"] = preset
        if circuit_text is not None:
            body["circuit"] = circuit_text
        if instance is not None:
            body["instance"] = instance
        if limits:
            body["limits"] = limits
        if label:
            body["label"] = label
        if fmt:
            body["format"] = fmt
        if fault:
            body["fault"] = fault
        if wait:
            body["wait"] = wait
        if idempotency_key:
            body["idempotency_key"] = idempotency_key
        if not incremental:
            body["incremental"] = False
        timeout = (wait + self.timeout) if wait else self.timeout
        return self._request("POST", "/submit", body=body, timeout=timeout,
                             retries=retries,
                             deadline=(time.monotonic() + deadline
                                       if deadline is not None else None))

    def result(self, job_id: str, wait: float = 0.0,
               deadline: Optional[float] = None) -> Dict[str, Any]:
        """Job snapshot; ``wait`` long-polls, clamped to ``max_wait``
        so a wedged server cannot park the client indefinitely."""
        wait = min(wait, self.max_wait)
        path = "/result/{}".format(job_id)
        if wait:
            path += "?wait={:g}".format(wait)
        timeout = (wait + self.timeout) if wait else self.timeout
        return self._request("GET", path, timeout=timeout,
                             deadline=deadline)

    def wait_for(self, job_id: str, timeout: float = 300.0,
                 poll: float = 5.0) -> Dict[str, Any]:
        """Block until a job reaches a terminal state (or raise).

        ``timeout`` is a hard client-side deadline: it caps the sum of
        all polls (including transport retries), not each one.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError("timeout",
                                 "job {} still {} after {:g}s".format(
                                     job_id, "running", timeout))
            snap = self.result(job_id, wait=min(poll, max(0.1, remaining)),
                               deadline=deadline)
            if snap.get("state") in ("DONE", "CANCELLED"):
                return snap

    def events(self, job_id: str, since: int = 0,
               deadline: Optional[float] = None) -> Dict[str, Any]:
        return self._request("GET", "/events/{}?since={}".format(job_id,
                                                                 since),
                             deadline=deadline)

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        # Never retried: a connection error usually means the server is
        # already gone, which is the goal.
        return self._request("POST", "/shutdown", body={"drain": drain},
                             retries=0)
