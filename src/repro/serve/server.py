"""Solver-as-a-service: a stdlib JSON-over-HTTP front end.

The protocol is deliberately tiny (no dependencies, one JSON object per
request/response) so any EDA tool with an HTTP client can drive it.  The
same node solves whole circuits (``/submit``) and the cubes of a
distributed conquest (``/circuit`` + ``/conquer``, the coordinator being
:func:`repro.dist.solve_distributed`); both kinds of job share one
:class:`~repro.serve.scheduler.SolveScheduler`:

``GET /health``
    Liveness and capacity: ``{"ok": true, "version": ..., "name":
    "node-<port>", "workers": N}``.
``GET /status``
    Scheduler + cache statistics (queue depth, workers, retained jobs,
    waiting followers, hit rates, registrations, cube jobs, warm workers
    spawned), and with a journal its path, live-view size
    (``journal_records``) and boot recovery counts.
``POST /submit``
    Body: ``{"circuit": <text>}`` or ``{"instance": <name>}`` plus
    optional ``format`` (bench/aiger/dimacs; sniffed otherwise),
    ``engine`` (csat/cnf/brute/bdd/cube/sweep), ``preset`` (csat jobs;
    default :data:`~repro.csat.options.DEFAULT_PRESET`, ``kernel``; a
    sweep job ignores it), ``incremental`` (false opts this job out of
    the knowledge-store pre-pass), ``limits``
    (``{"max_seconds": ..., "max_conflicts": ..., "max_decisions": ...}``),
    ``priority``, ``label``, ``wait`` (seconds to block for the result)
    and ``fault`` (test-only fault injection).  A cube job conquers on
    the server's fixed fan-out
    (:data:`~repro.serve.scheduler.SERVE_CUBE_WORKERS`).
    Responds with the job snapshot; admission failures are structured
    ``{"error": {"code", "message"}}`` with status 400 (bad request, an
    unknown engine or preset, bad limits), 409 (``key-conflict``: the
    ``idempotency_key`` names a retained job for another circuit or
    engine) or 503 (queue full / draining) — an invalid request is
    **never queued**.  A re-submission of the same circuit and engine under a
    known key returns that key's job.
``POST /circuit``
    Register a conquest once: ``{"circuit": <text>, "objectives": [...],
    "phase_lemmas": [...]}``.  Responds ``{"key": <registration key>}``;
    every later ``/conquer`` references the key, so cube dispatches stay
    tiny.  ``objectives`` (the circuit's outputs when absent) and
    ``phase_lemmas`` (the clauses the coordinator's explicit phase
    proved, which every warm worker of the registration holds) are
    checked against the parsed circuit before anything is registered;
    other fields (an older coordinator's ``classes``) are ignored.
    The key (:func:`~repro.cube.sharing.registration_key`) covers the
    **exact** structural hash (node numbering included) and the
    objectives; the coordinator compares it against its own.  The node
    keeps the :data:`~repro.serve.scheduler.MAX_REGISTRATIONS` most
    recently used; the one just registered and any with a queued or
    running cube are never evicted, so it holds more while every older
    one is busy.
``POST /conquer``
    Solve one cube: ``{"key": ..., "cube": [literals], "attempt": n,
    "idempotency_key": ..., "limits": {...}, "lemmas": [...],
    "wait": seconds}`` on a warm flat-kernel worker
    (:data:`~repro.cube.conquer.CUBE_PRESET`; an older coordinator's
    ``kind`` and ``preset`` are ignored); ``lemmas`` seed the worker
    beyond the registration's phase lemmas.  Cube literals and lemma
    batches are checked against the registration (400 otherwise), and
    an unknown or evicted key is ``unknown-circuit``, on which the
    coordinator registers again.  Responds with the job snapshot plus
    ``deduped`` (the key already named this cube); the result carries
    the lemmas the worker exported.  A server certifying ``full``
    refuses cubes: their refutations carry no closed proof.
``GET /result/<job>?wait=<seconds>``
    Poll or block for a job's result snapshot.  A finished solve job is
    kept until the answer cache's ``max_entries`` later ones finish;
    then it and its ``/events`` answer 404 ``unknown-job``.
``GET /events/<job>?since=<n>``
    Incremental event stream (obs worker lifecycle + job lifecycle):
    returns ``{"events": [...], "next": m}``; poll with ``since=m`` to
    tail a running solve.
``POST /shutdown``
    Graceful drain (``{"drain": false}`` cancels the queue and kills
    in-flight cube workers instead).

Every worker failure crosses this protocol verbatim as the PR3 taxonomy
(TIMEOUT / MEMOUT / CRASHED / CORRUPT_ANSWER / LOST) inside the result's
``failures`` list — a crashed worker is an answered request, not a dead
server.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..circuit.source import read_circuit_text
from ..csat.options import DEFAULT_PRESET
from ..durable.journal import Journal, ReplayState
from ..errors import CircuitError, ParseError, ReproError, SolverError
from ..obs.metrics import default_registry, enable_metrics
from ..result import Limits, SAT, UNSAT
from .cache import AnswerCache
from .fingerprint import fingerprint
from .scheduler import (AdmissionError, CubeRequest, JobRequest,
                        SolveScheduler)

#: Hard cap on how long one HTTP request may block waiting for a result;
#: longer waits should poll (keeps worker-less proxies and tests honest).
MAX_WAIT_SECONDS = 600.0

#: Entries in the byte-identical parse memo (the L1 in front of the
#: canonical fingerprint cache).
PARSE_MEMO_ENTRIES = 256


def _parse_limits(raw: Optional[Dict[str, Any]]) -> Optional[Limits]:
    if not raw:
        return None
    if not isinstance(raw, dict):
        raise SolverError("limits must be an object, got {!r}".format(raw))
    unknown = set(raw) - {"max_seconds", "max_conflicts", "max_decisions"}
    if unknown:
        raise SolverError("unknown limits field(s): {}".format(
            ", ".join(sorted(unknown))))
    return Limits(max_conflicts=raw.get("max_conflicts"),
                  max_decisions=raw.get("max_decisions"),
                  max_seconds=raw.get("max_seconds")).validate()


class ReproServer:
    """Owns the scheduler, the cache, and the HTTP listener."""

    def __init__(self,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 workers: int = 2,
                 cache: Optional[AnswerCache] = None,
                 max_queue: int = 64,
                 mem_limit_mb: Optional[int] = None,
                 grace_seconds: float = 1.0,
                 certify: str = "sat",
                 max_wall_seconds: Optional[float] = None,
                 tracer=None,
                 journal_path: Optional[str] = None,
                 store_path: Optional[str] = None,
                 incremental: bool = True):
        # A serving node always measures itself: flip the process-wide
        # registry on so every layer under the scheduler records too.
        self.registry = enable_metrics()
        self.tracer = tracer
        self.cache = cache if cache is not None else AnswerCache()
        # Crash safety: replay the write-ahead journal *before* serving —
        # finished jobs rehydrate the answer cache, unfinished ones are
        # re-admitted under their original idempotency keys.  Its live
        # view keeps as many finished jobs as the cache keeps answers,
        # as the job table does.
        self.journal: Optional[Journal] = None
        self.recovery: Dict[str, int] = {}
        state: Optional[ReplayState] = None
        if journal_path:
            self.journal = Journal(journal_path)
            state = self.journal.recover(self.cache.max_entries)
        # Knowledge store: cone-keyed equivalences/constants/lemmas
        # that sweep jobs fill and solve jobs replay (repro.inc).
        self.store = None
        if store_path:
            from ..inc.store import KnowledgeStore
            self.store = KnowledgeStore(store_path)
        self.scheduler = SolveScheduler(
            workers=workers, cache=self.cache, max_queue=max_queue,
            mem_limit_mb=mem_limit_mb, grace_seconds=grace_seconds,
            certify=certify, max_wall_seconds=max_wall_seconds,
            tracer=tracer, journal=self.journal,
            store=self.store, incremental=incremental)
        server = self

        class Handler(_ServeHandler):
            service = server

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self.name = "node-{}".format(self.port)
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # L1 parse memo: byte-identical request text skips parsing and
        # fingerprinting (the dominant warm-path CPU).  Soundness is
        # untouched — the answer cache still re-certifies every SAT model
        # against this (identical) circuit before serving it.
        self._parse_memo: "OrderedDict[Tuple[Optional[str], str], Any]" = \
            OrderedDict()
        self._parse_lock = threading.Lock()
        if state is not None:
            self._recover(state)

    # ------------------------------------------------------------------
    # Crash recovery (boot-time journal replay)
    # ------------------------------------------------------------------

    def _request_from_record(self,
                             record: Dict[str, Any]) -> Optional[JobRequest]:
        """Rebuild a JobRequest from a journaled admission, or None."""
        source = record.get("source") or {}
        label = str(record.get("label") or "recovered")
        try:
            if source.get("instance"):
                from ..bench.instances import instance_by_name
                circuit = instance_by_name(str(source["instance"])).build()
                fp = None
            else:
                circuit, fp = self.parse_request_circuit(
                    str(source.get("circuit") or ""), label,
                    source.get("format"))
        except (ParseError, CircuitError, ReproError, KeyError):
            return None
        try:
            limits = _parse_limits(record.get("limits"))
        except SolverError:
            return None
        try:
            return JobRequest(
                circuit=circuit, engine=str(record.get("engine") or "csat"),
                preset=str(record.get("preset") or DEFAULT_PRESET),
                limits=limits, priority=int(record.get("priority") or 0),
                label=label, fp=fp, idempotency_key=record.get("key"),
                source=source,
                incremental=bool(record.get("incremental", True)))
        except (TypeError, ValueError):
            return None

    def _recover(self, state: ReplayState) -> None:
        """Apply a replayed journal: rehydrate the cache, re-admit work."""
        rehydrated = 0
        for record in state.finished.values():
            status = record.get("status")
            if status not in (SAT, UNSAT):
                continue
            if self.cache.restore(
                    str(record.get("digest") or ""),
                    str(record.get("limits_class") or "unlimited"),
                    str(record.get("engine") or "csat"), status,
                    record.get("model_bits"), record.get("provenance")):
                rehydrated += 1
        replayed = failed = 0
        registry = default_registry()
        for record in state.pending.values():
            request = self._request_from_record(record)
            if request is None:
                failed += 1
                continue
            try:
                self.scheduler.submit(request)
            except AdmissionError:
                failed += 1
                continue
            replayed += 1
            if registry is not None:
                registry.counter(
                    "repro_recovery_replayed_total",
                    "Journaled jobs re-admitted after a restart").inc()
        self.recovery = {"records": state.records, "replayed": replayed,
                         "rehydrated": rehydrated, "failed": failed,
                         "skipped_lines": state.skipped}
        if state.skipped:
            import sys
            print("repro serve: journal replay skipped {} torn/corrupt "
                  "line(s)".format(state.skipped), file=sys.stderr)
        if self.tracer is not None:
            self.tracer.emit("serve_recover", **self.recovery)

    def parse_request_circuit(self, text: str, label: str,
                              fmt: Optional[str]):
        """Parse + fingerprint request text, memoized on the exact bytes.

        Returns ``(circuit, fingerprint)``.  The memo is keyed on
        ``(format, text)`` so an explicit format override never collides
        with a sniffed one; entries are LRU-bounded.
        """
        key = (fmt, text)
        with self._parse_lock:
            hit = self._parse_memo.get(key)
            if hit is not None:
                self._parse_memo.move_to_end(key)
                return hit
        circuit = read_circuit_text(text, name=label, fmt=fmt)
        fp = fingerprint(circuit)
        with self._parse_lock:
            self._parse_memo[key] = (circuit, fp)
            self._parse_memo.move_to_end(key)
            while len(self._parse_memo) > PARSE_MEMO_ENTRIES:
                self._parse_memo.popitem(last=False)
        return circuit, fp

    @property
    def address(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    def job(self, job_id: str):
        return self.scheduler.job(job_id)

    def start(self) -> "ReproServer":
        """Serve in a background thread; returns self."""
        if self.tracer is not None:
            self.tracer.emit("serve_start", host=self.host, port=self.port,
                             workers=self.scheduler.workers)
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        if self.tracer is not None:
            self.tracer.emit("serve_start", host=self.host, port=self.port,
                             workers=self.scheduler.workers)
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop(drain=True)

    def stop(self, drain: bool = True,
             timeout: Optional[float] = 30.0) -> None:
        """Drain the scheduler, then stop listening (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self.tracer is not None:
            self.tracer.emit("serve_drain", drain=drain)
        self.scheduler.close(drain=drain, timeout=timeout)
        if self.journal is not None:
            # The scheduler has quiesced: make the journal durable before
            # the process can exit (SIGTERM drain relies on this).
            self.journal.close()
        self.httpd.shutdown()
        self.httpd.server_close()

    def request_shutdown(self, drain: bool = True) -> None:
        """Asynchronous stop (used by POST /shutdown: respond, then die)."""
        threading.Thread(target=self.stop, kwargs={"drain": drain},
                         daemon=True).start()


class _ServeHandler(BaseHTTPRequestHandler):
    """One HTTP request: one JSON object in, one JSON object out, errors
    as structured ``{"error": {"code", "message"}}`` bodies.  All state
    lives on ``service`` (the server)."""

    service: ReproServer = None  # injected by ReproServer
    server_version = "repro-serve/" + __version__
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
            self._error(404, "unknown-job",
                        "no job {!r} on this server".format(job_id))
        return job

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path, query = self._route()
        server = self.service
        if path == "/metrics":
            body = server.registry.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path.startswith("/result/"):
            self._get_result(path[len("/result/"):], query)
        elif path == "/health":
            self._send_json(200, {"ok": True, "version": __version__,
                                  "name": server.name,
                                  "workers": server.scheduler.workers})
        elif path == "/status":
            payload = {"ok": True, "scheduler": server.scheduler.stats()}
            if server.journal is not None:
                payload["journal"] = server.journal.path
                payload["journal_records"] = server.journal.live_count()
                payload["recovery"] = server.recovery
            if server.store is not None:
                payload["store"] = server.store.stats()
            self._send_json(200, payload)
        elif path.startswith("/events/"):
            self._get_events(path[len("/events/"):], query)
        else:
            self._error(404, "not-found", "unknown endpoint {}".format(path))

    def _get_result(self, job_id: str, query: Dict[str, str]) -> None:
        job = self._job(job_id)
        if job is None:
            return
        try:
            wait = min(float(query.get("wait", 0) or 0), MAX_WAIT_SECONDS)
        except ValueError:
            self._error(400, "bad-request", "wait must be a number")
            return
        if wait > 0:
            job.wait(wait)
        self._send_json(200, job.snapshot())

    def _get_events(self, job_id: str, query: Dict[str, str]) -> None:
        job = self._job(job_id)
        if job is None:
            return
        try:
            since = max(0, int(query.get("since", 0) or 0))
        except ValueError:
            self._error(400, "bad-request", "since must be an integer")
            return
        events = job.events[since:]
        self._send_json(200, {"job": job.id, "state": job.state,
                              "events": events, "next": since + len(events)})

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
            return
        handler = {"/submit": self._post_submit,
                   "/circuit": self._post_circuit,
                   "/conquer": self._post_conquer}.get(path)
        if handler is None:
            self._error(404, "not-found", "unknown endpoint {}".format(path))
        else:
            handler(body)

    def _admit(self, request, wait_field):
        """Admit ``request`` and wait up to ``wait_field`` seconds for its
        job; None after answering a rejection."""
        try:
            wait = min(float(wait_field or 0), MAX_WAIT_SECONDS)
        except (TypeError, ValueError):
            self._error(400, "bad-request", "wait must be a number")
            return None
        try:
            job = self.service.scheduler.submit(request)
        except AdmissionError as exc:
            self._send_json(exc.status, {"error": exc.as_dict()})
            return None
        if wait > 0:
            job.wait(wait)
        return job

    def _post_submit(self, body: Dict[str, Any]) -> None:
        text = body.get("circuit")
        instance = body.get("instance")
        if bool(text) == bool(instance):
            self._error(400, "bad-request",
                        "give exactly one of 'circuit' (text) or "
                        "'instance' (a built-in name)")
            return
        label = str(body.get("label") or instance or "request")
        fp = None
        try:
            if instance:
                from ..bench.instances import instance_by_name
                circuit = instance_by_name(str(instance)).build()
            else:
                circuit, fp = self.service.parse_request_circuit(
                    str(text), label, body.get("format"))
        except (ParseError, CircuitError, ReproError) as exc:
            self._error(400, "bad-circuit", str(exc))
            return
        try:
            limits = _parse_limits(body.get("limits"))
        except SolverError as exc:
            self._error(400, "bad-limits", str(exc))
            return
        try:
            priority = int(body.get("priority") or 0)
        except (TypeError, ValueError):
            self._error(400, "bad-request", "priority must be an integer")
            return
        idempotency_key = body.get("idempotency_key")
        if idempotency_key is not None:
            idempotency_key = str(idempotency_key)[:200]
        source = ({"instance": str(instance)} if instance
                  else {"circuit": str(text), "format": body.get("format")})
        request = JobRequest(
            circuit=circuit, engine=str(body.get("engine") or "csat"),
            preset=str(body.get("preset") or DEFAULT_PRESET),
            limits=limits,
            priority=priority, label=label,
            fault=body.get("fault"), fp=fp,
            idempotency_key=idempotency_key, source=source,
            incremental=bool(body.get("incremental", True)))
        job = self._admit(request, body.get("wait"))
        if job is not None:
            self._send_json(200, job.snapshot())

    def _post_circuit(self, body: Dict[str, Any]) -> None:
        text = body.get("circuit")
        if not text:
            self._error(400, "bad-request", "missing 'circuit' text")
            return
        label = str(body.get("label") or "dist")
        try:
            circuit = read_circuit_text(str(text), name=label,
                                        fmt=body.get("format"))
            reg = self.service.scheduler.register(
                circuit, body.get("objectives"), body.get("phase_lemmas"),
                label)
        except AdmissionError as exc:
            self._send_json(exc.status, {"error": exc.as_dict()})
            return
        except (ParseError, CircuitError, ReproError) as exc:
            self._error(400, "bad-circuit", str(exc))
            return
        self._send_json(200, {"ok": True, "key": reg.key,
                              "nodes": reg.circuit.num_nodes,
                              "objectives": list(reg.objectives)})

    def _post_conquer(self, body: Dict[str, Any]) -> None:
        reg = self.service.scheduler.registration(str(body.get("key") or ""))
        if reg is None:
            # The coordinator registers again and retries on this code:
            # the path a restarted server, or one that evicted the
            # registration, takes back into the conquest.
            self._error(400, "unknown-circuit",
                        "no circuit registered under that key; "
                        "POST /circuit first")
            return
        try:
            attempt = int(body.get("attempt") or 0)
        except (TypeError, ValueError):
            self._error(400, "bad-request", "attempt must be an integer")
            return
        try:
            limits = _parse_limits(body.get("limits"))
        except SolverError as exc:
            self._error(400, "bad-limits", str(exc))
            return
        key = body.get("idempotency_key")
        request = CubeRequest(
            registration=reg, cube=body.get("cube"), attempt=attempt,
            lemmas=body.get("lemmas"), limits=limits,
            idempotency_key=str(key)[:200] if key else None,
            trace_id=body.get("trace_id"),
            parent_span=body.get("parent_span"))
        job = self._admit(request, body.get("wait"))
        if job is not None:
            snap = job.snapshot()
            # The key already named this cube: a re-issue, not a solve.
            snap["deduped"] = job.request is not request
            self._send_json(200, snap)
