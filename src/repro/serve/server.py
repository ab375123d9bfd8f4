"""Solver-as-a-service: a stdlib JSON-over-HTTP front end.

The protocol is deliberately tiny (no dependencies, one JSON object per
request/response) so any EDA tool with an HTTP client can drive it:

``GET /health``
    Liveness: ``{"ok": true, "version": ...}``.
``GET /status``
    Scheduler + cache statistics (queue depth, workers, hit rates).
``POST /submit``
    Body: ``{"circuit": <text>}`` or ``{"instance": <name>}`` plus
    optional ``format`` (bench/aiger/dimacs; sniffed otherwise),
    ``engine`` (csat/cnf/brute/bdd/cube/sweep), ``preset`` (csat jobs;
    default :data:`~repro.csat.options.DEFAULT_PRESET`, ``kernel``; a
    sweep job ignores it), ``incremental`` (false opts this job out of
    the knowledge-store pre-pass), ``limits``
    (``{"max_seconds": ..., "max_conflicts": ..., "max_decisions": ...}``),
    ``priority``, ``label``, ``wait`` (seconds to block for the result),
    ``cube_workers`` and ``fault`` (test-only fault injection).
    Responds with the job snapshot; admission failures are structured
    ``{"error": {"code", "message"}}`` with status 400 (bad request) or
    503 (queue full / draining) — an invalid request is **never queued**.
``GET /result/<job>?wait=<seconds>``
    Poll or block for a job's result snapshot.
``GET /events/<job>?since=<n>``
    Incremental event stream (obs worker lifecycle + job lifecycle):
    returns ``{"events": [...], "next": m}``; poll with ``since=m`` to
    tail a running solve.
``POST /shutdown``
    Graceful drain (``{"drain": false}`` cancels the queue instead).

Every worker failure crosses this protocol verbatim as the PR3 taxonomy
(TIMEOUT / MEMOUT / CRASHED / CORRUPT_ANSWER / LOST) inside the result's
``failures`` list — a crashed worker is an answered request, not a dead
server.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..circuit.source import read_circuit_text
from ..csat.options import DEFAULT_PRESET
from ..durable.journal import Journal, ReplayState, replay_journal
from ..errors import CircuitError, ParseError, ReproError, SolverError
from ..obs.metrics import default_registry, enable_metrics
from ..result import Limits, SAT, UNSAT
from .cache import AnswerCache
from .envelope import MAX_WAIT_SECONDS, JsonHandler
from .fingerprint import fingerprint
from .scheduler import (AdmissionError, JobRequest, REJECT_DRAINING,
                        REJECT_QUEUE_FULL, SolveScheduler)

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
        # re-admitted under their original idempotency keys.
        self.journal: Optional[Journal] = None
        self.recovery: Dict[str, int] = {}
        state: Optional[ReplayState] = None
        skipped: List[int] = []
        if journal_path:
            self.journal = Journal(journal_path)
            if os.path.exists(journal_path):
                state = replay_journal(journal_path, skipped=skipped)
                # Boot compaction: drop superseded records and any torn
                # trailing line the crash left behind.
                self.journal.compact(state.live_records())
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
            self._recover(state, skipped)

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
        limits = None
        raw = record.get("limits")
        if raw:
            try:
                limits = Limits(
                    max_conflicts=raw.get("max_conflicts"),
                    max_decisions=raw.get("max_decisions"),
                    max_seconds=raw.get("max_seconds")).validate()
            except (AttributeError, TypeError, SolverError):
                return None
        try:
            return JobRequest(
                circuit=circuit, engine=str(record.get("engine") or "csat"),
                preset=str(record.get("preset") or DEFAULT_PRESET),
                limits=limits, priority=int(record.get("priority") or 0),
                label=label,
                cube_workers=int(record.get("cube_workers") or 2),
                fp=fp, idempotency_key=record.get("key"), source=source,
                incremental=bool(record.get("incremental", True)))
        except (TypeError, ValueError):
            return None

    def _recover(self, state: ReplayState, skipped: List[int]) -> None:
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
                         "skipped_lines": len(skipped)}
        if skipped:
            import sys
            print("repro serve: journal replay skipped {} torn/corrupt "
                  "line(s)".format(len(skipped)), file=sys.stderr)
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
                             workers=self.scheduler.stats()["workers"])
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        if self.tracer is not None:
            self.tracer.emit("serve_start", host=self.host, port=self.port,
                             workers=self.scheduler.stats()["workers"])
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


class _ServeHandler(JsonHandler):
    """One HTTP request; all state lives on ``service`` (the server)."""

    service: ReproServer = None  # injected by ReproServer
    server_version = "repro-serve/" + __version__

    def get(self, path: str, query: Dict[str, str]) -> bool:
        server = self.service
        if path == "/health":
            self._send_json(200, {"ok": True, "version": __version__})
        elif path == "/status":
            payload = {"ok": True, "scheduler": server.scheduler.stats()}
            if server.journal is not None:
                payload["journal"] = server.journal.path
                payload["recovery"] = server.recovery
            if server.store is not None:
                payload["store"] = server.store.stats()
            self._send_json(200, payload)
        elif path.startswith("/events/"):
            self._get_events(path[len("/events/"):], query)
        else:
            return False
        return True

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

    def post(self, path: str, body: Dict[str, Any]) -> bool:
        if path != "/submit":
            return False
        self._post_submit(body)
        return True

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
            cube_workers = int(body.get("cube_workers") or 2)
        except (TypeError, ValueError):
            self._error(400, "bad-request",
                        "priority and cube_workers must be integers")
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
            fault=body.get("fault"), cube_workers=cube_workers, fp=fp,
            idempotency_key=idempotency_key, source=source,
            incremental=bool(body.get("incremental", True)))
        try:
            job = self.service.scheduler.submit(request)
        except AdmissionError as exc:
            status = (503 if exc.code in (REJECT_QUEUE_FULL,
                                          REJECT_DRAINING) else 400)
            self._send_json(status, {"error": exc.as_dict()})
            return
        try:
            wait = min(float(body.get("wait") or 0), MAX_WAIT_SECONDS)
        except (TypeError, ValueError):
            self._error(400, "bad-request", "wait must be a number")
            return
        if wait > 0:
            job.wait(wait)
        self._send_json(200, job.snapshot())
