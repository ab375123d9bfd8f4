"""Conquer node: the remote worker-pool half of the distributed fabric.

A :class:`ConquerNode` is a thin JSON-over-HTTP service wrapping the
:mod:`repro.runtime` isolated worker pool.  The unit of work is one
*cube* — a conjunction of decision literals cut by the coordinator —
solved as an assumption solve under the node's hard limits and boundary
certification.  The protocol mirrors :mod:`repro.serve.server`:

``GET /health``
    Liveness: ``{"ok": true, "role": "conquer-node", ...}``.
``GET /status``
    Pool/queue statistics (see :meth:`ConquerNode.stats`).
``GET /metrics``
    Prometheus-style exposition of the node's registry.
``POST /circuit``
    Register a circuit once: ``{"circuit": <text>, "objectives": [...],
    "classes": [...]}``.  Responds ``{"key": <exact-hash>}``; every
    later ``/conquer`` references the key, so cube dispatches stay tiny.
    The key is the **exact** structural hash (node numbering included) —
    the coordinator compares it against its own circuit's hash, which
    guarantees that cube literals mean the same nodes on both sides.
``POST /conquer``
    Solve one cube: ``{"key": ..., "cube": [literals], "attempt": n,
    "idempotency_key": ..., "limits": {...}, "lemmas": [...],
    "wait": seconds}``.  Responds with the job snapshot; with ``wait``
    the snapshot usually carries the final result already.  A re-issued
    cube under the same idempotency key maps onto the existing job —
    the work-stealing coordinator leans on this.
``GET /result/<job>?wait=<seconds>``
    Poll or block for a cube job's snapshot.
``POST /exchange``
    Heartbeat + lemma swap: absorb the caller's lemma batch into the
    pool, return the pool entries the caller has not seen
    (``since``-indexed).  The pool is append-only and deduped
    (:class:`repro.cube.sharing.SharedKnowledge`), so index cursors are
    stable.
``POST /shutdown``
    Drain (finish queued cubes) or cancel (kill in-flight workers).

Soundness: shared lemmas are consequences of ``circuit AND objectives``
only — they are absorbed into the per-circuit pool and seeded into every
worker regardless of which cube it solves.  SAT models are re-certified
at the worker boundary (``certify="sat"``); the coordinator certifies
them *again* on arrival, so a corrupted node cannot smuggle a wrong
answer into the fabric.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..circuit.source import read_circuit_text
from ..cube.conquer import run_cube
from ..cube.sharing import SharedKnowledge
from ..durable.checkpoint import exact_hash
from ..errors import CircuitError, ParseError, ReproError, SolverError
from ..obs.context import SpanContext
from ..obs.metrics import enable_metrics
from ..result import Limits
from ..runtime.supervisor import CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT
from ..runtime.worker import KIND_CNF, KIND_CSAT, WorkerJob
from ..serve.envelope import MAX_WAIT_SECONDS, JsonHandler

#: Cube job states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
CANCELLED = "CANCELLED"


class _SpanTracer:
    """Per-job tracer façade: shared sink, private span context.

    The node's worker threads run concurrently, so the node tracer's
    global ``context`` cannot carry per-job spans.  Each job gets this
    proxy instead — ``spawn_worker`` reads ``context`` from it to mint
    the worker's child span, and all events land in the shared sink.
    """

    enabled = True

    def __init__(self, inner, context: Optional[SpanContext]):
        self._inner = inner
        self.context = context

    def emit(self, kind: str, **fields: Any) -> None:
        self._inner.emit(kind, **fields)

    def now(self) -> float:
        return self._inner.now()

    def close(self) -> None:
        pass  # the sink belongs to the node, not the job


class _Registration:
    """One registered circuit + everything cube solves on it share."""

    def __init__(self, key: str, circuit, objectives: List[int],
                 classes, label: str):
        self.key = key
        self.circuit = circuit
        self.objectives = objectives
        self.classes = classes  # serialized correlation classes (or None)
        self.label = label
        self.pool = SharedKnowledge(classes=classes)

    def snapshot_since(self, since: int,
                       cap: int = 512) -> Tuple[List[List[int]], int]:
        """Pool entries past the caller's cursor (append-only indexing)."""
        since = max(0, min(since, len(self.pool.lemmas)))
        fresh = [list(c) for c in self.pool.lemmas[since:since + cap]]
        return fresh, since + len(fresh)


class NodeJob:
    """One cube solve on this node."""

    def __init__(self, reg: _Registration, cube: List[int], attempt: int,
                 idempotency_key: Optional[str],
                 limits: Optional[Limits],
                 overrides: Dict[str, Any],
                 trace_id: Optional[str], parent_span: Optional[str]):
        self.id = uuid.uuid4().hex[:12]
        self.reg = reg
        self.cube = cube
        self.attempt = attempt
        self.key = idempotency_key
        self.limits = limits
        self.overrides = overrides      # kind/preset/backend overrides
        self.trace_id = trace_id
        self.parent_span = parent_span
        self.state = QUEUED
        self.result: Optional[Dict[str, Any]] = None
        self.seconds = 0.0
        self.created = time.perf_counter()
        self._done = threading.Event()

    def finish(self, result: Dict[str, Any], state: str = DONE) -> None:
        self.result = result
        self.state = state
        self._done.set()

    def wait(self, seconds: float) -> bool:
        return self._done.wait(seconds)

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "job": self.id, "state": self.state, "key": self.key,
            "circuit": self.reg.key, "cube": list(self.cube),
            "attempt": self.attempt,
            "seconds": round(self.seconds, 6)}
        if self.result is not None:
            snap["result"] = self.result
        return snap


class ConquerNode:
    """Owns the worker pool, the job table, and the HTTP listener."""

    def __init__(self,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 workers: int = 2,
                 kind: str = KIND_CSAT,
                 preset_name: str = "implicit",
                 backend: str = "legacy",
                 mem_limit_mb: Optional[int] = None,
                 grace_seconds: float = 1.0,
                 certify: str = CERTIFY_SAT,
                 max_queue: int = 256,
                 name: Optional[str] = None,
                 tracer=None,
                 start_method: Optional[str] = None):
        if kind not in (KIND_CSAT, KIND_CNF):
            raise SolverError("conquer nodes solve csat or cnf cubes, "
                              "not {!r}".format(kind))
        if certify not in CERTIFY_LEVELS or certify == CERTIFY_FULL:
            raise SolverError("conquer nodes certify 'off' or 'sat'; "
                              "cube refutations carry no closed proof")
        self.registry = enable_metrics()
        self.workers = max(1, int(workers))
        self.kind = kind
        self.preset_name = preset_name
        self.backend = backend
        self.mem_limit_mb = mem_limit_mb
        self.grace_seconds = grace_seconds
        self.certify = certify
        self.max_queue = max_queue
        self.tracer = tracer
        self.start_method = start_method
        self._registrations: Dict[str, _Registration] = {}
        self._jobs: Dict[str, NodeJob] = {}
        self._by_key: Dict[str, NodeJob] = {}
        self._queue: "deque[NodeJob]" = deque()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._running = 0
        self._counts: Dict[str, int] = {}
        self._draining = False
        self._stop_now = threading.Event()
        self._spawned = 0
        node = self

        class Handler(_NodeHandler):
            service = node

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self.name = name or "node-{}".format(self.port)
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name="conquer-{}-{}".format(self.name, i),
                             daemon=True)
            for i in range(self.workers)]
        for thread in self._threads:
            thread.start()
        self._http_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    def start(self) -> "ConquerNode":
        """Serve in a background thread; returns self."""
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="conquer-node-http", daemon=True)
        self._http_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop(drain=False)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work, finish or cancel the queue, stop HTTP."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._cv:
            self._draining = True
            if not drain:
                while self._queue:
                    job = self._queue.popleft()
                    job.finish({"status": CANCELLED,
                                "detail": "node shutdown"}, CANCELLED)
                self._stop_now.set()
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        self._stop_now.set()
        self.httpd.shutdown()
        self.httpd.server_close()

    def request_shutdown(self, drain: bool = True) -> None:
        threading.Thread(target=self.stop, kwargs={"drain": drain},
                         daemon=True).start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def register(self, text: str, fmt: Optional[str],
                 objectives: Optional[List[int]], classes,
                 label: str) -> _Registration:
        """Parse + register a circuit; idempotent on the exact hash."""
        circuit = read_circuit_text(text, name=label, fmt=fmt)
        key = exact_hash(circuit)
        objs = ([int(o) for o in objectives] if objectives
                else list(circuit.outputs))
        if not objs:
            raise SolverError("circuit has no outputs and no objectives "
                              "were given")
        with self._lock:
            reg = self._registrations.get(key)
            if reg is not None and reg.objectives == objs:
                if classes and not reg.classes:
                    reg.classes = classes
                    reg.pool.classes = classes
                return reg
            reg = _Registration(key, circuit, objs, classes, label)
            self._registrations[key] = reg
        self._count("registered")
        return reg

    def submit(self, reg: _Registration, cube: List[int], attempt: int,
               idempotency_key: Optional[str], limits: Optional[Limits],
               lemmas, overrides: Dict[str, Any],
               trace_id: Optional[str],
               parent_span: Optional[str]) -> Tuple[NodeJob, bool]:
        """Queue one cube; returns ``(job, deduped)``.

        The idempotency map makes re-issues (work stealing, client
        retries after ambiguous failures) land on the existing job
        instead of solving the cube twice on this node.
        """
        if lemmas:
            # Piggybacked exchange: the dispatch carries the
            # coordinator's pool; absorb before the worker snapshots it.
            reg.pool.absorb(lemmas)
        job = existing = reject = None
        # _count() takes the same (non-reentrant) lock the condition
        # wraps, so bookkeeping happens after the critical section.
        with self._cv:
            if idempotency_key:
                existing = self._by_key.get(idempotency_key)
            if existing is None:
                if self._draining:
                    reject = ("draining", "node is shutting down")
                elif len(self._queue) + self._running >= self.max_queue:
                    reject = ("queue-full",
                              "queue depth {} at capacity".format(
                                  self.max_queue))
                else:
                    job = NodeJob(reg, cube, attempt, idempotency_key,
                                  limits, overrides, trace_id, parent_span)
                    self._jobs[job.id] = job
                    if idempotency_key:
                        self._by_key[idempotency_key] = job
                    self._queue.append(job)
                    self._cv.notify()
        if existing is not None:
            self._count("deduped")
            return existing, True
        if reject is not None:
            if reject[0] == "queue-full":
                self._count("rejected")
            raise AdmissionRejected(reject[0], reject[1], 503)
        self._count("accepted")
        return job, False

    def job(self, job_id: str) -> Optional[NodeJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def registration(self, key: str) -> Optional[_Registration]:
        with self._lock:
            return self._registrations.get(key)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._draining:
                    self._cv.wait(0.5)
                if not self._queue:
                    if self._draining:
                        return
                    continue
                job = self._queue.popleft()
                job.state = RUNNING
                self._running += 1
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — a node survives any job
                job.finish({"status": "FAILED",
                            "failure": {"kind": "CRASHED",
                                        "detail": "{}: {}".format(
                                            type(exc).__name__, exc),
                                        "engine": "node",
                                        "seconds": 0.0},
                            "lemmas": []})
            finally:
                with self._cv:
                    self._running -= 1
                    self._cv.notify_all()

    def _build_worker_job(self, job: NodeJob) -> WorkerJob:
        reg = job.reg
        kind = str(job.overrides.get("kind") or self.kind)
        return WorkerJob(
            circuit=reg.circuit,
            name="cube@{}".format(self.name),
            kind=kind,
            preset_name=str(job.overrides.get("preset") or self.preset_name),
            backend=str(job.overrides.get("backend") or self.backend),
            objectives=list(reg.objectives),
            limits=job.limits, mem_limit_mb=self.mem_limit_mb,
            assumptions=list(job.cube),
            seed_classes=reg.classes if kind == KIND_CSAT else None,
            seed_lemmas=reg.pool.snapshot(),
            export_lemmas=True)

    def _run_job(self, job: NodeJob) -> None:
        tracer = None
        if self.tracer is not None:
            # Cross-process span tree: the dispatch span the coordinator
            # minted becomes this worker's parent, so a merged trace
            # shows coordinator -> dispatch -> worker as one tree.
            context = None
            if job.trace_id and job.parent_span:
                context = SpanContext(trace_id=job.trace_id,
                                      span_id=job.parent_span)
            tracer = _SpanTracer(self.tracer, context)
        with self._lock:
            index = self._spawned
            self._spawned += 1
        started = time.perf_counter()
        payload = run_cube(
            self._build_worker_job(job), job.attempt, job.reg.pool,
            certify=self.certify, grace_seconds=self.grace_seconds,
            index=index, tracer=tracer, start_method=self.start_method,
            cancelled=lambda: ("node-shutdown" if self._stop_now.is_set()
                               else None))
        job.seconds = time.perf_counter() - started
        if payload["lemmas_exported"]:
            self._metric_counter(
                "repro_dist_node_lemmas_total",
                "Lemmas absorbed into the node pool",
                ("source",)).labels("worker").inc(payload["lemmas_exported"])
        status = payload["status"]
        if status == "FAILED":
            status = payload["failure"]["kind"]
            self._count("failure:{}".format(status))
        else:
            self._count("answer:{}".format(status))
        job.finish(payload)
        self._metric_counter(
            "repro_dist_node_cubes_total",
            "Cubes solved by this conquer node, by outcome",
            ("status",)).labels(status).inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def _metric_counter(self, name: str, help_text: str, labels=()):
        return self.registry.counter(name, help_text, labelnames=labels)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            done = sum(1 for j in self._jobs.values() if j.state == DONE)
            pools = {key: len(reg.pool.lemmas)
                     for key, reg in self._registrations.items()}
            return {
                "name": self.name,
                "role": "conquer-node",
                "workers": self.workers,
                "kind": self.kind,
                "preset": self.preset_name,
                "backend": self.backend,
                "queued": len(self._queue),
                "running": self._running,
                "done": done,
                "jobs": len(self._jobs),
                "circuits": len(self._registrations),
                "lemma_pools": pools,
                "counts": dict(self._counts),
                "draining": self._draining,
            }


class AdmissionRejected(ReproError):
    """A /conquer request this node refuses to queue."""

    def __init__(self, code: str, message: str, status: int):
        super().__init__("{}: {}".format(code, message))
        self.code = code
        self.status = status
        self.msg = message


class _NodeHandler(JsonHandler):
    """One HTTP request; all state lives on ``service`` (the node)."""

    service: ConquerNode = None  # injected by ConquerNode
    service_noun = "node"
    server_version = "repro-conquer-node/" + __version__

    def get(self, path: str, query: Dict[str, str]) -> bool:
        node = self.service
        if path == "/health":
            self._send_json(200, {"ok": True, "version": __version__,
                                  "role": "conquer-node",
                                  "name": node.name,
                                  "workers": node.workers})
        elif path == "/status":
            self._send_json(200, {"ok": True, "node": node.stats()})
        else:
            return False
        return True

    def post(self, path: str, body: Dict[str, Any]) -> bool:
        if path == "/circuit":
            self._post_circuit(body)
        elif path == "/conquer":
            self._post_conquer(body)
        elif path == "/exchange":
            self._post_exchange(body)
        else:
            return False
        return True

    def _post_circuit(self, body: Dict[str, Any]) -> None:
        text = body.get("circuit")
        if not text:
            self._error(400, "bad-request", "missing 'circuit' text")
            return
        label = str(body.get("label") or "dist")
        try:
            reg = self.service.register(
                str(text), body.get("format"), body.get("objectives"),
                body.get("classes"), label)
        except (ParseError, CircuitError, SolverError, ReproError) as exc:
            self._error(400, "bad-circuit", str(exc))
            return
        self._send_json(200, {"ok": True, "key": reg.key,
                              "nodes": reg.circuit.num_nodes,
                              "objectives": list(reg.objectives)})

    def _post_conquer(self, body: Dict[str, Any]) -> None:
        node = self.service
        reg = node.registration(str(body.get("key") or ""))
        if reg is None:
            # The coordinator re-registers and retries on this code —
            # the path a restarted (amnesiac) node takes back into the
            # fabric.
            self._error(400, "unknown-circuit",
                        "no circuit registered under that key; "
                        "POST /circuit first")
            return
        cube = body.get("cube")
        if not isinstance(cube, list):
            self._error(400, "bad-request", "'cube' must be a literal list")
            return
        try:
            cube_literals = [int(l) for l in cube]
            attempt = int(body.get("attempt") or 0)
            wait = min(float(body.get("wait") or 0), MAX_WAIT_SECONDS)
        except (TypeError, ValueError):
            self._error(400, "bad-request",
                        "cube literals, attempt and wait must be numeric")
            return
        limits = None
        raw = body.get("limits")
        if raw:
            try:
                limits = Limits(
                    max_conflicts=raw.get("max_conflicts"),
                    max_decisions=raw.get("max_decisions"),
                    max_seconds=raw.get("max_seconds")).validate()
            except (AttributeError, TypeError, SolverError):
                self._error(400, "bad-limits", "invalid limits object")
                return
        overrides = {k: body[k] for k in ("kind", "preset", "backend")
                     if body.get(k)}
        key = body.get("idempotency_key")
        try:
            job, deduped = node.submit(
                reg, cube_literals, attempt,
                str(key)[:200] if key else None, limits,
                body.get("lemmas"), overrides,
                body.get("trace_id"), body.get("parent_span"))
        except AdmissionRejected as exc:
            self._send_json(exc.status, {"error": {"code": exc.code,
                                                   "message": exc.msg}})
            return
        if wait > 0 and job.state != DONE:
            job.wait(wait)
        snap = job.snapshot()
        snap["deduped"] = deduped
        self._send_json(200, snap)

    def _post_exchange(self, body: Dict[str, Any]) -> None:
        node = self.service
        reg = node.registration(str(body.get("key") or ""))
        if reg is None:
            self._error(400, "unknown-circuit",
                        "no circuit registered under that key")
            return
        absorbed = reg.pool.absorb(body.get("lemmas"))
        if absorbed:
            node._metric_counter(
                "repro_dist_node_lemmas_total",
                "Lemmas absorbed into the node pool",
                ("source",)).labels("exchange").inc(absorbed)
        try:
            since = max(0, int(body.get("since") or 0))
        except (TypeError, ValueError):
            self._error(400, "bad-request", "since must be an integer")
            return
        fresh, cursor = reg.snapshot_since(since)
        stats = node.stats()
        self._send_json(200, {"ok": True, "lemmas": fresh, "next": cursor,
                              "pool": stats["lemma_pools"].get(reg.key, 0),
                              "absorbed": absorbed,
                              "queued": stats["queued"],
                              "running": stats["running"]})
