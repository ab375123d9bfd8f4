"""Conquer node: the remote worker-pool half of the distributed fabric.

A :class:`ConquerNode` is a thin JSON-over-HTTP service wrapping
:mod:`repro.runtime` workers.  The unit of work is one *cube* — a
conjunction of decision literals cut by the coordinator — solved as an
assumption solve under the node's hard limits and boundary
certification.  Each of the node's slots keeps one warm worker
(:class:`~repro.cube.conquer.CubeSlot`) for the registration its cubes
name: built once with the circuit, objectives, engine and phase lemmas,
replaced when the slot's next cube names another registration, and
closed when its registration is evicted or the node stops.  The node
keeps the :data:`MAX_REGISTRATIONS` most recently used registrations;
evicting one drops its finished jobs and idempotency keys too, so a
late re-issue takes the ``unknown-circuit`` → re-register path.  The
protocol mirrors :mod:`repro.serve.server`:

``GET /health``
    Liveness: ``{"ok": true, "role": "conquer-node", ...}``.
``GET /status``
    Pool/queue statistics (see :meth:`ConquerNode.stats`).
``GET /metrics``
    Prometheus-style exposition of the node's registry.
``POST /circuit``
    Register a circuit once: ``{"circuit": <text>, "objectives": [...],
    "classes": [...], "phase_lemmas": [...]}``.  Responds ``{"key":
    <registration key>}``; every later ``/conquer`` references the key,
    so cube dispatches stay tiny.  ``objectives`` (the circuit's outputs
    when absent), ``classes`` (correlation classes of ``[node, phase]``
    pairs) and ``phase_lemmas`` (the clauses the coordinator's explicit
    phase proved, which every warm worker of the registration holds) are
    checked against the parsed circuit before anything is registered.
    The key (:func:`registration_key`) covers the **exact** structural
    hash (node numbering included) and the objectives — the coordinator
    compares it against its own, which guarantees that cube literals
    mean the same nodes on both sides, under the same objectives.
``POST /conquer``
    Solve one cube: ``{"key": ..., "cube": [literals], "attempt": n,
    "idempotency_key": ..., "limits": {...}, "lemmas": [...],
    "kind": ..., "preset": ..., "wait": seconds}``.  ``kind`` and
    ``preset`` pick the worker's engine (default: the cube-worker
    defaults, ``csat`` and :data:`~repro.cube.conquer.CUBE_PRESET`); a
    node holds no engine setting of its own.  ``lemmas`` seed the
    worker beyond its registration's phase lemmas.  Responds with the job
    snapshot; with ``wait`` the snapshot usually carries the final
    result already, and the result carries the lemmas the worker
    exported.  A re-issue under the same idempotency key maps onto the
    existing job when it names the same registration and cube literals
    — the work-stealing coordinator leans on this — and anything else
    under a known key is a 409 ``key-conflict``, with nothing queued.
``GET /result/<job>?wait=<seconds>``
    Poll or block for a cube job's snapshot.
``POST /shutdown``
    Drain (finish queued cubes) or cancel (kill in-flight workers).

Soundness: shared lemmas are consequences of ``circuit AND objectives``
only, so the lemmas a dispatch carries are valid whichever cube it
solves.  Cube literals and lemma batches are checked against the
registered circuit before anything is queued, so a malformed request is
a 400 and never reaches a worker.  SAT models are re-certified at the
worker boundary (``certify="sat"``); the coordinator certifies them
*again* on arrival, so a corrupted node cannot smuggle a wrong answer
into the fabric.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from collections import OrderedDict, deque
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..circuit.source import read_circuit_text
from ..csat.options import preset
from ..cube.conquer import CUBE_PRESET, CubeSlot, cube_job
from ..cube.sharing import literals_ok
from ..durable.checkpoint import exact_hash
from ..errors import CircuitError, ParseError, ReproError, SolverError
from ..obs.context import SpanContext
from ..obs.metrics import enable_metrics
from ..result import Limits
from ..runtime.supervisor import CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT
from ..runtime.worker import KIND_CNF, KIND_CSAT
from ..serve.envelope import MAX_WAIT_SECONDS, JsonHandler

#: Cube job states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
CANCELLED = "CANCELLED"

#: Registrations a node keeps, least recently used evicted first.  Every
#: dispatch and result poll refreshes its registration, and one with a
#: queued or running job is never evicted.
MAX_REGISTRATIONS = 4


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


def registration_key(circuit, objectives: Sequence[int]) -> str:
    """The key a node files a registration under: the circuit's exact
    hash (node numbering included) and the objectives.  Cube answers and
    shared lemmas hold only for circuit AND objectives, so two conquests
    of one circuit under other objectives never share a job."""
    h = hashlib.blake2b(digest_size=16)
    h.update(exact_hash(circuit).encode())
    h.update("|{}".format(",".join(map(str, objectives))).encode())
    return h.hexdigest()


class _Registration:
    """One registered circuit and objectives."""

    def __init__(self, key: str, circuit, objectives: List[int],
                 classes, phase_lemmas, label: str):
        self.key = key
        self.circuit = circuit
        self.objectives = objectives
        self.classes = classes  # serialized correlation classes (or None)
        self.phase_lemmas = phase_lemmas  # the coordinator's phase clauses
        self.label = label
        self.evicted = False


class NodeJob:
    """One cube solve on this node."""

    def __init__(self, reg: _Registration, cube: List[int], attempt: int,
                 idempotency_key: Optional[str],
                 limits: Optional[Limits], lemmas,
                 kind: str, preset_name: str,
                 trace_id: Optional[str], parent_span: Optional[str]):
        self.id = uuid.uuid4().hex[:12]
        self.reg = reg
        self.cube = cube
        self.attempt = attempt
        self.key = idempotency_key
        self.limits = limits
        self.lemmas = lemmas    # the dispatch's seed lemmas (or None)
        self.kind = kind
        self.preset_name = preset_name
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
                 mem_limit_mb: Optional[int] = None,
                 grace_seconds: float = 1.0,
                 certify: str = CERTIFY_SAT,
                 max_queue: int = 256,
                 name: Optional[str] = None,
                 tracer=None,
                 start_method: Optional[str] = None):
        if certify not in CERTIFY_LEVELS or certify == CERTIFY_FULL:
            raise SolverError("conquer nodes certify 'off' or 'sat'; "
                              "cube refutations carry no closed proof")
        self.registry = enable_metrics()
        self.workers = max(1, int(workers))
        self.mem_limit_mb = mem_limit_mb
        self.grace_seconds = grace_seconds
        self.certify = certify
        self.max_queue = max_queue
        self.tracer = tracer
        self.start_method = start_method
        self._registrations: "OrderedDict[str, _Registration]" = \
            OrderedDict()
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
                 objectives: Optional[List[int]], classes, phase_lemmas,
                 label: str) -> _Registration:
        """Parse + register a circuit; idempotent on the registration
        key (:func:`registration_key`).

        Raises :class:`AdmissionRejected` when ``objectives``,
        ``classes`` or ``phase_lemmas`` do not name the parsed circuit's
        literals and nodes.
        """
        circuit = read_circuit_text(text, name=label, fmt=fmt)
        if not _objectives_ok(objectives, circuit.num_nodes):
            raise AdmissionRejected("bad-request", _BAD_OBJECTIVES, 400)
        if not _classes_ok(classes, circuit.num_nodes):
            raise AdmissionRejected("bad-request", _BAD_CLASSES, 400)
        if not _lemmas_ok(phase_lemmas, circuit.num_nodes):
            raise AdmissionRejected("bad-request", _BAD_PHASE_LEMMAS, 400)
        objs = list(objectives) if objectives is not None \
            else list(circuit.outputs)
        if not objs:
            raise SolverError("circuit has no outputs and no objectives "
                              "were given")
        key = registration_key(circuit, objs)
        with self._cv:
            reg = self._registrations.get(key)
            if reg is not None:
                self._registrations.move_to_end(key)
                if classes and not reg.classes:
                    reg.classes = classes
                if phase_lemmas and not reg.phase_lemmas:
                    reg.phase_lemmas = phase_lemmas
                return reg
            reg = _Registration(key, circuit, objs, classes, phase_lemmas,
                                label)
            self._registrations[key] = reg
            self._evict()
        self._count("registered")
        return reg

    def _evict(self) -> None:
        """Drop the least recently used registrations past
        :data:`MAX_REGISTRATIONS` — with their jobs and idempotency keys —
        skipping any with a queued or running job; the slots close their
        warm workers.  Called with the lock held."""
        busy = {job.reg.key for job in self._jobs.values()
                if job.state in (QUEUED, RUNNING)}
        for key in [k for k in self._registrations if k not in busy]:
            if len(self._registrations) <= MAX_REGISTRATIONS:
                break
            self._registrations.pop(key).evicted = True
        for job_id in [i for i, job in self._jobs.items()
                       if job.reg.evicted]:
            job = self._jobs.pop(job_id)
            if job.key and self._by_key.get(job.key) is job:
                del self._by_key[job.key]
        self._cv.notify_all()

    def submit(self, reg: _Registration, cube: List[int], attempt: int,
               idempotency_key: Optional[str], limits: Optional[Limits],
               lemmas, kind: str, preset_name: str,
               trace_id: Optional[str],
               parent_span: Optional[str]) -> Tuple[NodeJob, bool]:
        """Queue one cube; returns ``(job, deduped)``.

        The idempotency map makes re-issues (work stealing, client
        retries after ambiguous failures) land on the existing job
        instead of solving the cube twice on this node — but only a
        re-issue of the same cube under the same registration: a known
        key naming anything else raises a ``key-conflict``.
        """
        job = existing = reject = None
        # _count() takes the same (non-reentrant) lock the condition
        # wraps, so bookkeeping happens after the critical section.
        with self._cv:
            if idempotency_key:
                existing = self._by_key.get(idempotency_key)
            if existing is not None and (existing.reg.key != reg.key
                                         or existing.cube != cube):
                reject = ("key-conflict", "idempotency key {!r} names "
                          "another cube or registration".format(
                              idempotency_key), 409)
                existing = None
            elif existing is None:
                if reg.evicted:
                    reject = ("unknown-circuit", "registration evicted; "
                              "POST /circuit again", 400)
                elif self._draining:
                    reject = ("draining", "node is shutting down", 503)
                elif len(self._queue) + self._running >= self.max_queue:
                    reject = ("queue-full",
                              "queue depth {} at capacity".format(
                                  self.max_queue), 503)
                else:
                    job = NodeJob(reg, cube, attempt, idempotency_key,
                                  limits, lemmas, kind, preset_name,
                                  trace_id, parent_span)
                    self._registrations.move_to_end(reg.key)
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
            raise AdmissionRejected(*reject)
        self._count("accepted")
        return job, False

    def job(self, job_id: str) -> Optional[NodeJob]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                self._registrations.move_to_end(job.reg.key)
            return job

    def registration(self, key: str) -> Optional[_Registration]:
        with self._lock:
            return self._registrations.get(key)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        """One slot: its warm worker serves one registration, engine kind
        and preset at a time, and is closed when the next job names
        another, when its registration is evicted, or when the node
        stops."""
        slot = binding = None
        while True:
            with self._cv:
                while not self._queue and not self._draining \
                        and not (slot is not None and binding[0].evicted):
                    self._cv.wait(0.5)
                job = self._queue.popleft() if self._queue else None
                if job is not None:
                    job.state = RUNNING
                    self._running += 1
            wanted = None if job is None \
                else (job.reg, job.kind, job.preset_name)
            if slot is not None and wanted != binding:
                slot.close(self._span_tracer(None))
                slot = None
            if job is None:
                if self._draining:
                    return
                continue
            if slot is None:
                slot, binding = self._slot_for(job), wanted
            try:
                self._run_job(job, slot)
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

    def _slot_for(self, job: NodeJob) -> CubeSlot:
        reg = job.reg
        return CubeSlot(
            cube_job(reg.circuit, reg.objectives,
                     name="cube@{}".format(self.name), kind=job.kind,
                     preset_name=job.preset_name, options=None,
                     classes=reg.classes, phase_lemmas=reg.phase_lemmas,
                     mem_limit_mb=self.mem_limit_mb, export_lemmas=True),
            certify=self.certify, grace_seconds=self.grace_seconds,
            start_method=self.start_method, spawns=self._next_spawn)

    def _next_spawn(self) -> int:
        with self._lock:
            self._spawned += 1
            return self._spawned - 1

    def _span_tracer(self, job: Optional[NodeJob]):
        """A tracer for one job's events (or the slot's own, without a
        job): the coordinator's dispatch span becomes the parent of what
        the job's worker does, so a merged trace shows coordinator ->
        dispatch -> worker as one tree."""
        if self.tracer is None:
            return None
        context = None
        if job is not None and job.trace_id and job.parent_span:
            context = SpanContext(trace_id=job.trace_id,
                                  span_id=job.parent_span)
        return _SpanTracer(self.tracer, context)

    def _run_job(self, job: NodeJob, slot: CubeSlot) -> None:
        started = time.perf_counter()
        # The job table outlives the solve; the seeds need not.
        seeds, job.lemmas = job.lemmas, None
        payload = slot.solve(
            job.cube, job.attempt, seeds, job.limits, fault=None,
            tracer=self._span_tracer(job),
            cancelled=lambda: ("node-shutdown" if self._stop_now.is_set()
                               else None))
        job.seconds = time.perf_counter() - started
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
            return {
                "name": self.name,
                "role": "conquer-node",
                "workers": self.workers,
                "queued": len(self._queue),
                "running": self._running,
                "done": done,
                "jobs": len(self._jobs),
                "circuits": len(self._registrations),
                "workers_spawned": self._spawned,
                "counts": dict(self._counts),
                "draining": self._draining,
            }


_BAD_LEMMAS = ("'lemmas' must be a list of non-empty clauses of the "
               "circuit's literals")
_BAD_PHASE_LEMMAS = ("'phase_lemmas' must be a list of non-empty clauses "
                     "of the circuit's literals")
_BAD_OBJECTIVES = ("'objectives' must be a non-empty list of the "
                   "circuit's literals")
_BAD_CLASSES = ("'classes' must be a list of lists of [node, phase] "
                "pairs of the circuit")


def _objectives_ok(objectives, num_nodes: int) -> bool:
    """True when ``objectives`` is absent or a non-empty list of literals
    in ``[0, 2 * num_nodes)``: unlike a cube literal, an output may be a
    constant."""
    return objectives is None or isinstance(objectives, list) \
        and bool(objectives) and all(
            type(lit) is int and 0 <= lit < 2 * num_nodes
            for lit in objectives)


def _classes_ok(classes, num_nodes: int) -> bool:
    """True when ``classes`` is absent or a list of correlation classes,
    each a list of ``[node, phase]`` pairs with ``node`` in
    ``[0, num_nodes)`` and ``phase`` 0 or 1."""
    return classes is None or isinstance(classes, list) and all(
        isinstance(cls, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) is int and 0 <= pair[0] < num_nodes
            and type(pair[1]) is int and pair[1] in (0, 1)
            for pair in cls)
        for cls in classes)


def _lemmas_ok(batch, num_nodes: int) -> bool:
    """True when ``batch`` is absent or a list of non-empty clauses of
    the registered circuit's literals."""
    return batch is None or isinstance(batch, list) and all(
        clause and literals_ok(clause, num_nodes) for clause in batch)


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
                body.get("classes"), body.get("phase_lemmas"), label)
        except AdmissionRejected as exc:
            self._error(exc.status, exc.code, exc.msg)
            return
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
        num_nodes = reg.circuit.num_nodes
        cube = body.get("cube")
        if not literals_ok(cube, num_nodes):
            self._error(400, "bad-request",
                        "'cube' must be a list of the circuit's literals")
            return
        lemmas = body.get("lemmas")
        if not _lemmas_ok(lemmas, num_nodes):
            self._error(400, "bad-request", _BAD_LEMMAS)
            return
        kind = str(body.get("kind") or KIND_CSAT)
        preset_name = str(body.get("preset") or CUBE_PRESET)
        try:
            if kind not in (KIND_CSAT, KIND_CNF):
                raise SolverError("conquer nodes solve csat or cnf cubes, "
                                  "not {!r}".format(kind))
            preset(preset_name)
        except SolverError as exc:
            self._error(400, "bad-request", str(exc))
            return
        try:
            attempt = int(body.get("attempt") or 0)
            wait = min(float(body.get("wait") or 0), MAX_WAIT_SECONDS)
        except (TypeError, ValueError):
            self._error(400, "bad-request",
                        "attempt and wait must be numeric")
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
        key = body.get("idempotency_key")
        try:
            job, deduped = node.submit(
                reg, cube, attempt, str(key)[:200] if key else None, limits,
                lemmas, kind, preset_name,
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
