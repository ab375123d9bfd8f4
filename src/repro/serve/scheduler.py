"""The solve scheduler: one job table, queue and worker pool for every job
a serve node runs.

Requests are admitted (or rejected *at the door* with a structured
reason — never queued to fail later) and queued by priority for a pool
of worker threads.  Every solve runs in an **isolated subprocess**
(:mod:`repro.runtime`), so a hanging, crashing, or memory-bombing solve
can never take the server down: it surfaces as the failure taxonomy
(TIMEOUT / MEMOUT / CRASHED / CORRUPT_ANSWER / LOST), verbatim, in the
job's result payload.

Two kinds of job share the table, the queue and the threads.  A
request's class is its kind, and owns the steps where the kinds differ
(``identity``, ``admit``, ``run``, ``settle``, ``cancel``):

* a **solve job** (:class:`JobRequest`, ``POST /submit``) is
  fingerprinted, answered from the :class:`~repro.serve.cache.AnswerCache`
  when possible, deduplicated against identical in-flight work,
  journaled, and run on a one-shot worker by
  :func:`repro.runtime.supervisor.run_supervised` (or fanned out further
  by :func:`repro.cube.solve_cubes` for ``engine="cube"``);
* a **cube job** (:class:`CubeRequest`, ``POST /conquer``) is one cube of
  a coordinator's conquest (:func:`repro.dist.solve_distributed`),
  solved as an assumption call against a :class:`Registration`
  (``POST /circuit``).  Each worker thread keeps at most one warm
  :class:`~repro.cube.conquer.CubeSlot` (a flat-kernel worker), bound to
  a registration: replaced when the thread's next cube names another,
  closed when that registration is evicted or the scheduler stops, and
  left idle through the solve jobs the thread runs in between.  A cube
  answer holds only for its registration and literals, so a cube job
  skips the fingerprint, the answer cache, in-flight dedup, the
  incremental pre-pass and the journal: the coordinator's checkpoint is
  its durable record, and a restarted server's ``unknown-circuit`` sends
  the coordinator back to ``POST /circuit``.

Idempotency: a re-submission under a known key returns the existing job
only when it names the same request — a solve the same circuit (by
fingerprint) and engine, a cube the same registration and literals.
Anything else is a ``key-conflict`` (HTTP 409), and nothing is queued.

Retention: the table keeps queued and running jobs, the deduplicated
followers waiting on them, each registration's cube jobs while the
registration lasts, and the last ``cache.max_entries`` finished solve
jobs; :meth:`SolveScheduler.stats` counts the table as ``jobs`` and
the followers as ``waiting``.  An older finished solve job
is retired: its id is unknown, and its key forgotten, so a re-submission
under the key makes a fresh job, answered from the cache or solved
again to the same status, and one naming another circuit is no longer
a conflict.

Lifecycle: ``submit()`` returns a :class:`Job` immediately; callers
block on ``job.wait()`` or poll ``job.snapshot()``.  ``close()`` drains
gracefully — no new admissions, queued and running jobs finish — or
cancels the queue and kills in-flight cube workers when asked to stop
fast.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (Any, Callable, ClassVar, Deque, Dict, List, Optional,
                    Tuple)

from ..circuit.netlist import Circuit
from ..csat.options import DEFAULT_PRESET, preset
from ..cube.conquer import CubeSlot, cube_job
from ..cube.sharing import (lemmas_ok, literals_ok, objectives_ok,
                            registration_key)
from ..errors import SolverError
from ..result import Limits, SAT, UNKNOWN, UNSAT
from ..runtime.supervisor import (CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT,
                                  run_supervised)
from ..runtime.worker import (KIND_CNF, KIND_CSAT, KIND_SWEEP,
                              WORKER_KINDS, WorkerJob)
from ..durable.journal import (KIND_ADMITTED, KIND_CANCELLED, KIND_FINISHED,
                               KIND_STARTED, answer_digest)
from ..obs.context import SpanContext, child_context, context_of
from ..obs.metrics import default_registry
from ..obs.trace import Tracer
from .cache import AnswerCache, limits_class
from .fingerprint import Fingerprint, bits_to_model, fingerprint, \
    model_to_bits

#: Engines a request may name: the four isolated worker kinds plus
#: cube-and-conquer and SAT-sweeping behind the same endpoint.
ENGINE_CUBE = "cube"
ENGINE_SWEEP = KIND_SWEEP
SERVE_ENGINES = tuple(WORKER_KINDS) + (ENGINE_CUBE, ENGINE_SWEEP)

#: The engine label of cube jobs (``POST /conquer``) in job snapshots and
#: metrics.
ENGINE_CONQUER = "conquer"

#: Isolated processes one ``engine="cube"`` solve conquers on.  The
#: server sizes this, not the request: a worker thread running such a
#: solve forks this many solver processes, so a fan-out chosen per
#: request could oversubscribe the host without bound.
SERVE_CUBE_WORKERS = 2

#: Registrations a scheduler keeps, least recently used evicted first.
#: Registering and admitting a cube refresh one.  Neither the one being
#: registered nor one with a queued or running cube job is evicted, so
#: the table holds more while every older one is busy.
MAX_REGISTRATIONS = 4

#: Job states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
CANCELLED = "CANCELLED"

#: Structured admission-rejection codes.
REJECT_BAD_ENGINE = "bad-engine"
REJECT_BAD_PRESET = "bad-preset"
REJECT_BAD_LIMITS = "bad-limits"
REJECT_EMPTY_BUDGET = "empty-budget"
REJECT_QUEUE_FULL = "queue-full"
REJECT_DRAINING = "draining"
REJECT_BAD_REQUEST = "bad-request"
REJECT_BAD_CIRCUIT = "bad-circuit"
REJECT_UNKNOWN_CIRCUIT = "unknown-circuit"
REJECT_KEY_CONFLICT = "key-conflict"

#: The HTTP status of a rejection: back-pressure is 503, a known key
#: naming another request 409, everything else 400.
_REJECT_STATUS = {REJECT_QUEUE_FULL: 503, REJECT_DRAINING: 503,
                  REJECT_KEY_CONFLICT: 409}

_BAD_CUBE = "'cube' must be a list of the circuit's literals"
_BAD_LEMMAS = ("'lemmas' must be a list of non-empty clauses of the "
               "circuit's literals")
_BAD_PHASE_LEMMAS = ("'phase_lemmas' must be a list of non-empty clauses "
                     "of the circuit's literals")
_BAD_OBJECTIVES = ("'objectives' must be a non-empty list of the "
                   "circuit's literals")


def input_assignment(circuit: Circuit,
                     model: Optional[Dict[int, bool]]) -> Dict[str, int]:
    """A SAT model's primary-input projection, keyed by PI name (JSON-safe).

    This is the part of a model a client can act on (unassigned inputs
    complete arbitrarily; gate values are implied).
    """
    if not model:
        return {}
    return {circuit.name_of(pi) or "n{}".format(pi):
            int(bool(model.get(pi, False)))
            for pi in circuit.inputs}


def _cancelled_payload() -> Dict[str, Any]:
    """The result of a queued job cancelled at shutdown."""
    return {"status": UNKNOWN, "model_size": 0, "engine": None,
            "cached": False,
            "failures": [{"kind": "LOST", "detail": "cancelled at shutdown",
                          "engine": "", "seconds": 0.0}]}


class AdmissionError(Exception):
    """A request was refused at the door, with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        """The HTTP status the server answers this rejection with."""
        return _REJECT_STATUS.get(self.code, 400)

    def as_dict(self) -> Dict[str, str]:
        return {"code": self.code, "message": self.message}


@dataclass
class JobRequest:
    """One solve request (``POST /submit``) as the scheduler sees it
    (already parsed), and the solve kind's steps.

    ``fp`` may carry a precomputed fingerprint of ``circuit`` (the
    server's parse memo provides one for byte-identical resubmissions);
    when absent the scheduler computes it at admission.
    """

    circuit: Circuit
    engine: str = "csat"
    #: Read by csat jobs only: cube jobs conquer on the cube preset and
    #: sweep jobs always prove on the flat kernel.
    preset: str = DEFAULT_PRESET
    limits: Optional[Limits] = None
    priority: int = 0
    label: str = "request"
    fault: Optional[str] = None       # deterministic fault injection (tests)
    fp: Optional[Fingerprint] = None
    #: Client-supplied idempotency key: re-submitting the same request
    #: under it never double-solves (the scheduler returns the original
    #: job).  Minted server-side when absent so every journaled job has
    #: one.
    idempotency_key: Optional[str] = None
    #: The submission as re-parsable source (``{"circuit": text,
    #: "format": fmt}`` or ``{"instance": name}``), journaled so a
    #: crashed server can re-admit the job on boot.  Built from the
    #: circuit when absent.
    source: Optional[Dict[str, Any]] = None
    #: Allow the incremental pre-pass (knowledge-store replay) for this
    #: job.  Answers are identical either way — the pre-pass re-proves
    #: everything it uses — so this is a performance escape hatch, not a
    #: correctness knob, and it is not part of the cache key.
    incremental: bool = True

    def identity(self, sched: "SolveScheduler") -> Tuple:
        """Check the request at the door (raises :class:`AdmissionError`)
        and fingerprint it; returns what a re-submission under its key
        must match: the circuit's fingerprint and the engine."""
        if self.engine not in SERVE_ENGINES:
            raise sched._reject(REJECT_BAD_ENGINE,
                                "unknown engine {!r}; known: {}".format(
                                    self.engine, ", ".join(SERVE_ENGINES)))
        try:
            preset(self.preset)
        except SolverError as exc:
            raise sched._reject(REJECT_BAD_PRESET, str(exc))
        if self.limits is not None:
            try:
                self.limits.validate()
            except SolverError as exc:
                raise sched._reject(REJECT_BAD_LIMITS, str(exc))
            if self.limits.exhausted_on_entry():
                raise sched._reject(
                    REJECT_EMPTY_BUDGET,
                    "budget is zero or negative — the solve could never "
                    "start; fix the limits instead of queueing it")
        if self.fp is None:
            self.fp = fingerprint(self.circuit)
        return (self.engine, self.fp.digest)

    def admit(self, sched: "SolveScheduler", job: "Job") -> None:
        """Answer from the cache, fold into identical in-flight work, or
        queue; the journal records the admission either way."""
        fp = self.fp
        registry = default_registry()
        job.add_event("job_submit", label=self.label, engine=self.engine,
                      digest=fp.digest, priority=self.priority)
        if sched.tracer is not None:
            sched.tracer.emit("job_submit", job=job.id, label=self.label,
                              engine=self.engine, digest=fp.digest)

        # 1. Answer cache.
        hit = sched.cache.lookup(self.circuit, fp, self.limits, self.engine)
        if registry is not None:
            registry.counter("repro_serve_cache_lookups_total",
                             "Answer-cache lookups at admission",
                             labelnames=("outcome",)).labels(
                                 "hit" if hit is not None else "miss").inc()
        if hit is not None:
            job.cached = True
            job.add_event("cache_hit", digest=fp.digest,
                          status=hit["status"])
            if sched.tracer is not None:
                sched.tracer.emit("cache_hit", job=job.id, digest=fp.digest,
                                  status=hit["status"])
            payload = sched._result_payload(job, hit, cached=True)
            record = sched._admitted_record(job)
            if record is not None:
                sched._journal_append(KIND_ADMITTED, **record)
            bits = (model_to_bits(fp, hit.get("model"))
                    if hit["status"] == SAT else None)
            sched._journal_finish(job, payload, bits)
            sched._finish(job, payload)
            with sched._lock:
                sched.completed += 1
            return

        # The admitted record is built outside the lock (it may serialize
        # the circuit) but appended inside it, so the journal order agrees
        # with the admission order.
        record = sched._admitted_record(job)
        key = "{}|{}|{}".format(fp.digest, limits_class(self.limits),
                                self.engine)

        # 2. In-flight deduplication: identical work shares one solve.
        with sched._lock:
            primary = sched._inflight.get(key)
            if primary is not None and not primary.done:
                job.deduped = True
                sched._followers.setdefault(key, []).append(job)
                job.add_event("job_dedup", follows=primary.id)
                if registry is not None:
                    registry.counter(
                        "repro_serve_dedup_total",
                        "Jobs folded into identical in-flight work").inc()
                if record is not None:
                    sched._journal_append(KIND_ADMITTED, **record)
                return
            # 3. Admission control: bounded queue.
            sched._enqueue(job)
            sched._inflight[key] = job
            job._dedup_key = key
            if record is not None:
                sched._journal_append(KIND_ADMITTED, **record)

    def run(self, sched: "SolveScheduler", job: "Job", tracer,
            seat: "_Seat") -> Dict[str, Any]:
        """Solve on one-shot isolated workers; the thread's warm cube
        worker (``seat``) stays idle."""
        sched._journal_append(KIND_STARTED, key=self.idempotency_key,
                              job=job.id)
        try:
            return sched._solve(job, tracer)
        except Exception as exc:  # noqa: BLE001 — the server must survive
            return {"status": UNKNOWN, "model_size": 0, "engine": None,
                    "cached": False,
                    "failures": [{"kind": "CRASHED",
                                  "detail": "{}: {}".format(
                                      type(exc).__name__, exc),
                                  "engine": self.engine,
                                  "seconds": 0.0}]}

    def settle(self, sched: "SolveScheduler", job: "Job",
               payload: Dict[str, Any]) -> None:
        """Name the model's inputs, cache the answer, journal the
        completion, answer the deduplicated followers, then publish."""
        model = payload.pop("_model", None)
        if payload["status"] == SAT:
            payload["model_inputs"] = input_assignment(self.circuit, model)
        if payload["status"] in (SAT, UNSAT):
            sched.cache.store(
                job.fp, self.limits, self.engine, payload["status"],
                model=model,
                provenance={"engine": payload.get("engine"),
                            "label": self.label,
                            "time_seconds": payload.get("time_seconds"),
                            "stats": payload.get("stats")})
        bits = (model_to_bits(job.fp, model)
                if payload["status"] == SAT and model is not None else None)
        sched._journal_finish(job, payload, bits)
        sched._resolve_followers(job, payload, model)
        sched._finish(job, payload)

    def cancel(self, sched: "SolveScheduler", job: "Job") -> None:
        """A queued job cancelled at shutdown: journal and publish it and
        its followers, which are cancelled with it."""
        key = getattr(job, "_dedup_key", None)
        with sched._lock:
            followers = sched._followers.pop(key, []) if key else []
            if key and sched._inflight.get(key) is job:
                del sched._inflight[key]
        for waiter in [job] + followers:
            sched._journal_append(
                KIND_CANCELLED, key=waiter.request.idempotency_key,
                job=waiter.id)
            sched._finish(waiter, _cancelled_payload(), CANCELLED)

    def trace_parent(self, sched: "SolveScheduler") -> Optional[SpanContext]:
        """The span a traced job's span opens under: any span the caller
        bound to the server's tracer."""
        return context_of(sched.tracer)


class Registration:
    """One circuit and objectives a coordinator registered (``POST
    /circuit``), filed under :func:`~repro.cube.sharing.registration_key`.

    ``phase_lemmas`` are the clauses its driver's explicit phase proved,
    which every warm worker built for the registration holds.  ``jobs``
    are its cube jobs, dropped from the job table with it.
    """

    def __init__(self, key: str, circuit: Circuit, objectives: List[int],
                 phase_lemmas, label: str):
        self.key = key
        self.circuit = circuit
        self.objectives = objectives
        self.phase_lemmas = phase_lemmas
        self.label = label
        self.jobs: List["Job"] = []
        self.evicted = False


@dataclass
class CubeRequest:
    """One cube of a registered conquest (``POST /conquer``), and the cube
    kind's steps.

    The cube is solved as an assumption call on the worker thread's warm
    worker for its registration, seeded with ``lemmas`` beyond the
    registration's phase lemmas.  ``trace_id`` and ``parent_span`` name the
    coordinator's dispatch span, under which a traced job's span opens.
    """

    registration: Registration
    cube: List[int]
    attempt: int = 0
    lemmas: Optional[List[List[int]]] = None
    limits: Optional[Limits] = None
    idempotency_key: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span: Optional[str] = None

    engine: ClassVar[str] = ENGINE_CONQUER
    priority: ClassVar[int] = 0
    #: A cube answer holds for its registration alone: nothing about it
    #: is fingerprinted.
    fp: ClassVar[None] = None

    @property
    def label(self) -> str:
        return self.registration.label

    def identity(self, sched: "SolveScheduler") -> Tuple:
        """Check the cube against its registration at the door (raises
        :class:`AdmissionError`); returns what a re-submission under its
        key must match: the registration and the cube's literals."""
        if sched.certify == CERTIFY_FULL:
            raise sched._reject(
                REJECT_BAD_REQUEST,
                "this server certifies UNSAT answers in full, and a cube "
                "refutation carries no closed proof")
        num_nodes = self.registration.circuit.num_nodes
        if not literals_ok(self.cube, num_nodes):
            raise sched._reject(REJECT_BAD_REQUEST, _BAD_CUBE)
        if not lemmas_ok(self.lemmas, num_nodes):
            raise sched._reject(REJECT_BAD_REQUEST, _BAD_LEMMAS)
        if self.limits is not None:
            try:
                self.limits.validate()
            except SolverError as exc:
                raise sched._reject(REJECT_BAD_REQUEST, str(exc))
        return (self.engine, self.registration.key, tuple(self.cube))

    def admit(self, sched: "SolveScheduler", job: "Job") -> None:
        """Queue the cube, unless its registration was evicted since it
        was looked up (``unknown-circuit``: the coordinator registers
        again)."""
        reg = self.registration
        job.add_event("job_submit", label=self.label, engine=self.engine,
                      circuit=reg.key, priority=self.priority)
        if sched.tracer is not None:
            sched.tracer.emit("job_submit", job=job.id, label=self.label,
                              engine=self.engine, circuit=reg.key)
        with sched._lock:
            if reg.evicted:
                sched._drop(job)
                raise sched._reject(REJECT_UNKNOWN_CIRCUIT,
                                    "registration evicted; POST /circuit "
                                    "again")
            sched._enqueue(job)
            reg.jobs.append(job)
            sched._registrations.move_to_end(reg.key)

    def run(self, sched: "SolveScheduler", job: "Job", tracer,
            seat: "_Seat") -> Dict[str, Any]:
        """Solve the cube on the thread's warm worker for this
        registration, spawned at its first cube."""
        reg = self.registration
        # The job table outlives the solve; the seeds need not.
        seeds, self.lemmas = self.lemmas, None

        def warm_slot() -> CubeSlot:
            return CubeSlot(
                cube_job(reg.circuit, reg.objectives,
                         phase_lemmas=reg.phase_lemmas,
                         mem_limit_mb=sched.mem_limit_mb),
                certify=sched.certify, grace_seconds=sched.grace_seconds,
                spawns=sched._next_spawn)

        try:
            slot = seat.slot_for(reg, warm_slot)
            return slot.solve(
                self.cube, self.attempt, seeds, self.limits, fault=None,
                tracer=tracer,
                cancelled=lambda: ("server-shutdown" if sched._halt.is_set()
                                   else None))
        except Exception as exc:  # noqa: BLE001 — the server must survive
            return {"status": "FAILED",
                    "failure": {"kind": "CRASHED",
                                "detail": "{}: {}".format(
                                    type(exc).__name__, exc),
                                "engine": self.engine, "seconds": 0.0},
                    "lemmas": []}

    def settle(self, sched: "SolveScheduler", job: "Job",
               payload: Dict[str, Any]) -> None:
        """Publish; there is nothing to record, as the coordinator
        checkpoints cube answers, and the job stays in the table while
        its registration does."""
        job.finish(payload)

    def cancel(self, sched: "SolveScheduler", job: "Job") -> None:
        """A queued cube cancelled at shutdown takes nothing with it."""
        job.finish(_cancelled_payload(), CANCELLED)

    def trace_parent(self, sched: "SolveScheduler") -> Optional[SpanContext]:
        """The span a traced job's span opens under: the coordinator's
        dispatch span, when the request names one."""
        if self.trace_id and self.parent_span:
            return SpanContext(trace_id=self.trace_id,
                               span_id=self.parent_span)
        return context_of(sched.tracer)


class _Seat:
    """One worker thread's warm cube worker: at most one
    :class:`~repro.cube.conquer.CubeSlot`, bound to a registration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.slot: Optional[CubeSlot] = None
        self.registration: Optional[Registration] = None

    def slot_for(self, registration: Registration,
                 make: Callable[[], CubeSlot]) -> CubeSlot:
        """The slot bound to ``registration``, closing one bound to
        another."""
        if registration is not self.registration:
            self.close()
            self.slot, self.registration = make(), registration
        return self.slot

    @property
    def stale(self) -> bool:
        """Bound to a registration the scheduler has evicted."""
        return self.registration is not None and self.registration.evicted

    def close(self) -> None:
        if self.slot is not None:
            slot, self.slot, self.registration = self.slot, None, None
            slot.close(self.tracer)


class _JobTracer(Tracer):
    """Tee: append events to the job's buffer and any global tracer."""

    enabled = True

    def __init__(self, job: "Job", downstream=None):
        self._job = job
        self._downstream = downstream

    def emit(self, kind: str, **fields: Any) -> None:
        if self.context is not None and "span" not in fields:
            fields["span"] = self.context.span_id
        self._job.add_event(kind, **fields)
        if self._downstream is not None:
            self._downstream.emit(kind, job=self._job.id, **fields)

    def now(self) -> float:
        return (self._downstream.now()
                if self._downstream is not None else 0.0)


class Job:
    """Parent-side handle on one admitted request, of either kind."""

    def __init__(self, job_id: str, request, identity: Tuple):
        self.id = job_id
        self.request = request
        #: What a re-submission under the job's key must match.
        self.identity = identity
        self.fp = request.fp
        self.state = QUEUED
        self.result: Optional[Dict[str, Any]] = None
        self.cached = False
        self.deduped = False
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.events: List[Dict[str, Any]] = []
        self._done = threading.Event()

    def add_event(self, kind: str, **fields: Any) -> None:
        record = {"kind": kind}
        record.update(fields)
        self.events.append(record)   # list.append is atomic under the GIL

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did within timeout."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def finish(self, result: Dict[str, Any], state: str = DONE) -> None:
        self.result = result
        self.state = state
        self.finished = time.time()
        self._done.set()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of the job (the server's /result payload)."""
        waited = (self.started or self.finished or time.time()) - self.created
        snap = {
            "job": self.id,
            "label": self.request.label,
            "engine": self.request.engine,
            "key": self.request.idempotency_key,
            "state": self.state,
            "cached": self.cached,
            "deduped": self.deduped,
            "fingerprint": self.fp.as_dict() if self.fp is not None
            else None,
            "queue_seconds": round(max(0.0, waited), 6),
        }
        if self.result is not None:
            snap["result"] = self.result
        return snap


class SolveScheduler:
    """One job table, priority queue and worker-thread pool for solve and
    cube jobs, plus the solve jobs' answer cache and the cube jobs'
    registrations."""

    def __init__(self,
                 workers: int = 2,
                 cache: Optional[AnswerCache] = None,
                 max_queue: int = 64,
                 mem_limit_mb: Optional[int] = None,
                 grace_seconds: float = 1.0,
                 certify: str = CERTIFY_SAT,
                 max_wall_seconds: Optional[float] = None,
                 tracer=None,
                 journal=None,
                 store=None,
                 incremental: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if certify not in CERTIFY_LEVELS:
            raise ValueError("certify must be one of {}".format(
                CERTIFY_LEVELS))
        self.cache = cache if cache is not None else AnswerCache()
        self.workers = workers
        self.max_queue = max_queue
        self.mem_limit_mb = mem_limit_mb
        self.grace_seconds = grace_seconds
        self.certify = certify
        self.max_wall_seconds = max_wall_seconds
        self.tracer = tracer
        self.journal = journal           # durable.journal.Journal or None
        #: Knowledge store (repro.inc.store.KnowledgeStore) shared by
        #: sweep jobs (which fill it) and solve jobs (whose pre-pass
        #: replays it).  The scheduler is its only in-process user, so
        #: one coarse lock around pre-pass and absorption suffices.
        self.store = store
        self.incremental = incremental
        self._store_lock = threading.Lock()
        self._lock = threading.Lock()
        self._idempotency: Dict[str, Job] = {}
        self._work = threading.Condition(self._lock)
        self._queue: List[Any] = []          # heap of (-prio, seq, job)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._jobs: Dict[str, Job] = {}
        #: Finished solve jobs still in the table, oldest first.
        self._finished: "Deque[Job]" = deque()
        self._inflight: Dict[str, Job] = {}  # dedup key -> primary job
        self._followers: Dict[str, List[Job]] = {}
        self._registrations: "OrderedDict[str, Registration]" = \
            OrderedDict()
        self._spawned = 0                    # warm cube workers started
        self._running = 0
        self._closed = False
        #: Set when the scheduler stops without draining: in-flight cube
        #: workers are killed.
        self._halt = threading.Event()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name="serve-worker-{}".format(i))
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _reject(self, code: str, message: str) -> AdmissionError:
        """Count a door rejection and build the error for the caller."""
        self.rejected += 1
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_rejections_total",
                             "Requests rejected at admission, by code",
                             labelnames=("code",)).labels(code).inc()
        return AdmissionError(code, message)

    # ------------------------------------------------------------------
    # Journal hooks (no-ops without a journal)
    # ------------------------------------------------------------------

    def _journal_append(self, kind: str, **fields: Any) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append(kind, **fields)
        except OSError:
            pass  # a full disk degrades durability, never availability

    def _admitted_record(self, job: Job) -> Optional[Dict[str, Any]]:
        """The journal fields that let a crashed server re-admit this job."""
        if self.journal is None:
            return None
        request = job.request
        source = request.source
        if source is None:
            from ..circuit.bench_io import write_bench
            source = {"circuit": write_bench(request.circuit),
                      "format": "bench"}
        limits = None
        if request.limits is not None:
            limits = {k: v for k, v in (
                ("max_seconds", request.limits.max_seconds),
                ("max_conflicts", request.limits.max_conflicts),
                ("max_decisions", request.limits.max_decisions))
                if v is not None}
        return {"key": request.idempotency_key, "job": job.id,
                "digest": job.fp.digest,
                "limits_class": limits_class(request.limits),
                "engine": request.engine, "preset": request.preset,
                "priority": request.priority, "label": request.label,
                "incremental": request.incremental,
                "limits": limits, "source": source}

    def _journal_finish(self, job: Job, payload: Dict[str, Any],
                        model_bits: Optional[List[int]] = None,
                        deduped_into: Optional[str] = None) -> None:
        """Durably record a completion *before* it becomes visible."""
        if self.journal is None:
            return
        status = payload["status"]
        record: Dict[str, Any] = {
            "key": job.request.idempotency_key, "job": job.id,
            # The *request* engine: it is part of the cache key; the
            # engine that actually answered lives in the provenance.
            "status": status, "engine": job.request.engine,
            "digest": job.fp.digest,
            "limits_class": limits_class(job.request.limits),
            "cached": bool(payload.get("cached")), "deduped": job.deduped}
        if deduped_into is not None:
            record["deduped_into"] = deduped_into
        if status in (SAT, UNSAT):
            record["model_bits"] = model_bits
            record["answer"] = answer_digest(status, model_bits)
            record["provenance"] = {
                "engine": payload.get("engine"),
                "label": job.request.label,
                "time_seconds": payload.get("time_seconds")}
        self._journal_append(KIND_FINISHED, **record)

    def submit(self, request) -> Job:
        """Admit one request of either kind; raises :class:`AdmissionError`
        otherwise."""
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_submitted_total",
                             "Requests presented at the door").inc()
        identity = request.identity(self)
        key = request.idempotency_key
        job = existing = None
        with self._lock:
            if key:
                existing = self._idempotency.get(key)
            if existing is None and not self._closed:
                if not key:
                    # Every journaled job carries a key so crash replay
                    # and client retries converge on one identity.
                    key = request.idempotency_key = uuid.uuid4().hex
                job = Job("j{}".format(next(self._ids)), request, identity)
                self._jobs[job.id] = job
                self._idempotency[key] = job
                self.submitted += 1
        if existing is not None:
            if existing.identity != identity:
                raise self._reject(
                    REJECT_KEY_CONFLICT,
                    "idempotency key {!r} names another request (job "
                    "{})".format(key, existing.id))
            # Idempotent re-submission: the same request never runs
            # twice, whatever state its job is in.
            return existing
        if job is None:
            raise self._reject(REJECT_DRAINING,
                               "server is draining; not accepting new work")
        request.admit(self, job)
        return job

    def _enqueue(self, job: Job) -> None:
        """Queue an admitted job, or forget it and refuse it when the
        queue is full.  Called with the lock held."""
        depth = len(self._queue)
        if depth >= self.max_queue:
            self._drop(job)
            raise self._reject(
                REJECT_QUEUE_FULL,
                "queue is full ({} jobs); retry later".format(depth))
        heapq.heappush(self._queue,
                       (-job.request.priority, next(self._seq), job))
        registry = default_registry()
        if registry is not None:
            registry.gauge("repro_serve_queue_depth",
                           "Jobs queued, not yet running").set(
                               len(self._queue))
        self._work.notify()

    def _drop(self, job: Job) -> None:
        """Forget a job: refused after it entered the table, retired, or
        evicted with its registration.  Called with the lock held."""
        del self._jobs[job.id]
        if self._idempotency.get(job.request.idempotency_key) is job:
            del self._idempotency[job.request.idempotency_key]

    def _finish(self, job: Job, payload: Dict[str, Any],
                state: str = DONE) -> None:
        """Publish a solve job's result, and retire the oldest finished
        solve job past the answer cache's ``max_entries``."""
        # A finished job's snapshot reads neither its circuit nor source.
        job.request = replace(job.request, circuit=None, source=None)
        job.finish(payload, state)
        with self._lock:
            self._finished.append(job)
            while len(self._finished) > self.cache.max_entries:
                self._drop(self._finished.popleft())

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Registrations (cube jobs)
    # ------------------------------------------------------------------

    def register(self, circuit: Circuit, objectives: Optional[List[int]],
                 phase_lemmas, label: str) -> Registration:
        """File a conquest's circuit and objectives (``POST /circuit``);
        idempotent on :func:`~repro.cube.sharing.registration_key`.

        ``objectives`` default to the circuit's outputs.  Raises
        :class:`AdmissionError` when ``objectives`` or ``phase_lemmas``
        do not name the circuit's literals.
        """
        num_nodes = circuit.num_nodes
        for ok, message in (
                (objectives_ok(objectives, num_nodes), _BAD_OBJECTIVES),
                (lemmas_ok(phase_lemmas, num_nodes), _BAD_PHASE_LEMMAS)):
            if not ok:
                raise self._reject(REJECT_BAD_REQUEST, message)
        objs = list(objectives) if objectives is not None \
            else list(circuit.outputs)
        if not objs:
            raise self._reject(REJECT_BAD_CIRCUIT,
                               "circuit has no outputs and no objectives "
                               "were given")
        key = registration_key(circuit, objs)
        with self._lock:
            reg = self._registrations.get(key)
            if reg is None:
                reg = self._registrations[key] = Registration(
                    key, circuit, objs, phase_lemmas, label)
                self._evict(reg)
            else:
                self._registrations.move_to_end(key)
                reg.phase_lemmas = reg.phase_lemmas or phase_lemmas
        return reg

    def registration(self, key: str) -> Optional[Registration]:
        with self._lock:
            return self._registrations.get(key)

    def _evict(self, filed: Registration) -> None:
        """Drop the least recently used registrations past
        :data:`MAX_REGISTRATIONS` — with their cube jobs and idempotency
        keys — skipping ``filed``, the one just registered, and any with
        a queued or running cube; the worker threads close the warm
        workers bound to them.  Called with the lock held."""
        for key in list(self._registrations):
            if len(self._registrations) <= MAX_REGISTRATIONS:
                break
            reg = self._registrations[key]
            if reg is filed or any(not job.done for job in reg.jobs):
                continue
            del self._registrations[key]
            reg.evicted = True
            for job in reg.jobs:
                self._drop(job)
            reg.jobs = []
        self._work.notify_all()

    def _next_spawn(self) -> int:
        """Number the next warm cube worker."""
        with self._lock:
            self._spawned += 1
            return self._spawned - 1

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        seat = _Seat(self.tracer)
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._closed \
                            and not seat.stale:
                        self._work.wait(0.2)
                    job = heapq.heappop(self._queue)[2] if self._queue \
                        else None
                    closed = self._closed
                    if job is not None:
                        self._running += 1
                        registry = default_registry()
                        if registry is not None:
                            registry.gauge(
                                "repro_serve_queue_depth",
                                "Jobs queued, not yet running").set(
                                    len(self._queue))
                if seat.stale:
                    seat.close()   # its registration was evicted
                if job is None:
                    if closed:
                        return
                    continue
                try:
                    self._execute(job, seat)
                finally:
                    with self._lock:
                        self._running -= 1
                        self.completed += 1
                        self._work.notify_all()
        finally:
            seat.close()

    def _execute(self, job: Job, seat: _Seat) -> None:
        request = job.request
        job.state = RUNNING
        job.started = time.time()
        job.add_event("job_start", engine=request.engine)
        if self.tracer is not None:
            self.tracer.emit("job_start", job=job.id, engine=request.engine)
        tracer = _JobTracer(job, self.tracer)
        span = None
        if self.tracer is not None:
            # Root a job span so worker sub-spans correlate to it.
            span = child_context(request.trace_parent(self))
            tracer.context = span
            fields = span.as_fields()
            fields.update(name="job:{}".format(job.id),
                          engine=request.engine, label=request.label)
            tracer.emit("span_start", **fields)
        payload = request.run(self, job, tracer, seat)
        job.add_event("job_done", status=payload["status"])
        if self.tracer is not None:
            self.tracer.emit("job_done", job=job.id,
                             status=payload["status"])
        if span is not None:
            tracer.emit("span_end", span=span.span_id,
                        status=payload["status"])
        # Durability barrier: what the job's kind records (a solve's
        # journal entry, its followers' answers) lands before the settle
        # step publishes the result to any client.
        request.settle(self, job, payload)
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_serve_jobs_total",
                             "Jobs run to completion, by final status",
                             labelnames=("status",)).labels(
                                 payload["status"]).inc()
            if job.started is not None and job.finished is not None:
                registry.histogram(
                    "repro_serve_job_seconds",
                    "Per-job wall time from start to finish",
                    labelnames=("engine",)).labels(
                        request.engine).observe(job.finished - job.started)

    def _wall_seconds(self, limits: Optional[Limits]) -> Optional[float]:
        wall = limits.max_seconds if limits is not None else None
        if self.max_wall_seconds is not None:
            wall = (self.max_wall_seconds if wall is None
                    else min(wall, self.max_wall_seconds))
        return wall

    def _solve(self, job: Job, tracer) -> Dict[str, Any]:
        """Run one admitted job to a result payload (worker thread)."""
        request = job.request
        if request.engine == ENGINE_SWEEP:
            return self._run_sweep(job, tracer)
        prepass = self._prepass(job, tracer)
        circuit = prepass.circuit if prepass is not None \
            else request.circuit
        seeds = list(prepass.seed_lemmas) if prepass is not None else None
        payload = self._dispatch(job, tracer, circuit, seeds)
        if prepass is None or payload["status"] != SAT:
            # UNSAT on the pre-passed circuit implies UNSAT on the
            # original: every merge the pre-pass applied was re-proved
            # on this very circuit (see repro.inc.replay).
            return payload
        # A SAT model over the reduced circuit maps back input-for-input
        # (sweeps preserve input order); re-certify against the ORIGINAL
        # circuit before anyone can observe it.  Certification failure
        # means a bug in the incremental layer — degrade honestly by
        # re-solving without it.
        mapped = prepass.map_model(payload.get("_model"))
        from ..verify.certify import certify_sat_model
        certificate = certify_sat_model(request.circuit, mapped,
                                        list(request.circuit.outputs))
        if certificate.ok:
            payload["_model"] = mapped
            return payload
        job.add_event("inc_prepass_discarded", detail=certificate.detail)
        if self.tracer is not None:
            self.tracer.emit("inc_prepass_discarded", job=job.id,
                             detail=certificate.detail)
        return self._dispatch(job, tracer, request.circuit, None)

    def _dispatch(self, job: Job, tracer, circuit: Circuit,
                  seed_lemmas) -> Dict[str, Any]:
        """Run the requested engine on ``circuit`` (the original or the
        pre-passed reduction) and return the raw payload."""
        request = job.request
        wall = self._wall_seconds(request.limits)
        if request.engine == ENGINE_CUBE:
            from ..cube import solve_cubes
            report = solve_cubes(
                circuit, workers=SERVE_CUBE_WORKERS,
                budget=wall, mem_limit_mb=self.mem_limit_mb,
                grace_seconds=self.grace_seconds, certify=self.certify,
                trace=tracer)
            result = report.result
            payload = result.as_dict()
            payload["engine"] = payload.get("engine") or "cube"
            payload["cached"] = False
            payload["_model"] = result.model
            return payload
        worker_job = WorkerJob(
            circuit=circuit,
            name="{}:{}".format(request.engine, request.preset)
                 if request.engine == "csat" else request.engine,
            kind=request.engine, preset_name=request.preset,
            limits=request.limits, mem_limit_mb=self.mem_limit_mb,
            fault=request.fault,
            seed_lemmas=seed_lemmas if request.engine in (KIND_CSAT,
                                                          KIND_CNF)
            else None)
        outcome = run_supervised(worker_job, wall_seconds=wall,
                                 grace_seconds=self.grace_seconds,
                                 certify=self.certify, tracer=tracer)
        if outcome.ok:
            payload = outcome.result.as_dict()
            payload["cached"] = False
            payload["_model"] = outcome.result.model
            return payload
        # Structured failure: the taxonomy crosses the protocol verbatim.
        return {"status": UNKNOWN, "model_size": 0,
                "engine": outcome.engine, "cached": False,
                "time_seconds": outcome.seconds,
                "failures": [outcome.failure.as_dict()]}

    # ------------------------------------------------------------------
    # Incremental pre-pass and sweep jobs (repro.inc)
    # ------------------------------------------------------------------

    def _prepass(self, job: Job, tracer):
        """Replay the knowledge store into this query, when eligible.

        Returns a :class:`repro.inc.replay.PrepassOutcome` whose merges
        and lemma seeds were all re-proved on the requesting circuit, or
        None when the pre-pass is off, inapplicable, or found nothing.
        Never raises: an incremental-layer failure must degrade to a
        plain solve, not take the job down.
        """
        request = job.request
        if (self.store is None or not self.incremental
                or not request.incremental or request.fault is not None
                or request.engine not in (KIND_CSAT, KIND_CNF,
                                          ENGINE_CUBE)):
            return None
        try:
            from ..inc.replay import incremental_prepass
            with self._store_lock:
                outcome = incremental_prepass(request.circuit, self.store)
        except Exception as exc:  # noqa: BLE001 — advisory layer only
            job.add_event("inc_prepass_error",
                          detail="{}: {}".format(type(exc).__name__, exc))
            return None
        job.add_event("inc_prepass", **outcome.as_dict())
        if self.tracer is not None:
            self.tracer.emit("inc_prepass", job=job.id,
                             **outcome.as_dict())
        return outcome if outcome.useful else None

    def _run_sweep(self, job: Job, tracer) -> Dict[str, Any]:
        """Sweep-as-a-service: reduce the circuit on an isolated worker
        and absorb the proven facts into the knowledge store."""
        request = job.request
        wall = self._wall_seconds(request.limits)
        worker_job = WorkerJob(
            circuit=request.circuit, name=ENGINE_SWEEP, kind=KIND_SWEEP,
            limits=request.limits,
            mem_limit_mb=self.mem_limit_mb, fault=request.fault)
        outcome = run_supervised(worker_job, wall_seconds=wall,
                                 grace_seconds=self.grace_seconds,
                                 certify=self.certify, tracer=tracer)
        if not outcome.ok:
            return {"status": UNKNOWN, "model_size": 0,
                    "engine": outcome.engine, "cached": False,
                    "time_seconds": outcome.seconds,
                    "failures": [outcome.failure.as_dict()]}
        payload = dict(outcome.payload or {})
        for noise in ("model", "proof", "objectives", "core"):
            payload.pop(noise, None)
        payload["cached"] = False
        if self.store is not None:
            try:
                from ..circuit.source import read_circuit_text
                from ..core.sweep import SweepResult
                from ..inc.replay import absorb_sweep
                reduced = read_circuit_text(
                    str(payload.get("sweep_bench") or ""),
                    name=request.label + ".swept", fmt="bench")
                result = SweepResult(
                    circuit=reduced,
                    substitutions=dict(
                        payload.get("sweep_substitutions") or {}),
                    lemmas=[list(c) for c in payload.get("lemmas") or []])
                with self._store_lock:
                    payload["absorbed"] = absorb_sweep(
                        self.store, request.circuit, result)
            except Exception as exc:  # noqa: BLE001 — keep the reduction
                payload["absorbed"] = {
                    "error": "{}: {}".format(type(exc).__name__, exc)}
        # The reduced circuit is the product; lemmas already live in the
        # store and would bloat every /result poll.
        payload.pop("lemmas", None)
        payload.pop("sweep_substitutions", None)
        return payload

    # ------------------------------------------------------------------
    # Dedup resolution
    # ------------------------------------------------------------------

    def _resolve_followers(self, primary: Job, payload: Dict[str, Any],
                           model: Optional[Dict[int, bool]] = None) -> None:
        key = getattr(primary, "_dedup_key", None)
        if key is None:
            return
        with self._lock:
            followers = self._followers.pop(key, [])
            if self._inflight.get(key) is primary:
                del self._inflight[key]
        if not followers:
            return
        bits = (model_to_bits(primary.fp, model)
                if payload["status"] == SAT and model is not None else None)
        for follower in followers:
            shared = dict(payload)
            shared["deduped_into"] = primary.id
            if bits is not None:
                # Same digest, possibly different node numbering: replay
                # the model through the follower's own fingerprint.
                follower_model = bits_to_model(follower.fp, bits)
                from ..verify.certify import certify_sat_model
                certificate = certify_sat_model(
                    follower.request.circuit, follower_model,
                    list(follower.request.circuit.outputs))
                if not certificate.ok:
                    # Should be unreachable (same fingerprint); degrade
                    # honestly rather than serve an uncertified answer.
                    shared = {"status": UNKNOWN, "model_size": 0,
                              "engine": shared.get("engine"),
                              "cached": False,
                              "failures": [{
                                  "kind": "CORRUPT_ANSWER",
                                  "detail": "deduped model failed "
                                            "re-certification: "
                                            + certificate.detail,
                                  "engine": shared.get("engine") or "",
                                  "seconds": 0.0}]}
                else:
                    shared["model_size"] = len(follower_model)
                    shared["model_inputs"] = input_assignment(
                        follower.request.circuit, follower_model)
            follower.add_event("job_done", status=shared["status"],
                               deduped_into=primary.id)
            follower_bits = bits if shared["status"] == SAT else None
            self._journal_finish(follower, shared, follower_bits,
                                 deduped_into=primary.id)
            self._finish(follower, shared)
            with self._lock:
                self.completed += 1

    def _result_payload(self, job: Job, hit: Dict[str, Any],
                        cached: bool) -> Dict[str, Any]:
        model = hit.get("model")
        provenance = hit.get("provenance") or {}
        payload = {"status": hit["status"],
                   "model_size": len(model) if model else 0,
                   "engine": hit.get("engine"),
                   "cached": cached,
                   "cache_hits": hit.get("cache_hits"),
                   "time_seconds": 0.0,
                   "solved_time_seconds": provenance.get("time_seconds"),
                   "stats": provenance.get("stats"),
                   "failures": []}
        if hit["status"] == SAT:
            payload["model_inputs"] = input_assignment(
                job.request.circuit, model)
        return payload

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"submitted": self.submitted,
                    "completed": self.completed,
                    "jobs": len(self._jobs),
                    "rejected": self.rejected,
                    "queued": len(self._queue),
                    "running": self._running,
                    "waiting": sum(len(followers) for followers in
                                   self._followers.values()),
                    "workers": self.workers,
                    "closed": self._closed,
                    "registrations": len(self._registrations),
                    "cube_jobs": sum(len(reg.jobs) for reg in
                                     self._registrations.values()),
                    "workers_spawned": self._spawned,
                    "cache": self.cache.stats()}

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Stop the scheduler.

        ``drain=True`` (graceful): refuse new work, let queued + running
        jobs finish.  ``drain=False``: additionally cancel everything
        still queued (their jobs finish CANCELLED with a structured
        payload) and kill in-flight cube workers.  Returns True once all
        worker threads exited; a drain that outlives ``timeout`` kills
        the cube workers still running.
        """
        with self._lock:
            self._closed = True
            if not drain:
                cancelled = [job for _, _, job in self._queue]
                self._queue.clear()
                self._halt.set()
            else:
                cancelled = []
            self._work.notify_all()
        for job in cancelled:
            job.request.cancel(self, job)
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        ok = True
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            ok = ok and not thread.is_alive()
        self._halt.set()
        return ok
