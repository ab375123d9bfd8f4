"""Supervisor: run one solve in an isolated subprocess under hard limits.

The cooperative :class:`~repro.result.Limits` budgets are checked inside
the search loop, so a pathological BCP chain, a deep simulation round, or
an OOM blows straight past them.  The supervisor adds *hard* enforcement:

* **wall-clock watchdog** — the worker is SIGTERMed at its deadline and
  SIGKILLed ``grace_seconds`` later if it ignores the polite kill;
* **memory cap** — ``resource.setrlimit(RLIMIT_AS)`` inside the worker,
  so an allocation past the cap fails in the *worker*, not the parent;
* **crash containment** — a segfault, OOM kill, hang, or uncaught
  exception surfaces as a structured :class:`~repro.errors.WorkerFailure`
  (TIMEOUT / MEMOUT / CRASHED / CORRUPT_ANSWER / LOST), never as a
  traceback in the supervising process;
* **boundary certification** — answers crossing the process boundary are
  re-certified via :mod:`repro.verify.certify`, so a corrupted result
  downgrades to a CORRUPT_ANSWER failure instead of a wrong answer.

Worker lifecycle events (``worker_spawn`` / ``worker_result`` /
``worker_fail`` / ``worker_kill``) are emitted through any
:class:`repro.obs.Tracer` handed in — from the parent process only.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import (CORRUPT_ANSWER, CRASHED, LOST, MEMOUT, TIMEOUT,
                      WorkerFailure)
from ..obs.context import SpanContext, context_of
from ..obs.metrics import (MEMORY_BUCKETS, default_registry, observe_solve)
from ..obs.summary import read_trace
from ..result import Limits, SAT, SolverResult, UNKNOWN, UNSAT
from .worker import (KIND_CNF, KIND_SWEEP, WorkerJob, payload_to_result,
                     run_worker)

#: Held from a spawn's first pipe to the close of its child-side ends.
#: Slot threads spawn concurrently, and a fork in between would leak one
#: worker's pipe ends into its sibling: that worker's exit then goes
#: unseen by ``join`` until the sibling exits too.
_SPAWN_LOCK = threading.Lock()

#: Certification levels for answers crossing the worker boundary.
CERTIFY_OFF = "off"      # trust the worker
CERTIFY_SAT = "sat"      # replay SAT models (cheap); accept UNSAT as-is
CERTIFY_FULL = "full"    # also replay UNSAT DRUP proofs (workers collect one)
CERTIFY_LEVELS = (CERTIFY_OFF, CERTIFY_SAT, CERTIFY_FULL)


def _context():
    """Fork when available (fast, no job pickling); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass
class WorkerOutcome:
    """What one isolated worker run produced: a result XOR a failure."""

    engine: str
    result: Optional[SolverResult] = None
    failure: Optional[WorkerFailure] = None
    seconds: float = 0.0
    #: Shareable lemmas exported by the worker (cube jobs with
    #: ``export_lemmas``); None otherwise.
    lemmas: Optional[list] = None
    #: Worker's self-reported peak RSS in MB (None when unavailable).
    maxrss_mb: Optional[float] = None
    #: The worker's raw result payload (primitives only).  Job kinds
    #: whose product is more than a SolverResult — a sweep's reduced
    #: circuit and fact export — read their extra keys from here.
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.result is not None

    @property
    def decisive(self) -> bool:
        """A certified SAT/UNSAT answer (what a portfolio race is for)."""
        return self.ok and self.result.status in (SAT, UNSAT)

    def as_dict(self) -> dict:
        """JSON-ready summary (used by serving payloads and reports)."""
        return {
            "engine": self.engine,
            "seconds": round(self.seconds, 6),
            "result": self.result.as_dict() if self.result else None,
            "failure": self.failure.as_dict() if self.failure else None,
        }


class WorkerHandle:
    """Parent-side handle on one running worker.

    A one-shot worker runs its job and is reaped once.  A *warm* worker
    (``spawn_worker(..., warm=True)``) takes tasks through :meth:`run`,
    each under its own watchdog, until :meth:`close` or a failed task
    reaps it; :attr:`alive` tells whether it can take another.
    """

    def __init__(self, proc, conn, job: WorkerJob, index: int,
                 deadline: Optional[float], grace_seconds: float,
                 span: Optional[SpanContext] = None,
                 spawn_t: float = 0.0, warm: bool = False):
        self.proc = proc
        self.conn = conn
        self.job = job
        self.index = index
        self.born = self.started = time.perf_counter()
        self.deadline = deadline          # absolute perf_counter time
        self.grace_seconds = grace_seconds
        self.killed = False               # we sent SIGTERM/SIGKILL
        self.span = span                  # worker span (trace correlation)
        self.spawn_t = spawn_t            # parent-tracer time at spawn
        self.warm = warm
        self.alive = True                 # not reaped yet
        self.busy = 0.0                   # warm: child seconds of answers
        self._closing = False
        self._pending = None              # a message received, not used

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now or time.perf_counter()) >= self.deadline

    def kill(self, tracer=None, reason: str = "deadline") -> None:
        """SIGTERM, wait out the grace period, then SIGKILL."""
        self.killed = True
        if tracer is not None:
            tracer.emit("worker_kill", engine=self.job.name,
                        index=self.index, reason=reason,
                        elapsed=round(self.elapsed, 6))
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(self.grace_seconds)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(5.0)

    def run(self, task: dict, wall_seconds: Optional[float],
            certify: str = CERTIFY_SAT, tracer=None,
            cancelled: Callable[[], Optional[str]] = lambda: None
            ) -> WorkerOutcome:
        """Warm workers: solve one task (see :func:`run_worker`) and wait
        for its answer under a watchdog of ``wall_seconds``; a
        ``cancelled()`` reason kills the worker early.

        An answer that passes boundary certification leaves the worker
        waiting for its next task.  Anything else — a failure, a death,
        a timeout, a cancellation, a corrupt answer — reaps it.
        """
        self.started = time.perf_counter()
        self.deadline = (self.started + wall_seconds
                         if wall_seconds is not None else None)
        try:
            self.conn.send(("task", task))
        except (OSError, ValueError):
            pass  # already dead: the reap below classifies it
        while not self.expired() and self.proc.is_alive():
            reason = cancelled()
            if reason is not None:
                self.kill(tracer=tracer, reason=reason)
                break
            try:
                if self.conn.poll(0.2):
                    break
            except (OSError, ValueError):
                break
        if not self.killed:
            message = self._receive()
            if message is not None and message[0] == "result":
                outcome = self._answer(message[1], certify)
                if outcome.ok:
                    self.deadline = None   # idle: no watchdog
                    self.busy += outcome.result.time_seconds or 0.0
                    self._report(outcome, tracer)
                    return outcome
            self._pending = message
        return self.reap(certify=certify, tracer=tracer)

    def close(self, tracer=None) -> WorkerOutcome:
        """Warm workers: ask the idle worker to exit, then reap it.  The
        outcome's result spans the worker's whole life: ``time_seconds``
        is the child's time on the tasks it answered."""
        self._closing = True
        self.deadline = None
        return self.reap(tracer=tracer)

    def reap(self, certify: str = CERTIFY_SAT, tracer=None) -> WorkerOutcome:
        """Collect this worker's outcome; call once the worker finished,
        failed, or expired.  Always leaves the process dead and the pipe
        closed."""
        name = self.job.name
        if self._closing:
            return self._finish(WorkerOutcome(
                name, result=SolverResult(status=UNKNOWN,
                                          time_seconds=self.busy),
                seconds=time.perf_counter() - self.born), tracer,
                delivered=True)
        message = None
        if not self.killed:
            message = self._receive()
        if message is None and self.expired():
            self.kill(tracer=tracer, reason="deadline")
            # Accept a result that raced the watchdog by a hair.
            message = self._receive()
            if message is None:
                return self._finish(WorkerOutcome(
                    name, failure=WorkerFailure(
                        TIMEOUT, "killed after {:.2f}s (budget {:.2f}s, "
                        "grace {:.2f}s)".format(self.elapsed,
                                                self.deadline - self.started,
                                                self.grace_seconds),
                        engine=name, seconds=self.elapsed)), tracer)

        if message is None:
            # No message and not expired: the process must have died.
            self.proc.join(0.5)
            message = self._receive()
        if message is None:
            return self._finish(self._classify_exit(), tracer)

        kind, payload = message
        if kind == "failure":
            return self._finish(WorkerOutcome(
                name, failure=WorkerFailure(
                    payload.get("kind", CRASHED),
                    payload.get("detail", ""),
                    engine=name, seconds=self.elapsed)), tracer,
                delivered=True)
        return self._finish(self._answer(payload, certify), tracer,
                            delivered=True)

    def _receive(self):
        """The worker's next message, or None when none is waiting."""
        message, self._pending = self._pending, None
        if message is not None:
            return message
        try:
            if self.conn.poll(0):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def _answer(self, payload: dict, certify: str) -> WorkerOutcome:
        """A result message as an outcome, certified at the boundary."""
        name = self.job.name
        result = payload_to_result(payload)
        detail = _certify_payload(self.job, result, payload, certify)
        if detail is not None:
            return WorkerOutcome(name, failure=WorkerFailure(
                CORRUPT_ANSWER, detail, engine=name, seconds=self.elapsed))
        return WorkerOutcome(name, result=result, seconds=self.elapsed,
                             lemmas=payload.get("lemmas"),
                             maxrss_mb=payload.get("maxrss_mb"),
                             payload=payload)

    def _classify_exit(self) -> WorkerOutcome:
        """Worker died without a message: classify from the exit status."""
        name = self.job.name
        code = self.proc.exitcode
        seconds = self.elapsed
        if code is not None and code < 0:
            signum = -code
            if self.killed:
                failure = WorkerFailure(
                    TIMEOUT, "killed by watchdog (signal {})".format(signum),
                    engine=name, seconds=seconds)
            elif signum == signal.SIGKILL:
                # SIGKILL we did not send: the kernel OOM killer.
                failure = WorkerFailure(MEMOUT, "killed by SIGKILL "
                                        "(kernel OOM killer)",
                                        engine=name, seconds=seconds)
            else:
                try:
                    signame = signal.Signals(signum).name
                except ValueError:
                    signame = str(signum)
                failure = WorkerFailure(CRASHED,
                                        "died on signal {}".format(signame),
                                        engine=name, seconds=seconds)
        elif code:
            failure = WorkerFailure(CRASHED, "exit code {}".format(code),
                                    engine=name, seconds=seconds)
        else:
            failure = WorkerFailure(LOST, "worker exited cleanly without "
                                    "delivering a result",
                                    engine=name, seconds=seconds)
        return WorkerOutcome(name, failure=failure, seconds=seconds)

    def _finish(self, outcome: WorkerOutcome, tracer=None,
                delivered: bool = False) -> WorkerOutcome:
        """End the process and the pipe, then account for ``outcome``.

        A worker that has ``delivered`` its message (or, warm, was told
        to close) exits on its own: it gets the grace period before any
        signal, which keeps a lemma-exporting worker from flushing a
        salvage file nobody reads.  SIGTERM, grace, SIGKILL remain for
        the rest."""
        outcome.seconds = outcome.seconds or self.elapsed
        self.alive = False
        if self.proc.is_alive():
            if delivered:
                if self.warm:
                    try:
                        self.conn.send(("close", None))
                    except (OSError, ValueError):
                        pass
                self.proc.join(self.grace_seconds)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(1.0)
                if self.proc.is_alive():
                    self.proc.kill()
                    self.proc.join(5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        if not self._closing:
            self._report(outcome, tracer)
        self._merge_child_trace(tracer)
        self._read_salvage(outcome, tracer)
        if tracer is not None and self.span is not None:
            status = ("CLOSED" if self._closing else outcome.result.status
                      if outcome.ok else outcome.failure.kind)
            tracer.emit("span_end", span=self.span.span_id, status=status,
                        maxrss_mb=outcome.maxrss_mb)
        return outcome

    def _report(self, outcome: WorkerOutcome, tracer=None) -> None:
        """The ``worker_result``/``worker_fail`` event and the metrics of
        one answer or failure."""
        if tracer is not None:
            if outcome.ok:
                tracer.emit("worker_result", engine=self.job.name,
                            index=self.index, status=outcome.result.status,
                            seconds=round(outcome.seconds, 6))
            else:
                tracer.emit("worker_fail", engine=self.job.name,
                            index=self.index, failure=outcome.failure.kind,
                            detail=outcome.failure.detail,
                            seconds=round(outcome.seconds, 6))
        self._record_metrics(outcome)

    def _read_salvage(self, outcome: WorkerOutcome, tracer=None) -> None:
        """Recover the lemma pool a dying worker flushed (if any).

        Only TIMEOUT/MEMOUT deaths carry a meaningful flush — the worker
        was healthy, just out of budget — and a successful payload already
        ships its lemmas inline.  The file is deleted unconditionally."""
        path = self.job.salvage_path
        if path is None:
            return
        self.job.salvage_path = None      # read exactly once
        try:
            if (outcome.failure is not None
                    and outcome.failure.kind in (TIMEOUT, MEMOUT)
                    and not outcome.lemmas):
                with open(path) as fh:
                    data = json.load(fh)
                lemmas = [[int(l) for l in clause]
                          for clause in (data.get("lemmas") or [])
                          ] if isinstance(data, dict) and data.get("v") == 1 \
                    else []
                if lemmas:
                    outcome.lemmas = lemmas
                    registry = default_registry()
                    if registry is not None:
                        registry.counter(
                            "repro_lemmas_salvaged_total",
                            "Lemmas recovered from workers killed by "
                            "the watchdog or a memory cap",
                        ).inc(len(lemmas))
                    if tracer is not None:
                        tracer.emit("lemmas_salvaged", engine=self.job.name,
                                    index=self.index, count=len(lemmas),
                                    after=outcome.failure.kind)
        except (OSError, ValueError, TypeError):
            pass  # torn/absent flush: salvage is best effort
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _merge_child_trace(self, tracer) -> None:
        """Fold the worker's own trace file (if any) into the parent
        trace, re-stamped onto the parent tracer's clock, then delete
        it.  A killed worker leaves a torn final line; ``read_trace``
        skips it."""
        path = self.job.trace_path
        if path is None:
            return
        self.job.trace_path = None        # merge exactly once
        if tracer is not None:
            try:
                for record in read_trace(path, skipped=[]):
                    record = dict(record)
                    kind = record.pop("kind", "event")
                    t = record.pop("t", 0.0)
                    if not isinstance(t, (int, float)):
                        t = 0.0
                    tracer.emit(kind, t=t + self.spawn_t, **record)
            except (OSError, ValueError):
                pass  # empty/garbled worker trace: correlation degrades
        try:
            os.unlink(path)
        except OSError:
            pass

    def _record_metrics(self, outcome: WorkerOutcome) -> None:
        registry = default_registry()
        if registry is None:
            return
        registry.histogram(
            "repro_worker_seconds",
            "Wall seconds per isolated worker").observe(outcome.seconds)
        if outcome.maxrss_mb is not None:
            registry.histogram(
                "repro_worker_maxrss_mb",
                "Worker peak RSS (self-reported, MB)",
                buckets=MEMORY_BUCKETS).observe(outcome.maxrss_mb)
        if outcome.ok:
            registry.counter(
                "repro_worker_results_total", "Worker answers by status",
                ("status",)).labels(outcome.result.status).inc()
            # Fold the subprocess engine's effort into the engine
            # families — the worker's own registry dies with it.
            observe_solve(registry, self.job.kind, outcome.result.status,
                          outcome.result.time_seconds or outcome.seconds,
                          outcome.result.stats)
        else:
            registry.counter(
                "repro_worker_failures_total",
                "Worker failures by taxonomy kind",
                ("kind",)).labels(outcome.failure.kind).inc()


def _certify_payload(job: WorkerJob, result: SolverResult, payload: dict,
                     certify: str) -> Optional[str]:
    """Re-certify an answer at the boundary; returns a defect detail or
    None when the answer stands."""
    if certify == CERTIFY_OFF:
        return None
    objectives = payload.get("objectives") or list(job.circuit.outputs)
    if result.status == SAT:
        from ..verify.certify import certify_sat_model
        certificate = certify_sat_model(job.circuit, result.model, objectives)
        return None if certificate.ok else certificate.detail
    if result.status == UNSAT and certify == CERTIFY_FULL:
        from ..proof import ProofLog
        from ..verify.certify import certify_unsat_proof
        steps = payload.get("proof")
        if steps is None:
            return "UNSAT answer carries no proof for full certification"
        certificate = certify_unsat_proof(
            job.circuit, ProofLog(steps=list(steps)), objectives)
        return None if certificate.ok else certificate.detail
    return None


def spawn_worker(job: WorkerJob,
                 wall_seconds: Optional[float] = None,
                 grace_seconds: float = 1.0,
                 index: int = 0,
                 tracer=None,
                 warm: bool = False) -> WorkerHandle:
    """Start one isolated worker; returns immediately with its handle.

    ``wall_seconds`` is the *hard* budget: the watchdog TERMs at the
    deadline and KILLs ``grace_seconds`` later.  The job's cooperative
    ``limits`` default to the same number so a healthy worker returns
    UNKNOWN on its own just before the watchdog would fire.  A ``warm``
    worker builds the job's engine and waits for tasks
    (:meth:`WorkerHandle.run`), each with its own budget.
    """
    if job.limits is not None:
        job.limits.validate()
    if wall_seconds is not None and job.limits is None:
        job.limits = Limits(max_seconds=wall_seconds)
    span = None
    spawn_t = 0.0
    parent_ctx = context_of(tracer)
    if tracer is not None and parent_ctx is not None:
        # The caller bound a span context: mint a child span for this
        # worker and hand it a private trace file to merge back at reap.
        span = parent_ctx.child()
        fd, trace_path = tempfile.mkstemp(prefix="repro-worker-trace-",
                                          suffix=".jsonl")
        os.close(fd)
        job.trace_path = trace_path
        job.trace_id = span.trace_id
        job.span_id = span.span_id
        job.parent_span = span.parent_id
        spawn_t = tracer.now()
    if job.export_lemmas and job.salvage_path is None:
        # Lemma-exporting jobs get a salvage file: a worker killed by the
        # watchdog (or dying of MemoryError) flushes its pool there so the
        # retry and sibling cubes still inherit what it learned.
        fd, salvage_path = tempfile.mkstemp(prefix="repro-worker-salvage-",
                                            suffix=".json")
        os.close(fd)
        job.salvage_path = salvage_path
    if job.kind in (KIND_CNF, KIND_SWEEP) or job.preset_name == "kernel":
        # Import the flat kernel here, once per process: forked workers
        # inherit it instead of each importing (and, without a bytecode
        # cache, compiling) it again, which costs about a cube's search.
        from .. import kernel  # noqa: F401
    ctx = _context()
    with _SPAWN_LOCK:
        parent_conn, child_conn = ctx.Pipe(duplex=warm)
        proc = ctx.Process(target=run_worker, args=(child_conn, job, warm),
                           name="repro-worker-{}-{}".format(index, job.name),
                           daemon=True)
        proc.start()
        child_conn.close()
    deadline = (time.perf_counter() + wall_seconds
                if wall_seconds is not None else None)
    if tracer is not None:
        tracer.emit("worker_spawn", engine=job.name, index=index,
                    pid=proc.pid, wall_seconds=wall_seconds,
                    mem_limit_mb=job.mem_limit_mb, fault=job.fault)
        if span is not None:
            fields = span.as_fields()
            fields.update(name="worker:{}".format(job.name), index=index,
                          pid=proc.pid)
            tracer.emit("span_start", **fields)
    registry = default_registry()
    if registry is not None:
        registry.counter("repro_worker_spawns_total",
                         "Isolated workers spawned").inc()
    return WorkerHandle(proc, parent_conn, job, index, deadline,
                        grace_seconds, span=span, spawn_t=spawn_t, warm=warm)


def run_supervised(job: WorkerJob,
                   wall_seconds: Optional[float] = None,
                   grace_seconds: float = 1.0,
                   certify: str = CERTIFY_SAT,
                   tracer=None) -> WorkerOutcome:
    """Run one job to completion under supervision (blocking).

    Never raises for worker misbehaviour — inspect ``outcome.failure``.
    """
    if certify not in CERTIFY_LEVELS:
        raise ValueError("certify must be one of {}".format(CERTIFY_LEVELS))
    if certify == CERTIFY_FULL:
        job.collect_proof = True
    root = None
    if tracer is not None and context_of(tracer) is None:
        # No caller-bound span: root the correlation tree here so the
        # worker's merged events still share one trace id.
        root = SpanContext.new_root()
        tracer.context = root
        fields = root.as_fields()
        fields.update(name="supervise", engine=job.name)
        tracer.emit("span_start", **fields)
    handle = spawn_worker(job, wall_seconds=wall_seconds,
                          grace_seconds=grace_seconds, tracer=tracer)
    while True:
        now = time.perf_counter()
        if handle.expired(now):
            break
        timeout = (min(0.25, handle.deadline - now)
                   if handle.deadline is not None else 0.25)
        if handle.conn.poll(max(0.0, timeout)):
            break
        if not handle.proc.is_alive():
            break
    outcome = handle.reap(certify=certify, tracer=tracer)
    if root is not None:
        status = (outcome.result.status if outcome.result is not None
                  else (outcome.failure.kind if outcome.failure else "UNKNOWN"))
        tracer.emit("span_end", span=root.span_id, status=status)
    return outcome
