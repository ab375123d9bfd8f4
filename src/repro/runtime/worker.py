"""Worker-side code: what runs inside one isolated solve subprocess.

The supervisor (:mod:`repro.runtime.supervisor`) spawns a process whose
target is :func:`run_worker`.  The child applies its memory cap, injects
any scheduled fault, runs the solve described by its :class:`WorkerJob`,
and sends exactly one message back over the pipe:

``("result", payload)``
    ``payload`` is a plain dict (status, model, stats, timings, optional
    DRUP proof steps) — primitives only, so it pickles cheaply and the
    parent can rebuild a :class:`~repro.result.SolverResult` without
    trusting any worker-side object.
``("failure", {"kind": ..., "detail": ...})``
    A failure the child could classify itself (MemoryError -> MEMOUT,
    uncaught exception -> CRASHED).  Deaths the child cannot report
    (segfault, SIGKILL, hang) are classified by the parent from the exit
    status instead.

A *warm* worker (``run_worker(conn, job, warm=True)``, the cube
conquests' per-slot worker) builds the job's engine once and then
answers one task per message it receives — ``("task", {"assumptions",
"lemmas", "limits", "fault"})`` — with the same two message kinds, until
``("close", None)`` or its first failure ends it.  The engine, and the
clauses it learns, persist from one task to the next; faults, the
memory cap's MEMOUT and lemma salvage stay per task.

Everything here must stay importable at module top level so the
``spawn`` start method can find :func:`run_worker` by qualified name.
"""

from __future__ import annotations

import faulthandler
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit
from ..errors import CRASHED, MEMOUT
from ..obs.trace import Tracer
from ..result import Limits, SAT, SolverResult, UNKNOWN, UNSAT
from .faults import POST_FAULTS, PRE_FAULTS

#: Engine kinds a worker can run.
KIND_CSAT = "csat"
KIND_CNF = "cnf"
KIND_BRUTE = "brute"
KIND_BDD = "bdd"
WORKER_KINDS = (KIND_CSAT, KIND_CNF, KIND_BRUTE, KIND_BDD)

#: Not a solver: a SAT-sweep job reduces the circuit and exports the
#: proven facts.  It runs under the same isolation (a sweep is CDCL
#: underneath and can be bombed/hung like any solve) but its payload
#: carries a reduced circuit instead of an answer — status is always
#: UNKNOWN, so nothing downstream can mistake it for one.
KIND_SWEEP = "sweep"


@dataclass
class WorkerJob:
    """Everything one worker needs, picklable under fork and spawn alike.

    ``kind`` picks the engine: ``csat`` runs a
    :class:`~repro.core.solver.CircuitSolver` configured by
    ``preset_name`` (``"kernel"`` selects the flat kernel), ``cnf`` runs
    the flat kernel's :class:`~repro.kernel.cnf.FlatCnfSolver` on the
    Tseitin encoding, ``brute`` and ``bdd`` are the exhaustive engines
    for tiny cones.  ``overrides`` adjust the preset's
    :class:`~repro.csat.options.SolverOptions` (plain values only:
    they cross the process boundary).
    """

    circuit: Circuit
    name: str = "explicit"            # display name for events/provenance
    kind: str = KIND_CSAT
    preset_name: str = "explicit"
    overrides: Dict[str, Any] = field(default_factory=dict)
    objectives: Optional[List[int]] = None
    limits: Optional[Limits] = None   # cooperative (soft) budget
    mem_limit_mb: Optional[int] = None
    collect_proof: bool = False
    bdd_node_limit: int = 200_000
    fault: Optional[str] = None       # injected fault kind, if scheduled
    # --- cube-and-conquer extensions (repro.cube) ---------------------
    #: Extra assumption literals (circuit encoding ``2*node + sign``)
    #: required true alongside the objectives — how a cube reaches its
    #: worker.  Supported for csat and cnf kinds only.
    assumptions: Optional[List[int]] = None
    #: Shared lemmas (clauses of circuit literals, proven by finished
    #: cubes) injected into the engine at decision level 0.
    seed_lemmas: Optional[List[List[int]]] = None
    #: Ship root-level units + binary learned clauses back in the payload
    #: (``"lemmas"`` key) for injection into not-yet-started cubes.  Only
    #: cube jobs (:func:`repro.cube.conquer.cube_job`, a flat-kernel
    #: csat job) set it.
    export_lemmas: bool = False
    #: File this worker flushes its lemma pool to when it is about to die
    #: (SIGTERM from the watchdog, MemoryError) — the payload channel is
    #: gone by then.  The supervisor mints the path, reads it back on a
    #: TIMEOUT/MEMOUT reap, and always deletes it.
    salvage_path: Optional[str] = None
    # --- cross-process trace correlation (repro.obs.context) ----------
    #: Path this worker writes its own JSONL trace to; the supervisor
    #: merges the file back into the parent trace at reap and deletes
    #: it.  None (the default) disables worker-side tracing entirely.
    trace_path: Optional[str] = None
    #: Span identity the parent minted for this worker: every event the
    #: worker writes is stamped with ``span_id`` so the merged trace
    #: attaches them to the right node of the span tree.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span: Optional[str] = None


#: Event kinds a worker-side tracer forwards to its trace file.  The
#: high-rate search events (decision/conflict/learn/implication_batch)
#: are dropped: a worker trace exists for correlation, not for replaying
#: the search, and the full firehose would dominate the solve itself.
_COARSE_KINDS = frozenset((
    "solve_start", "solve_end", "restart", "reduce_db", "progress",
    "phase", "subproblem", "correlation_hit"))


class _CoarseTracer(Tracer):
    """Tracer façade that keeps only boundary/low-rate event kinds."""

    enabled = True

    def __init__(self, inner):
        self._inner = inner
        self.context = inner.context

    def emit(self, kind: str, **fields: Any) -> None:
        if kind in _COARSE_KINDS:
            self._inner.emit(kind, **fields)

    def now(self) -> float:
        return self._inner.now()

    def close(self) -> None:
        self._inner.close()


def _maxrss_mb() -> Optional[float]:
    """This process's peak RSS in MB (best effort; None off-POSIX)."""
    try:
        import resource
        import sys
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KB on Linux, bytes on macOS.
        divisor = (1 << 20) if sys.platform == "darwin" else 1024.0
        return round(rss / divisor, 3)
    except (ImportError, OSError, ValueError):
        return None


def _apply_mem_limit(mem_limit_mb: Optional[int]) -> None:
    """Cap the worker's address space via ``resource.setrlimit``.

    An allocation past the cap raises MemoryError, which the worker
    reports as MEMOUT; catastrophic overshoot is caught by the kernel
    (SIGKILL, classified MEMOUT by the parent).  Best-effort on platforms
    without RLIMIT_AS.
    """
    if mem_limit_mb is None:
        return
    try:
        import resource
        limit = int(mem_limit_mb) << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):
        pass


def _apply_pre_fault(kind: Optional[str],
                     mem_limit_mb: Optional[int]) -> None:
    """Injected misbehaviour *before* the solve (see repro.runtime.faults)."""
    if kind is None or kind not in PRE_FAULTS:
        return
    if kind == "crash":
        raise RuntimeError("injected fault: crash")
    if kind == "segv":
        # The crash is the point: a faulthandler inherited from the
        # parent would dump the parent's whole stack on the shared stderr.
        faulthandler.disable()
        os.kill(os.getpid(), signal.SIGSEGV)
    if kind == "hang":
        while True:
            time.sleep(0.05)
    if kind == "hang-hard":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        while True:
            time.sleep(0.05)
    if kind == "membomb":
        if mem_limit_mb is None:
            # No cap to run into: simulate, never eat the host's RAM.
            raise MemoryError("injected fault: membomb (simulated)")
        hog = []
        while True:
            hog.append(bytearray(1 << 24))


def _apply_post_fault(kind: Optional[str], job: WorkerJob,
                      payload: Optional[dict]) -> Optional[dict]:
    """Injected answer tampering *after* the solve; None drops the answer."""
    if kind is None or kind not in POST_FAULTS or payload is None:
        return payload
    if kind == "lost":
        return None
    if kind == "wrong-answer":
        payload["status"] = UNSAT if payload["status"] == SAT else SAT
        payload["model"] = None
        payload["proof"] = None
    elif kind == "corrupt":
        model = payload.get("model")
        if payload["status"] == SAT and model:
            # Flip every non-input value: simulation from the (unchanged)
            # inputs can no longer match the assigned gate values.
            inputs = set(job.circuit.inputs)
            corrupted = {node: (value if node in inputs else not value)
                         for node, value in model.items()}
            if corrupted == model:  # no gates assigned: break it harder
                corrupted = {node: not value for node, value in model.items()}
            payload["model"] = corrupted
        else:
            payload["status"] = SAT
            payload["model"] = None
    return payload


class _Salvage:
    """Best-effort lemma flush for a worker that is about to die.

    The watchdog's SIGTERM (and the MemoryError path) arrive while the
    payload pipe is useless — the solve never finished — but the engine's
    root units and learned binaries are already sound facts about
    circuit ∧ objectives.  Flushing them to ``salvage_path`` lets the
    supervisor's retry and surviving sibling cubes start warm.

    Everything here is best effort and must never mask the death: the
    SIGTERM handler re-delivers the signal with the default disposition
    restored so the parent still classifies the exit as a watchdog kill.
    """

    def __init__(self, path: str):
        self.path = path
        self.collect = None   # installed once the engine exists

    def install(self) -> None:
        _set_sigterm(self._on_term)

    def disarm(self) -> None:
        """The answer is sent: a SIGTERM now must not flush a file the
        supervisor would delete unread."""
        _set_sigterm(signal.SIG_DFL)

    def _on_term(self, signum, frame) -> None:
        self.write()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    def write(self) -> None:
        if self.collect is None:
            return
        try:
            lemmas = [list(clause) for clause in self.collect()]
            with open(self.path, "w") as fh:
                json.dump({"v": 1, "lemmas": lemmas}, fh,
                          separators=(",", ":"))
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:  # noqa: BLE001 — dying anyway; stay silent
            pass


def _set_sigterm(handler) -> None:
    try:
        signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):
        pass  # non-main thread or unsupported platform


def _circuit_to_dimacs(lit: int) -> int:
    """Circuit literal -> DIMACS literal under the Tseitin var = node + 1."""
    var = (lit >> 1) + 1
    return -var if (lit & 1) else var


def _dimacs_to_circuit(d: int) -> int:
    node = abs(d) - 1
    return 2 * node + (1 if d < 0 else 0)


class JobEngine:
    """The engine of a csat or cnf job: built once, solved per call.

    Each :meth:`payload` call solves the job's objectives plus that
    call's assumptions; the engine and its learned clauses persist from
    one call to the next.  One class serves a one-shot job, a warm
    worker's tasks and the in-process cube slot, which hands in the
    conquer driver's prepared
    :class:`~repro.core.solver.CircuitSolver` as ``solver`` — an engine
    that already holds the job's seed lemmas.

    Seed lemmas and :meth:`add` batches are injected at decision level 0
    and never twice: a clause the engine was given or exported is
    skipped when it comes back.
    """

    def __init__(self, job: WorkerJob, tracer=None, solver=None):
        circuit = job.circuit
        self.job = job
        self.objectives = (list(job.objectives) if job.objectives is not None
                           else list(circuit.outputs))
        self.proof = None
        self._held = set()
        if solver is not None:
            self.solver = solver
            self._held.update(frozenset(c) for c in job.seed_lemmas or ())
            return
        if job.collect_proof:
            from ..proof import ProofLog
            self.proof = ProofLog()
        if job.kind == KIND_CSAT:
            from ..core.solver import CircuitSolver
            from ..csat.options import preset
            options = preset(job.preset_name, **job.overrides)
            if tracer is not None:
                options = options.replace(trace=tracer)
            solver = CircuitSolver(circuit, options, proof=self.proof)
        elif job.kind == KIND_CNF:
            from ..circuit.cnf_convert import tseitin
            from ..kernel.cnf import FlatCnfSolver
            formula, _ = tseitin(circuit, objectives=self.objectives)
            solver = FlatCnfSolver(formula, proof=self.proof, trace=tracer)
        else:
            raise ValueError("assumptions require a csat or cnf worker, "
                             "not {!r}".format(job.kind))
        self.solver = solver
        self.add(job.seed_lemmas)

    def add(self, lemmas) -> None:
        """Inject shared lemmas (circuit ∧ objectives consequences)."""
        new = [list(c) for c in lemmas or ()
               if frozenset(c) not in self._held]
        if not new:
            return
        self._held.update(frozenset(c) for c in new)
        if self.job.kind == KIND_CSAT:
            from ..cube.sharing import inject_csat_lemmas
            inject_csat_lemmas(self.solver.engine, new)
        else:
            for clause in new:
                # Shared lemmas hold for circuit AND objectives — exactly
                # the Tseitin formula — so they join it directly.
                self.solver.add_clause([_circuit_to_dimacs(l)
                                        for l in clause])

    def lemmas(self) -> List[List[int]]:
        """Root units + learned binaries of a cube engine, shareable with
        sibling cubes: the ones this engine has neither given out nor
        been given, at most ``MAX_SHARED_LEMMAS`` of them, units first."""
        from ..cube.sharing import MAX_SHARED_LEMMAS, collect_csat_lemmas
        known = collect_csat_lemmas(self.solver.engine, limit=None)
        new = []
        for clause in known:
            key = frozenset(clause)
            if key not in self._held:
                self._held.add(key)
                new.append(clause)
                if len(new) == MAX_SHARED_LEMMAS:
                    break
        return new

    def payload(self, assumptions, limits: Optional[Limits]) -> dict:
        """Solve under ``assumptions``; the result payload dict."""
        assumptions = list(assumptions or ())
        if self.job.kind == KIND_CSAT:
            result = self.solver.solve(
                objectives=self.objectives + assumptions, limits=limits)
            core = result.core
        else:
            result = self.solver.solve(
                assumptions=[_circuit_to_dimacs(l) for l in assumptions],
                limits=limits)
            if result.status == SAT:
                # CNF var = node + 1; map back so the parent's
                # circuit-level certifier can replay the model.
                result.model = {var - 1: value
                                for var, value in result.model.items()}
            core = (None if result.core is None
                    else [_dimacs_to_circuit(d) for d in result.core])
        proof_steps = None
        if self.proof is not None and result.status == UNSAT:
            proof_steps = list(self.proof.steps)
        # Boundary certification replays *all* requirements, cube
        # literals included — a SAT model must satisfy its cube too.
        return _result_payload(
            self.job, result, self.objectives + assumptions, core=core,
            proof=proof_steps,
            lemmas=self.lemmas() if self.job.export_lemmas else None)


def _result_payload(job: WorkerJob, result: SolverResult,
                    objectives: List[int], core=None, proof=None,
                    lemmas=None) -> dict:
    """The ``("result", payload)`` message body: primitives only."""
    return {
        "engine": job.name,
        "status": result.status,
        "model": result.model,
        "stats": result.stats.as_dict(),
        "time_seconds": result.time_seconds,
        "sim_seconds": result.sim_seconds,
        "interrupted": result.interrupted,
        "proof": proof,
        "objectives": objectives,
        "core": core,
        "lemmas": lemmas,
    }


def _solve_job(job: WorkerJob, tracer=None, salvage=None) -> dict:
    """Run the solve a one-shot job describes; returns the result payload."""
    circuit = job.circuit
    objectives = (list(job.objectives) if job.objectives is not None
                  else list(circuit.outputs))
    if job.kind in (KIND_CSAT, KIND_CNF):
        engine = JobEngine(job, tracer)
        if salvage is not None:
            salvage.collect = engine.lemmas
        return engine.payload(job.assumptions, job.limits)
    if job.assumptions:
        raise ValueError("assumptions require a csat or cnf worker, "
                         "not {!r}".format(job.kind))
    if job.kind == KIND_SWEEP:
        from ..circuit.bench_io import write_bench
        from ..core.sweep import sat_sweep
        # Sweeps always prove on the flat kernel: preset_name, options
        # and overrides select nothing here.
        sweep = sat_sweep(circuit, export_lemmas=True,
                          seed_lemmas=job.seed_lemmas)
        # Primitives only: the reduced circuit crosses the pipe as bench
        # text, the substitutions as a plain dict, so the parent can
        # absorb the facts into its knowledge store without trusting any
        # worker-side object.
        return {
            "engine": job.name,
            "status": UNKNOWN,
            "model": None,
            "stats": {},
            "time_seconds": sweep.seconds,
            "sim_seconds": 0.0,
            "interrupted": False,
            "proof": None,
            "objectives": [],
            "core": None,
            "lemmas": sweep.lemmas,
            "sweep": sweep.as_dict(),
            "sweep_bench": write_bench(sweep.circuit),
            "sweep_substitutions": dict(sweep.substitutions),
        }
    if job.kind == KIND_BRUTE:
        from ..verify.oracle import _brute_force
        result = _brute_force(circuit, objectives)
    elif job.kind == KIND_BDD:
        from ..verify.oracle import _bdd_check
        result = _bdd_check(circuit, objectives, job.bdd_node_limit)
    else:
        raise ValueError("unknown worker kind {!r}".format(job.kind))
    return _result_payload(job, result, objectives)


def _safe_send(conn, message: Tuple[str, Optional[dict]]) -> None:
    try:
        conn.send(message)
    except (OSError, ValueError, MemoryError):
        pass  # parent gone or allocation failed: parent classifies as LOST


def run_worker(conn, job: WorkerJob, warm: bool = False) -> None:
    """Child-process entry point: solve, classify own failures, report.

    One-shot, the child solves ``job`` and exits.  ``warm``, it builds
    the job's engine once and answers task after task (see the module
    docstring); the first failure, a ``lost`` fault or a ``close``
    message ends it.
    """
    # A forked child inherits the parent's handlers — a CLI that turns
    # SIGTERM into an interrupt, a server that drains on it — but the
    # watchdog's SIGTERM must end this process (after a salvage flush).
    _set_sigterm(signal.SIG_DFL)
    tracer = None
    salvage = None
    if job.salvage_path is not None and job.export_lemmas:
        salvage = _Salvage(job.salvage_path)
    try:
        _apply_mem_limit(job.mem_limit_mb)
        if not warm:
            _start_solve(salvage, job.fault, job.mem_limit_mb)
            tracer = _worker_tracer(job)
            payload = _solve_job(job, tracer, salvage)
            # Flush the trace before the result crosses the pipe: the
            # parent merges our file the moment it sees the message.
            tracer = _close_tracer(tracer)
            _send_answer(conn, job, job.fault, payload, salvage)
            return
        tracer = _worker_tracer(job)
        engine = JobEngine(job, tracer)
        if salvage is not None:
            salvage.collect = engine.lemmas
        while True:
            kind, task = conn.recv()
            if kind != "task":
                return
            fault = task.get("fault")
            _start_solve(salvage, fault, job.mem_limit_mb)
            engine.add(task.get("lemmas"))
            payload = engine.payload(task["assumptions"], task.get("limits"))
            if not _send_answer(conn, job, fault, payload, salvage):
                return
    except EOFError:
        pass  # the parent is gone: nobody is left to answer
    except MemoryError:
        if salvage is not None:
            salvage.write()
        tracer = _close_tracer(tracer)
        _safe_send(conn, ("failure", {
            "kind": MEMOUT,
            "detail": "memory cap of {} MB exceeded".format(
                job.mem_limit_mb)}))
    except BaseException as exc:  # noqa: BLE001 — crash containment is the job
        tracer = _close_tracer(tracer)
        _safe_send(conn, ("failure", {
            "kind": CRASHED,
            "detail": "{}: {}".format(type(exc).__name__, exc)}))
    finally:
        tracer = _close_tracer(tracer)
        try:
            conn.close()
        except OSError:
            pass


def _worker_tracer(job: WorkerJob):
    """The worker's own JSONL trace, stamped with the span the parent
    minted and merged back by the supervisor; None when untraced."""
    if job.trace_path is None:
        return None
    from ..obs.context import SpanContext
    from ..obs.trace import JsonlTracer
    context = None
    if job.span_id is not None:
        context = SpanContext(trace_id=job.trace_id or "",
                              span_id=job.span_id, parent_id=job.parent_span)
    return _CoarseTracer(JsonlTracer(job.trace_path, context=context))


def _start_solve(salvage, fault: Optional[str],
                 mem_limit_mb: Optional[int]) -> None:
    """Arm the salvage flush, then inject the solve's pre-solve fault."""
    if salvage is not None:
        # Armed first so a hang-hard fault's SIG_IGN still wins (that
        # fault exists to test SIGKILL escalation).
        salvage.install()
    _apply_pre_fault(fault, mem_limit_mb)


def _send_answer(conn, job: WorkerJob, fault: Optional[str], payload: dict,
                 salvage) -> bool:
    """Send one answer, tampered by its post-solve fault; False when a
    ``lost`` fault swallowed it."""
    payload["maxrss_mb"] = _maxrss_mb()
    payload = _apply_post_fault(fault, job, payload)
    if payload is None:
        return False
    _safe_send(conn, ("result", payload))
    if salvage is not None:
        salvage.disarm()
    return True


def _close_tracer(tracer):
    """Close a worker tracer exactly once; always returns None."""
    if tracer is not None:
        try:
            tracer.close()
        except OSError:
            pass
    return None


def payload_to_result(payload: dict) -> SolverResult:
    """Rebuild a :class:`SolverResult` from a worker's payload dict."""
    from ..result import SolverStats
    return SolverResult(
        status=payload["status"],
        model=payload.get("model"),
        stats=SolverStats(**payload.get("stats", {})),
        time_seconds=payload.get("time_seconds", 0.0),
        sim_seconds=payload.get("sim_seconds", 0.0),
        interrupted=payload.get("interrupted", False),
        engine=payload.get("engine"),
        core=payload.get("core"))
