"""Conquer: the one cube scheduler, over endpoints.

The driver runs one random-simulation pass and one explicit-learning
phase on a flat-kernel :class:`~repro.core.solver.CircuitSolver`
(:data:`CUBE_PRESET`) seeded with the resulting correlations.  The
phase's root units and learned binaries follow from the circuit alone;
they ride with every cube, and the cutter looks ahead on the same
engine, so an objective the phase refutes makes the cut, and the run,
UNSAT at once.  Every cube runs on the flat kernel too, without the
phase.  The driver then schedules the open cubes over *endpoints*.  An
endpoint is a slot count plus one call: "solve this cube with these
seed lemmas and return the payload".  Every conquest runs the same loop
whatever its endpoints are:

* ``workers == 0`` — one in-process endpoint with one slot, run on the
  calling thread (so Ctrl-C reaches the search): every cube is solved in
  turn on the driver's own engine, whose learned-clause database
  persists across cubes.  This is the mode the differential oracle
  cross-checks.
* ``workers >= 1`` — one local endpoint whose slots each keep one warm
  :mod:`repro.runtime` worker (:class:`CubeSlot`) on the flat kernel.
* :func:`repro.dist.solve_distributed` — one remote endpoint per serve
  node, whose worker threads are its slots.

A slot pulls the hardest open cube, an idle slot re-issues another
endpoint's straggler (at most :data:`MAX_REDUNDANCY` holders per cube),
and every answer is applied exactly once.  The first certified SAT
answer stops every sibling; UNSAT answers accumulate until the whole
partition is refuted.  Failures reuse the runtime's taxonomy: CRASHED /
CORRUPT_ANSWER / LOST cubes are retried on a fresh worker up to
``max_retries``; TIMEOUT / MEMOUT are final.  A dead endpoint's
in-flight cubes are reassigned to the survivors.

Knowledge sharing (:mod:`repro.cube.sharing`): the phase's clauses
reach every worker once.  The scheduler's :class:`SharedKnowledge` is
the conquest's one lemma pool: each dispatch carries a snapshot of it,
and each payload brings back the unit/binary lemmas its worker
exported.

Failed-assumption cores prune siblings: when a cube comes back UNSAT
with a core, any queued cube whose literal set contains the core's
cube-literals is UNSAT by the same argument and is marked PRUNED
without being solved.  An UNSAT core containing *no* cube literal
refutes the instance outright.

``certify`` stops at ``"sat"``: an UNSAT-under-assumptions answer has no
closed DRUP proof, and injected lemmas would appear in a worker's proof
without derivation, so full boundary certification is structurally
impossible in cube mode.  SAT models are certified by the scheduler
against its own circuit (and, for isolated workers, at the worker
boundary first), so no endpoint is trusted.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, ClassVar, Dict, List, Optional, Sequence,
                    Set)

from ..circuit.netlist import Circuit
from ..core.solver import CircuitSolver
from ..csat.options import preset
from ..errors import CORRUPT_ANSWER, FAILURE_KINDS, SolverError, WorkerFailure
from ..result import Limits, SAT, SolverResult, SolverStats, UNKNOWN, UNSAT
from ..runtime.faults import FaultPlan, NO_FAULTS
from ..runtime.portfolio import RETRYABLE
from ..runtime.supervisor import (CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT,
                                  WorkerHandle, spawn_worker)
from ..runtime.worker import JobEngine, WorkerJob, payload_to_result
from ..obs import Tracer, make_tracer
from ..obs.context import child_context, context_of
from ..obs.metrics import default_registry
from ..sim.correlation import find_correlations
from .cutter import Cube, CubeSet, CutterOptions, generate_cubes
from .sharing import SharedKnowledge, collect_csat_lemmas

#: Cube statuses beyond the engine's SAT/UNSAT/UNKNOWN.
REFUTED = "REFUTED"    # closed by the cutter's own propagation
PRUNED = "PRUNED"      # subsumed by another cube's failed-assumption core
SKIPPED = "SKIPPED"    # budget ran out before the cube started

#: Statuses that count as "this part of the partition is UNSAT".
_CLOSED = (UNSAT, REFUTED, PRUNED)

#: How many endpoints may hold one cube in flight at once (the original
#: owner plus one thief keeps straggler insurance without flooding the
#: fleet with redundant solves).
MAX_REDUNDANCY = 2

#: The preset of the conquer driver and of every cube worker.  Workers
#: never run its explicit phase: the driver runs it once per conquest
#: and ships what it proved with every cube.
CUBE_PRESET = "kernel"


@dataclass
class CubeOutcome:
    """Provenance for one cube of the partition."""

    index: int
    literals: List[int]
    status: str = SKIPPED   # SAT/UNSAT/UNKNOWN/REFUTED/PRUNED/SKIPPED
    #                         or a failure kind (TIMEOUT/MEMOUT/...)
    seconds: float = 0.0
    attempts: int = 0
    pruned_by: Optional[int] = None   # index of the core-donating cube
    core_size: Optional[int] = None
    lemmas_exported: int = 0
    detail: str = ""
    #: Serve node that produced the terminal answer (None for the
    #: unnamed local endpoint).  Checkpoints carry it so a resumed
    #: coordinator knows the prior assignment.
    node: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "literals": list(self.literals),
                "status": self.status, "seconds": round(self.seconds, 6),
                "attempts": self.attempts, "pruned_by": self.pruned_by,
                "core_size": self.core_size,
                "lemmas_exported": self.lemmas_exported,
                "detail": self.detail, "node": self.node}


@dataclass
class NodeInfo:
    """One endpoint as the scheduler sees it."""

    url: str
    name: str = ""
    workers: int = 0
    alive: bool = True
    dispatched: int = 0
    completed: int = 0
    steals: int = 0          # dispatches that re-issued another node's cube
    duplicates: int = 0      # answers discarded because the cube was closed
    lemmas_sent: int = 0
    lemmas_received: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {"url": self.url, "name": self.name, "workers": self.workers,
                "alive": self.alive, "dispatched": self.dispatched,
                "completed": self.completed, "steals": self.steals,
                "duplicates": self.duplicates,
                "lemmas_sent": self.lemmas_sent,
                "lemmas_received": self.lemmas_received,
                "detail": self.detail}


@dataclass
class CubeReport:
    """Everything one cube-and-conquer run produced."""

    result: SolverResult
    cubes: List[CubeOutcome] = field(default_factory=list)
    workers: int = 0
    generation_seconds: float = 0.0
    lookaheads: int = 0
    #: The driver's explicit-learning phase: its wall time, the clauses
    #: it shipped with every cube, and its conflicts (also counted in
    #: ``result.stats``).
    phase_seconds: float = 0.0
    phase_lemmas: int = 0
    phase_conflicts: int = 0
    lemmas_shared: int = 0
    pruned: int = 0
    elapsed: float = 0.0
    #: Cubes restored as already-closed from a ``--resume`` checkpoint.
    resumed: int = 0
    duplicates: int = 0
    steals: int = 0
    reassigned: int = 0
    certified: int = 0
    #: Cube results applied more than once — the exactly-once invariant;
    #: anything non-zero is a scheduler bug, asserted by the chaos bench.
    double_counted: int = 0

    #: Result engine name, span name and ``<engine>_end`` event prefix.
    engine: ClassVar[str] = "cube"

    @property
    def solved(self) -> int:
        return sum(1 for c in self.cubes if c.status in (SAT, UNSAT))

    @property
    def closed(self) -> int:
        return sum(1 for c in self.cubes if c.status in _CLOSED)

    @property
    def lost(self) -> int:
        """Cubes with no terminal outcome despite the run finishing with
        an answer — must be 0 whenever ``result`` is SAT/UNSAT."""
        if self.result.status == UNSAT:
            return sum(1 for c in self.cubes if c.status not in _CLOSED)
        return 0

    def summary(self) -> str:
        return ("{} [cube] {} cubes ({} closed, {} pruned), "
                "{} lemmas shared, {:.3f}s".format(
                    self.result.status, len(self.cubes), self.closed,
                    self.pruned, self.lemmas_shared, self.elapsed))

    def as_dict(self) -> Dict[str, Any]:
        return {"summary": self.summary(),
                "workers": self.workers,
                "cubes": [c.as_dict() for c in self.cubes],
                "generation_seconds": round(self.generation_seconds, 6),
                "lookaheads": self.lookaheads,
                "phase_seconds": round(self.phase_seconds, 6),
                "phase_lemmas": self.phase_lemmas,
                "lemmas_shared": self.lemmas_shared,
                "pruned": self.pruned,
                "elapsed": round(self.elapsed, 6),
                "resumed": self.resumed,
                "result": self.result.as_dict()}

    def end_fields(self) -> Dict[str, Any]:
        """Fields of the ``<engine>_end`` trace event."""
        return {"status": self.result.status, "cubes": len(self.cubes),
                "pruned": self.pruned, "lemmas": self.lemmas_shared,
                "phase_seconds": round(self.phase_seconds, 6),
                "seconds": round(self.elapsed, 6)}

    def record_metrics(self, registry) -> None:
        cube_total = registry.counter(
            "repro_cube_total", "Cube outcomes by final status",
            labelnames=("status",))
        for outcome in self.cubes:
            cube_total.labels(status=outcome.status).inc()
        registry.counter(
            "repro_cube_lemmas_shared_total",
            "Lemmas absorbed into the scheduler's shared pool",
        ).inc(self.lemmas_shared)


def core_cube_literals(core: Optional[Sequence[int]],
                       cube_literals: Sequence[int]) -> Optional[List[int]]:
    """The cube's share of a failed-assumption core, or None for no core.

    The worker solves ``objectives + cube`` as assumptions, so the core
    mixes objective and cube literals; only the cube part transfers to
    siblings (they share the objectives anyway).
    """
    if core is None:
        return None
    cube_set = set(cube_literals)
    return [l for l in core if l in cube_set]


def prunes(core_cube: Sequence[int], other_literals: Sequence[int]) -> bool:
    """Does a core refute another cube?  True when every core literal is
    asserted by the other cube as well — the same conflict replays."""
    return set(core_cube) <= set(other_literals)


def _per_cube_limits(limits: Optional[Limits],
                     remaining: Optional[float]) -> Optional[Limits]:
    """Fresh cooperative Limits for one cube: caller's per-cube budgets
    plus whatever wall-clock is left of the shared budget."""
    if limits is None and remaining is None:
        return None
    max_seconds = limits.max_seconds if limits is not None else None
    if remaining is not None:
        remaining = max(0.001, remaining)
        max_seconds = (remaining if max_seconds is None
                       else min(max_seconds, remaining))
    return Limits(
        max_conflicts=limits.max_conflicts if limits is not None else None,
        max_decisions=limits.max_decisions if limits is not None else None,
        max_seconds=max_seconds)


class _Checkpointer:
    """Cuts an atomic :mod:`repro.durable.checkpoint` every N completions,
    carrying the scheduler's lemma pool ``knowledge``."""

    def __init__(self, path: str, every: int, digest: str, exact: str,
                 objectives: Sequence[int],
                 outcomes: Dict[int, CubeOutcome],
                 depths: Dict[int, int], knowledge: SharedKnowledge,
                 tracer=None):
        self.path = path
        self.every = max(1, every)
        self.digest = digest
        self.exact = exact
        self.objectives = list(objectives)
        self.outcomes = outcomes
        self.depths = depths
        self.knowledge = knowledge
        self.tracer = tracer
        self.saves = 0
        self._since = 0

    def completed(self, count: int = 1, force: bool = False) -> None:
        """One more cube reached a terminal status; save on cadence."""
        self._since += count
        if force or self._since >= self.every:
            self.save()

    def save(self) -> None:
        from ..durable.checkpoint import CubeCheckpoint, save_checkpoint
        cubes = []
        for index in sorted(self.outcomes):
            raw = self.outcomes[index].as_dict()
            raw["depth"] = self.depths.get(
                index, len(raw.get("literals") or []))
            cubes.append(raw)
        closed = sum(1 for o in self.outcomes.values()
                     if o.status in _CLOSED)
        checkpoint = CubeCheckpoint(
            digest=self.digest, exact=self.exact,
            objectives=self.objectives, cubes=cubes,
            lemmas=[list(c) for c in self.knowledge.lemmas],
            completed=closed)
        try:
            save_checkpoint(self.path, checkpoint)
        except OSError:
            return  # checkpointing must never kill the conquest
        self.saves += 1
        self._since = 0
        if self.tracer is not None:
            self.tracer.emit("cube_checkpoint", path=self.path,
                             closed=closed, lemmas=len(checkpoint.lemmas))


def _restore_cubes(checkpoint, outcomes: Dict[int, CubeOutcome],
                   depths: Dict[int, int], tracer=None):
    """Rebuild the open cube set from a checkpoint that passed
    ``validate_for`` (distinct int indices, a partition of literal lists).

    Closed cubes (UNSAT / REFUTED / PRUNED) keep their recorded
    provenance and are never re-solved; everything else — SKIPPED,
    UNKNOWN, failure kinds, even a recorded SAT (cheap to re-derive and
    its model was not persisted) — is reopened for a fresh attempt.
    """
    open_cubes: List[Cube] = []
    resumed = 0
    for raw in checkpoint.cubes:
        literals = list(raw["literals"])
        index = raw["index"]
        depths[index] = int(raw.get("depth", len(literals)))
        outcome = CubeOutcome(
            index, literals, status=str(raw.get("status") or SKIPPED),
            seconds=float(raw.get("seconds", 0.0)),
            attempts=int(raw.get("attempts", 0)),
            pruned_by=raw.get("pruned_by"),
            core_size=raw.get("core_size"),
            lemmas_exported=int(raw.get("lemmas_exported", 0)),
            detail=str(raw.get("detail") or ""),
            node=raw.get("node"))
        outcomes[index] = outcome
        if outcome.status in _CLOSED:
            resumed += 1
            continue
        outcome.status = SKIPPED
        outcome.detail = ""
        open_cubes.append(Cube(index=index, literals=tuple(literals),
                               depth=depths[index]))
    registry = default_registry()
    if registry is not None:
        registry.counter(
            "repro_cube_resumed_total",
            "Cubes restored as already closed from a checkpoint",
        ).inc(resumed)
    if tracer is not None:
        tracer.emit("cube_resume", closed=resumed, open=len(open_cubes),
                    lemmas=len(checkpoint.lemmas))
    return CubeSet(cubes=open_cubes), resumed


def validate_cube_args(certify: str, budget: Optional[float],
                       limits: Optional[Limits]) -> None:
    """Argument checks both cube-scheduler entry points share."""
    if certify not in CERTIFY_LEVELS:
        raise ValueError("certify must be one of {}".format(CERTIFY_LEVELS))
    if certify == CERTIFY_FULL:
        raise ValueError(
            "cube mode cannot certify UNSAT proofs: per-cube refutations "
            "carry no closed DRUP derivation and shared lemmas have none "
            "either; use certify='sat'")
    if budget is not None:
        Limits(max_seconds=budget).validate()
    if limits is not None:
        limits.validate()


def solve_cubes(circuit: Circuit,
                objectives: Optional[Sequence[int]] = None,
                *,
                workers: int = 4,
                cutter: Optional[CutterOptions] = None,
                budget: Optional[float] = None,
                limits: Optional[Limits] = None,
                mem_limit_mb: Optional[int] = None,
                grace_seconds: float = 1.0,
                max_retries: int = 1,
                certify: str = CERTIFY_SAT,
                faults: Optional[FaultPlan] = None,
                trace=None,
                checkpoint_path: Optional[str] = None,
                checkpoint_every: int = 8,
                resume_from: Optional[str] = None) -> CubeReport:
    """Cube-and-conquer solve of ``circuit`` under ``objectives``.

    ``workers >= 1`` schedules cubes over that many warm worker
    processes, one per slot; ``workers == 0`` solves them in turn on the
    driver's own engine (used by the differential oracle).  ``budget`` is
    the shared wall-clock budget for the whole run; ``limits`` are
    *per-cube* cooperative budgets (conflicts/decisions/seconds).
    Every worker runs the flat kernel (:data:`CUBE_PRESET`).  The driver
    runs the explicit phase once, and no worker repeats it: on a 2-CPU
    VM with two workers, kernel-preset cubes that each re-ran the phase
    took 7.2-7.9 s on mult5 and 0.44 s on c3540.equiv; with one driver
    phase c3540.equiv is UNSAT in about 0.2 s without a cube, and mult5
    conquers in under a second (see docs/parallel.md).

    Never raises for worker misbehaviour; failed cubes carry their
    failure kind in the report and degrade the answer to UNKNOWN at
    worst.

    Durability: ``checkpoint_path`` persists the cube tree, per-cube
    outcomes, and the deduped lemma pool atomically every
    ``checkpoint_every`` completions; ``resume_from`` reloads such a
    checkpoint — refusing a mismatched circuit/objectives — skips the
    closed cubes and re-injects the lemma pool.  Raises
    :class:`repro.durable.checkpoint.CheckpointError` on a checkpoint
    that does not belong to this instance.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    validate_cube_args(certify, budget, limits)
    if workers:
        endpoint = _LocalEndpoint(
            workers, mem_limit_mb=mem_limit_mb, grace_seconds=grace_seconds,
            certify=certify, faults=faults or NO_FAULTS)
    else:
        endpoint = _InProcessEndpoint()
    return _conquer(
        circuit, objectives, CubeReport(result=SolverResult(status=UNKNOWN),
                                        workers=workers),
        lambda tracer: [endpoint], trace=trace,
        span_fields={"workers": workers}, cutter=cutter, budget=budget,
        limits=limits, certify=certify, max_retries=max_retries,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume_from=resume_from)


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------

class EndpointDown(Exception):
    """Raised by an endpoint's ``solve`` when the endpoint itself is gone;
    the scheduler marks it dead and reassigns its in-flight cubes."""


class Conquest:
    """What an endpoint sees of the conquest it serves (see ``open``).

    ``solver`` is the driver's prepared kernel :class:`CircuitSolver` and
    ``phase_lemmas`` the clauses its explicit phase proved, which every
    worker holds before its first cube.  ``stop`` is set once the run is
    decided or shutting down.  Pool lemmas reach an endpoint only on its
    dispatches.
    """

    def __init__(self, circuit: Circuit, objectives: List[int],
                 solver: CircuitSolver, phase_lemmas: List[List[int]],
                 stop: threading.Event,
                 remaining: Callable[[], Optional[float]], tracer, span):
        self.circuit = circuit
        self.objectives = objectives
        self.solver = solver
        self.phase_lemmas = phase_lemmas
        self.stop = stop
        self.remaining = remaining
        self.tracer = tracer
        self.span = span


def _answer_payload(result: SolverResult, certified: bool) -> Dict[str, Any]:
    """The wire payload of one cube answer (see :class:`CubeSlot`)."""
    payload: Dict[str, Any] = {
        "status": result.status,
        "time_seconds": round(result.time_seconds, 6),
        "interrupted": result.interrupted,
        "stats": result.stats.as_dict(),
        "core": result.core,
        "certified": certified,
    }
    if result.model is not None:
        payload["model"] = {str(n): bool(v) for n, v in result.model.items()}
    return payload


def cube_job(circuit: Circuit, objectives: Sequence[int], *,
             phase_lemmas, mem_limit_mb: Optional[int]) -> WorkerJob:
    """The job every cube engine is built from: :data:`CUBE_PRESET`,
    exporting its lemmas.

    Workers skip the preset's explicit phase: the driver ran it, and its
    clauses arrive as ``phase_lemmas``.
    """
    return WorkerJob(
        circuit=circuit, name="cube", preset_name=CUBE_PRESET,
        overrides={"explicit_learning": False},
        objectives=list(objectives), mem_limit_mb=mem_limit_mb,
        seed_lemmas=phase_lemmas, export_lemmas=True)


class CubeSlot:
    """One slot's warm worker: the single cube-to-payload path of the
    local endpoint and of a serve node's cube jobs
    (:class:`repro.serve.scheduler.CubeRequest`).

    The slot spawns a supervised worker from ``job`` (:func:`cube_job`)
    at its first cube.  The worker compiles the circuit once, holds the
    driver's phase lemmas, and then takes cube after cube as assumption
    calls, with only the pool lemmas it has not seen yet; its learned
    clauses persist from one cube to the next.  Isolation stays per
    cube: each runs under its own hard wall limit (its cooperative
    ``max_seconds``) and ``cancelled()`` kill reason, its answer is
    certified at the boundary (``certify``), and a cube that times out,
    runs out of memory, crashes or answers wrongly ends its worker — the
    slot spawns a fresh one for the next cube.  A retry (``attempt >
    0``) runs on a fresh worker, so a crash tied to what one worker
    learned is not replayed verbatim.

    :meth:`solve` returns ``{"status", "time_seconds", "interrupted",
    "stats", "core", "certified", "model"?}`` for an answer or
    ``{"status": "FAILED", "failure"}`` for a taxonomy failure, plus
    ``maxrss_mb`` and ``lemmas``: what the worker exported, or flushed
    while dying on a budget (sound for circuit AND objectives either
    way).  :meth:`close` ends the worker without a signal.
    """

    def __init__(self, job: WorkerJob, *, certify: str,
                 grace_seconds: float, spawns: Callable[[], int]):
        self.job = job
        self.certify = certify
        self.grace_seconds = grace_seconds
        self.spawns = spawns
        self.worker: Optional[WorkerHandle] = None
        self.attempt = 0          # the attempt the worker was spawned for

    def solve(self, cube: Sequence[int], attempt: int,
              lemmas: Optional[List[List[int]]], limits: Optional[Limits],
              *, fault: Optional[str], tracer,
              cancelled: Callable[[], Optional[str]]) -> Dict[str, Any]:
        if self.worker is not None and not self.worker.proc.is_alive():
            # Died while idle (an OOM kill, say): report it as the
            # worker's failure, not as the next cube's.
            self.worker.reap(certify=self.certify, tracer=tracer)
            self.worker = None
        if self.worker is not None and attempt and attempt != self.attempt:
            self.close(tracer)
        if self.worker is None:
            # A copy: a spawn writes into its job.
            self.worker = spawn_worker(
                replace(self.job), grace_seconds=self.grace_seconds,
                index=self.spawns(), tracer=tracer, warm=True)
            self.attempt = attempt
        worker = self.worker
        outcome = worker.run(
            {"assumptions": list(cube), "lemmas": lemmas, "limits": limits,
             "fault": fault},
            limits.max_seconds if limits is not None else None,
            certify=self.certify, tracer=tracer, cancelled=cancelled)
        if not worker.alive:
            self.worker = None
        if outcome.ok:
            payload = _answer_payload(
                outcome.result,
                self.certify != "off" and outcome.result.status == SAT)
        else:
            payload = {"status": "FAILED",
                       "failure": outcome.failure.as_dict()}
        payload["maxrss_mb"] = outcome.maxrss_mb
        payload["lemmas"] = outcome.lemmas or []
        return payload

    def close(self, tracer=None) -> None:
        if self.worker is not None:
            worker, self.worker = self.worker, None
            worker.close(tracer=tracer)


class _InProcessEndpoint:
    """The driver's engine, one slot on the calling thread.

    The engine persists across cubes, so its learned-clause database
    carries everything to the next cube, and a pool lemma it exported
    itself is never injected back.
    """

    #: Run the slot on the calling thread, where Ctrl-C lands: the
    #: engine turns it into an interrupted UNKNOWN, which stops the run.
    inline = True

    def __init__(self):
        self.info = NodeInfo(url="inprocess", workers=1)
        self.engine: Optional[JobEngine] = None
        self.conquest: Optional[Conquest] = None

    def open(self, conquest: Conquest) -> None:
        self.conquest = conquest
        self.engine = JobEngine(
            cube_job(conquest.circuit, conquest.objectives,
                     phase_lemmas=conquest.phase_lemmas, mem_limit_mb=None),
            solver=conquest.solver)

    def solve(self, cube: Cube, attempt: int,
              lemmas: Optional[List[List[int]]],
              limits: Optional[Limits]) -> Dict[str, Any]:
        self.engine.add(lemmas)
        # Between cubes the engine sits at decision level 0, so its root
        # units and learned binaries hold for circuit AND objectives.
        raw = self.engine.payload(cube.literals, limits)
        result = payload_to_result(raw)
        if result.interrupted:
            self.conquest.stop.set()
        payload = _answer_payload(result, certified=False)
        payload["lemmas"] = raw["lemmas"]
        return payload

    def close(self) -> None:
        pass


class _LocalEndpoint:
    """Warm worker processes on this host, one per slot (:class:`CubeSlot`)."""

    def __init__(self, slots: int, *, mem_limit_mb: Optional[int],
                 grace_seconds: float, certify: str, faults: FaultPlan):
        self.info = NodeInfo(url="local", workers=slots)
        self.mem_limit_mb = mem_limit_mb
        self.grace_seconds = grace_seconds
        self.certify = certify
        self.faults = faults
        # FaultPlan indices count cube dispatches across all slots.
        self._dispatches = itertools.count()
        spawns = itertools.count()
        self._spawns = lambda: next(spawns)
        self._idle: List[CubeSlot] = []
        self._lock = threading.Lock()
        self.job: Optional[WorkerJob] = None
        self.conquest: Optional[Conquest] = None

    def open(self, conquest: Conquest) -> None:
        self.conquest = conquest
        self.job = cube_job(
            conquest.circuit, conquest.objectives,
            phase_lemmas=conquest.phase_lemmas,
            mem_limit_mb=self.mem_limit_mb)

    def solve(self, cube: Cube, attempt: int,
              lemmas: Optional[List[List[int]]],
              limits: Optional[Limits]) -> Optional[Dict[str, Any]]:
        stop = self.conquest.stop
        with self._lock:
            index = next(self._dispatches)
            slot = self._idle.pop() if self._idle else CubeSlot(
                self.job, certify=self.certify,
                grace_seconds=self.grace_seconds, spawns=self._spawns)
        try:
            payload = slot.solve(
                cube.literals, attempt, lemmas, limits,
                fault=self.faults.fault_for(index),
                tracer=self.conquest.tracer,
                cancelled=lambda: ("sibling-answered" if stop.is_set()
                                   else None))
        finally:
            with self._lock:
                self._idle.append(slot)
        # Once the run is decided, a sibling's answer is moot.
        return None if stop.is_set() else payload

    def close(self) -> None:
        """Close every slot's worker: the conquest is over and every slot
        thread has returned its slot."""
        with self._lock:
            slots, self._idle = self._idle, []
        for slot in slots:
            slot.close(self.conquest.tracer if self.conquest else None)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

class _InFlight:
    __slots__ = ("cube", "attempt", "owners", "started")

    def __init__(self, cube: Cube, attempt: int, owner: str):
        self.cube = cube
        self.attempt = attempt
        self.owners: Set[str] = {owner}
        self.started = time.perf_counter()


def _conquer(circuit: Circuit, objectives: Optional[Sequence[int]],
             report: CubeReport, connect: Callable[[Any], list], *,
             trace, span_fields: Dict[str, Any],
             cutter: Optional[CutterOptions], budget: Optional[float],
             limits: Optional[Limits], certify: str, max_retries: int,
             checkpoint_path: Optional[str], checkpoint_every: int,
             resume_from: Optional[str],
             steal_after: float = 1.0) -> CubeReport:
    """Cut ``circuit`` and conquer the cubes on the endpoints
    ``connect(tracer)`` returns.

    Endpoints provide ``info`` (a :class:`NodeInfo` whose ``workers`` is
    the slot count), optionally ``inline`` (true: its one slot runs on
    the calling thread, not on a slot thread), ``open(conquest)``,
    ``solve(cube, attempt, lemmas, limits)`` returning the wire payload
    — or None for no answer — and ``close()``.  The cube tree is sized
    by the endpoints' total slots.
    """
    tracer = make_tracer(trace)
    # A path/file spec means we opened the sink here and must close it;
    # a Tracer instance stays owned by the caller.
    owns_tracer = tracer is not None and not isinstance(trace, Tracer)
    span_ctx = None
    if tracer is not None:
        # Bind the conquest span (child of the caller's span, or a fresh
        # root) so worker and dispatch sub-spans correlate back to it.
        span_ctx = child_context(context_of(tracer))
        tracer.context = span_ctx
        fields = span_ctx.as_fields()
        fields.update(name=report.engine, **span_fields)
        tracer.emit("span_start", **fields)
    try:
        if objectives is None:
            objectives = list(circuit.outputs)
            if not objectives:
                raise SolverError("circuit has no outputs and no objectives "
                                  "were given")
        objectives = list(objectives)
        endpoints = connect(tracer)

        resumed_checkpoint = None
        if resume_from is not None:
            from ..durable.checkpoint import load_checkpoint
            resumed_checkpoint = load_checkpoint(resume_from)
            resumed_checkpoint.validate_for(circuit, objectives)
            if checkpoint_path is None:
                # Resuming continues to checkpoint the same file.
                checkpoint_path = resume_from

        start = time.perf_counter()
        deadline = start + budget if budget is not None else None

        # One simulation pass: cutter scoring + the driver's phase.
        options = preset(CUBE_PRESET)
        t0 = time.perf_counter()
        correlations = find_correlations(
            circuit, seed=options.sim_seed, width=options.sim_width,
            stall_rounds=options.sim_stall_rounds,
            max_rounds=options.sim_max_rounds,
            max_class_size=options.max_class_size)
        sim_seconds = time.perf_counter() - t0

        # One explicit-learning phase for everyone, on the kernel.  What
        # it proves follows from the circuit alone, so its root units and
        # learned binaries ride with every cube, uncapped, and the cutter
        # looks ahead on the same engine: an objective the phase refuted
        # makes the cut trivially UNSAT.
        t0 = time.perf_counter()
        driver = CircuitSolver(circuit, options)
        driver.correlations = correlations
        driver.prepare(limits=None if deadline is None else Limits(
            max_seconds=max(0.001, deadline - time.perf_counter())))
        phase_lemmas = collect_csat_lemmas(driver.engine, limit=None)
        merged = driver.engine.stats.copy()
        report.phase_seconds = time.perf_counter() - t0
        report.phase_lemmas = len(phase_lemmas)
        report.phase_conflicts = merged.conflicts
        if tracer is not None:
            tracer.emit("phase", phase="explicit",
                        seconds=round(report.phase_seconds, 6),
                        subproblems=driver.explicit_report.subproblems_run,
                        lemmas=len(phase_lemmas))

        outcomes: Dict[int, CubeOutcome] = {}
        depths: Dict[int, int] = {}
        if resumed_checkpoint is not None:
            # The cube tree comes from the checkpoint, not the cutter:
            # the partition must be byte-identical to the one the
            # statuses and lemma pool were recorded under.
            cube_set, report.resumed = _restore_cubes(
                resumed_checkpoint, outcomes, depths, tracer)
        else:
            cube_set = generate_cubes(
                circuit, objectives, options=cutter or CutterOptions(),
                correlations=correlations,
                workers=sum(e.info.workers for e in endpoints),
                engine=driver.engine)
            if tracer is not None:
                tracer.emit("cube_generated", cubes=len(cube_set.cubes),
                            refuted=len(cube_set.refuted),
                            trivial=cube_set.trivial,
                            lookaheads=cube_set.lookaheads,
                            seconds=round(cube_set.seconds, 6))
            for cube in cube_set.cubes:
                outcomes[cube.index] = CubeOutcome(cube.index,
                                                   list(cube.literals))
                depths[cube.index] = cube.depth
            for cube in cube_set.refuted:
                outcomes[cube.index] = CubeOutcome(
                    cube.index, list(cube.literals), status=REFUTED)
                depths[cube.index] = cube.depth
        report.generation_seconds = cube_set.seconds
        report.lookaheads = cube_set.lookaheads

        knowledge = SharedKnowledge()
        if resumed_checkpoint is not None:
            # Re-injected checkpoint pool: already counted as shared by
            # the run that earned it, so it seeds workers without
            # inflating this run's lemmas_shared.
            knowledge.absorb(resumed_checkpoint.lemmas)
        checkpointer = None
        if checkpoint_path is not None:
            from ..durable.checkpoint import exact_hash
            if resumed_checkpoint is not None:
                digest, exact = (resumed_checkpoint.digest,
                                 resumed_checkpoint.exact)
            else:
                from ..serve.fingerprint import fingerprint as _fingerprint
                digest = _fingerprint(circuit).digest
                exact = exact_hash(circuit)
            checkpointer = _Checkpointer(checkpoint_path, checkpoint_every,
                                         digest, exact, objectives,
                                         outcomes, depths, knowledge,
                                         tracer=tracer)

        def finish(result: SolverResult) -> CubeReport:
            result.engine = report.engine
            result.sim_seconds = sim_seconds
            result.time_seconds = time.perf_counter() - start
            report.result = result
            report.cubes = [outcomes[i] for i in sorted(outcomes)]
            report.pruned = sum(1 for c in report.cubes
                                if c.status == PRUNED)
            report.elapsed = result.time_seconds
            if checkpointer is not None and outcomes:
                # Final cut: a budget-exhausted (UNKNOWN) run resumes
                # from exactly where it stopped.
                checkpointer.save()
            if tracer is not None:
                tracer.emit("{}_end".format(report.engine),
                            **report.end_fields())
                tracer.emit("span_end", span=span_ctx.span_id,
                            status=result.status)
            registry = default_registry()
            if registry is not None:
                report.record_metrics(registry)
            return report

        if cube_set.trivial is not None:
            return finish(SolverResult(status=cube_set.trivial,
                                       model=cube_set.model, stats=merged))
        if not cube_set.cubes:
            # Every leaf refuted during cutting: the partition is closed.
            return finish(SolverResult(status=UNSAT, stats=merged))

        cv = threading.Condition(threading.Lock())
        queue: "deque[tuple]" = deque((cube, 0) for cube in cube_set.cubes)
        inflight: Dict[int, _InFlight] = {}
        applied: Dict[int, int] = {}
        failures: List[WorkerFailure] = []
        stop = threading.Event()
        win: Optional[SolverResult] = None
        errors: List[BaseException] = []

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return deadline - time.perf_counter()

        def drop_claim(index: int, name: str) -> bool:
            """Remove one holder of a cube (``cv`` held); True when it
            was the last holder of a still-open cube, now requeued."""
            entry = inflight.get(index)
            if entry is None:
                return False
            entry.owners.discard(name)
            if entry.owners:
                return False
            del inflight[index]
            if outcomes[index].status != SKIPPED:
                return False
            queue.appendleft((entry.cube, entry.attempt))
            return True

        def endpoint_dead(info: NodeInfo, why: str) -> None:
            """Mark an endpoint dead and reassign its in-flight cubes."""
            with cv:
                if not info.alive:
                    return
                info.alive = False
                info.detail = why
                for index in list(inflight):
                    if drop_claim(index, info.name):
                        report.reassigned += 1
                cv.notify_all()
            registry = default_registry()
            if registry is not None:
                registry.counter(
                    "repro_dist_node_failures_total",
                    "Serve nodes lost mid-run",
                    labelnames=("node",)).labels(info.name or info.url).inc()
            if tracer is not None:
                tracer.emit("dist_node_dead", node=info.name, url=info.url,
                            why=why, reassigned=report.reassigned)

        def acquire(info: NodeInfo):
            """Next (cube, attempt) for one slot, or None to exit."""
            with cv:
                while True:
                    if stop.is_set() or not info.alive:
                        return None
                    left = remaining()
                    if left is not None and left <= 0:
                        return None
                    while queue:
                        cube, attempt = queue.popleft()
                        if outcomes[cube.index].status != SKIPPED:
                            continue  # pruned (or closed) while queued
                        inflight[cube.index] = _InFlight(cube, attempt,
                                                         info.name)
                        return cube, attempt
                    # Nothing queued: steal the longest-in-flight cube of
                    # another endpoint (straggler insurance).
                    now = time.perf_counter()
                    candidate = None
                    for entry in inflight.values():
                        if info.name in entry.owners \
                                or len(entry.owners) >= MAX_REDUNDANCY \
                                or now - entry.started < steal_after:
                            continue
                        if candidate is None \
                                or entry.started < candidate.started:
                            candidate = entry
                    if candidate is not None:
                        candidate.owners.add(info.name)
                        report.steals += 1
                        info.steals += 1
                        if tracer is not None:
                            tracer.emit("dist_steal", node=info.name,
                                        cube=candidate.cube.index,
                                        attempt=candidate.attempt)
                        return candidate.cube, candidate.attempt
                    if not inflight:
                        return None  # partition fully accounted for
                    cv.wait(0.25 if left is None
                            else min(0.25, max(0.0, left)))

        def apply_result(info: NodeInfo, cube: Cube, attempt: int,
                         payload: Dict[str, Any], seconds: float) -> None:
            """Fold one endpoint answer into the run — exactly once."""
            nonlocal win
            status = payload.get("status")
            failure = payload.get("failure")
            with cv:
                # A duplicate's lemmas count too: they hold whoever
                # answered.
                new = knowledge.absorb(payload.get("lemmas"))
                report.lemmas_shared += new
                info.lemmas_received += new
                entry = inflight.get(cube.index)
                outcome = outcomes[cube.index]
                if entry is None or outcome.status != SKIPPED:
                    # A sibling (steal or reassignment) already closed
                    # this cube: discard, never double-count.
                    report.duplicates += 1
                    info.duplicates += 1
                    cv.notify_all()
                    return
                applied[cube.index] = applied.get(cube.index, 0) + 1
                if applied[cube.index] > 1:
                    report.double_counted += 1
                info.completed += 1
                outcome.attempts = max(outcome.attempts, attempt + 1)
                outcome.seconds += seconds
                outcome.node = info.name or None
                outcome.lemmas_exported += new
                terminal = True
                if status == SAT:
                    model = {int(n): bool(v) for n, v
                             in (payload.get("model") or {}).items()}
                    if certify != "off":
                        from ..verify.certify import certify_sat_model
                        certificate = certify_sat_model(
                            circuit, model,
                            objectives + list(cube.literals))
                        if not certificate.ok:
                            # A model that does not replay is a corrupt
                            # answer: same taxonomy, same retry policy.
                            status = "FAILED"
                            failure = {
                                "kind": CORRUPT_ANSWER,
                                "detail": "node model failed coordinator "
                                          "certification: {}".format(
                                              certificate.detail)}
                if status == SAT:
                    outcome.status = SAT
                    report.certified += 1
                    win = SolverResult(status=SAT, model=model)
                    stop.set()
                elif status == UNSAT:
                    outcome.status = UNSAT
                    report.certified += 1
                    core = payload.get("core")
                    core_cube = core_cube_literals(
                        [int(l) for l in core] if core is not None
                        else None, cube.literals)
                    outcome.core_size = (None if core_cube is None
                                         else len(core_cube))
                    if core_cube == []:
                        # Refutation independent of this cube: every
                        # open cube is UNSAT by the same argument.
                        for other in outcomes.values():
                            if other.status == SKIPPED:
                                _mark_pruned(other, cube.index, tracer)
                        stop.set()
                    elif core_cube:
                        for other, _att in queue:
                            if outcomes[other.index].status == SKIPPED \
                                    and prunes(core_cube, other.literals):
                                _mark_pruned(outcomes[other.index],
                                             cube.index, tracer)
                elif status == UNKNOWN:
                    outcome.status = UNKNOWN
                elif status == "FAILED" or failure is not None:
                    failure = failure or {}
                    kind = str(failure.get("kind") or "CRASHED")
                    if kind not in FAILURE_KINDS:
                        kind = "CRASHED"
                    detail = str(failure.get("detail") or "")
                    engine = str(failure.get("engine") or info.name
                                 or "cube-{}".format(cube.index))
                    failures.append(WorkerFailure(kind, detail, engine=engine,
                                                  seconds=seconds))
                    outcome.status = kind
                    outcome.detail = detail
                    left = remaining()
                    if kind in RETRYABLE and attempt < max_retries \
                            and (left is None or left > 0):
                        outcome.status = SKIPPED
                        outcome.detail = ""
                        queue.appendleft((cube, attempt + 1))
                        applied[cube.index] -= 1
                        terminal = False
                        if tracer is not None:
                            tracer.emit("worker_retry", engine=engine,
                                        cube=cube.index,
                                        attempt=attempt + 1, after=kind)
                        registry = default_registry()
                        if registry is not None:
                            registry.counter(
                                "repro_cube_retries_total",
                                "Cubes requeued after a retryable failure",
                                labelnames=("after",),
                            ).labels(after=kind).inc()
                else:
                    # Unintelligible payload: treat as a lost answer.
                    failures.append(WorkerFailure(
                        "LOST", "unintelligible node payload",
                        engine=info.name, seconds=seconds))
                    outcome.status = "LOST"
                stats = payload.get("stats")
                if isinstance(stats, dict):
                    try:
                        merged.merge(SolverStats(**stats))
                    except TypeError:
                        pass
                if terminal and checkpointer is not None:
                    checkpointer.completed()
                inflight.pop(cube.index, None)
                cv.notify_all()
            if tracer is not None:
                tracer.emit("cube_result", cube=cube.index,
                            status=outcomes[cube.index].status,
                            node=info.name, seconds=round(seconds, 6),
                            core=outcome.core_size)

        def slot_loop(endpoint) -> None:
            info = endpoint.info
            try:
                while True:
                    task = acquire(info)
                    if task is None:
                        return
                    cube, attempt = task
                    with cv:
                        lemmas = knowledge.snapshot()
                        info.dispatched += 1
                        info.lemmas_sent += len(lemmas)
                    if tracer is not None:
                        tracer.emit("cube_start", cube=cube.index,
                                    literals=len(cube.literals),
                                    attempt=attempt, node=info.name,
                                    lemmas_seeded=len(lemmas))
                    t0 = time.perf_counter()
                    try:
                        payload = endpoint.solve(
                            cube, attempt, lemmas,
                            _per_cube_limits(limits, remaining()))
                    except EndpointDown as exc:
                        endpoint_dead(info, str(exc))
                        return
                    if payload is None:
                        with cv:
                            drop_claim(cube.index, info.name)
                            cv.notify_all()
                    else:
                        apply_result(info, cube, attempt, payload,
                                     time.perf_counter() - t0)
            except KeyboardInterrupt:
                # Only the inline slot's thread sees Ctrl-C (or the CLI's
                # SIGTERM): between two cubes it stops the run, as the
                # engine does inside one.
                stop.set()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
                stop.set()
            finally:
                with cv:
                    cv.notify_all()

        conquest = Conquest(circuit, objectives, driver, phase_lemmas, stop,
                            remaining, tracer, span_ctx)
        threads: List[threading.Thread] = []
        try:
            for endpoint in endpoints:
                endpoint.open(conquest)
            live = [e for e in endpoints if e.info.alive]
            if not live:
                raise SolverError("no endpoint can take cubes: " + "; ".join(
                    "{} ({})".format(e.info.url, e.info.detail)
                    for e in endpoints))
            inline = [e for e in live if getattr(e, "inline", False)]
            threads = [threading.Thread(
                target=slot_loop, args=(endpoint,), daemon=True,
                name="cube-{}-{}".format(endpoint.info.name or "local", slot))
                for endpoint in live if endpoint not in inline
                for slot in range(endpoint.info.workers)]
            for thread in threads:
                thread.start()
            for endpoint in inline:
                slot_loop(endpoint)
            for thread in threads:
                thread.join()
        finally:
            stop.set()
            with cv:
                cv.notify_all()
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            for endpoint in endpoints:
                endpoint.close()
        if errors:
            raise errors[0]

        failure_dicts = [f.as_dict() for f in failures]
        if win is not None:
            result = win
        elif all(o.status in _CLOSED for o in outcomes.values()):
            result = SolverResult(status=UNSAT)
        else:
            result = SolverResult(status=UNKNOWN)
        result.stats = merged
        result.failures = failure_dicts
        return finish(result)
    finally:
        if owns_tracer:
            tracer.close()


def _mark_pruned(outcome: CubeOutcome, by: int, tracer) -> None:
    outcome.status = PRUNED
    outcome.pruned_by = by
    if tracer is not None:
        tracer.emit("cube_prune", cube=outcome.index, by=by)
