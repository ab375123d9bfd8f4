"""Portfolio solving: race or sequence engine configs under one budget.

GRASP-style engine diversity for robustness: the same instance is handed
to several independently-built answer machines (csat presets, the CNF
baseline, brute force and BDDs for tiny cones), each in its own isolated
worker under the supervisor's hard limits.  The first *certified*
SAT/UNSAT answer wins and the rest are killed.

Failover policy
---------------

* **shared deadline** — ``budget`` seconds cover the whole portfolio; a
  worker's hard wall is the remaining shared budget (split evenly over
  the pending ladder when running sequentially, so one config cannot
  starve the rest).
* **retry with reseed** — a worker that CRASHED, got a CORRUPT_ANSWER, or
  was LOST is retried up to ``max_retries`` times with a reseeded
  simulation (TIMEOUT/MEMOUT are deterministic resource exhaustion and
  are not retried).
* **graceful degradation** — when every config fails or runs out, the
  portfolio still returns a structured UNKNOWN
  :class:`~repro.result.SolverResult` carrying the merged partial stats
  of every worker that answered UNKNOWN cooperatively, plus the full
  failure provenance (``result.failures``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..csat.options import DEFAULT_PRESET
from ..errors import CORRUPT_ANSWER, CRASHED, LOST, WorkerFailure
from ..obs.metrics import default_registry
from ..result import Limits, SolverResult, SolverStats, UNKNOWN
from .faults import FaultPlan, NO_FAULTS
from .supervisor import (CERTIFY_FULL, CERTIFY_LEVELS, CERTIFY_SAT,
                         WorkerHandle, spawn_worker)
from .worker import (KIND_BDD, KIND_BRUTE, KIND_CNF, KIND_CSAT, WorkerJob)

#: Failure kinds worth a reseeded retry (nondeterministic-looking faults).
RETRYABLE = (CRASHED, CORRUPT_ANSWER, LOST)

#: Reseed stride between retry attempts (any odd prime-ish constant works;
#: it only needs to change the simulation seed deterministically).
RESEED_STRIDE = 7919


@dataclass
class EngineSpec:
    """One rung of the portfolio ladder."""

    name: str
    kind: str = KIND_CSAT
    preset: str = "explicit"
    overrides: Dict[str, Any] = field(default_factory=dict)

    def job(self, circuit: Circuit, objectives: Optional[List[int]],
            attempt: int, mem_limit_mb: Optional[int],
            collect_proof: bool, fault: Optional[str]) -> WorkerJob:
        overrides = dict(self.overrides)
        if attempt and self.kind == KIND_CSAT:
            # Retry-with-reseed: shift the simulation seed so a crash tied
            # to one correlation discovery run is not replayed verbatim.
            overrides["sim_seed"] = (overrides.get("sim_seed", 1)
                                     + RESEED_STRIDE * attempt)
        return WorkerJob(circuit=circuit, name=self.name, kind=self.kind,
                         preset_name=self.preset, overrides=overrides,
                         objectives=objectives, mem_limit_mb=mem_limit_mb,
                         collect_proof=collect_proof, fault=fault)


def default_ladder(circuit: Circuit,
                   brute_force_max_inputs: int = 12,
                   bdd_max_gates: int = 300) -> List[EngineSpec]:
    """The standard failover ladder, strongest config first.

    The ``kernel`` preset (:data:`~repro.csat.options.DEFAULT_PRESET`,
    the fastest on every paper row), then the legacy csat presets in
    the paper's quality order, then the ``cnf`` rung (the flat kernel's
    ``FlatCnfSolver`` on the Tseitin encoding: the same ``FlatSolver``
    as the ``kernel`` rung, without the explicit phase), then
    brute-force enumeration and BDDs for tiny cones.
    """
    ladder = [
        EngineSpec(DEFAULT_PRESET, KIND_CSAT, DEFAULT_PRESET),
        EngineSpec("explicit", KIND_CSAT, "explicit"),
        EngineSpec("csat-jnode", KIND_CSAT, "csat-jnode"),
        EngineSpec("implicit", KIND_CSAT, "implicit"),
        EngineSpec("csat", KIND_CSAT, "csat"),
        EngineSpec("cnf", KIND_CNF),
    ]
    if circuit.num_inputs <= brute_force_max_inputs:
        ladder.append(EngineSpec("brute", KIND_BRUTE))
    if circuit.num_ands <= bdd_max_gates:
        ladder.append(EngineSpec("bdd", KIND_BDD))
    return ladder


def ladder_from_names(names: Sequence[str]) -> List[EngineSpec]:
    """Build a ladder from CLI-style names (csat presets, cnf/brute/bdd)."""
    specs = []
    for name in names:
        name = name.strip()
        if not name:
            continue
        if name in (KIND_CNF, KIND_BRUTE, KIND_BDD):
            specs.append(EngineSpec(name, name))
        else:
            specs.append(EngineSpec(name, KIND_CSAT, name))
    return specs


@dataclass
class Attempt:
    """One worker attempt, for the portfolio report."""

    engine: str
    attempt: int
    outcome: str          # SAT/UNSAT/UNKNOWN or a failure kind
    seconds: float
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {"engine": self.engine, "attempt": self.attempt,
                "outcome": self.outcome,
                "seconds": round(self.seconds, 6), "detail": self.detail}


@dataclass
class PortfolioReport:
    """Everything a portfolio run produced, winner or not."""

    result: SolverResult
    winner: Optional[str] = None
    attempts: List[Attempt] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.winner is None

    def summary(self) -> str:
        verdict = self.result.status
        who = "winner={}".format(self.winner) if self.winner else "degraded"
        return "{} [{}] {} attempts, {} skipped, {:.3f}s".format(
            verdict, who, len(self.attempts), len(self.skipped),
            self.elapsed)

    def as_dict(self) -> Dict[str, Any]:
        return {"summary": self.summary(), "winner": self.winner,
                "attempts": [a.as_dict() for a in self.attempts],
                "skipped": list(self.skipped),
                "elapsed": round(self.elapsed, 6),
                "result": self.result.as_dict()}


def solve_portfolio(circuit: Circuit,
                    objectives: Optional[Sequence[int]] = None,
                    budget: Optional[float] = None,
                    workers: int = 1,
                    mem_limit_mb: Optional[int] = None,
                    grace_seconds: float = 1.0,
                    ladder: Optional[Sequence[EngineSpec]] = None,
                    max_retries: int = 1,
                    certify: str = CERTIFY_SAT,
                    faults: Optional[FaultPlan] = None,
                    tracer=None) -> PortfolioReport:
    """Solve one circuit with a fault-tolerant engine portfolio.

    ``workers`` > 1 races that many configs concurrently; 1 walks the
    ladder sequentially.  The shared ``budget`` (None = unlimited) is a
    hard wall: the run finishes within ``budget + grace_seconds`` even if
    every worker hangs.  Never raises for worker misbehaviour.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if certify not in CERTIFY_LEVELS:
        raise ValueError("certify must be one of {}".format(CERTIFY_LEVELS))
    faults = faults or NO_FAULTS
    if budget is not None:
        Limits(max_seconds=budget).validate()
    objectives = list(objectives) if objectives is not None else None
    specs = list(ladder) if ladder is not None else default_ladder(circuit)
    start = time.perf_counter()
    deadline = start + budget if budget is not None else None

    queue = deque((spec, 0) for spec in specs)
    active: List[WorkerHandle] = []
    attempts: List[Attempt] = []
    failures: List[WorkerFailure] = []
    merged_stats = SolverStats()
    unknown_seen = False
    winner: Optional[str] = None
    win_result: Optional[SolverResult] = None
    spawn_index = 0

    if tracer is not None:
        tracer.emit("portfolio_start", configs=[s.name for s in specs],
                    workers=workers, budget=budget,
                    mem_limit_mb=mem_limit_mb)

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return deadline - time.perf_counter()

    def spawn_next() -> bool:
        nonlocal spawn_index
        left = remaining()
        if left is not None and left <= 0:
            return False
        spec, attempt = queue.popleft()
        if workers == 1 and left is not None:
            # Sequential mode: split what's left evenly over the pending
            # rungs so one config cannot starve the rest of the ladder.
            wall = max(0.05, left / (len(queue) + 1))
        else:
            wall = left  # racing: everyone gets the full remaining budget
        job = spec.job(circuit, objectives, attempt, mem_limit_mb,
                       certify == CERTIFY_FULL, faults.fault_for(spawn_index))
        handle = spawn_worker(job, wall_seconds=wall,
                              grace_seconds=grace_seconds,
                              index=spawn_index, tracer=tracer)
        handle.spec = spec
        handle.attempt = attempt
        active.append(handle)
        spawn_index += 1
        return True

    try:
        while win_result is None and (queue or active):
            while queue and len(active) < workers:
                if not spawn_next():
                    break
            if not active:
                break  # budget exhausted before anything else could start
            # Wait for the first of: a worker message/EOF, or a deadline.
            now = time.perf_counter()
            timeout = 0.25
            for handle in active:
                if handle.deadline is not None:
                    timeout = min(timeout, handle.deadline - now)
            import multiprocessing.connection as mpc
            mpc.wait([h.conn for h in active], timeout=max(0.0, timeout))

            still_active: List[WorkerHandle] = []
            for handle in active:
                done = handle.expired() or not handle.proc.is_alive()
                if not done:
                    try:
                        done = handle.conn.poll(0)
                    except (OSError, ValueError):
                        done = True
                if not done:
                    still_active.append(handle)
                    continue
                outcome = handle.reap(certify=certify, tracer=tracer)
                if outcome.ok:
                    attempts.append(Attempt(outcome.engine, handle.attempt,
                                            outcome.result.status,
                                            outcome.seconds))
                    if outcome.decisive:
                        winner = outcome.engine
                        win_result = outcome.result
                    else:
                        unknown_seen = True
                        merged_stats.merge(outcome.result.stats)
                else:
                    failure = outcome.failure
                    failures.append(failure)
                    attempts.append(Attempt(failure.engine, handle.attempt,
                                            failure.kind, outcome.seconds,
                                            detail=failure.detail))
                    left = remaining()
                    if (failure.kind in RETRYABLE
                            and handle.attempt < max_retries
                            and (left is None or left > 0)):
                        if tracer is not None:
                            tracer.emit("worker_retry",
                                        engine=failure.engine,
                                        attempt=handle.attempt + 1,
                                        after=failure.kind)
                        registry = default_registry()
                        if registry is not None:
                            registry.counter(
                                "repro_worker_retries_total",
                                "Worker attempts requeued after a "
                                "retryable failure",
                                labelnames=("after",),
                            ).labels(after=failure.kind).inc()
                        queue.appendleft((handle.spec, handle.attempt + 1))
            active = still_active
            if win_result is not None:
                for handle in active:
                    handle.kill(tracer=tracer, reason="raced-out")
                    handle.reap(certify="off")
                active = []
    finally:
        # Never leak workers — not on a win, not on Ctrl-C in the parent.
        for handle in active:
            handle.kill(tracer=tracer, reason="shutdown")
            handle.reap(certify="off")

    skipped = [spec.name for spec, _ in queue]
    elapsed = time.perf_counter() - start
    failure_dicts = [f.as_dict() for f in failures]

    if win_result is not None:
        result = win_result
        result.engine = winner
        result.failures = failure_dicts
        result.time_seconds = elapsed
    else:
        # Graceful degradation: the best UNKNOWN we can assemble — merged
        # partial stats from cooperative workers plus full provenance.
        result = SolverResult(status=UNKNOWN, stats=merged_stats,
                              time_seconds=elapsed,
                              failures=failure_dicts)
        if tracer is not None:
            tracer.emit("degrade", failures=len(failures),
                        cooperative_unknowns=unknown_seen,
                        skipped=skipped)
    if tracer is not None:
        tracer.emit("portfolio_end", status=result.status, winner=winner,
                    attempts=len(attempts), seconds=round(elapsed, 6))
    return PortfolioReport(result=result, winner=winner, attempts=attempts,
                           skipped=skipped, elapsed=elapsed)
