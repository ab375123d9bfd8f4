"""Explicit learning: the incremental learn-from-conflict strategy (Section V).

From the discovered signal correlations a sequence of *likely unsatisfiable
sub-problems* is generated:

* a pair correlated as ``s_i = s_j`` yields the sub-problems
  ``{s_i = 1, s_j = 0}`` (and, optionally, the opposite polarity);
* a pair correlated as ``s_i != s_j`` yields ``{s_i = 1, s_j = 1}`` (and
  ``{s_i = 0, s_j = 0}``);
* a signal correlated with a constant yields the single assignment
  contradicting the likely value.

Sub-problems are solved one by one **in circuit topological order** (the
paper's central claim; reverse/random orderings are the Table VI ablation).
Whenever a sub-problem is refuted outright, the negated assumption clause —
e.g. ``(¬s_i ∨ s_j)``, one half of an equivalence — is recorded as a
learned gate, and everything learned persists into later sub-problems.
Each sub-problem stays confined to the cones of its correlated signals:
J-node decisions do it on the legacy engine, and the flat kernel restricts
free decisions to the signals' fan-in cone.

:func:`prove_subproblems` is that walk.  Its three callers differ in their
stop rule and in what they keep: :func:`run_explicit_learning` abandons
each sub-problem after ``explicit_learn_limit`` learned gates (paper: 10)
and keeps the lemmas for the main solve, :func:`repro.core.sweep.sat_sweep`
budgets conflicts and merges what it proves, and the incremental prepass
(:mod:`repro.inc.replay`) re-proves stored lemmas to seed a query.

The walk runs on any engine with ``stats``, ``tracer``, ``ok``,
``solve_subproblem(assumptions, limits, max_learned)`` and
``add_learned_clause(lits)``: :class:`~repro.csat.engine.CSatEngine` and
:class:`~repro.kernel.circuit.KernelEngine`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..result import Limits, SAT, UNSAT
from ..sim.correlation import CorrelationSet
from .options import (ORDER_RANDOM, ORDER_REVERSE, ORDER_TOPOLOGICAL,
                      SolverOptions)


@dataclass
class SubProblem:
    """One pre-selected, likely-unsatisfiable value assignment."""

    assumptions: List[int]  # circuit literals asserted true
    key: int                # topological position (highest node involved)
    kind: str               # "pair", "const" or "lemma"


@dataclass
class ExplicitReport:
    """What happened during the explicit-learning phase."""

    subproblems_total: int = 0
    subproblems_run: int = 0
    subproblems_unsat: int = 0
    learned_clauses: int = 0
    seconds: float = 0.0


def build_subproblems(correlations: CorrelationSet,
                      options: SolverOptions) -> List[SubProblem]:
    """Generate the sub-problem list from correlations (unordered)."""
    subs: List[SubProblem] = []
    if options.explicit_use_pairs:
        for ni, nj, anti in correlations.pair_correlations():
            key = max(ni, nj)
            if anti:
                # Likely different: forcing them equal should conflict.
                first = [2 * ni, 2 * nj]          # both 1
                second = [2 * ni + 1, 2 * nj + 1]  # both 0
            else:
                # Likely equal: forcing them different should conflict.
                first = [2 * ni, 2 * nj + 1]       # ni=1, nj=0
                second = [2 * ni + 1, 2 * nj]      # ni=0, nj=1
            subs.append(SubProblem(first, key, "pair"))
            if options.explicit_both_polarities:
                subs.append(SubProblem(second, key, "pair"))
    if options.explicit_use_consts:
        for node, likely in correlations.constant_correlations():
            # Assert the value contradicting the likely constant:
            # node := 1 - likely, i.e. literal 2*node + likely.
            subs.append(SubProblem([2 * node + likely], node, "const"))
    return subs


def order_subproblems(subs: List[SubProblem], options: SolverOptions,
                      num_nodes: int) -> List[SubProblem]:
    """Apply the partial-learning fraction, then the chosen ordering."""
    ordered = sorted(subs, key=lambda s: (s.key, s.assumptions[0]))
    if options.explicit_fraction < 1.0:
        # "Consider only the correlations involving the first p fraction of
        # the signals" by topological position (Tables VIII/IX): keep the
        # topologically first p fraction of the sub-problem sequence.
        keep = int(round(options.explicit_fraction * len(ordered)))
        ordered = ordered[:keep]
    if options.explicit_order == ORDER_TOPOLOGICAL:
        return ordered
    if options.explicit_order == ORDER_REVERSE:
        return ordered[::-1]
    if options.explicit_order == ORDER_RANDOM:
        rng = random.Random(options.explicit_order_seed)
        rng.shuffle(ordered)
        return ordered
    raise ValueError("unknown ordering {!r}".format(options.explicit_order))


def prove_subproblems(engine, subs: Iterable[SubProblem],
                      limits: Optional[Limits] = None,
                      max_learned: Optional[int] = None,
                      deadline: Optional[float] = None,
                      certify: Optional[Callable[[List[int]],
                                                 Optional[bool]]] = None
                      ) -> Iterator[Tuple[SubProblem, Optional[bool]]]:
    """Try to refute each sub-problem in turn; yield ``(sub, verdict)``.

    The verdict is True when the assumptions are refuted (their negation,
    then taught to the engine, holds in every satisfying assignment),
    False when they are satisfiable and None when the budget ran out.
    The exact oracle ``certify(clause) -> True | False | None`` is asked
    about the negated assumptions first.  A sub-problem it leaves open
    runs ``engine.solve_subproblem`` under ``limits``, ``max_learned`` and
    the time left before ``deadline`` (a ``time.perf_counter()`` value),
    counted in the engine's ``subproblems_*`` stats and ``subproblem``
    trace events.  The walk stops at the deadline or once the engine is
    refuted.

    ``subs`` is read one sub-problem per verdict, so a caller may filter
    it on the verdicts handed back so far.  ``engine`` may instead be a
    zero-argument function that builds it: it is called at the first
    sub-problem the oracle leaves open, and the clauses certified before
    are taught to what it returns.
    """
    built = None if callable(engine) else engine
    certified: List[List[int]] = []
    budget = limits or Limits()
    solved = 0
    for sub in subs:
        if deadline is not None and time.perf_counter() >= deadline:
            return
        if built is not None and not built.ok:
            return
        clause = [a ^ 1 for a in sub.assumptions]
        verdict = certify(clause) if certify is not None else None
        if verdict is None:
            if built is None:
                built = engine()
                for lits in certified:
                    built.add_learned_clause(lits)
            step = budget if deadline is None else replace(
                budget, max_seconds=max(0.0, deadline - time.perf_counter()))
            result = built.solve_subproblem(sub.assumptions, step,
                                            max_learned=max_learned)
            solved += 1
            built.stats.subproblems_solved += 1
            built.stats.subproblem_conflicts += result.stats.conflicts
            if built.tracer is not None:
                built.tracer.emit("subproblem", index=solved - 1,
                                  sub=sub.kind, status=result.status,
                                  assumptions=sub.assumptions,
                                  conflicts=result.stats.conflicts,
                                  learned=result.stats.learned_clauses)
            if result.status == UNSAT:
                built.stats.subproblems_unsat += 1
                verdict = True
            elif result.status == SAT:
                verdict = False
        if verdict:
            if built is None:
                certified.append(clause)
            else:
                built.add_learned_clause(clause)
        yield sub, verdict


def run_explicit_learning(engine,
                          correlations: CorrelationSet,
                          deadline: Optional[float] = None) -> ExplicitReport:
    """Solve the sub-problem sequence on ``engine``, accumulating learning.

    ``deadline`` is an absolute ``time.perf_counter()`` value after which no
    further sub-problems are started (learning so far is kept).
    """
    options = engine.options
    report = ExplicitReport()
    start = time.perf_counter()
    learned_before = engine.stats.learned_clauses
    subs = order_subproblems(build_subproblems(correlations, options),
                             options, engine.num_nodes)
    report.subproblems_total = len(subs)
    for _sub, verdict in prove_subproblems(
            engine, subs, max_learned=options.explicit_learn_limit,
            deadline=deadline):
        report.subproblems_run += 1
        if verdict:
            report.subproblems_unsat += 1
    report.learned_clauses = engine.stats.learned_clauses - learned_before
    report.seconds = time.perf_counter() - start
    return report
