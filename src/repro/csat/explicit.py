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
paper's central claim; reverse/random orderings are the Table VI ablation),
each aborted after accumulating ``explicit_learn_limit`` learned gates
(paper: 10).  Whenever a sub-problem is refuted outright, the negated
assumption clause — e.g. ``(¬s_i ∨ s_j)``, one half of an equivalence — is
recorded as a learned gate.  Everything learned persists into the main
solve.  Each sub-problem stays confined to the cones of its correlated
signals: J-node decisions do it on the legacy engine, and the flat kernel
restricts free decisions to the signals' fan-in cone.

The phase runs on any engine with ``options``, ``stats``, ``tracer``,
``ok``, ``num_nodes``, ``solve_subproblem(assumptions, limits, max_learned)``
and ``add_learned_clause(lits)``:
:class:`~repro.csat.engine.CSatEngine` and
:class:`~repro.kernel.circuit.KernelEngine`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from ..result import Limits, UNSAT
from ..sim.correlation import CorrelationSet
from .options import (ORDER_RANDOM, ORDER_REVERSE, ORDER_TOPOLOGICAL,
                      SolverOptions)


@dataclass
class SubProblem:
    """One pre-selected, likely-unsatisfiable value assignment."""

    assumptions: List[int]  # circuit literals asserted true
    key: int                # topological position (highest node involved)
    kind: str               # "pair" or "const"


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
    for sub in subs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if not engine.ok:
            break
        limits = Limits(max_seconds=(None if deadline is None
                                     else max(0.0, deadline - time.perf_counter())))
        result = engine.solve_subproblem(
            sub.assumptions, limits, max_learned=options.explicit_learn_limit)
        report.subproblems_run += 1
        engine.stats.subproblems_solved += 1
        engine.stats.subproblem_conflicts += result.stats.conflicts
        if engine.tracer is not None:
            engine.tracer.emit("subproblem", index=report.subproblems_run - 1,
                               sub=sub.kind, status=result.status,
                               assumptions=sub.assumptions,
                               conflicts=result.stats.conflicts,
                               learned=result.stats.learned_clauses)
        if result.status == UNSAT:
            report.subproblems_unsat += 1
            engine.stats.subproblems_unsat += 1
            # The refuted assumptions themselves are a sound lemma: at least
            # one of them must be false in every satisfying assignment.
            engine.add_learned_clause([a ^ 1 for a in sub.assumptions])
    report.learned_clauses = engine.stats.learned_clauses - learned_before
    report.seconds = time.perf_counter() - start
    return report
