"""Knowledge sharing between cube workers.

Two kinds of knowledge cross cube boundaries:

* **Correlations** — discovered once by the conquer driver's single
  random-simulation pass and seeded into every worker, so no worker
  re-simulates the circuit.  :class:`~repro.sim.correlation.CorrelationSet`
  is plain data and ships through the pickled
  :class:`~repro.runtime.worker.WorkerJob` as nested lists.

* **Lemmas** — unit and binary clauses proven while refuting finished
  cubes, injected into cubes that have not started yet.

Soundness contract: a shared lemma must be a consequence of
``circuit AND objectives`` — never of any cube's literals.  The exports
below guarantee that:

* csat workers export root-level (decision level 0) trail units and
  short *learned* clauses.  CDCL learned clauses are derived by
  resolution over gate/learned antecedents only (assumption decisions
  have no antecedent, so they can never be resolved on), making every
  learned clause — and every root-level consequence — valid for the
  circuit plus whatever was asserted at level 0, independent of the
  cube's assumption literals.
* cnf workers export the same from the Tseitin encoding, whose clause
  set is exactly ``circuit AND objectives`` (objectives are asserted as
  unit clauses); the flat kernel numbers its variables so that these
  are circuit literals already.

All cubes in one run share the same objectives, so injection preserves
both SAT models and UNSAT verdicts within the run.  The lemmas are *not*
valid for the bare circuit — which is why cube workers never collect
DRUP proofs (see :func:`repro.cube.conquer.solve_cubes`).
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from ..csat.engine import CSatEngine
from ..sim.correlation import CorrelationSet

#: Cap on lemmas carried per worker launch — keeps WorkerJob pickles and
#: injection time bounded on conflict-heavy runs.
MAX_SHARED_LEMMAS = 512


def literals_ok(literals, num_nodes: int) -> bool:
    """True when ``literals`` is a list of a ``num_nodes``-node circuit's
    literals: ints in ``[2, 2 * num_nodes)``.  The constant node is never
    a cube literal or part of a shared lemma.

    The rule a conquer node applies to the cubes and lemma batches it is
    sent, and a resumed checkpoint to its cubes and lemma pool; an
    out-of-range literal would crash every worker it reaches.
    """
    return isinstance(literals, list) and all(
        type(lit) is int and 2 <= lit < 2 * num_nodes for lit in literals)


def serialize_classes(correlations: Optional[CorrelationSet]) \
        -> Optional[List[List[Tuple[int, int]]]]:
    """CorrelationSet -> plain nested lists for the worker job pickle."""
    if correlations is None:
        return None
    return [[(int(node), int(phase)) for node, phase in cls]
            for cls in correlations.classes]


def deserialize_classes(classes) -> CorrelationSet:
    """Rebuild a CorrelationSet a worker can hand to CircuitSolver."""
    return CorrelationSet(classes=[[(node, phase) for node, phase in cls]
                                   for cls in classes])


class SharedKnowledge:
    """The conquer driver's accumulator: dedups lemmas across finishers.

    Safe to share between threads: ``lemmas`` only ever grows by
    appending, so readers may slice it while another thread absorbs.
    """

    def __init__(self, classes=None):
        self.classes = classes
        self.lemmas: List[List[int]] = []
        self._seen = set()
        self._lock = threading.Lock()

    def absorb(self, clauses: Optional[Iterable[Sequence[int]]]) -> int:
        """Merge a finished worker's exports; returns how many were new."""
        if not clauses:
            return 0
        added = 0
        with self._lock:
            for clause in clauses:
                key = frozenset(clause)
                if not key or key in self._seen:
                    continue
                self._seen.add(key)
                self.lemmas.append(list(clause))
                added += 1
        return added

    def snapshot(self, limit: int = MAX_SHARED_LEMMAS) -> List[List[int]]:
        """Lemmas to seed the next launch (most recent kept under the cap:
        later lemmas come from deeper refutations and subsume earlier
        search better than first-minute units)."""
        if len(self.lemmas) <= limit:
            return [list(c) for c in self.lemmas]
        return [list(c) for c in self.lemmas[-limit:]]


def collect_csat_lemmas(engine: CSatEngine,
                        limit: int = MAX_SHARED_LEMMAS) -> List[List[int]]:
    """Shareable knowledge from a finished circuit-engine solve.

    Root-level trail units first (highest value: they permanently shrink
    every other cube's search), then binary learned clauses.  The
    constant node is skipped — its value is structural, not learned.

    Works for both circuit engines — the legacy :class:`CSatEngine` and
    the flat kernel's ``KernelEngine`` (same node-literal space).
    """
    if hasattr(engine, "solver"):  # repro.kernel.circuit.KernelEngine
        return _collect_flat_lemmas(engine.solver, engine.num_nodes, limit)
    frame = engine.frame
    lemmas: List[List[int]] = []
    for lit in frame.trail:
        node = lit >> 1
        if node != 0 and frame.levels[node] == 0:
            lemmas.append([lit])
            if len(lemmas) >= limit:
                return lemmas
    for ci in engine.learnt_idx:
        clause = engine.clauses[ci]
        if clause is not None and len(clause) == 2:
            lemmas.append(list(clause))
            if len(lemmas) >= limit:
                break
    return lemmas


def collect_cnf_lemmas(solver, num_nodes: int,
                       limit: int = MAX_SHARED_LEMMAS) -> List[List[int]]:
    """Same as :func:`collect_csat_lemmas` for a ``cnf`` worker's
    :class:`~repro.kernel.cnf.FlatCnfSolver`.

    Its internal variable ``v`` encodes Tseitin variable ``v + 1``, which
    encodes circuit node ``v`` — so an internal kernel literal *is* the
    circuit literal.
    """
    return _collect_flat_lemmas(solver.solver, num_nodes, limit)


def _collect_flat_lemmas(solver, num_nodes: int,
                         limit: int) -> List[List[int]]:
    """Root trail units + recorded learned binaries of a flat-kernel
    :class:`~repro.kernel.flat.FlatSolver` over node literals.

    The constant node and variables at or past ``num_nodes`` (if an
    encoding ever adds helpers) are not exported.
    """
    lemmas: List[List[int]] = []
    level = solver.level
    for idx in range(solver.trail_len):
        lit = solver.trail[idx]
        node = lit >> 1
        if level[node] != 0:
            break  # trail is level-ordered; root prefix ends here
        if 0 < node < num_nodes:
            lemmas.append([lit])
            if len(lemmas) >= limit:
                return lemmas
    for a, b in solver.learnt_binaries:
        if 0 < a >> 1 < num_nodes and 0 < b >> 1 < num_nodes:
            lemmas.append([a, b])
            if len(lemmas) >= limit:
                break
    return lemmas


def inject_csat_lemmas(engine: CSatEngine,
                       clauses: Iterable[Sequence[int]]) -> int:
    """Attach shared lemmas to a fresh engine at decision level 0.

    Each clause is normalized against the engine's current root
    assignment (satisfied clauses skipped, root-false literals dropped)
    so the two watched literals are never both false — the invariant
    :meth:`CSatEngine.add_learned_clause` requires.  An empty remainder
    means the shared knowledge already refutes the objectives: the
    engine is marked UNSAT.  Returns the number of clauses attached.

    Accepts the legacy engine or the kernel's ``KernelEngine``; the
    kernel path adds the lemmas as root clauses (its ``add_clause`` does
    the same normalisation internally).
    """
    if hasattr(engine, "solver"):  # repro.kernel.circuit.KernelEngine
        solver = engine.solver
        if solver.trail_lim:
            raise ValueError("lemma injection requires decision level 0")
        added = 0
        for clause in clauses:
            if not solver.ok or not solver.add_clause(list(clause)):
                break
            added += 1
        return added
    if len(engine.frame.trail_lim) != 0:
        raise ValueError("lemma injection requires decision level 0")
    added = 0
    for clause in clauses:
        lits: List[int] = []
        satisfied = False
        for lit in clause:
            value = engine.lit_value(lit)
            if value == 1:
                satisfied = True
                break
            if value == 0:
                continue
            lits.append(lit)
        if satisfied:
            continue
        if not lits:
            engine.ok = False
            break
        engine.add_learned_clause(lits)
        if engine._propagate() is not None:
            # A unit closed the root level: objectives are UNSAT.
            engine.ok = False
            break
        added += 1
    return added
