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
  unit clauses), translated back to circuit literals.

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
        return _collect_kernel_lemmas(engine.solver, limit)
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


def _collect_kernel_lemmas(solver, limit: int) -> List[List[int]]:
    """Kernel flavour: root trail units + the recorded learned binaries."""
    lemmas: List[List[int]] = []
    level = solver.level
    for idx in range(solver.trail_len):
        lit = solver.trail[idx]
        node = lit >> 1
        if level[node] != 0:
            break  # trail is level-ordered; root prefix ends here
        if node != 0:
            lemmas.append([lit])
            if len(lemmas) >= limit:
                return lemmas
    for a, b in solver.learnt_binaries:
        lemmas.append([a, b])
        if len(lemmas) >= limit:
            break
    return lemmas


def collect_cnf_lemmas(solver, num_nodes: int,
                       limit: int = MAX_SHARED_LEMMAS) -> List[List[int]]:
    """Same as :func:`collect_csat_lemmas` for the CNF baseline.

    Tseitin variable ``node + 1`` encodes circuit node ``node``; variables
    beyond ``num_nodes`` (if an encoding ever adds helpers) and the
    constant node are not exported.

    Works for both CNF backends — the legacy :class:`CnfSolver` and the
    flat kernel's ``FlatCnfSolver`` (whose internal variable ``v``
    encodes Tseitin variable ``v + 1``, i.e. circuit node ``v``, so an
    internal kernel literal *is* the circuit literal).
    """
    if hasattr(solver, "solver"):  # repro.kernel.cnf.FlatCnfSolver
        return _collect_flat_cnf_lemmas(solver.solver, num_nodes, limit)

    def to_circuit(lit: int) -> Optional[int]:
        var = lit >> 1
        node = var - 1
        if node < 1 or node >= num_nodes:
            return None
        return 2 * node + (lit & 1)

    lemmas: List[List[int]] = []
    for lit in solver.trail:
        if solver.level[lit >> 1] != 0:
            continue
        mapped = to_circuit(lit)
        if mapped is not None:
            lemmas.append([mapped])
            if len(lemmas) >= limit:
                return lemmas
    for ci in solver.learnt_idx:
        clause = solver.clauses[ci]
        if clause is None or len(clause) != 2:
            continue
        mapped_clause = [to_circuit(l) for l in clause]
        if None in mapped_clause:
            continue
        lemmas.append(mapped_clause)
        if len(lemmas) >= limit:
            break
    return lemmas


def _collect_flat_cnf_lemmas(solver, num_nodes: int,
                             limit: int) -> List[List[int]]:
    """Kernel-CNF flavour of :func:`collect_cnf_lemmas`."""

    def to_circuit(lit: int) -> Optional[int]:
        node = lit >> 1
        if node < 1 or node >= num_nodes:
            return None
        return lit

    lemmas: List[List[int]] = []
    level = solver.level
    for idx in range(solver.trail_len):
        lit = solver.trail[idx]
        if level[lit >> 1] != 0:
            break  # trail is level-ordered; root prefix ends here
        mapped = to_circuit(lit)
        if mapped is not None:
            lemmas.append([mapped])
            if len(lemmas) >= limit:
                return lemmas
    for a, b in solver.learnt_binaries:
        mapped_clause = [to_circuit(a), to_circuit(b)]
        if None in mapped_clause:
            continue
        lemmas.append(mapped_clause)
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
