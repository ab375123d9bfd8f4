"""Knowledge sharing between cube workers.

Two kinds of clause cross cube boundaries, both over circuit literals
(``2*node + sign``):

* **Phase lemmas** — the root units and learned binaries of the driver's
  one explicit-learning phase (:func:`repro.cube.conquer.solve_cubes`).
  They follow from the circuit alone and reach every worker once, uncut;
  an engine never exports a clause it was given, so they never enter
  the pool below.

* **Lemmas** — unit and binary clauses proven while refuting finished
  cubes, injected into cubes that have not started yet.

Soundness contract: a shared lemma must be a consequence of
``circuit AND objectives`` — never of any cube's literals.  Every cube
worker runs the flat kernel, which exports root-level (decision level
0) trail units and short *learned* clauses.  CDCL learned clauses are
derived by resolution over gate/learned antecedents only (assumption
decisions have no antecedent, so they can never be resolved on), making
every learned clause — and every root-level consequence — valid for the
circuit plus whatever was asserted at level 0, independent of the
cube's assumption literals.

All cubes in one run share the same objectives, so injection preserves
both SAT models and UNSAT verdicts within the run.  The lemmas are *not*
valid for the bare circuit — which is why cube workers never collect
DRUP proofs (see :func:`repro.cube.conquer.solve_cubes`).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, List, Optional, Sequence

from ..csat.engine import CSatEngine

#: Cap on pool lemmas carried per cube dispatch — keeps dispatches and
#: injection time bounded on conflict-heavy runs.  Phase lemmas are not
#: counted against it.
MAX_SHARED_LEMMAS = 512


def literals_ok(literals, num_nodes: int) -> bool:
    """True when ``literals`` is a list of a ``num_nodes``-node circuit's
    literals: ints in ``[2, 2 * num_nodes)``.  The constant node is never
    a cube literal or part of a shared lemma.

    The rule a serve node applies to the cubes and lemma batches it is
    sent, and a resumed checkpoint to its cubes and lemma pool; an
    out-of-range literal would crash every worker it reaches.
    """
    return isinstance(literals, list) and all(
        type(lit) is int and 2 <= lit < 2 * num_nodes for lit in literals)


def lemmas_ok(batch, num_nodes: int) -> bool:
    """True when ``batch`` is absent or a list of non-empty clauses of a
    ``num_nodes``-node circuit's literals (:func:`literals_ok`)."""
    return batch is None or isinstance(batch, list) and all(
        clause and literals_ok(clause, num_nodes) for clause in batch)


def objectives_ok(objectives, num_nodes: int) -> bool:
    """True when ``objectives`` is absent or a non-empty list of literals
    in ``[0, 2 * num_nodes)``: unlike a cube literal, an output may be a
    constant."""
    return objectives is None or isinstance(objectives, list) \
        and bool(objectives) and all(
            type(lit) is int and 0 <= lit < 2 * num_nodes
            for lit in objectives)


def registration_key(circuit, objectives: Sequence[int]) -> str:
    """The key a serve node files a conquest's registration under, and
    the coordinator checks its reply against: the circuit's exact hash
    (node numbering included, so cube literals mean the same nodes on
    both sides) and the objectives.  Cube answers and shared lemmas hold
    only for circuit AND objectives, so two conquests of one circuit
    under other objectives never share a job."""
    from ..durable.checkpoint import exact_hash
    h = hashlib.blake2b(digest_size=16)
    h.update(exact_hash(circuit).encode())
    h.update("|{}".format(",".join(map(str, objectives))).encode())
    return h.hexdigest()


class SharedKnowledge:
    """A conquest's one lemma pool: dedups lemmas across finishers.

    Safe to share between threads: ``lemmas`` only ever grows by
    appending, so readers may slice it while another thread absorbs.
    """

    def __init__(self):
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


def collect_csat_lemmas(engine, limit: Optional[int] = MAX_SHARED_LEMMAS
                        ) -> List[List[int]]:
    """Shareable knowledge from a flat-kernel ``KernelEngine``.

    Root-level trail units first (highest value: they permanently shrink
    every other cube's search), then recorded binary learned clauses, at
    most ``limit`` of them (None: all).  The constant node is skipped —
    its value is structural, not learned.
    """
    solver = engine.solver
    num_nodes = engine.num_nodes
    lemmas: List[List[int]] = []
    level = solver.level
    for idx in range(solver.trail_len):
        lit = solver.trail[idx]
        node = lit >> 1
        if level[node] != 0:
            break  # trail is level-ordered; root prefix ends here
        if 0 < node < num_nodes:
            lemmas.append([lit])
            if len(lemmas) == limit:
                return lemmas
    for a, b in solver.learnt_binaries:
        if 0 < a >> 1 < num_nodes and 0 < b >> 1 < num_nodes:
            lemmas.append([a, b])
            if len(lemmas) == limit:
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
