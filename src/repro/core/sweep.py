"""SAT sweeping: merge proven-equivalent internal signals.

A natural application of the paper's machinery (and the classical
equivalence-checking "check-point matching" it contrasts itself against in
Section V): random simulation proposes equivalent / anti-equivalent signal
pairs and likely constants, the flat kernel
(:class:`~repro.kernel.circuit.KernelEngine`) proves or refutes each
candidate, and proven candidates are merged into a smaller, functionally
identical circuit.

Compared to the paper's explicit learning this *completes* every
sub-problem (no 10-learned-gate abort) because here the lemma itself — the
equivalence — is the product, not a learning warm-up.  Refuting
counterexamples are fed back into the simulation signatures so one bad
candidate does not poison its whole class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit, lit_not
from ..result import Limits, SAT, UNSAT
from ..sim.correlation import CorrelationSet, find_correlations


@dataclass
class SweepResult:
    """Outcome of :func:`sat_sweep`."""

    circuit: Circuit                 # the reduced circuit
    merged_pairs: int = 0            # internal equivalences merged
    merged_constants: int = 0        # signals proven constant
    refuted: int = 0                 # candidates disproved by the solver
    undecided: int = 0               # candidates abandoned on budget
    gates_before: int = 0
    gates_after: int = 0
    seconds: float = 0.0
    substitutions: Dict[int, int] = field(default_factory=dict)
    # node -> literal (over original node ids) it was merged into
    #: Candidates the solver *disproved*, verbatim: constants as
    #: ``(node, value)``, pairs as ``(n1, n2, anti)``.  The incremental
    #: store uses these to evict exactly the replayed facts that failed
    #: re-proof (a refuted store fact means corruption or collision).
    refuted_constants: List[Tuple[int, int]] = field(default_factory=list)
    refuted_pairs: List[Tuple[int, int, bool]] = field(default_factory=list)
    #: Original node id -> literal in the *reduced* circuit (index i maps
    #: node i), so knowledge about original signals can follow the sweep.
    node_map: List[int] = field(default_factory=list)
    #: Root units + binary learned clauses harvested from the sweep
    #: engine when ``export_lemmas`` was requested.  The engine solved
    #: the *bare* circuit under assumptions only — no objectives — so
    #: unlike cube lemmas these are valid for the circuit itself and are
    #: safe to persist and replay against any query (they still get
    #: re-proved on injection; see :mod:`repro.inc.store`).
    lemmas: List[List[int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the reduced circuit ships separately)."""
        return {
            "merged_pairs": self.merged_pairs,
            "merged_constants": self.merged_constants,
            "refuted": self.refuted,
            "undecided": self.undecided,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "seconds": round(self.seconds, 6),
            "substitutions": len(self.substitutions),
            "lemmas": len(self.lemmas),
        }


def _prove_equal(engine, rep_lit: int, node: int,
                 limits: Limits) -> Optional[bool]:
    """Is ``node`` functionally equal to literal ``rep_lit``?

    Returns True/False when decided, None when a probe hit its budget.
    Both value combinations that would distinguish them are refuted:
    (rep=1, node=0) and (rep=0, node=1).
    """
    first = engine.solve(assumptions=[rep_lit, 2 * node + 1], limits=limits)
    if first.status == SAT:
        return False
    if first.status != UNSAT:
        return None
    second = engine.solve(assumptions=[lit_not(rep_lit), 2 * node],
                          limits=limits)
    if second.status == SAT:
        return False
    if second.status != UNSAT:
        return None
    return True


def sat_sweep(circuit: Circuit,
              correlations: Optional[CorrelationSet] = None,
              per_candidate_conflicts: int = 2000,
              seed: int = 1,
              export_lemmas: bool = False,
              seed_lemmas: Optional[List[List[int]]] = None,
              certify: Optional[Callable[[List[int]], Optional[bool]]]
              = None) -> SweepResult:
    """Prove candidate equivalences and return a reduced circuit.

    ``correlations`` defaults to a fresh random-simulation pass.  Every
    proof obligation is budgeted at ``per_candidate_conflicts`` conflicts;
    undecided candidates are left unmerged (the result is always sound).
    The returned circuit has the same inputs (order and names preserved)
    and the same outputs.

    Pair candidates are proved before constant candidates (the paper's
    Table VI ordering result): once the mid-level pairs are merged and
    taught to the engine as equivalence clauses, a deep constant like a
    miter output reduces by propagation instead of by a fresh CDCL
    proof.  Proving the deep constants first is the paper's "reverse
    order" — on c6288.equiv it leaves candidates undecided at budgets
    where pairs-first merges every one.

    ``seed_lemmas`` are clauses injected into the proof engine before
    any candidate is attempted.  **They must be known valid for the bare
    circuit** (the incremental replay layer re-proves each stored lemma
    on this very circuit first); an invalid seed would make the "proofs"
    unsound.  With the right seeds, candidate proofs that replay prior
    work reduce to propagation.

    ``certify`` is an optional *exact* clause-validity oracle (e.g.
    :class:`repro.inc.certify.ConeCertifier`): given a clause, it
    returns True (holds for every input — a proof, typically by
    exhausting a small cone), False (a concrete refutation exists), or
    None (cannot decide cheaply).  Candidates it decides skip their SAT
    probes; certified merges are still taught to the engine so later
    probes benefit.
    """
    start = time.perf_counter()
    if correlations is None:
        correlations = find_correlations(circuit, seed=seed)
    # Imported here, as CircuitSolver does, so ``import repro`` does not
    # load the kernel.
    from ..kernel.circuit import KernelEngine
    engine = KernelEngine(circuit)
    for clause in seed_lemmas or ():
        engine.add_learned_clause(list(clause))
    limits = Limits(max_conflicts=per_candidate_conflicts)

    # subst[node] = literal (over original ids) this node is replaced by.
    subst: Dict[int, int] = {}
    result = SweepResult(circuit=circuit, gates_before=circuit.num_ands)

    def resolve(lit: int) -> int:
        """Follow substitutions to a representative literal."""
        node = lit >> 1
        seen = set()
        while node in subst and node not in seen:
            seen.add(node)
            target = subst[node]
            lit = target ^ (lit & 1)
            node = lit >> 1
        return lit

    def decide_constant(node: int, likely: int) -> Optional[bool]:
        # A node is constant ``likely`` iff the unit clause asserting
        # the *complement* of the observed polarity never fires — i.e.
        # the literal of value ``likely`` is valid.
        if certify is not None:
            verdict = certify([2 * node + (1 - likely)])
            if verdict is not None:
                return verdict
        probe = engine.solve(assumptions=[2 * node + likely],
                             limits=limits)
        if probe.status == UNSAT:
            return True
        if probe.status == SAT:
            return False
        return None

    def prove_constants() -> None:
        for node, likely in correlations.constant_correlations():
            verdict = decide_constant(node, likely)
            if verdict is True:
                subst[node] = likely  # literal 0 = FALSE, 1 = TRUE
                engine.add_learned_clause([2 * node + (1 - likely)])
                result.merged_constants += 1
            elif verdict is False:
                result.refuted += 1
                result.refuted_constants.append((node, likely))
            else:
                result.undecided += 1

    def prove_pairs() -> None:
        # Pairs in topological order (the paper's ordering result
        # applies: shallow cones first make deeper proofs cheap).
        for n1, n2, anti in correlations.pair_correlations():
            lo, hi = (n1, n2) if n1 < n2 else (n2, n1)
            if hi in subst:
                continue
            rep = resolve(2 * lo) ^ (1 if anti else 0)
            if (rep >> 1) == hi:
                continue
            verdict = None
            if certify is not None:
                # rep == hi iff both implications are valid clauses.
                fwd = certify([lit_not(rep), 2 * hi])
                if fwd is False:
                    verdict = False
                elif fwd is True:
                    back = certify([rep, 2 * hi + 1])
                    if back is not None:
                        verdict = back
            if verdict is None:
                verdict = _prove_equal(engine, rep, hi, limits)
            if verdict is True:
                subst[hi] = rep
                # Teach the engine the equivalence for later proofs.
                engine.add_learned_clause([lit_not(rep), 2 * hi])
                engine.add_learned_clause([rep, 2 * hi + 1])
                result.merged_pairs += 1
            elif verdict is False:
                result.refuted += 1
                result.refuted_pairs.append((n1, n2, anti))
            else:
                result.undecided += 1

    prove_pairs()
    prove_constants()

    # Rebuild the reduced circuit.
    out = Circuit(circuit.name + ".swept", strash=True)
    node_map: List[int] = [0] * circuit.num_nodes
    for pi in circuit.inputs:
        node_map[pi] = out.add_input(circuit.name_of(pi))

    def mapped(lit: int) -> int:
        lit = resolve(lit)
        return node_map[lit >> 1] ^ (lit & 1)

    for n in circuit.and_nodes():
        if n in subst:
            continue  # materialized via its representative
        f0, f1 = circuit.fanins(n)
        node_map[n] = out.add_and(mapped(f0), mapped(f1))
    # Substituted nodes resolve through their representatives on demand.
    for n in sorted(subst):
        node_map[n] = mapped(2 * n)
    for lit, name in zip(circuit.outputs, circuit.output_names):
        out.add_output(mapped(lit), name)

    result.circuit = out
    result.gates_after = out.num_ands
    result.substitutions = dict(subst)
    result.node_map = node_map
    if export_lemmas:
        # The engine proved everything on the bare circuit (assumptions
        # only): its root units and learned binaries are circuit facts.
        from ..cube.sharing import collect_csat_lemmas
        result.lemmas = collect_csat_lemmas(engine)
    result.seconds = time.perf_counter() - start
    return result
