"""SAT sweeping: merge proven-equivalent internal signals.

A natural application of the paper's machinery (and the classical
equivalence-checking "check-point matching" it contrasts itself against in
Section V): random simulation proposes equivalent / anti-equivalent signal
pairs and likely constants, the flat kernel
(:class:`~repro.kernel.circuit.KernelEngine`) proves or refutes each
candidate, and proven candidates are merged into a smaller, functionally
identical circuit.

The candidates are the paper's explicit-learning sub-problems, walked by
the same loop (:func:`repro.csat.explicit.prove_subproblems`) in the same
topological order.  Where explicit learning abandons a sub-problem after
10 learned gates, a sweep gives each one a conflict budget, because here
the lemma itself — the equivalence — is the product, not a learning
warm-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..circuit.netlist import Circuit
from ..csat.explicit import (SubProblem, build_subproblems,
                             order_subproblems, prove_subproblems)
from ..csat.options import SolverOptions
from ..result import Limits
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


def apply_substitutions(circuit: Circuit, subst: Dict[int, int]
                        ) -> Tuple[Circuit, List[int]]:
    """Rebuild ``circuit`` with each node of ``subst`` replaced by its
    literal; return ``(rebuilt, node_map)``.

    Substitutions may chain (a node replaced by a node that is itself
    replaced); the rebuild follows them.  The result is strashed, keeps
    the inputs (order and names) and the outputs, and ``node_map[i]`` is
    node i's literal in it.
    """
    out = Circuit(circuit.name + ".swept", strash=True)
    node_map: List[int] = [0] * circuit.num_nodes

    def mapped(lit: int) -> int:
        node = lit >> 1
        seen = set()
        while node in subst and node not in seen:
            seen.add(node)
            lit = subst[node] ^ (lit & 1)
            node = lit >> 1
        return node_map[node] ^ (lit & 1)

    for pi in circuit.inputs:
        node_map[pi] = out.add_input(circuit.name_of(pi))
    for n in circuit.and_nodes():
        if n in subst:
            continue  # materialized via its representative
        f0, f1 = circuit.fanins(n)
        node_map[n] = out.add_and(mapped(f0), mapped(f1))
    for n in sorted(subst):
        node_map[n] = mapped(2 * n)
    for lit, name in zip(circuit.outputs, circuit.output_names):
        out.add_output(mapped(lit), name)
    return out, node_map


def _pair(sub: SubProblem) -> Tuple[int, int, bool]:
    """``(lo, hi, anti)`` of a pair sub-problem."""
    a, b = sub.assumptions
    return min(a, b) >> 1, sub.key, not (a ^ b) & 1


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
    candidate becomes the explicit-learning sub-problems that would
    refute it — both polarities of a pair, the opposite value of a
    constant — and every sub-problem is budgeted at
    ``per_candidate_conflicts`` conflicts.  A pair merges (its later
    signal into its earlier one) when both of its sub-problems are
    refuted, a constant when its one sub-problem is; every other
    candidate is counted as refuted or undecided and left unmerged (the
    result is always sound).  The returned circuit has the same inputs
    (order and names preserved) and the same outputs.

    Sub-problems run in the paper's topological order, with pairs and
    constants interleaved by their signals' position (the Table VI
    ordering result): each refutation is taught to the engine, so by the
    time a deep constant like a miter output comes up, the merged pairs
    below it reduce its proof to propagation.  Proving the deep
    constants first is the paper's "reverse order" — on c6288.equiv it
    leaves candidates undecided at budgets where the topological order
    merges every one.

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
    None (cannot decide cheaply).  Sub-problems it decides skip their
    SAT probes; certified clauses are still taught to the engine so
    later probes benefit.
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
    options = SolverOptions()
    subs = order_subproblems(build_subproblems(correlations, options),
                             options, circuit.num_nodes)

    # subst[node] = literal (over original ids) this node is replaced by.
    subst: Dict[int, int] = {}
    half_proved: Set[Tuple[int, int, bool]] = set()
    result = SweepResult(circuit=circuit, gates_before=circuit.num_ands)

    def wanted(sub: SubProblem) -> bool:
        # A pair's second polarity runs only once its first is refuted.
        if sub.key in subst:
            return False
        return (sub.kind == "const" or not sub.assumptions[0] & 1
                or _pair(sub) in half_proved)

    walk = prove_subproblems(
        engine, (sub for sub in subs if wanted(sub)),
        limits=Limits(max_conflicts=per_candidate_conflicts),
        certify=certify)
    for sub, verdict in walk:
        if sub.kind == "const":
            likely = sub.assumptions[0] & 1   # asserted: 1 - likely
            if verdict:
                subst[sub.key] = likely   # literal 0 = FALSE, 1 = TRUE
                result.merged_constants += 1
            elif verdict is False:
                result.refuted_constants.append((sub.key, likely))
        else:
            lo, hi, anti = pair = _pair(sub)
            if verdict and not sub.assumptions[0] & 1:
                half_proved.add(pair)
                continue
            if verdict:
                subst[hi] = 2 * lo + anti
                result.merged_pairs += 1
            elif verdict is False:
                result.refuted_pairs.append(pair)
        if verdict is False:
            result.refuted += 1
        elif verdict is None:
            result.undecided += 1

    result.circuit, result.node_map = apply_substitutions(circuit, subst)
    result.gates_after = result.circuit.num_ands
    result.substitutions = subst
    if export_lemmas:
        # The engine proved everything on the bare circuit (assumptions
        # only): its root units and learned binaries are circuit facts.
        from ..cube.sharing import collect_csat_lemmas
        result.lemmas = collect_csat_lemmas(engine)
    result.seconds = time.perf_counter() - start
    return result
