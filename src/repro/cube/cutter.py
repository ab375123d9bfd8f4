"""Lookahead cube generation — the "cube" half of cube-and-conquer.

The cutter grows a binary tree of *decision literals* over the circuit.
Each leaf is a cube: a conjunction of literals that, together with its
siblings, partitions the assignment space (every full assignment
consistent with the objectives satisfies exactly one leaf).  Leaves whose
propagation closes immediately are recorded as *refuted* — they are
already-proven-UNSAT parts of the partition and need no conquest.

Splitting-variable selection blends the structural signals this solver
already computes (the paper's Section III machinery):

* **J-frontier membership** — the node currently feeds an unjustified
  gate, so branching on it forces justification work on both sides;
* **correlation-class membership** — simulation says the node moves in
  lockstep with other signals, so assigning it fans out through the
  implicit-learning partner chains;
* **fanout** — classic dynamic-degree proxy for structural influence;
* **measured BCP propagation power** — a real lookahead: both polarities
  are propagated on the flat kernel's :class:`~repro.kernel.flat.FlatSolver`
  and scored by the product of the implied-assignment counts (march-style
  ``prop(x) * prop(!x)``, preferring balanced, deep splits).

The lookahead runs on a :class:`~repro.kernel.circuit.KernelEngine`: the
conquer driver hands in the engine its explicit-learning phase prepared,
so every clause the phase proved propagates during the cut too — leaves
it refutes close for free, and an objective it proved false makes the
cut trivially UNSAT.  The cutter only pushes a literal, propagates,
counts and backtracks; it never searches, so it leaves the engine at
decision level 0 with its clause database unchanged.

Everything is deterministic: candidate order, tie-breaks and the
lookahead engine itself have no randomness, so a fixed circuit +
objectives + options (and engine) always yields the identical cube tree.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..errors import SolverError
from ..result import SAT, UNSAT
from ..sim.correlation import CorrelationSet


@dataclass(frozen=True)
class Cube:
    """One leaf of the cube tree.

    ``literals`` are the *decision* literals only (circuit encoding,
    ``2*node + sign``), in root-to-leaf order — the implied assignments
    under them are recomputed by whichever engine conquers the cube.
    """

    index: int
    literals: Tuple[int, ...]
    depth: int
    #: Closed by the cutter itself: propagation of the cube (under the
    #: objectives) conflicts, so the cube is UNSAT without any search.
    refuted: bool = False
    #: Trail size after propagating the cube — how much of the circuit the
    #: cube already determines (a difficulty hint for scheduling).
    implied: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"index": self.index, "literals": list(self.literals),
                "depth": self.depth, "refuted": self.refuted,
                "implied": self.implied}


@dataclass
class CutterOptions:
    """Knobs for cube generation.

    ``max_cubes`` bounds the number of *open* leaves; ``None`` means
    scale with the conquering worker count: ``cubes_per_worker * workers
    * bit_length(workers)``.  The extra ``bit_length`` factor
    oversubscribes *more aggressively* at higher worker counts — both
    straggler cost (one long cube idling the other workers) and the
    superlinear CDCL payoff of a finer partition grow with parallelism,
    so cubes-per-worker should too.  One worker keeps a coarse
    ``cubes_per_worker``-leaf tree; four workers get
    ``cubes_per_worker * 12`` leaves.
    """

    max_cubes: Optional[int] = None
    cubes_per_worker: int = 8
    max_depth: int = 12
    #: How many statically-ranked candidates receive a BCP lookahead.
    candidates: int = 12
    w_jfrontier: float = 3.0
    w_correlation: float = 2.0
    w_fanout: float = 1.0
    w_propagation: float = 1.0

    def validate(self) -> "CutterOptions":
        if self.max_cubes is not None and self.max_cubes < 1:
            raise SolverError("max_cubes must be >= 1 or None")
        if self.cubes_per_worker < 1:
            raise SolverError("cubes_per_worker must be >= 1")
        if self.max_depth < 0:
            raise SolverError("max_depth must be >= 0")
        if self.candidates < 1:
            raise SolverError("candidates must be >= 1")
        return self

    def resolved_max_cubes(self, workers: int) -> int:
        if self.max_cubes is not None:
            return self.max_cubes
        w = max(workers, 1)
        return self.cubes_per_worker * w * w.bit_length()


@dataclass
class CubeSet:
    """Output of :func:`generate_cubes`.

    ``cubes`` are the open leaves (to be conquered); ``refuted`` the
    leaves the cutter closed by propagation alone.  Together they are the
    full partition.  ``trivial`` short-circuits conquest: "UNSAT" when
    the objectives conflict before any split, "SAT" when propagation
    alone completed an assignment (``model`` then holds it).
    """

    cubes: List[Cube] = field(default_factory=list)
    refuted: List[Cube] = field(default_factory=list)
    trivial: Optional[str] = None
    model: Optional[Dict[int, bool]] = None
    seconds: float = 0.0
    lookaheads: int = 0

    @property
    def all_leaves(self) -> List[Cube]:
        return self.cubes + self.refuted

    def as_dict(self) -> Dict[str, object]:
        return {"cubes": [c.as_dict() for c in self.cubes],
                "refuted": [c.as_dict() for c in self.refuted],
                "trivial": self.trivial,
                "seconds": self.seconds,
                "lookaheads": self.lookaheads}


class _Cutter:
    """Stateful helper: one lookahead engine, reused across all leaves."""

    def __init__(self, engine, objectives: Sequence[int],
                 options: CutterOptions,
                 correlations: Optional[CorrelationSet]):
        circuit = engine.circuit
        self.options = options
        self.solver = engine.solver
        self.num_nodes = engine.num_nodes
        self.fanouts = circuit.fanouts()
        self.fanins = [circuit.fanins(n) if circuit.is_and(n) else None
                       for n in range(self.num_nodes)]
        self.objectives = list(objectives)
        self.lookaheads = 0
        # Nodes appearing in any (non-constant slot of a) correlation class.
        self.corr_nodes = set()
        if correlations is not None:
            for cls in correlations.classes:
                for node, _phase in cls:
                    if node != 0:
                        self.corr_nodes.add(node)
        self.base_levels = 0  # decision levels holding the objectives

    # -- assignment plumbing ------------------------------------------

    def _enter(self, literals: Sequence[int]) -> bool:
        """Re-establish objectives + cube state; False on conflict."""
        solver = self.solver
        solver._cancel_until(0)
        for lit in self.objectives:
            if not solver.assume(lit):
                return False
        self.base_levels = len(solver.trail_lim)
        for lit in literals:
            if not solver.assume(lit):
                return False
        return True

    def _is_jinput(self, node: int) -> bool:
        """Is ``node`` an input of a justification-frontier gate: an AND
        assigned 0 whose two fanins are both unassigned?"""
        val = self.solver.val
        for gate in self.fanouts[node]:
            if val[2 * gate] != 0:
                continue
            f0, f1 = self.fanins[gate]
            if (f0 >> 1) == (f1 >> 1):
                continue  # degenerate gate: never a two-pin frontier
            other = f1 if (f0 >> 1) == node else f0
            if val[other] < 0:
                return True
        return False

    # -- splitting-variable selection ---------------------------------

    def _static_candidates(self) -> List[int]:
        """Top-K unassigned nodes by the static part of the blend."""
        opts = self.options
        val = self.solver.val
        fanouts = self.fanouts
        scored: List[Tuple[float, int]] = []
        for node in range(1, self.num_nodes):
            if val[2 * node] >= 0:
                continue
            score = opts.w_fanout * len(fanouts[node])
            if opts.w_jfrontier and self._is_jinput(node):
                score += opts.w_jfrontier * 10.0
            if node in self.corr_nodes:
                score += opts.w_correlation * 10.0
            scored.append((score, node))
        # Deterministic: score descending, node id ascending on ties.
        scored.sort(key=lambda sn: (-sn[0], sn[1]))
        return [node for _score, node in scored[:opts.candidates]]

    def _probe(self, lit: int) -> Tuple[bool, int]:
        """Propagate ``lit`` on a throwaway level: (conflicted, implied)."""
        solver = self.solver
        before = solver.trail_len
        level = len(solver.trail_lim)
        conflicted = not solver.assume(lit)
        implied = solver.trail_len - before
        solver._cancel_until(level)
        self.lookaheads += 1
        return conflicted, implied

    def _choose_split(self) -> Tuple[Optional[int], bool]:
        """(splitting node, leaf_refuted).  Node None = no candidates."""
        opts = self.options
        candidates = self._static_candidates()
        if not candidates:
            return None, False
        big = float(self.num_nodes)
        best_node = None
        best_score = None
        for node in candidates:
            c1, p1 = self._probe(2 * node)      # node = 1
            c0, p0 = self._probe(2 * node + 1)  # node = 0
            if c1 and c0:
                # Both polarities conflict: this leaf is already UNSAT.
                return node, True
            if c1 or c0:
                # Failed literal: one child refutes for free — the best
                # kind of split, score it above any propagation product.
                score = opts.w_propagation * big * big \
                    + (p0 if c1 else p1)
            else:
                score = opts.w_propagation * float(p0) * float(p1) \
                    + float(p0 + p1)
            if best_score is None or score > best_score:
                best_score = score
                best_node = node
        return best_node, False

    # -- tree growth --------------------------------------------------

    def run(self, workers: int) -> CubeSet:
        t0 = time.perf_counter()
        opts = self.options
        solver = self.solver
        out = CubeSet()
        max_cubes = opts.resolved_max_cubes(workers)

        if not solver.ok or not self._enter(()):
            solver._cancel_until(0)
            out.trivial = UNSAT
            out.seconds = time.perf_counter() - t0
            return out
        if self._all_assigned():
            out.trivial = SAT
            out.model = self._model()
            solver._cancel_until(0)
            out.seconds = time.perf_counter() - t0
            return out

        # Breadth-first expansion keeps the tree balanced; each queue entry
        # is (literals, depth).  Splitting replaces one open leaf with two
        # children, so the open count grows by one per split (less when a
        # child refutes) until it reaches max_cubes.
        frontier: deque = deque([((), 0)])
        final: List[Cube] = []
        refuted: List[Cube] = []

        def open_total() -> int:
            # Open leaves right now, counting the one just popped.
            return len(final) + len(frontier) + 1

        while frontier:
            literals, depth = frontier.popleft()
            # A split turns 1 open leaf into 2; allow it only while the
            # result stays within max_cubes.
            if depth >= opts.max_depth or open_total() + 1 > max_cubes:
                final.append(self._make_cube(literals, depth))
                continue
            if not self._enter(literals):
                # Deterministic replays cannot conflict here (the leaf was
                # created conflict-free), but stay safe against drift.
                refuted.append(Cube(index=-1, literals=tuple(literals),
                                    depth=depth, refuted=True))
                continue
            if self._all_assigned():
                final.append(self._make_cube(literals, depth))
                continue
            node, leaf_refuted = self._choose_split()
            if node is None:
                final.append(self._make_cube(literals, depth))
                continue
            if leaf_refuted:
                refuted.append(Cube(index=-1, literals=tuple(literals),
                                    depth=depth, refuted=True,
                                    implied=solver.trail_len))
                continue
            for lit in (2 * node, 2 * node + 1):
                child = tuple(literals) + (lit,)
                if solver.assume(lit):
                    frontier.append((child, depth + 1))
                else:
                    refuted.append(Cube(index=-1, literals=child,
                                        depth=depth + 1, refuted=True))
                solver._cancel_until(self.base_levels + len(literals))

        solver._cancel_until(0)
        # Hardest-first order (fewest implied assignments first) so the
        # longest-running cubes start as early as possible; index after
        # sorting so provenance ids match launch order.
        final.sort(key=lambda c: (c.implied, c.literals))
        out.cubes = [Cube(index=i, literals=c.literals, depth=c.depth,
                          implied=c.implied) for i, c in enumerate(final)]
        out.refuted = [Cube(index=len(final) + i, literals=c.literals,
                            depth=c.depth, refuted=True, implied=c.implied)
                       for i, c in enumerate(refuted)]
        out.lookaheads = self.lookaheads
        out.seconds = time.perf_counter() - t0
        return out

    def _make_cube(self, literals: Sequence[int], depth: int) -> Cube:
        if not self._enter(literals):
            return Cube(index=-1, literals=tuple(literals), depth=depth,
                        refuted=True)
        return Cube(index=-1, literals=tuple(literals), depth=depth,
                    implied=self.solver.trail_len)

    def _all_assigned(self) -> bool:
        val = self.solver.val
        return all(val[2 * n] >= 0 for n in range(self.num_nodes))

    def _model(self) -> Dict[int, bool]:
        val = self.solver.val
        return {n: val[2 * n] == 1 for n in range(self.num_nodes)
                if val[2 * n] >= 0}


def generate_cubes(circuit: Circuit, objectives: Optional[Sequence[int]] = None,
                   options: Optional[CutterOptions] = None,
                   correlations: Optional[CorrelationSet] = None,
                   workers: int = 1,
                   engine=None) -> CubeSet:
    """Cut the search space of ``circuit`` (under ``objectives``) into cubes.

    ``objectives`` defaults to the circuit outputs, matching
    :meth:`repro.core.solver.CircuitSolver.solve`.  ``correlations``
    feeds the correlation-membership term of the splitting score (pass
    the set discovered once by the conquer driver; ``None`` just zeroes
    that term).  ``workers`` only matters when ``options.max_cubes`` is
    None (cube count then scales with the worker count).  ``engine`` is
    the :class:`~repro.kernel.circuit.KernelEngine` of ``circuit`` to
    look ahead on, at decision level 0 (the conquer driver passes its
    prepared one); a bare one is compiled when it is None.
    """
    options = (options or CutterOptions()).validate()
    if objectives is None:
        objectives = list(circuit.outputs)
    if engine is None:
        # Imported here: importing repro must not compile the kernel.
        from ..kernel.circuit import KernelEngine
        engine = KernelEngine(circuit)
    cutter = _Cutter(engine, objectives, options, correlations)
    return cutter.run(workers)
