"""The circuit CDCL engine: C-SAT's search core.

This is the solver substrate of the paper's Section IV-A:

* **BCP directly on gates.**  Each 2-input AND gate with inverter-attributed
  fanins is propagated through a 27-entry lookup table indexed by the three
  pin values (0/1/X), exactly the "lookup tables for fast implications on the
  AND primitive" the paper borrows from Ganai et al.
* **Learned gates.**  Conflict analysis (first UIP) produces clauses over
  circuit signals, stored with two explicitly tracked watched literals.
* **J-node decisions.**  In C-SAT-Jnode mode, decision candidates are the
  inputs of justification-frontier gates (an AND with output 0 and both
  inputs unassigned) plus — crucially, per the paper — the signals of learned
  gates.
* **Restarts** when the average back-jump length over a 4096-backtrack window
  drops below 1.2.
* **Implicit correlation learning** (Algorithm IV.1) hooks into assignment
  and decision selection when a correlation map is attached.

Assumptions (used both for the output objective and for explicit learning's
sub-problems) are asserted as forced decisions at the lowest levels, so
everything learned under them remains globally valid.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..errors import SolverError
from ..obs import PhaseTimers, ProgressSnapshot, complete_phases, make_tracer
from ..obs.metrics import default_registry, observe_solve
from ..result import Limits, SAT, SolverResult, SolverStats, UNKNOWN, UNSAT
from .frame import Frame, NO_REASON, UNASSIGNED
from .options import SolverOptions


def _dimacs(lit: int) -> int:
    """Circuit literal to the DIMACS variable of the Tseitin encoding
    (``var = node + 1``), for proof logging."""
    var = (lit >> 1) + 1
    return -var if (lit & 1) else var

# Gate-evaluation actions (see _build_action_table).
_A_NONE = 0
_A_IMPLY_G0_A = 1   # output := 0 because fanin0 is 0
_A_IMPLY_G0_B = 2   # output := 0 because fanin1 is 0
_A_IMPLY_G1 = 3     # output := 1 because both fanins are 1
_A_IMPLY_A1 = 4     # fanin0 := 1 because output is 1
_A_IMPLY_B1 = 5     # fanin1 := 1 because output is 1
_A_IMPLY_AB1 = 6    # both fanins := 1 because output is 1
_A_IMPLY_A0 = 7     # fanin0 := 0 because output is 0 and fanin1 is 1
_A_IMPLY_B0 = 8     # fanin1 := 0 because output is 0 and fanin0 is 1
_A_CONFL_GA = 9     # output 1 but fanin0 is 0
_A_CONFL_GB = 10    # output 1 but fanin1 is 0
_A_CONFL_GAB = 11   # output 0 but both fanins are 1
_A_JNODE = 12       # output 0, both fanins unassigned: justification frontier


def _build_action_table() -> List[int]:
    """The 27-entry implication table indexed by ``la*9 + lb*3 + lg``.

    ``la``/``lb`` are the gate-local fanin values and ``lg`` the output
    value, each in {0, 1, 2} with 2 meaning unassigned.
    """
    table = [_A_NONE] * 27
    for la in (0, 1, 2):
        for lb in (0, 1, 2):
            for lg in (0, 1, 2):
                act = _A_NONE
                if la == 0 or lb == 0:
                    if lg == 1:
                        act = _A_CONFL_GA if la == 0 else _A_CONFL_GB
                    elif lg == 2:
                        act = _A_IMPLY_G0_A if la == 0 else _A_IMPLY_G0_B
                elif la == 1 and lb == 1:
                    if lg == 0:
                        act = _A_CONFL_GAB
                    elif lg == 2:
                        act = _A_IMPLY_G1
                elif lg == 1:
                    if la == 2 and lb == 2:
                        act = _A_IMPLY_AB1
                    elif la == 2:
                        act = _A_IMPLY_A1
                    else:
                        act = _A_IMPLY_B1
                elif lg == 0:
                    if la == 1:
                        act = _A_IMPLY_B0
                    elif lb == 1:
                        act = _A_IMPLY_A0
                    else:
                        act = _A_JNODE
                table[la * 9 + lb * 3 + lg] = act
    return table


_ACTION_TABLE = _build_action_table()


class CSatEngine:
    """Low-level circuit CDCL search over one :class:`Circuit`.

    Most callers should use :class:`repro.core.solver.CircuitSolver`, which
    layers correlation discovery and explicit learning on top.
    """

    def __init__(self, circuit: Circuit,
                 options: Optional[SolverOptions] = None,
                 proof=None):
        options = options or SolverOptions()
        options.validate()
        #: Optional repro.proof.ProofLog; clauses are logged over the
        #: Tseitin encoding's variables (node + 1).
        self.proof = proof
        self.circuit = circuit
        self.options = options
        n = circuit.num_nodes
        self.num_nodes = n
        self.fan0 = [circuit.fanin0(g) for g in range(n)]
        self.fan1 = [circuit.fanin1(g) for g in range(n)]
        self.is_and = [circuit.is_and(g) for g in range(n)]
        # fanout_gates[x]: list of (gate, pin literal of x in that gate).
        # Degenerate gates with both pins on one node (only raw construction
        # can produce them) are rewritten first: AND(x, x) is a buffer —
        # modelled as AND(x, TRUE) — and AND(x, ~x) is constant FALSE —
        # modelled as AND(FALSE, TRUE).  The J-frontier logic assumes two
        # distinct pins, which the rewrite restores.
        self.fanout_gates: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for g in range(n):
            if self.is_and[g]:
                f0, f1 = self.fan0[g], self.fan1[g]
                if (f0 >> 1) == (f1 >> 1) and (f0 >> 1) != 0:
                    if f0 == f1:
                        self.fan1[g] = 1          # buffer of f0
                    else:
                        self.fan0[g] = 0          # constant FALSE
                        self.fan1[g] = 1
                    f0, f1 = self.fan0[g], self.fan1[g]
                self.fanout_gates[f0 >> 1].append((g, f0))
                if (f1 >> 1) != (f0 >> 1):
                    self.fanout_gates[f1 >> 1].append((g, f1))

        self.frame = Frame(n)
        # The constant node is permanently 0 (level 0, no reason); its trail
        # entry is propagated so gates reading it are implied at level 0.
        self.frame.values[0] = 0
        self.frame.trail.append(1)  # literal "node0 = 0" is true
        self.frame.qhead = 0

        # Learned clause database ("learned gates").
        self.clauses: List[Optional[List[int]]] = []
        self.learnt_idx: List[int] = []
        self.clause_activity: Dict[int, float] = {}
        self.watches: List[List[int]] = [[] for _ in range(2 * n)]
        # Explicit watched-literal pointers per clause (paper Section IV-A:
        # "pointers to the two watched literals are explicitly stored").
        self.watch_ptrs: Dict[int, Tuple[int, int]] = {}

        # VSIDS.
        self.activity: List[float] = [0.0] * (2 * n)
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.heap: List = []      # global heap (plain C-SAT decisions)
        self.jheap: List = []     # J-node candidate heap (C-SAT-Jnode)
        if not options.use_jnode:
            for lit in range(2, 2 * n):
                heappush(self.heap, (0.0, lit))
        self.in_learned = [False] * n

        # Correlation state (implicit learning).  Array-indexed for speed:
        # the partner hook runs on every BCP assignment.
        self.partner: List[Optional[Tuple[int, bool]]] = [None] * n
        self.const_corr: List[int] = [UNASSIGNED] * n
        self.pending_correlated: List[Tuple[int, int, int]] = []

        # Restart bookkeeping (average back-jump rule).
        self._bj_sum = 0
        self._bj_count = 0
        self._window_avg = 0.0  # last completed window's average

        # Observability (repro.obs).  Both are None when off — the search
        # loop hoists them into locals and a disabled run pays only one
        # None-test per iteration, never per propagated literal.
        self.tracer = make_tracer(options.trace)
        self.timers = (PhaseTimers()
                       if options.phase_timers or self.tracer is not None
                       else None)
        self._last_progress = (0.0, 0)  # (perf_counter, conflicts)
        self._core: Optional[List[int]] = None  # failed-assumption core
        #: Wall seconds spent inside solve() calls, cumulative; the gap
        #: against a wrapper's own wall clock is its orchestration time.
        self.solve_seconds_total = 0.0

        self.max_learnts = options.learnt_limit_base
        self.stats = SolverStats()
        self.ok = True
        self._seen = [False] * n

    # ------------------------------------------------------------------
    # Correlation attachment (implicit learning)
    # ------------------------------------------------------------------

    def set_correlations(self, partner: Dict[int, Tuple[int, bool]],
                         const_corr: Dict[int, int]) -> None:
        """Attach correlation maps used by Algorithm IV.1.

        ``partner[s] = (s', anti)`` means ``s`` and ``s'`` are correlated
        (``anti`` True for ``s != s'``); ``const_corr[s]`` is the likely
        constant value of ``s``.
        """
        self.partner = [None] * self.num_nodes
        for node, corr in partner.items():
            self.partner[node] = corr
        self.const_corr = [UNASSIGNED] * self.num_nodes
        for node, value in const_corr.items():
            self.const_corr[node] = value

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def lit_value(self, lit: int) -> int:
        v = self.frame.values[lit >> 1]
        if v < 0:
            return UNASSIGNED
        return v ^ (lit & 1)  # 1 iff the literal is true

    def _assign(self, node: int, value: int, reason: int) -> None:
        frame = self.frame
        frame.values[node] = value
        frame.levels[node] = len(frame.trail_lim)
        frame.reasons[node] = reason
        frame.trail_pos[node] = len(frame.trail)
        frame.trail.append(2 * node + (1 - value))
        if reason != NO_REASON and self.options.implicit_learning:
            corr = self.partner[node]
            if corr is not None:
                p_node, anti = corr
                if frame.values[p_node] < 0:
                    forced = value if anti else 1 - value
                    self.pending_correlated.append((p_node, forced, node))

    def _cancel_until(self, target_level: int) -> None:
        frame = self.frame
        if len(frame.trail_lim) <= target_level:
            return
        split = frame.trail_lim[target_level]
        values = frame.values
        reasons = frame.reasons
        use_jnode = self.options.use_jnode
        jheap = self.jheap
        heap = self.heap
        activity = self.activity
        in_learned = self.in_learned
        fanout_gates = self.fanout_gates
        for lit in reversed(frame.trail[split:]):
            node = lit >> 1
            values[node] = UNASSIGNED
            reasons[node] = NO_REASON
            if use_jnode:
                if in_learned[node]:
                    heappush(jheap, (-activity[2 * node], 2 * node))
                    heappush(jheap, (-activity[2 * node + 1], 2 * node + 1))
                for g, pin in fanout_gates[node]:
                    if values[g] == 0:
                        # Re-exposed J-node: push the justifying phase.
                        heappush(jheap, (-activity[pin ^ 1], pin ^ 1))
            else:
                heappush(heap, (-activity[2 * node], 2 * node))
                heappush(heap, (-activity[2 * node + 1], 2 * node + 1))
        del frame.trail[split:]
        del frame.trail_lim[target_level:]
        frame.qhead = len(frame.trail)

    # ------------------------------------------------------------------
    # BCP
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Propagate to fixpoint; returns conflict literals (false-form) or None."""
        frame = self.frame
        values = frame.values
        trail = frame.trail
        fan0, fan1 = self.fan0, self.fan1
        is_and = self.is_and
        fanout_gates = self.fanout_gates
        table = _ACTION_TABLE
        watches = self.watches
        clauses = self.clauses
        jheap = self.jheap
        use_jnode = self.options.use_jnode
        activity = self.activity
        stats = self.stats

        while frame.qhead < len(trail):
            p = trail[frame.qhead]
            frame.qhead += 1
            stats.propagations += 1
            node = p >> 1

            # --- learned-clause watches (identical scheme to the CNF solver)
            false_lit = p ^ 1
            ws = watches[false_lit]
            if ws:
                i = j = 0
                n_ws = len(ws)
                while i < n_ws:
                    ci = ws[i]
                    i += 1
                    clause = clauses[ci]
                    if clause is None:
                        continue
                    if clause[0] == false_lit:
                        clause[0] = clause[1]
                        clause[1] = false_lit
                    first = clause[0]
                    fv = values[first >> 1]
                    if fv >= 0 and (fv ^ (first & 1)) == 1:
                        ws[j] = ci
                        j += 1
                        continue
                    moved = False
                    for k in range(2, len(clause)):
                        lk = clause[k]
                        kv = values[lk >> 1]
                        if kv < 0 or (kv ^ (lk & 1)) == 1:
                            clause[1] = lk
                            clause[k] = false_lit
                            watches[lk].append(ci)
                            self.watch_ptrs[ci] = (clause[0], lk)
                            moved = True
                            break
                    if moved:
                        continue
                    ws[j] = ci
                    j += 1
                    if fv >= 0:  # conflict: every literal false
                        while i < n_ws:
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        frame.qhead = len(trail)
                        return list(clause)
                    self._assign(first >> 1, 1 - (first & 1), 2 * ci + 1)
                del ws[j:]

            # --- gate implications via the lookup table
            gate_list = fanout_gates[node]
            own = node if is_and[node] else -1
            idx = -1
            while True:
                if idx < 0:
                    g = own
                    idx = 0
                    if g < 0:
                        if not gate_list:
                            break
                        g, _pin = gate_list[0]
                        idx = 1
                else:
                    if idx >= len(gate_list):
                        break
                    g, _pin = gate_list[idx]
                    idx += 1
                f0 = fan0[g]
                f1 = fan1[g]
                a = f0 >> 1
                b = f1 >> 1
                va = values[a]
                vb = values[b]
                vg = values[g]
                la = (va ^ (f0 & 1)) if va >= 0 else 2
                lb = (vb ^ (f1 & 1)) if vb >= 0 else 2
                lg = vg if vg >= 0 else 2
                act = table[la * 9 + lb * 3 + lg]
                if act == _A_NONE:
                    continue
                if act == _A_IMPLY_G0_A or act == _A_IMPLY_G0_B:
                    stats.implications += 1
                    self._assign(g, 0, 2 * g)
                elif act == _A_IMPLY_G1:
                    stats.implications += 1
                    self._assign(g, 1, 2 * g)
                elif act == _A_IMPLY_A1:
                    stats.implications += 1
                    self._assign(a, 1 ^ (f0 & 1), 2 * g)
                elif act == _A_IMPLY_B1:
                    stats.implications += 1
                    self._assign(b, 1 ^ (f1 & 1), 2 * g)
                elif act == _A_IMPLY_AB1:
                    stats.implications += 1
                    self._assign(a, 1 ^ (f0 & 1), 2 * g)
                    vb2 = values[b]
                    if vb2 < 0:
                        stats.implications += 1
                        self._assign(b, 1 ^ (f1 & 1), 2 * g)
                    elif (vb2 ^ (f1 & 1)) == 0:  # a == b degenerate case
                        frame.qhead = len(trail)
                        return [2 * g + values[g], 2 * b + vb2]
                elif act == _A_IMPLY_A0:
                    stats.implications += 1
                    self._assign(a, 0 ^ (f0 & 1), 2 * g)
                elif act == _A_IMPLY_B0:
                    stats.implications += 1
                    self._assign(b, 0 ^ (f1 & 1), 2 * g)
                elif act == _A_JNODE:
                    if use_jnode:
                        heappush(jheap, (-activity[f0 ^ 1], f0 ^ 1))
                        heappush(jheap, (-activity[f1 ^ 1], f1 ^ 1))
                elif act == _A_CONFL_GA:
                    frame.qhead = len(trail)
                    return [2 * g + values[g], 2 * a + values[a]]
                elif act == _A_CONFL_GB:
                    frame.qhead = len(trail)
                    return [2 * g + values[g], 2 * b + values[b]]
                else:  # _A_CONFL_GAB
                    frame.qhead = len(trail)
                    return [2 * g + values[g], 2 * a + values[a],
                            2 * b + values[b]]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP over gates + learned clauses)
    # ------------------------------------------------------------------

    def _reason_side(self, node: int) -> List[int]:
        """Antecedent literals (false-form) of an implied assignment."""
        frame = self.frame
        r = frame.reasons[node]
        if r == NO_REASON:
            raise SolverError("decision variable has no reason side")
        if r & 1:
            clause = self.clauses[r >> 1]
            return clause[1:]
        g = r >> 1
        values = frame.values
        f0, f1 = self.fan0[g], self.fan1[g]
        a, b = f0 >> 1, f1 >> 1
        if node == g:
            if values[g] == 1:
                return [2 * a + values[a], 2 * b + values[b]]
            # Output implied 0 by a controlling input assigned earlier.
            pos_g = frame.trail_pos[g]
            cand = []
            if values[a] >= 0 and (values[a] ^ (f0 & 1)) == 0 \
                    and frame.trail_pos[a] < pos_g:
                cand.append((frame.trail_pos[a], a))
            if values[b] >= 0 and (values[b] ^ (f1 & 1)) == 0 \
                    and frame.trail_pos[b] < pos_g:
                cand.append((frame.trail_pos[b], b))
            if not cand:
                raise SolverError("no controlling antecedent for gate {}".format(g))
            y = min(cand)[1]
            return [2 * y + values[y]]
        # Input pin implied through the gate.
        pin = f0 if a == node else f1
        other_lit = f1 if a == node else f0
        o = other_lit >> 1
        local = values[node] ^ (pin & 1)
        if local == 1:
            return [2 * g + values[g]]
        return [2 * g + values[g], 2 * o + values[o]]

    def _analyze_final(self, seed: List[int], assume: List[int],
                       must_include: Optional[int] = None) -> List[int]:
        """Failed-assumption core (MiniSat's analyzeFinal over gate reasons).

        Walks antecedents from the ``seed`` conflict literals back to the
        decisions they depend on.  Assumptions occupy decision levels
        1..len(assume) and are the only decisions there, so every reachable
        decision above level 0 is an assumption; the set of those reached is
        a subset of ``assume`` sufficient for the refutation.
        ``must_include`` forces one literal into the core (the assumption
        found already-false, whose own node was *implied*, not decided).
        """
        frame = self.frame
        levels = frame.levels
        reasons = frame.reasons
        seen = set()
        core_nodes = set()
        stack = [q >> 1 for q in seed]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if levels[node] <= 0:
                continue
            if reasons[node] == NO_REASON:
                core_nodes.add(node)
            else:
                stack.extend(q >> 1 for q in self._reason_side(node))
        return [a for a in assume
                if (a >> 1) in core_nodes or a == must_include]

    def _bump(self, lit: int) -> None:
        act = self.activity[lit] + self.var_inc
        self.activity[lit] = act
        if act > 1e100:
            self._rescale_activity()
            return
        # Keep the active heap fresh (lazy deletion handles stale entries).
        if self.options.use_jnode:
            heappush(self.jheap, (-act, lit))
        else:
            heappush(self.heap, (-act, lit))

    def _rescale_activity(self) -> None:
        self.activity = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        # Heap priorities are stale after rescaling; rebuild lazily by
        # clearing — candidates are re-pushed on backtrack/frontier events,
        # and the decision fallback handles an empty global heap.
        if not self.options.use_jnode:
            self.heap = [(-self.activity[lit], lit)
                         for lit in range(2, 2 * self.num_nodes)
                         if self.frame.values[lit >> 1] < 0]
            heapify(self.heap)

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        frame = self.frame
        levels = frame.levels
        trail = frame.trail
        seen = self._seen
        learnt: List[int] = [0]
        counter = 0
        p_node = -1
        bt_level = 0
        index = len(trail) - 1
        cur_level = len(frame.trail_lim)
        side = conflict
        while True:
            for q in side:
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = True
                    self._bump(q ^ 1)
                    if levels[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if levels[var] > bt_level:
                            bt_level = levels[var]
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            p_node = p >> 1
            seen[p_node] = False
            counter -= 1
            if counter == 0:
                break
            r = frame.reasons[p_node]
            if r >= 0 and (r & 1) and (r >> 1) in self.clause_activity:
                self.clause_activity[r >> 1] += self.cla_inc
            side = self._reason_side(p_node)
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False
        return learnt, bt_level

    # ------------------------------------------------------------------
    # Learned clause database
    # ------------------------------------------------------------------

    def add_learned_clause(self, lits: List[int]) -> Optional[int]:
        """Attach a (sound) learned clause; used internally and by explicit
        learning to record refuted sub-problem assumptions.

        Must be called with the clause either asserting (exactly one
        non-false literal) or non-false under the current assignment.
        Returns the clause index, or None for a unit clause enqueued
        directly.
        """
        if self.proof is not None:
            self.proof.add([_dimacs(l) for l in lits])
        if len(lits) == 1:
            val = self.lit_value(lits[0])
            if val == 0:
                self.ok = False
                return None
            if val == UNASSIGNED:
                self._assign(lits[0] >> 1, 1 - (lits[0] & 1), NO_REASON)
            self.stats.learned_clauses += 1
            self.stats.learned_literals += 1
            if self.tracer is not None:
                self.tracer.emit("learn", size=1,
                                 level=len(self.frame.trail_lim))
            return None
        ci = len(self.clauses)
        self.clauses.append(list(lits))
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        self.watch_ptrs[ci] = (lits[0], lits[1])
        self.learnt_idx.append(ci)
        self.clause_activity[ci] = self.cla_inc
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(lits)
        if self.tracer is not None:
            self.tracer.emit("learn", size=len(lits),
                             level=len(self.frame.trail_lim))
        if self.options.use_jnode and self.options.jnode_learned:
            jheap = self.jheap
            activity = self.activity
            values = self.frame.values
            for lit in lits:
                node = lit >> 1
                self.in_learned[node] = True
                if values[node] < 0:
                    heappush(jheap, (-activity[lit], lit))
        return ci

    def _record_learnt(self, learnt: List[int], bt_level: int) -> None:
        self._cancel_until(bt_level)
        if len(learnt) == 1:
            self.add_learned_clause(learnt)
            return
        levels = self.frame.levels
        k_best = 1
        for k in range(2, len(learnt)):
            if levels[learnt[k] >> 1] > levels[learnt[k_best] >> 1]:
                k_best = k
        learnt[1], learnt[k_best] = learnt[k_best], learnt[1]
        ci = self.add_learned_clause(learnt)
        self._assign(learnt[0] >> 1, 1 - (learnt[0] & 1), 2 * ci + 1)

    def _reduce_db(self) -> None:
        act = self.clause_activity
        frame = self.frame
        before = len(self.learnt_idx)
        self.learnt_idx.sort(key=lambda ci: act.get(ci, 0.0))
        keep_from = len(self.learnt_idx) // 2
        kept: List[int] = []
        for pos, ci in enumerate(self.learnt_idx):
            clause = self.clauses[ci]
            head = clause[0]
            locked = (frame.reasons[head >> 1] == 2 * ci + 1
                      and frame.values[head >> 1] >= 0)
            if pos >= keep_from or len(clause) <= 2 or locked:
                kept.append(ci)
                continue
            if self.proof is not None:
                self.proof.delete([_dimacs(l) for l in clause])
            self.clauses[ci] = None
            del self.clause_activity[ci]
            self.watch_ptrs.pop(ci, None)
            self.stats.deleted_clauses += 1
        self.learnt_idx = kept
        if self.tracer is not None:
            self.tracer.emit("reduce_db", before=before, after=len(kept))

    # ------------------------------------------------------------------
    # Decision selection
    # ------------------------------------------------------------------

    def _is_jinput(self, node: int) -> bool:
        """Is ``node`` currently an input of a justification-frontier gate?"""
        values = self.frame.values
        if values[node] >= 0:
            return False
        for g, pin in self.fanout_gates[node]:
            if values[g] != 0:
                continue
            f0, f1 = self.fan0[g], self.fan1[g]
            if (f0 >> 1) == (f1 >> 1):
                continue  # degenerate gate: never a two-pin frontier
            other = f1 if pin == f0 else f0
            # Both inputs must be unassigned for g to need justification.
            if values[other >> 1] < 0:
                return True
        return False

    def _pick_jnode_decision(self) -> Optional[int]:
        values = self.frame.values
        jheap = self.jheap
        in_learned = self.in_learned
        while jheap:
            neg_act, lit = heappop(jheap)
            node = lit >> 1
            if values[node] >= 0:
                continue
            if in_learned[node] or self._is_jinput(node):
                return lit
        return None

    def _pick_global_decision(self) -> Optional[int]:
        values = self.frame.values
        heap = self.heap
        while heap:
            neg_act, lit = heappop(heap)
            if values[lit >> 1] < 0 and -neg_act == self.activity[lit]:
                return lit
        for node in range(1, self.num_nodes):
            if values[node] < 0:
                return 2 * node
        return None

    def _next_decision(self) -> Optional[int]:
        """Pick the next decision literal, honouring implicit learning."""
        options = self.options
        values = self.frame.values
        if options.implicit_learning:
            pending = self.pending_correlated
            while pending:
                node, forced, trigger = pending.pop()
                # The grouped decision is only meaningful while its trigger
                # assignment survives (Algorithm IV.1 pairs the two
                # "immediately"); stale entries from undone levels are junk.
                if values[node] < 0 and values[trigger] >= 0:
                    self.stats.correlation_decisions += 1
                    if self.tracer is not None:
                        self.tracer.emit("correlation_hit", node=node,
                                         corr="pair", trigger=trigger)
                    return 2 * node + (1 - forced)
        if options.use_jnode:
            lit = self._pick_jnode_decision()
            if lit is not None:
                self.stats.jnode_decisions += 1
        else:
            lit = self._pick_global_decision()
        if lit is None:
            return None
        if options.implicit_learning:
            node = lit >> 1
            likely = self.const_corr[node]
            if likely >= 0:
                # Algorithm IV.1: decide the value most likely to conflict.
                self.stats.correlation_decisions += 1
                if self.tracer is not None:
                    self.tracer.emit("correlation_hit", node=node,
                                     corr="const", likely=likely)
                return 2 * node + likely  # assign 1-likely
        return lit

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None,
              max_learned: Optional[int] = None,
              proof_refutation: bool = False) -> SolverResult:
        """Search under the given assumption literals.

        ``assumptions`` are circuit literals required true (the output
        objective, or a sub-problem's pre-determined value assignments).
        ``max_learned`` aborts the call after that many learned gates — the
        paper's per-sub-problem limit of 10 in explicit learning.

        With ``proof_refutation`` an UNSAT-under-assumptions outcome
        completes the attached proof log: the negated-assumption clause is
        emitted followed by the empty clause (valid when the proof checker's
        formula asserts the assumptions as units, as
        :func:`repro.circuit.cnf_convert.tseitin` does for objectives).
        """
        start = time.perf_counter()
        stats0 = self.stats.copy()
        limits = (limits or Limits()).validate()
        self._cancel_until(0)
        self.pending_correlated.clear()
        tracer = self.tracer
        timers = self.timers
        timer_snap = timers.snapshot() if timers is not None else None
        self._last_progress = (start, self.stats.conflicts)
        if tracer is not None:
            tracer.emit("solve_start", assumptions=len(assumptions),
                        learned_db=len(self.learnt_idx))
        interrupted = False
        self._core = None  # set by _search on UNSAT exits
        if limits.exhausted_on_entry():
            status = UNKNOWN  # zero/negative budget: already exhausted
        else:
            try:
                status = self._search(list(assumptions), limits, start,
                                      max_learned)
            except KeyboardInterrupt:
                # Convert Ctrl-C into a clean UNKNOWN carrying the partial
                # stats; _cancel_until(0) below restores a consistent state.
                status = UNKNOWN
                interrupted = True
        if (status == UNSAT and proof_refutation and self.proof is not None
                and not self.proof.complete):
            if assumptions:
                self.proof.add([_dimacs(a ^ 1) for a in assumptions])
            self.proof.add([])
        model = None
        if status == SAT:
            values = self.frame.values
            model = {node: bool(values[node]) for node in range(self.num_nodes)
                     if values[node] >= 0}
        self._cancel_until(0)
        elapsed = time.perf_counter() - start
        result = SolverResult(status=status, model=model,
                              stats=self.stats.delta_since(stats0),
                              time_seconds=elapsed,
                              interrupted=interrupted,
                              core=self._core if status == UNSAT else None)
        if timers is not None:
            result.phase_seconds = complete_phases(
                timers.delta_since(timer_snap), elapsed)
        self.solve_seconds_total += elapsed
        if tracer is not None:
            tracer.emit("solve_end", status=status, seconds=round(elapsed, 6),
                        phases={phase: round(seconds, 6) for phase, seconds
                                in result.phase_seconds.items()})
        registry = default_registry()
        if registry is not None:
            # Once per solve() call, never inside the search loop: the
            # stats delta feeds the counters, rates fall out at scrape.
            observe_solve(registry, "csat", status, elapsed, result.stats)
        return result

    def solve_subproblem(self, assumptions: Sequence[int],
                         limits: Optional[Limits] = None,
                         max_learned: Optional[int] = None) -> SolverResult:
        """One explicit-learning sub-problem (:mod:`repro.csat.explicit`):
        a plain :meth:`solve`, whose J-node frontier (``use_jnode``) keeps
        decisions in the cones of the assumed signals."""
        return self.solve(assumptions=assumptions, limits=limits,
                          max_learned=max_learned)

    def _note_backjump(self, jump_length: int) -> bool:
        """Paper's restart rule (Section IV-A): record one backtrack's jump
        length; once ``restart_window`` backtracks accumulate, compare the
        window average against ``restart_threshold`` and reset the window.
        Returns True when the engine should restart — short average jumps
        mean the search is thrashing near the leaves."""
        options = self.options
        self._bj_sum += jump_length
        self._bj_count += 1
        if self._bj_count < options.restart_window:
            return False
        avg = self._bj_sum / self._bj_count
        self._window_avg = avg
        self._bj_sum = 0
        self._bj_count = 0
        return options.restart_enabled and avg < options.restart_threshold

    def _search(self, assume: List[int], limits: Limits, start: float,
                max_learned: Optional[int]) -> str:
        if not self.ok:
            self._core = []
            return UNSAT
        options = self.options
        frame = self.frame
        stats = self.stats
        tracer = self.tracer
        timers = self.timers
        clock = time.perf_counter
        observed = tracer is not None or timers is not None
        progress_every = (options.progress_interval
                          if tracer is not None or options.progress is not None
                          else 0)
        conflicts_at_entry = stats.conflicts
        learned_at_entry = stats.learned_clauses
        # Budgets count from this call's entry, like max_conflicts.
        decision_cap = (None if limits.max_decisions is None
                        else stats.decisions + limits.max_decisions)
        decision_check = 0
        while True:
            if not observed:
                conflict = self._propagate()
            else:
                props_before = stats.propagations
                impl_before = stats.implications
                t0 = clock()
                conflict = self._propagate()
                if timers is not None:
                    timers.bcp += clock() - t0
                if tracer is not None and stats.propagations > props_before:
                    tracer.emit("implication_batch",
                                n=stats.propagations - props_before,
                                implied=stats.implications - impl_before,
                                trail=len(frame.trail),
                                level=len(frame.trail_lim))
            if conflict is not None:
                stats.conflicts += 1
                level = len(frame.trail_lim)
                if tracer is not None:
                    tracer.emit("conflict", level=level,
                                trail=len(frame.trail))
                if level == 0:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.add([])
                    self._core = []
                    return UNSAT
                if level <= len(assume):
                    # Conflict depends only on assumptions; extract the
                    # subset it actually needs (failed-assumption core).
                    self._core = self._analyze_final(conflict, assume)
                    return UNSAT
                if timers is None:
                    learnt, bt_level = self._analyze(conflict)
                    self._record_learnt(learnt, bt_level)
                else:
                    t0 = clock()
                    learnt, bt_level = self._analyze(conflict)
                    self._record_learnt(learnt, bt_level)
                    timers.analyze += clock() - t0
                if not self.ok:
                    self._core = []  # root-level refutation: no assumptions
                    return UNSAT
                self.var_inc /= options.var_decay
                self.cla_inc /= options.clause_decay
                if self.cla_inc > 1e100:
                    for ci in self.clause_activity:
                        self.clause_activity[ci] *= 1e-100
                    self.cla_inc *= 1e-100
                if self._note_backjump(level - bt_level):
                    stats.restarts += 1
                    if tracer is not None:
                        tracer.emit("restart", conflicts=stats.conflicts,
                                    level=level)
                    self._cancel_until(0)
                    self.pending_correlated.clear()
                if progress_every \
                        and stats.conflicts % progress_every == 0:
                    self._emit_progress(start)
                if max_learned is not None and \
                        stats.learned_clauses - learned_at_entry >= max_learned:
                    return UNKNOWN
                if (stats.conflicts & 255) == 0:
                    if (limits.max_conflicts is not None
                            and stats.conflicts - conflicts_at_entry
                            >= limits.max_conflicts):
                        return UNKNOWN
                    if (limits.max_seconds is not None
                            and time.perf_counter() - start >= limits.max_seconds):
                        return UNKNOWN
                continue

            decision_check += 1
            if (decision_check & 255) == 0:
                if (limits.max_seconds is not None
                        and time.perf_counter() - start >= limits.max_seconds):
                    return UNKNOWN
                if (limits.max_conflicts is not None
                        and stats.conflicts - conflicts_at_entry
                        >= limits.max_conflicts):
                    return UNKNOWN
            # Decision budgets are precise (checked every decision), so an
            # UNKNOWN result's partial stats land within one decision of
            # the limit rather than one 256-wide check window.
            if decision_cap is not None and stats.decisions >= decision_cap:
                return UNKNOWN
            if len(self.learnt_idx) > self.max_learnts:
                if timers is None:
                    self._reduce_db()
                else:
                    t0 = clock()
                    self._reduce_db()
                    timers.clause_db += clock() - t0
                self.max_learnts *= options.learnt_limit_growth

            if timers is not None:
                t0 = clock()
            next_lit = None
            while len(frame.trail_lim) < len(assume):
                a = assume[len(frame.trail_lim)]
                val = self.lit_value(a)
                if val == 1:
                    frame.trail_lim.append(len(frame.trail))
                elif val == 0:
                    self._core = self._analyze_final([a], assume,
                                                     must_include=a)
                    return UNSAT
                else:
                    next_lit = a
                    break
            if next_lit is None:
                next_lit = self._next_decision()
            if timers is not None:
                timers.decision += clock() - t0
            if next_lit is None:
                return SAT
            stats.decisions += 1
            frame.trail_lim.append(len(frame.trail))
            if len(frame.trail_lim) > stats.max_decision_level:
                stats.max_decision_level = len(frame.trail_lim)
            if tracer is not None:
                tracer.emit("decision", node=next_lit >> 1,
                            value=1 - (next_lit & 1),
                            level=len(frame.trail_lim))
            self._assign(next_lit >> 1, 1 - (next_lit & 1), NO_REASON)

    def _emit_progress(self, start: float) -> None:
        """Build one progress snapshot and deliver it (tracer + callback)."""
        now = time.perf_counter()
        stats = self.stats
        last_time, last_conflicts = self._last_progress
        dt = now - last_time
        rate = (stats.conflicts - last_conflicts) / dt if dt > 0 else 0.0
        self._last_progress = (now, stats.conflicts)
        avg_bj = (self._bj_sum / self._bj_count if self._bj_count
                  else self._window_avg)
        snapshot = ProgressSnapshot(
            elapsed=now - start, conflicts=stats.conflicts,
            decisions=stats.decisions, propagations=stats.propagations,
            restarts=stats.restarts, learned_db=len(self.learnt_idx),
            trail_depth=len(self.frame.trail),
            decision_level=len(self.frame.trail_lim),
            conflict_rate=rate, avg_backjump=avg_bj)
        if self.tracer is not None:
            self.tracer.emit("progress", **snapshot.as_dict())
        if self.options.progress is not None:
            self.options.progress(snapshot)
