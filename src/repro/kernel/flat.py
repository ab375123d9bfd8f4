"""The flat-array CDCL core.

This is the hot-path rewrite of the two dict-and-object engines
(``repro.csat.engine``, ``repro.cnf.solver``): one search core whose every
per-propagation data structure is a preallocated flat array indexed by
integers, in the shape of a hardware BCP accelerator (explicit watch-list
manager, clause arena, implication FIFO):

* **Literal-indexed value array.**  ``val[lit]`` is 1/0/-1 for
  true/false/unassigned, maintained for both polarities on every
  assignment, so the inner loops never recompute ``values[var] ^ sign``.
* **Clause arena.**  All long clauses live in one ``array('i')`` (int32):
  a size header followed by the literals, watched literals in the first
  two slots.  Watch lists are flat ``[blocker, offset, ...]`` pair lists —
  the blocker literal short-circuits the common already-satisfied case
  without touching the arena at all (MiniSat 2.2's blocker optimisation).
* **Binary implication lists.**  Two-literal clauses never enter the
  arena: ``bimp[p]`` lists the literals implied outright when ``p``
  becomes true, so binary BCP is one array scan with no watch juggling.
* **Preallocated trail ring.**  The trail (which doubles as the
  implication FIFO) is a fixed ``num_vars``-slot buffer driven by two
  cursors (``trail_len`` producer, ``qhead`` consumer) — no appends, no
  deletes, no reallocation during search.
* **Tiered learned-clause DB.**  Reduction follows the tiered policy of
  "Rethinking Clause Management for CDCL SAT Solvers": glue clauses
  (LBD <= 2) are kept unconditionally, a mid tier (LBD <= 6) survives one
  extra round, and the local tier halves by activity — so the reduction
  step stays out of the hot loop's way and never discards the clauses
  that do the propagating.

Variables are ``0..num_vars-1`` and literals ``2*var + sign`` (sign 1 =
negated) — the same encoding the circuit netlist uses for its signals, so
the circuit adapter (:mod:`repro.kernel.circuit`) maps node literals
one-to-one.  DIMACS var ``internal + 1`` is used for proof logging, which
matches both the Tseitin convention (node + 1) and the CNF adapter's
mapping.

The legacy engines remain in place as the differential oracle; see
``tests/test_kernel_differential.py`` and docs/internals.md.
"""

from __future__ import annotations

import time
from array import array
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Sequence

from ..errors import SolverError
from ..obs import PhaseTimers, ProgressSnapshot, complete_phases, make_tracer
from ..obs.metrics import default_registry, observe_solve
from ..result import Limits, SAT, SolverResult, SolverStats, UNKNOWN, UNSAT

#: ``reason[var]`` sentinel: decision, assumption, or unassigned.
NO_REASON = -1

#: Tier boundaries of the learned-clause DB (LBD values).
LBD_CORE = 2
LBD_MID = 6


def _dimacs(lit: int) -> int:
    """Internal literal to DIMACS (var = internal var + 1) for proofs."""
    var = (lit >> 1) + 1
    return -var if (lit & 1) else var


def _luby(i: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


class FlatSolver:
    """Flat-array CDCL search over ``num_vars`` variables.

    The adapters (:class:`repro.kernel.circuit.KernelEngine`,
    :class:`repro.kernel.cnf.FlatCnfSolver`) own the public interfaces;
    this class speaks internal literals only.  One instance may be solved
    repeatedly under different assumptions; learned clauses persist.

    Reason encoding (``reason[var]``):

    * ``NO_REASON`` — decision/assumption (or unassigned),
    * even ``r`` — implied by the arena clause at offset ``r >> 1``,
    * odd ``r`` — implied by a binary clause whose other (false) literal
      is ``r >> 1``.
    """

    def __init__(self, num_vars: int,
                 var_decay: float = 0.95,
                 clause_decay: float = 0.999,
                 restart_base: int = 100,
                 learnt_limit_base: float = 2000.0,
                 learnt_limit_growth: float = 1.1,
                 minimize_learned: bool = True,
                 proof=None,
                 trace=None,
                 phase_timers: bool = False,
                 progress_interval: int = 0,
                 progress=None,
                 debug_checks: bool = False):
        n = num_vars
        self.num_vars = n
        #: Per-*literal* assignment value: 1 true, 0 false, -1 unassigned.
        self.val: List[int] = [-1] * (2 * n)
        #: Per-variable decision level / reason / trail position.
        self.level: List[int] = [0] * n
        self.reason: List[int] = [NO_REASON] * n
        #: Preallocated trail ring: producer cursor ``trail_len``,
        #: consumer cursor ``qhead`` (the implication FIFO).
        self.trail = array('i', bytes(4 * max(1, n)))
        self.trail_len = 0
        self.qhead = 0
        self.trail_lim: List[int] = []
        #: Binary implications: ``bimp[p]`` holds literals implied true the
        #: moment ``p`` is assigned true.
        self.bimp: List[List[int]] = [[] for _ in range(2 * n)]
        #: Clause arena: ``arena[off-1]`` = size (negated = deleted),
        #: ``arena[off .. off+size-1]`` = literals, watches in slots 0/1.
        self.arena = array('i')
        self.arena.append(0)  # offset 0 is never a clause (reason encoding)
        #: Watch lists: flat pair lists ``[blocker, offset, ...]``.
        self.watches: List[List[int]] = [[] for _ in range(2 * n)]
        #: Learned-clause bookkeeping (cold path): arena offsets plus
        #: activity/LBD maps keyed by offset.
        self.learnts: List[int] = []
        self.cla_act = {}
        self.cla_lbd = {}
        self.n_bin_problem = 0   # binary problem clauses (invariant checks)
        self.n_bin_learnt = 0
        self.learnt_binaries: List[tuple] = []

        # VSIDS over variables, with phase saving for decision polarity.
        self.act: List[float] = [0.0] * n
        self.heap: List = [(0.0, v) for v in range(n)]  # already a heap
        self._heap_limit = max(16384, 8 * n)
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.cla_inc = 1.0
        self.clause_decay = clause_decay
        self.saved_phase: List[int] = [1] * n  # default polarity: false

        self.restart_base = restart_base
        self._luby_index = 0
        self.learnt_limit_base = learnt_limit_base
        self.learnt_limit_growth = learnt_limit_growth
        self.max_learnts = learnt_limit_base
        self.minimize_learned = minimize_learned
        self._reduce_count = 0

        #: Optional repro.proof.ProofLog (DRUP over var = internal + 1).
        self.proof = proof
        self.stats = SolverStats()
        self.ok = True
        self._seen: List[bool] = [False] * n
        self._core: Optional[List[int]] = None
        #: Decision confinement of the current solve() call (``cone``).
        self._cone = None
        self._cone_vars: Optional[List[int]] = None
        self._in_cone: Optional[bytearray] = None
        self._main_heap: Optional[List] = None
        self._skipped: List[tuple] = []
        #: Verify every clause/trail invariant after each conflict (tests).
        self.debug_checks = debug_checks

        # Observability (repro.obs): None when off; the search loop pays
        # one None-test per iteration, the BCP loop nothing at all.
        self.tracer = make_tracer(trace)
        self.timers = (PhaseTimers()
                       if phase_timers or self.tracer is not None else None)
        if progress_interval < 0:
            raise SolverError("progress_interval must be >= 0")
        self.progress_interval = progress_interval
        self.progress = progress
        self._last_progress = (0.0, 0)
        self._bj_sum = 0
        self._bj_count = 0
        #: Wall seconds spent inside solve() calls (orchestration gap
        #: accounting, same contract as the legacy engines).
        self.solve_seconds_total = 0.0

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def lit_value(self, lit: int) -> int:
        """Value of a literal: 1, 0 or -1 (unassigned)."""
        return self.val[lit]

    def _enqueue(self, lit: int, reason: int) -> None:
        """Assign ``lit`` true (caller has checked it is unassigned)."""
        val = self.val
        val[lit] = 1
        val[lit ^ 1] = 0
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail[self.trail_len] = lit
        self.trail_len += 1

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        split = self.trail_lim[target_level]
        trail = self.trail
        val = self.val
        reason = self.reason
        saved_phase = self.saved_phase
        act = self.act
        heap = self.heap
        for idx in range(self.trail_len - 1, split - 1, -1):
            lit = trail[idx]
            var = lit >> 1
            saved_phase[var] = lit & 1
            val[lit] = -1
            val[lit ^ 1] = -1
            reason[var] = NO_REASON
            heappush(heap, (-act[var], var))
        self.trail_len = split
        del self.trail_lim[target_level:]
        self.qhead = split
        if len(heap) > self._heap_limit:
            # Lazy deletion lets stale (old-activity / assigned) entries
            # pile up; compact back to one entry per unassigned variable
            # so pops stay O(log num_vars) on long runs.
            self.heap = [(-act[v], v) for v in range(self.num_vars)
                         if val[v << 1] < 0]
            heapify(self.heap)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause (root level only); False = UNSAT.

        Literals are internal; duplicates, tautologies, and root-false
        literals are normalised away.
        """
        if self.trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        if not self.ok:
            return False
        val = self.val
        out: List[int] = []
        seen = set()
        for lit in lits:
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            v = val[lit]
            if v == 1:
                return True  # satisfied at root
            if v == 0:
                continue     # false at root: drop
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            if self.proof is not None and not self.proof.complete:
                self.proof.add([])
            return False
        if len(out) == 1:
            return self._assert_root(out[0])
        if len(out) == 2:
            a, b = out
            self.bimp[a ^ 1].append(b)
            self.bimp[b ^ 1].append(a)
            self.n_bin_problem += 1
            return True
        self._attach_arena(out)
        return True

    def _attach_arena(self, lits: List[int]) -> int:
        """Append a >=3-literal clause to the arena; returns its offset."""
        arena = self.arena
        arena.append(len(lits))
        off = len(arena)
        arena.extend(lits)
        self.watches[lits[0]].append(lits[1])
        self.watches[lits[0]].append(off)
        self.watches[lits[1]].append(lits[0])
        self.watches[lits[1]].append(off)
        return off

    def _learn_clause(self, lits: List[int], lbd: int) -> None:
        """Record a learned clause (cold path; called once per conflict)."""
        stats = self.stats
        stats.learned_clauses += 1
        stats.learned_literals += len(lits)
        if self.proof is not None:
            self.proof.add([_dimacs(l) for l in lits])
        if self.tracer is not None:
            self.tracer.emit("learn", size=len(lits), lbd=lbd,
                             level=len(self.trail_lim))
        if len(lits) <= 1:
            # Asserted directly by the caller (_record_learnt, add_learned).
            return
        if len(lits) == 2:
            a, b = lits
            self.bimp[a ^ 1].append(b)
            self.bimp[b ^ 1].append(a)
            self.n_bin_learnt += 1
            # Binaries vanish into the implication lists; remembered here
            # so lemma sharing (repro.cube.sharing) can export them.
            self.learnt_binaries.append((a, b))
            return
        off = self._attach_arena(lits)
        self.learnts.append(off)
        self.cla_act[off] = self.cla_inc
        self.cla_lbd[off] = lbd

    def add_learned(self, lits: Sequence[int]) -> bool:
        """Add a clause derived outside conflict analysis (root level only;
        explicit learning's refuted sub-problems); False = UNSAT.

        Root-false literals are dropped first, so the watched literals are
        never false.  Logged, counted and traced like a conflict's clause.
        """
        if self.trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        if not self.ok:
            return False
        val = self.val
        out = [lit for lit in lits if val[lit] != 0]
        if not out:
            # Every literal is false at the root: the empty clause.
            self.ok = False
            self._learn_clause(out, 0)
            return False
        self._learn_clause(out, len(out))
        if len(out) == 1 and val[out[0]] < 0:
            return self._assert_root(out[0])
        return True

    def _assert_root(self, lit: int) -> bool:
        """Assert a unit clause at level 0 and propagate; False = UNSAT."""
        self._enqueue(lit, NO_REASON)
        self.ok = self._propagate() is None
        if not self.ok and self.proof is not None and not self.proof.complete:
            self.proof.add([])
        return self.ok

    def _reduce_db(self) -> None:
        """Tiered reduction: keep glue, age the mid tier, halve the rest."""
        arena = self.arena
        cla_act = self.cla_act
        cla_lbd = self.cla_lbd
        reason = self.reason
        val = self.val
        before = len(self.learnts)
        self._reduce_count += 1
        core: List[int] = []
        mid: List[int] = []
        local: List[int] = []
        for off in self.learnts:
            lbd = cla_lbd[off]
            if lbd <= LBD_CORE:
                core.append(off)
            elif lbd <= LBD_MID:
                mid.append(off)
            else:
                local.append(off)
        local.sort(key=lambda off: cla_act[off])
        drop = local[:len(local) // 2]
        # Every other reduction, demote the mid tier's inactive half too —
        # the "aging" step that keeps the mid tier from growing unboundedly.
        if self._reduce_count % 2 == 0 and mid:
            mid.sort(key=lambda off: cla_act[off])
            cut = len(mid) // 4
            drop += mid[:cut]
            mid = mid[cut:]
        kept = core + mid + local[len(local) // 2:]
        really_kept = list(kept)
        for off in drop:
            head = arena[off]
            locked = (val[head] == 1
                      and reason[head >> 1] == (off << 1))
            if locked:
                really_kept.append(off)
                continue
            size = arena[off - 1]
            if self.proof is not None:
                self.proof.delete(
                    [_dimacs(arena[k]) for k in range(off, off + size)])
            # Dead marker: negated size keeps the arena walkable while
            # watch scans drop the clause lazily.
            arena[off - 1] = -size
            del cla_act[off]
            del cla_lbd[off]
            self.stats.deleted_clauses += 1
        self.learnts = really_kept
        if self.tracer is not None:
            self.tracer.emit("reduce_db", before=before,
                             after=len(really_kept))

    # ------------------------------------------------------------------
    # BCP
    # ------------------------------------------------------------------

    def _propagate(self):
        """Propagate the FIFO to fixpoint.

        Returns None, or the conflict: an arena offset (int) or a list of
        false literals (binary-clause conflicts).
        """
        val = self.val
        trail = self.trail
        bimp = self.bimp
        watches = self.watches
        arena = self.arena
        level = self.level
        reason = self.reason
        qhead = self.qhead
        tlen = self.trail_len
        lvl = len(self.trail_lim)  # constant for the whole fixpoint
        nprops = 0
        nimpl = 0
        try:
            while qhead < tlen:
                p = trail[qhead]
                qhead += 1
                nprops += 1

                # --- binary implications: one flat scan, no watch moves
                for q in bimp[p]:
                    vq = val[q]
                    if vq < 0:
                        nimpl += 1
                        val[q] = 1
                        val[q ^ 1] = 0
                        var = q >> 1
                        level[var] = lvl
                        reason[var] = ((p ^ 1) << 1) | 1
                        trail[tlen] = q
                        tlen += 1
                    elif vq == 0:
                        qhead = tlen
                        return [q, p ^ 1]

                # --- arena clauses via blocker watch pairs
                false_lit = p ^ 1
                ws = watches[false_lit]
                if not ws:
                    continue
                i = j = 0
                n_ws = len(ws)
                while i < n_ws:
                    blocker = ws[i]
                    if val[blocker] == 1:
                        ws[j] = blocker
                        ws[j + 1] = ws[i + 1]
                        i += 2
                        j += 2
                        continue
                    off = ws[i + 1]
                    i += 2
                    size = arena[off - 1]
                    if size <= 0:
                        continue  # deleted clause: drop the watch
                    l0 = arena[off]
                    if l0 == false_lit:
                        l0 = arena[off + 1]
                        arena[off] = l0
                        arena[off + 1] = false_lit
                    v0 = val[l0]
                    if v0 == 1:
                        ws[j] = l0
                        ws[j + 1] = off
                        j += 2
                        continue
                    end = off + size
                    k = off + 2
                    while k < end:
                        lk = arena[k]
                        if val[lk] != 0:
                            arena[off + 1] = lk
                            arena[k] = false_lit
                            wl = watches[lk]
                            wl.append(l0)
                            wl.append(off)
                            break
                        k += 1
                    else:
                        ws[j] = l0
                        ws[j + 1] = off
                        j += 2
                        if v0 == 0:  # conflict: every literal false
                            while i < n_ws:
                                ws[j] = ws[i]
                                ws[j + 1] = ws[i + 1]
                                i += 2
                                j += 2
                            del ws[j:]
                            qhead = tlen
                            return off
                        nimpl += 1
                        val[l0] = 1
                        val[l0 ^ 1] = 0
                        var = l0 >> 1
                        level[var] = lvl
                        reason[var] = off << 1
                        trail[tlen] = l0
                        tlen += 1
                del ws[j:]
            return None
        finally:
            self.qhead = qhead
            self.trail_len = tlen
            self.stats.propagations += nprops
            self.stats.implications += nimpl

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _reason_side(self, var: int) -> List[int]:
        """Antecedent literals (false under assignment) of an implication."""
        r = self.reason[var]
        if r == NO_REASON:
            raise SolverError("decision variable has no reason side")
        if r & 1:
            return [r >> 1]
        off = r >> 1
        arena = self.arena
        size = arena[off - 1]
        return [arena[k] for k in range(off + 1, off + size)]

    def _bump_var(self, var: int) -> None:
        act = self.act[var] + self.var_inc
        self.act[var] = act
        if act > 1e100:
            self._rescale_activity()
            act = self.act[var]
        heappush(self.heap, (-act, var))

    def _rescale_activity(self) -> None:
        scale = 1e-100
        self.act = [a * scale for a in self.act]
        self.var_inc *= scale

    def _analyze(self, confl) -> tuple:
        """Derive the 1UIP clause; returns (learnt_lits, backjump_level, lbd)."""
        arena = self.arena
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self._seen
        cla_act = self.cla_act
        act = self.act
        var_inc = self.var_inc
        heap = self.heap
        learnt: List[int] = [0]
        counter = 0
        p = -1
        bt_level = 0
        index = self.trail_len - 1
        cur_level = len(self.trail_lim)
        first = True
        while True:
            if isinstance(confl, int):
                if confl in cla_act:
                    cla_act[confl] += self.cla_inc
                size = arena[confl - 1]
                start = confl if first else confl + 1
                side = arena[start:confl + size]
            else:
                side = confl
            for q in side:
                var = q >> 1
                lv = level[var]
                if not seen[var] and lv > 0:
                    seen[var] = True
                    # Inlined _bump_var (this is the analysis hot loop);
                    # rescale stays out-of-line on its rare trigger.
                    a = act[var] + var_inc
                    act[var] = a
                    if a > 1e100:
                        self._rescale_activity()
                        act = self.act
                        var_inc = self.var_inc
                        a = act[var]
                    heappush(heap, (-a, var))
                    if lv >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if lv > bt_level:
                            bt_level = lv
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            r = reason[var]
            if r & 1:
                confl = [r >> 1]
            else:
                confl = r >> 1  # arena offset; implied literal is slot 0
            first = False
        learnt[0] = p ^ 1
        original = learnt
        if self.minimize_learned and len(learnt) > 2:
            learnt = self._minimize(learnt, seen)
            bt_level = max((level[q >> 1] for q in learnt[1:]), default=0)
        for q in original[1:]:
            seen[q >> 1] = False
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt_level, lbd

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Local minimization: drop literals whose reason is subsumed."""
        level = self.level
        reason = self.reason
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r == NO_REASON:
                kept.append(q)
                continue
            if r & 1:
                other = r >> 1
                if seen[other >> 1] or level[other >> 1] == 0:
                    continue
                kept.append(q)
                continue
            off = r >> 1
            arena = self.arena
            size = arena[off - 1]
            redundant = True
            for k in range(off, off + size):
                rl = arena[k]
                rv = rl >> 1
                if rv != (q >> 1) and not seen[rv] and level[rv] != 0:
                    redundant = False
                    break
            if not redundant:
                kept.append(q)
        return kept

    def _record_learnt(self, learnt: List[int], bt_level: int,
                       lbd: int) -> None:
        self._bj_sum += len(self.trail_lim) - bt_level
        self._bj_count += 1
        self._cancel_until(bt_level)
        if len(learnt) > 2:
            # Slot 1 must hold a bt_level literal so backtracking past it
            # re-wakes the clause correctly; pick it before attaching.
            levels = self.level
            k_best = 1
            for k in range(2, len(learnt)):
                if levels[learnt[k] >> 1] > levels[learnt[k_best] >> 1]:
                    k_best = k
            learnt[1], learnt[k_best] = learnt[k_best], learnt[1]
        self._learn_clause(learnt, lbd)
        if len(learnt) == 1:
            v = self.val[learnt[0]]
            if v == 0:
                self.ok = False
                if self.proof is not None and not self.proof.complete:
                    self.proof.add([])
            elif v < 0:
                self._enqueue(learnt[0], NO_REASON)
            return
        if len(learnt) == 2:
            self._enqueue(learnt[0], (learnt[1] << 1) | 1)
            return
        self._enqueue(learnt[0], self.learnts[-1] << 1)

    # ------------------------------------------------------------------
    # Failed-assumption cores (MiniSat's analyzeFinal)
    # ------------------------------------------------------------------

    def _analyze_final(self, seed: List[int], assume: List[int],
                       must_include: Optional[int] = None) -> List[int]:
        """Subset of ``assume`` the refutation reached from ``seed``.

        Assumptions occupy the lowest decision levels and are the only
        decisions there, so every reachable NO_REASON variable above level
        0 is an assumption.  ``must_include`` forces one literal into the
        core (an assumption found already-false, hence implied not
        decided).
        """
        level = self.level
        reason = self.reason
        seen = set()
        core_vars = set()
        stack = [q >> 1 for q in seed]
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            if level[var] <= 0:
                continue
            if reason[var] == NO_REASON:
                core_vars.add(var)
            else:
                stack.extend(q >> 1 for q in self._reason_side(var))
        return [a for a in assume
                if (a >> 1) in core_vars or a == must_include]

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None,
              proof_refutation: bool = False,
              max_learned: Optional[int] = None,
              cone: Optional[Callable[[], Sequence[int]]] = None
              ) -> SolverResult:
        """Search under internal-literal ``assumptions``.

        With ``proof_refutation`` an UNSAT-under-assumptions outcome
        completes the proof log (negated-assumption clause + empty
        clause), valid when the checking formula asserts the assumptions
        as units.  ``max_learned`` returns UNKNOWN once the call has
        learned that many clauses (explicit learning's per-sub-problem
        limit).  ``cone``, called at the first free decision, returns the
        only variables free decisions may take; once they are all assigned
        without a conflict the call returns SAT with their partial model
        (see :meth:`repro.kernel.circuit.KernelEngine.solve_subproblem`).
        """
        start = time.perf_counter()
        stats0 = self.stats.copy()
        limits = (limits or Limits()).validate()
        assume = list(assumptions)
        self._cancel_until(0)
        tracer = self.tracer
        timers = self.timers
        timer_snap = timers.snapshot() if timers is not None else None
        self._last_progress = (start, self.stats.conflicts)
        self._bj_sum = 0
        self._bj_count = 0
        if tracer is not None:
            tracer.emit("solve_start", assumptions=len(assume),
                        learned_db=len(self.learnts) + self.n_bin_learnt)
        interrupted = False
        self._core = None
        self._cone = cone
        if limits.exhausted_on_entry():
            status = UNKNOWN
        else:
            try:
                status = self._search(assume, limits, start, max_learned)
            except KeyboardInterrupt:
                status = UNKNOWN
                interrupted = True
        if (status == UNSAT and proof_refutation and self.proof is not None
                and not self.proof.complete):
            if assume:
                self.proof.add([_dimacs(a ^ 1) for a in assume])
            self.proof.add([])
        model = None
        if status == SAT:
            val = self.val
            model = {v: val[2 * v] == 1
                     for v in (self._cone_vars or range(self.num_vars))
                     if val[2 * v] >= 0}
        if self._main_heap is not None:
            # Back to the main heap; _cancel_until(0) below re-pushes the
            # trail, so only unassigned variables need their entries kept.
            heap = self._main_heap
            val = self.val
            act = self.act
            for entry in self.heap + self._skipped:
                var = entry[1]
                if val[2 * var] < 0 and -entry[0] == act[var]:
                    heappush(heap, entry)
            self.heap = heap
            self._main_heap = None
            self._skipped = []
        self._cone = self._cone_vars = self._in_cone = None
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
            # Once per solve() call, never inside the search loop.
            observe_solve(registry, "kernel", status, elapsed, result.stats,
                          tiers=self._tier_sizes())
        return result

    def _tier_sizes(self) -> dict:
        """Current learned-clause DB size per LBD tier (binaries are
        kept forever alongside the core tier)."""
        core = mid = local = 0
        for lbd in self.cla_lbd.values():
            if lbd <= LBD_CORE:
                core += 1
            elif lbd <= LBD_MID:
                mid += 1
            else:
                local += 1
        return {"core": core + self.n_bin_learnt, "mid": mid,
                "local": local}

    def _search(self, assume: List[int], limits: Limits, start: float,
                max_learned: Optional[int]) -> str:
        if not self.ok:
            self._core = []
            return UNSAT
        stats = self.stats
        tracer = self.tracer
        timers = self.timers
        clock = time.perf_counter
        observed = tracer is not None or timers is not None
        progress_every = (self.progress_interval
                          if tracer is not None or self.progress is not None
                          else 0)
        conflicts_at_entry = stats.conflicts
        learned_at_entry = stats.learned_clauses
        restart_limit = self.restart_base * _luby(self._luby_index)
        conflicts_since_restart = 0
        # Budgets count from this call's entry, like max_conflicts.
        decision_cap = (None if limits.max_decisions is None
                        else stats.decisions + limits.max_decisions)
        pick_branch = (self._pick_branch if self._cone is None
                       else self._pick_in_cone)
        decision_check = 0
        while True:
            if not observed:
                confl = self._propagate()
            else:
                props_before = stats.propagations
                impl_before = stats.implications
                t0 = clock()
                confl = self._propagate()
                if timers is not None:
                    timers.bcp += clock() - t0
                if tracer is not None and stats.propagations > props_before:
                    tracer.emit("implication_batch",
                                n=stats.propagations - props_before,
                                implied=stats.implications - impl_before,
                                trail=self.trail_len,
                                level=len(self.trail_lim))
            if confl is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                level = len(self.trail_lim)
                if tracer is not None:
                    tracer.emit("conflict", level=level,
                                trail=self.trail_len)
                # Before the exits below: explicit-learning sub-problems
                # mostly end on a conflict among their assumptions.
                if progress_every \
                        and stats.conflicts % progress_every == 0:
                    self._emit_progress(start)
                if level == 0:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.add([])
                    self._core = []
                    return UNSAT
                if level <= len(assume):
                    seed = (list(confl) if not isinstance(confl, int) else
                            self._conflict_lits(confl))
                    self._core = self._analyze_final(seed, assume)
                    return UNSAT
                if timers is None:
                    learnt, bt_level, lbd = self._analyze(confl)
                    self._record_learnt(learnt, bt_level, lbd)
                else:
                    t0 = clock()
                    learnt, bt_level, lbd = self._analyze(confl)
                    self._record_learnt(learnt, bt_level, lbd)
                    timers.analyze += clock() - t0
                if self.debug_checks:
                    self.check_invariants()
                if not self.ok:
                    self._core = []
                    return UNSAT
                self.var_inc /= self.var_decay
                self.cla_inc /= self.clause_decay
                if self.cla_inc > 1e100:
                    for off in self.cla_act:
                        self.cla_act[off] *= 1e-100
                    self.cla_inc *= 1e-100
                if max_learned is not None and (
                        stats.learned_clauses - learned_at_entry
                        >= max_learned):
                    return UNKNOWN
                if (stats.conflicts & 255) == 0:
                    if (limits.max_conflicts is not None
                            and stats.conflicts - conflicts_at_entry
                            >= limits.max_conflicts):
                        return UNKNOWN
                    if (limits.max_seconds is not None
                            and clock() - start >= limits.max_seconds):
                        return UNKNOWN
                continue
            if (limits.max_conflicts is not None
                    and stats.conflicts - conflicts_at_entry
                    >= limits.max_conflicts):
                return UNKNOWN
            decision_check += 1
            if (decision_check & 255) == 0 \
                    and limits.max_seconds is not None \
                    and clock() - start >= limits.max_seconds:
                return UNKNOWN
            if decision_cap is not None and stats.decisions >= decision_cap:
                return UNKNOWN
            if conflicts_since_restart >= restart_limit \
                    and len(self.trail_lim) > len(assume):
                conflicts_since_restart = 0
                self._luby_index += 1
                restart_limit = self.restart_base * _luby(self._luby_index)
                stats.restarts += 1
                if tracer is not None:
                    tracer.emit("restart", conflicts=stats.conflicts,
                                level=len(self.trail_lim))
                self._cancel_until(len(assume))
                continue
            if len(self.learnts) > self.max_learnts:
                if timers is None:
                    self._reduce_db()
                else:
                    t0 = clock()
                    self._reduce_db()
                    timers.clause_db += clock() - t0
                self.max_learnts *= self.learnt_limit_growth
            if timers is not None:
                t0 = clock()
            next_lit = None
            while len(self.trail_lim) < len(assume):
                a = assume[len(self.trail_lim)]
                v = self.val[a]
                if v == 1:
                    self.trail_lim.append(self.trail_len)  # dummy level
                elif v == 0:
                    self._core = self._analyze_final([a], assume,
                                                     must_include=a)
                    return UNSAT
                else:
                    next_lit = a
                    break
            if next_lit is None:
                next_lit = pick_branch()
            if timers is not None:
                timers.decision += clock() - t0
            if next_lit is None:
                return SAT
            stats.decisions += 1
            self.trail_lim.append(self.trail_len)
            if len(self.trail_lim) > stats.max_decision_level:
                stats.max_decision_level = len(self.trail_lim)
            if tracer is not None:
                tracer.emit("decision", node=next_lit >> 1,
                            value=1 - (next_lit & 1),
                            level=len(self.trail_lim))
            self._enqueue(next_lit, NO_REASON)

    def _conflict_lits(self, off: int) -> List[int]:
        size = self.arena[off - 1]
        return list(self.arena[off:off + size])

    def _pick_branch(self) -> Optional[int]:
        val = self.val
        act = self.act
        heap = self.heap
        var = None
        while heap:
            neg_act, cand = heappop(heap)
            if val[2 * cand] < 0 and -neg_act == act[cand]:
                var = cand
                break
        if var is None:
            for cand in range(self.num_vars):
                if val[2 * cand] < 0:
                    var = cand
                    break
        if var is None:
            return None
        return 2 * var + self.saved_phase[var]

    def _pick_in_cone(self) -> Optional[int]:
        """:meth:`_pick_branch` over the call's cone; None once the cone is
        fully assigned.  The first pick swaps in a heap of the cone's
        unassigned variables; out-of-cone entries pushed on it later are
        set aside, and solve() merges both back into the main heap."""
        val = self.val
        act = self.act
        in_cone = self._in_cone
        if in_cone is None:
            self._cone_vars = list(self._cone())
            in_cone = self._in_cone = bytearray(self.num_vars)
            cone_heap = []
            for v in self._cone_vars:
                in_cone[v] = 1
                if val[2 * v] < 0:
                    cone_heap.append((-act[v], v))
            heapify(cone_heap)
            self._main_heap = self.heap
            self.heap = cone_heap
        heap = self.heap
        skipped = self._skipped
        while heap:
            neg_act, cand = heappop(heap)
            if val[2 * cand] < 0 and -neg_act == act[cand]:
                if in_cone[cand]:
                    return 2 * cand + self.saved_phase[cand]
                skipped.append((neg_act, cand))
        for cand in self._cone_vars:
            if val[2 * cand] < 0:
                return 2 * cand + self.saved_phase[cand]
        return None

    # ------------------------------------------------------------------
    # Debug invariants (tests call this after every conflict)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify clause/watch/trail consistency; raises SolverError.

        Checked properties:

        * every live arena clause is watched on exactly its slot-0/slot-1
          literals, once each, and by no other literal;
        * no watch list contains a duplicate (blocker, offset) entry or an
          offset pointing at a deleted clause header;
        * the trail's first ``trail_len`` entries assign each variable at
          most once, with ``val``/``level``/``trail_lim`` mutually
          consistent and both polarities of ``val`` coherent;
        * ``qhead`` lies within the trail ring;
        * binary implication lists are symmetric.
        """
        n = self.num_vars
        arena = self.arena
        # Walk every watch list once, counting references per offset.
        refs = {}
        for lit in range(2 * n):
            ws = self.watches[lit]
            if len(ws) % 2:
                raise SolverError("odd watch list on literal %d" % lit)
            seen_offs = set()
            for i in range(1, len(ws), 2):
                off = ws[i]
                if off in seen_offs:
                    raise SolverError(
                        "duplicate watch of clause %d on literal %d"
                        % (off, lit))
                seen_offs.add(off)
                size = arena[off - 1]
                if size <= 0:
                    continue  # stale watch on a deleted clause: legal
                if size < 3:
                    raise SolverError("arena clause %d has size %d"
                                      % (off, size))
                if arena[off] != lit and arena[off + 1] != lit:
                    raise SolverError(
                        "literal %d watches clause %d but is not in its "
                        "watch slots" % (lit, off))
                refs[off] = refs.get(off, 0) + 1
        # Every live clause must have been seen exactly twice.
        live = [off for off in self._live_offsets()]
        for off in live:
            if refs.get(off, 0) != 2:
                raise SolverError(
                    "clause %d watched %d times (expected 2)"
                    % (off, refs.get(off, 0)))
            if (arena[off] >> 1) == (arena[off + 1] >> 1):
                raise SolverError(
                    "clause %d watches two literals of one variable" % off)
        # Trail and value-array consistency.
        if not 0 <= self.qhead <= self.trail_len <= n:
            raise SolverError("trail cursors out of range")
        val = self.val
        level = self.level
        on_trail = set()
        for idx in range(self.trail_len):
            lit = self.trail[idx]
            var = lit >> 1
            if var in on_trail:
                raise SolverError("variable %d assigned twice on trail"
                                  % var)
            on_trail.add(var)
            if val[lit] != 1 or val[lit ^ 1] != 0:
                raise SolverError(
                    "trail literal %d disagrees with value array" % lit)
        for var in range(n):
            va, vb = val[2 * var], val[2 * var + 1]
            if (va, vb) not in ((-1, -1), (1, 0), (0, 1)):
                raise SolverError(
                    "incoherent polarity values for variable %d" % var)
            if va >= 0 and var not in on_trail:
                raise SolverError("assigned variable %d missing from trail"
                                  % var)
            if va >= 0 and not 0 <= level[var] <= len(self.trail_lim):
                raise SolverError("variable %d has level %d out of range"
                                  % (var, level[var]))
        for lvl, split in enumerate(self.trail_lim):
            if not 0 <= split <= self.trail_len:
                raise SolverError("trail_lim[%d]=%d out of range"
                                  % (lvl, split))
            if lvl and split < self.trail_lim[lvl - 1]:
                raise SolverError("trail_lim not monotone")
        # Binary implication symmetry: clause {a, b} appears as
        # b in bimp[a^1] and a in bimp[b^1].
        for lit in range(2 * n):
            for q in self.bimp[lit]:
                if (lit ^ 1) not in self.bimp[q ^ 1]:
                    raise SolverError(
                        "asymmetric binary implication %d -> %d" % (lit, q))

    def _live_offsets(self):
        """Yield the arena offset of every live clause.

        Deleted clauses carry a negated size header, so the arena stays
        sequentially walkable.  Offset 0 is a zero pad word.
        """
        arena = self.arena
        pos = 0
        end = len(arena)
        while pos < end:
            size = arena[pos]
            if size > 0:
                yield pos + 1
                pos += 1 + size
            else:
                pos += 1 - size

    def _emit_progress(self, start: float) -> None:
        now = time.perf_counter()
        stats = self.stats
        last_time, last_conflicts = self._last_progress
        dt = now - last_time
        rate = (stats.conflicts - last_conflicts) / dt if dt > 0 else 0.0
        self._last_progress = (now, stats.conflicts)
        snapshot = ProgressSnapshot(
            elapsed=now - start, conflicts=stats.conflicts,
            decisions=stats.decisions, propagations=stats.propagations,
            restarts=stats.restarts,
            learned_db=len(self.learnts) + self.n_bin_learnt,
            trail_depth=self.trail_len,
            decision_level=len(self.trail_lim),
            conflict_rate=rate,
            avg_backjump=(self._bj_sum / self._bj_count
                          if self._bj_count else 0.0))
        if self.tracer is not None:
            self.tracer.emit("progress", **snapshot.as_dict())
        if self.progress is not None:
            self.progress(snapshot)
