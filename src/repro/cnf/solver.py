"""CDCL CNF solver — the ZChaff-architecture baseline.

The paper compares its circuit solver against ZChaff; since ZChaff is a
closed C++ binary, every table here uses this from-scratch CDCL solver with
the same architecture as its baseline (see DESIGN.md, substitution 1):

* two watched literals per clause (Chaff's lazy BCP);
* VSIDS decision ordering with periodic decay;
* first-UIP conflict analysis with conflict-clause learning and
  non-chronological backjumping (Zhang et al., ICCAD 2001);
* geometric restarts;
* activity-based learned-clause deletion.

Literals are encoded internally as ``2*var + sign`` (sign 1 = negated);
the public API speaks DIMACS integers.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence

from ..errors import SolverError
from ..obs import PhaseTimers, ProgressSnapshot, complete_phases, make_tracer
from ..obs.metrics import default_registry, observe_solve
from ..result import Limits, SAT, SolverResult, SolverStats, UNKNOWN, UNSAT
from .formula import CnfFormula


def _dimacs(lit: int) -> int:
    """Internal literal back to DIMACS form."""
    var = lit >> 1
    return -var if (lit & 1) else var

_UNASSIGNED = -1
_NO_REASON = -1


def _ilit(dimacs_lit: int) -> int:
    """DIMACS literal to internal encoding."""
    var = abs(dimacs_lit)
    return 2 * var + (1 if dimacs_lit < 0 else 0)


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed).

    Standard formulation: locate position ``i`` inside the smallest full
    binary prefix that contains it, recursing into the remainder.
    """
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


class CnfSolver:
    """A CDCL solver over a :class:`~repro.cnf.formula.CnfFormula`.

    One instance may be solved repeatedly (e.g. under different assumptions);
    learned clauses persist between calls.
    """

    def __init__(self, formula: CnfFormula,
                 var_decay: float = 0.95,
                 clause_decay: float = 0.999,
                 restart_first: int = 100,
                 restart_factor: float = 1.5,
                 learnt_limit_factor: float = 0.33,
                 minimize_learned: bool = True,
                 restart_strategy: str = "geometric",
                 phase_saving: bool = False,
                 proof=None,
                 certify: bool = False,
                 trace=None,
                 phase_timers: bool = False,
                 progress_interval: int = 0,
                 progress=None):
        #: Replay every answer through repro.verify.certify (raises
        #: CertificationError on mismatch).  Implies proof collection.
        self.certify = certify
        # Observability (repro.obs): same contract as the circuit engine —
        # tracer/timers are None when off, and the search loop pays only a
        # None-test per iteration.
        self.tracer = make_tracer(trace)
        self.timers = (PhaseTimers()
                       if phase_timers or self.tracer is not None else None)
        if progress_interval < 0:
            raise SolverError("progress_interval must be >= 0")
        self.progress_interval = progress_interval
        self.progress = progress
        self._last_progress = (0.0, 0)   # (perf_counter, conflicts)
        self._bj_sum = 0                 # back-jump lengths since the last
        self._bj_count = 0               # progress snapshot (observed runs)
        if certify and proof is None:
            from ..proof import ProofLog
            proof = ProofLog()
        #: Optional repro.proof.ProofLog collecting a DRUP trace.
        self.proof = proof
        #: The original formula, kept for answer certification.
        self.formula = formula
        if restart_strategy not in ("geometric", "luby"):
            raise SolverError("restart_strategy must be geometric or luby")
        #: "geometric" is the ZChaff-era default; "luby" the modern one.
        self.restart_strategy = restart_strategy
        #: Remember each variable's last value and reuse it on decisions
        #: (not in ZChaff; off by default for baseline fidelity).
        self.phase_saving = phase_saving
        self.num_vars = formula.num_vars
        n = self.num_vars
        self.values: List[int] = [_UNASSIGNED] * (n + 1)
        self.level: List[int] = [0] * (n + 1)
        self.reason: List[int] = [_NO_REASON] * (n + 1)
        self.trail: List[int] = []       # internal literals, in assignment order
        self.trail_lim: List[int] = []   # trail index at each decision level
        self.qhead = 0
        self.clauses: List[Optional[List[int]]] = []
        self.learnt_idx: List[int] = []  # indices of learned clauses
        self.clause_activity: Dict[int, float] = {}
        self.watches: List[List[int]] = [[] for _ in range(2 * n + 2)]
        self.activity: List[float] = [0.0] * (2 * n + 2)
        self.heap: List = []  # lazy max-heap of (-activity, literal)
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.cla_inc = 1.0
        self.clause_decay = clause_decay
        self.restart_first = restart_first
        self.restart_factor = restart_factor
        self.minimize_learned = minimize_learned
        self.stats = SolverStats()
        self.ok = True  # False once root-level UNSAT is established
        self._seen: List[bool] = [False] * (n + 1)
        self._saved_phase: List[int] = [0] * (n + 1)
        self._core: Optional[List[int]] = None  # failed-assumption core
        self._luby_index = 0
        self.max_learnts = max(1000.0,
                               learnt_limit_factor * len(formula.clauses))
        for lit in range(2, 2 * n + 2):
            heappush(self.heap, (0.0, lit))
        for clause in formula.clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def lit_value(self, lit: int) -> int:
        """Value of an internal literal: 0, 1 or -1 (unassigned)."""
        v = self.values[lit >> 1]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (lit & 1)

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit: int, reason: int) -> bool:
        """Assign ``lit`` true; False if it contradicts the current value."""
        var = lit >> 1
        val = self.values[var]
        if val != _UNASSIGNED:
            return val == (1 ^ (lit & 1))
        self.values[var] = 1 ^ (lit & 1)
        self.level[var] = self.decision_level
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _cancel_until(self, target_level: int) -> None:
        if self.decision_level <= target_level:
            return
        split = self.trail_lim[target_level]
        for lit in reversed(self.trail[split:]):
            var = lit >> 1
            self._saved_phase[var] = self.values[var]
            self.values[var] = _UNASSIGNED
            self.reason[var] = _NO_REASON
            heappush(self.heap, (-self.activity[lit], lit))
            heappush(self.heap, (-self.activity[lit ^ 1], lit ^ 1))
        del self.trail[split:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------

    def add_clause(self, dimacs_literals: Sequence[int]) -> bool:
        """Add a problem clause (root level only).  False = formula UNSAT."""
        if self.decision_level != 0:
            raise SolverError("clauses may only be added at decision level 0")
        if not self.ok:
            return False
        lits: List[int] = []
        seen = set()
        for dl in dimacs_literals:
            lit = _ilit(dl)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self.lit_value(lit)
            if val == 1:
                return True  # already satisfied at root
            if val == 0:
                continue     # already false at root: drop literal
            seen.add(lit)
            lits.append(lit)
        if not lits:
            self.ok = False
            if self.proof is not None and not self.proof.complete:
                self.proof.add([])
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], _NO_REASON):
                self.ok = False
            else:
                self.ok = self._propagate() is None
            if not self.ok and self.proof is not None \
                    and not self.proof.complete:
                self.proof.add([])
            return self.ok
        self._attach_clause(lits, learnt=False)
        return True

    def _attach_clause(self, lits: List[int], learnt: bool) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        if learnt:
            self.learnt_idx.append(ci)
            self.clause_activity[ci] = self.cla_inc
            self.stats.learned_clauses += 1
            self.stats.learned_literals += len(lits)
            if self.tracer is not None:
                self.tracer.emit("learn", size=len(lits),
                                 level=self.decision_level)
        return ci

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses."""
        act = self.clause_activity
        before = len(self.learnt_idx)
        self.learnt_idx.sort(key=lambda ci: act.get(ci, 0.0))
        keep_from = len(self.learnt_idx) // 2
        kept: List[int] = []
        for pos, ci in enumerate(self.learnt_idx):
            clause = self.clauses[ci]
            locked = (self.reason[clause[0] >> 1] == ci
                      and self.lit_value(clause[0]) == 1)
            if pos >= keep_from or len(clause) <= 2 or locked:
                kept.append(ci)
                continue
            if self.proof is not None:
                self.proof.delete([_dimacs(l) for l in clause])
            self.clauses[ci] = None  # lazily removed from watch lists
            del self.clause_activity[ci]
            self.stats.deleted_clauses += 1
        self.learnt_idx = kept
        if self.tracer is not None:
            self.tracer.emit("reduce_db", before=before, after=len(kept))

    # ------------------------------------------------------------------
    # BCP
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Propagate the trail; returns a conflicting clause index or None."""
        clauses = self.clauses
        watches = self.watches
        values = self.values
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            i = 0
            j = 0
            n_ws = len(ws)
            while i < n_ws:
                ci = ws[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    continue  # deleted clause: drop the watch
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fv = values[first >> 1]
                if fv != _UNASSIGNED and (fv ^ (first & 1)) == 1:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    kv = values[lk >> 1]
                    if kv == _UNASSIGNED or (kv ^ (lk & 1)) == 1:
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if fv != _UNASSIGNED:  # first is false: conflict
                    while i < n_ws:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self.qhead = len(self.trail)
                    return ci
                self._enqueue(first, ci)
            del ws[j:]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump_var(self, lit: int) -> None:
        self.activity[lit] += self.var_inc
        self.activity[lit ^ 1] += self.var_inc * 0.5
        if self.activity[lit] > 1e100:
            self._rescale_activity()
        heappush(self.heap, (-self.activity[lit], lit))

    def _rescale_activity(self) -> None:
        self.activity = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        self.heap = [(-self.activity[lit], lit)
                     for lit in range(2, 2 * self.num_vars + 2)
                     if self.values[lit >> 1] == _UNASSIGNED]
        import heapq
        heapq.heapify(self.heap)

    def _analyze(self, confl: int):
        """Derive the 1UIP clause; returns (learnt_lits, backjump_level)."""
        seen = self._seen
        learnt: List[int] = [0]  # slot 0: asserting literal
        counter = 0
        p = None
        bt_level = 0
        index = len(self.trail) - 1
        cur_level = self.decision_level
        while True:
            clause = self.clauses[confl]
            if clause is None:
                raise SolverError("reason clause was deleted")
            if confl in self.clause_activity:
                self.clause_activity[confl] += self.cla_inc
            start = 1 if p is not None else 0
            for q in clause[start:]:
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(q ^ 1)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if self.level[var] > bt_level:
                            bt_level = self.level[var]
            while not seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[var]
        learnt[0] = p ^ 1
        original = learnt
        if self.minimize_learned and len(learnt) > 2:
            learnt = self._minimize(learnt, seen)
            # Minimization may have removed the literal that defined the
            # backjump level; recompute it from the survivors.
            bt_level = max((self.level[q >> 1] for q in learnt[1:]), default=0)
        for q in original[1:]:
            seen[q >> 1] = False
        return learnt, bt_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Local (non-recursive) clause minimization: drop literals whose
        reason clause is entirely inside the learnt clause or at level 0."""
        kept = [learnt[0]]
        for q in learnt[1:]:
            reason_ci = self.reason[q >> 1]
            if reason_ci == _NO_REASON:
                kept.append(q)
                continue
            clause = self.clauses[reason_ci]
            redundant = all((r >> 1) == (q >> 1) or seen[r >> 1]
                            or self.level[r >> 1] == 0 for r in clause)
            if not redundant:
                kept.append(q)
        return kept

    def _record_learnt(self, learnt: List[int], bt_level: int) -> None:
        if self.proof is not None:
            self.proof.add([_dimacs(l) for l in learnt])
        self._cancel_until(bt_level)
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], _NO_REASON):
                self.ok = False
            return
        # Watch the asserting literal and one literal from bt_level so that
        # backtracking wakes the clause correctly.
        for k in range(2, len(learnt)):
            if self.level[learnt[k] >> 1] > self.level[learnt[1] >> 1]:
                learnt[1], learnt[k] = learnt[k], learnt[1]
        ci = self._attach_clause(learnt, learnt=True)
        self._enqueue(learnt[0], ci)

    def _decay_activities(self) -> None:
        self.var_inc /= self.var_decay
        self.cla_inc /= self.clause_decay
        if self.cla_inc > 1e100:
            for ci in self.clause_activity:
                self.clause_activity[ci] *= 1e-100
            self.cla_inc *= 1e-100

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        heap = self.heap
        values = self.values
        lit = None
        while heap:
            neg_act, cand = heappop(heap)
            if values[cand >> 1] == _UNASSIGNED \
                    and -neg_act == self.activity[cand]:
                lit = cand
                break
        if lit is None:
            # Heap exhausted: any still-unassigned variable.
            for var in range(1, self.num_vars + 1):
                if values[var] == _UNASSIGNED:
                    lit = 2 * var
                    break
        if lit is None:
            return None
        if self.phase_saving:
            var = lit >> 1
            lit = 2 * var + (0 if self._saved_phase[var] == 1 else 1)
        return lit

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None) -> SolverResult:
        """Solve under optional DIMACS-literal assumptions.

        Returns :data:`~repro.result.UNKNOWN` if a limit in ``limits`` is
        exhausted first.
        """
        start = time.perf_counter()
        stats0 = self.stats.copy()
        limits = (limits or Limits()).validate()
        assume = [_ilit(a) for a in assumptions]
        self._cancel_until(0)
        tracer = self.tracer
        timers = self.timers
        timer_snap = timers.snapshot() if timers is not None else None
        self._last_progress = (start, self.stats.conflicts)
        if tracer is not None:
            tracer.emit("solve_start", assumptions=len(assume),
                        learned_db=len(self.learnt_idx))
        interrupted = False
        self._core = None  # set by _search on UNSAT exits
        if limits.exhausted_on_entry():
            status = UNKNOWN  # zero/negative budget: already exhausted
        else:
            try:
                status = self._search(assume, limits, start)
            except KeyboardInterrupt:
                # Convert Ctrl-C into a clean UNKNOWN carrying the partial
                # stats; _cancel_until(0) below restores a consistent state.
                status = UNKNOWN
                interrupted = True
        model = None
        if status == SAT:
            model = {v: bool(self.values[v]) for v in range(1, self.num_vars + 1)
                     if self.values[v] != _UNASSIGNED}
        self._cancel_until(0)
        elapsed = time.perf_counter() - start
        core = None
        if status == UNSAT and self._core is not None:
            core = [_dimacs(l) for l in self._core]
        result = SolverResult(status=status, model=model,
                              stats=self.stats.delta_since(stats0),
                              time_seconds=elapsed,
                              interrupted=interrupted, core=core)
        if timers is not None:
            result.phase_seconds = complete_phases(
                timers.delta_since(timer_snap), elapsed)
        if tracer is not None:
            tracer.emit("solve_end", status=status, seconds=round(elapsed, 6),
                        phases={phase: round(seconds, 6) for phase, seconds
                                in result.phase_seconds.items()})
        registry = default_registry()
        if registry is not None:
            # Once per solve() call, never inside the search loop.
            observe_solve(registry, "cnf", status, elapsed, result.stats)
        if self.certify:
            self._certify(result, assumptions)
        return result

    def _certify(self, result: SolverResult,
                 assumptions: Sequence[int]) -> None:
        # Imported here: repro.verify sits above the solvers in the layering.
        from ..verify.certify import (certify_cnf_sat, certify_cnf_unsat,
                                      require)
        if result.status == SAT:
            model = dict(result.model)
            for a in assumptions:  # assumptions must hold in the model too
                if model.get(abs(a), a > 0) != (a > 0):
                    raise SolverError(
                        "SAT model violates assumption {}".format(a))
            require(certify_cnf_sat(self.formula, model),
                    context=self.formula.name)
        elif result.status == UNSAT and not assumptions:
            # Assumption-driven UNSAT answers carry no closed DRUP proof
            # (the empty clause is never derivable from the formula alone),
            # so only refutations of the bare formula are checkable.
            require(certify_cnf_unsat(self.formula, self.proof),
                    context=self.formula.name)

    def _analyze_final(self, seed: List[int], assume: List[int],
                       must_include: Optional[int] = None) -> List[int]:
        """Failed-assumption core (MiniSat's analyzeFinal).

        Walks reason clauses from the ``seed`` literals back to the
        decisions they depend on.  When the conflict sits at a level
        ``<= len(assume)`` every decision above level 0 is an assumption,
        so the reachable ones are a subset of ``assume`` sufficient for
        UNSAT.  ``must_include`` forces one literal into the core (an
        assumption found already-false, whose variable was implied).
        Returns internal literals; solve() converts to DIMACS.
        """
        seen = set()
        core_vars = set()
        stack = [l >> 1 for l in seed]
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            if self.level[var] <= 0:
                continue
            ci = self.reason[var]
            if ci == _NO_REASON:
                core_vars.add(var)
            else:
                stack.extend(l >> 1 for l in self.clauses[ci]
                             if (l >> 1) != var)
        return [a for a in assume
                if (a >> 1) in core_vars or a == must_include]

    def _search(self, assume: List[int], limits: Limits, start: float) -> str:
        if not self.ok:
            self._core = []
            return UNSAT
        tracer = self.tracer
        timers = self.timers
        clock = time.perf_counter
        observed = tracer is not None or timers is not None
        progress_every = (self.progress_interval
                          if tracer is not None or self.progress is not None
                          else 0)
        conflicts_at_entry = self.stats.conflicts
        # Budgets count from this call's entry, like max_conflicts.
        decision_cap = (None if limits.max_decisions is None
                        else self.stats.decisions + limits.max_decisions)
        restart_limit = self.restart_first
        conflicts_since_restart = 0
        while True:
            if not observed:
                confl = self._propagate()
            else:
                props_before = self.stats.propagations
                t0 = clock()
                confl = self._propagate()
                if timers is not None:
                    timers.bcp += clock() - t0
                if tracer is not None \
                        and self.stats.propagations > props_before:
                    tracer.emit("implication_batch",
                                n=self.stats.propagations - props_before,
                                trail=len(self.trail),
                                level=self.decision_level)
            if confl is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if tracer is not None:
                    tracer.emit("conflict", level=self.decision_level,
                                trail=len(self.trail))
                if self.decision_level == 0:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.add([])
                    self._core = []
                    return UNSAT
                if self.decision_level <= len(assume):
                    # Conflict depends only on assumptions: UNSAT under them.
                    self._core = self._analyze_final(self.clauses[confl],
                                                     assume)
                    return UNSAT
                level_before = self.decision_level if progress_every else 0
                if timers is None:
                    learnt, bt_level = self._analyze(confl)
                    self._record_learnt(learnt, bt_level)
                else:
                    t0 = clock()
                    learnt, bt_level = self._analyze(confl)
                    self._record_learnt(learnt, bt_level)
                    timers.analyze += clock() - t0
                if progress_every:
                    self._bj_sum += level_before - bt_level
                    self._bj_count += 1
                if not self.ok:
                    self._core = []  # root-level refutation: no assumptions
                    return UNSAT
                self._decay_activities()
                if progress_every \
                        and self.stats.conflicts % progress_every == 0:
                    self._emit_progress(start)
                if (self.stats.conflicts & 1023) == 0:
                    if (limits.max_conflicts is not None
                            and self.stats.conflicts - conflicts_at_entry
                            >= limits.max_conflicts):
                        return UNKNOWN
                    if (limits.max_seconds is not None
                            and time.perf_counter() - start >= limits.max_seconds):
                        return UNKNOWN
                continue
            if (limits.max_conflicts is not None
                    and self.stats.conflicts - conflicts_at_entry
                    >= limits.max_conflicts):
                return UNKNOWN
            if (limits.max_seconds is not None
                    and time.perf_counter() - start >= limits.max_seconds):
                return UNKNOWN
            if (decision_cap is not None
                    and self.stats.decisions >= decision_cap):
                return UNKNOWN
            if conflicts_since_restart >= restart_limit:
                conflicts_since_restart = 0
                if self.restart_strategy == "luby":
                    restart_limit = self.restart_first * _luby(self._luby_index)
                    self._luby_index += 1
                else:
                    restart_limit = int(restart_limit * self.restart_factor)
                self.stats.restarts += 1
                if tracer is not None:
                    tracer.emit("restart", conflicts=self.stats.conflicts,
                                level=self.decision_level)
                self._cancel_until(len(assume))
                continue
            if len(self.learnt_idx) > self.max_learnts:
                if timers is None:
                    self._reduce_db()
                else:
                    t0 = clock()
                    self._reduce_db()
                    timers.clause_db += clock() - t0
                self.max_learnts *= 1.1
            # Next decision: pending assumptions first.
            if timers is not None:
                t0 = clock()
            next_lit = None
            while self.decision_level < len(assume):
                a = assume[self.decision_level]
                val = self.lit_value(a)
                if val == 1:
                    self._new_decision_level()  # already true: dummy level
                elif val == 0:
                    # Assumption conflicts with a forced value.
                    self._core = self._analyze_final([a], assume,
                                                     must_include=a)
                    return UNSAT
                else:
                    next_lit = a
                    break
            if next_lit is None:
                next_lit = self._pick_branch()
            if timers is not None:
                timers.decision += clock() - t0
            if next_lit is None:
                return SAT
            self.stats.decisions += 1
            self._new_decision_level()
            if self.decision_level > self.stats.max_decision_level:
                self.stats.max_decision_level = self.decision_level
            if tracer is not None:
                tracer.emit("decision", node=next_lit >> 1,
                            value=1 ^ (next_lit & 1),
                            level=self.decision_level)
            self._enqueue(next_lit, _NO_REASON)

    def _emit_progress(self, start: float) -> None:
        """Build one progress snapshot and deliver it (tracer + callback)."""
        now = time.perf_counter()
        stats = self.stats
        last_time, last_conflicts = self._last_progress
        dt = now - last_time
        rate = (stats.conflicts - last_conflicts) / dt if dt > 0 else 0.0
        self._last_progress = (now, stats.conflicts)
        avg_bj = self._bj_sum / self._bj_count if self._bj_count else 0.0
        self._bj_sum = 0
        self._bj_count = 0
        snapshot = ProgressSnapshot(
            elapsed=now - start, conflicts=stats.conflicts,
            decisions=stats.decisions, propagations=stats.propagations,
            restarts=stats.restarts, learned_db=len(self.learnt_idx),
            trail_depth=len(self.trail), decision_level=self.decision_level,
            conflict_rate=rate, avg_backjump=avg_bj)
        if self.tracer is not None:
            self.tracer.emit("progress", **snapshot.as_dict())
        if self.progress is not None:
            self.progress(snapshot)


def make_solver(formula: CnfFormula, backend: str = "legacy",
                **solver_kwargs):
    """Build a CNF solver: ``legacy`` (this module) or ``kernel``.

    Both speak the same surface — ``solve(assumptions, limits)``,
    ``stats``, ``check_invariants`` on the kernel — so callers can switch
    with a string.  The kernel backend is the flat-array core in
    :mod:`repro.kernel`.
    """
    if backend == "kernel":
        from ..kernel.cnf import FlatCnfSolver
        return FlatCnfSolver(formula, **solver_kwargs)
    if backend == "legacy":
        return CnfSolver(formula, **solver_kwargs)
    raise SolverError("unknown CNF backend {!r}; choose 'legacy' or "
                      "'kernel'".format(backend))


def solve_formula(formula: CnfFormula,
                  limits: Optional[Limits] = None,
                  backend: str = "legacy",
                  **solver_kwargs) -> SolverResult:
    """One-shot convenience wrapper: build a solver and solve."""
    return make_solver(formula, backend, **solver_kwargs).solve(limits=limits)
