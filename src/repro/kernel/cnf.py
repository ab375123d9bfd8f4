"""CNF adapter for the flat kernel: the solver every ``cnf`` worker runs.

:class:`FlatCnfSolver` speaks the same public surface as the legacy
:class:`~repro.cnf.solver.CnfSolver` — DIMACS literals in, a
:class:`~repro.result.SolverResult` out, with models/cores translated
back to DIMACS, optional certification, proof logging, and the obs
hooks — but runs the :class:`~repro.kernel.flat.FlatSolver` underneath.
DIMACS variable ``v`` maps to internal variable ``v - 1`` (so proof
logging's ``internal + 1`` convention round-trips exactly).

Who runs which CNF solver: the isolated one-shot ``cnf`` workers of
:mod:`repro.runtime` (serve ``engine=cnf`` jobs, the portfolio's
``cnf`` rung) build this class directly; cube workers run the kernel
preset's circuit engine instead.  The legacy
``CnfSolver`` stays the paper's ZChaff baseline, the differential
oracle's ``cnf`` voter and the default of ``repro solve-cnf``, whose
``--backend kernel`` reaches this class through
:func:`repro.cnf.solver.make_solver`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cnf.formula import CnfFormula
from ..errors import SolverError
from ..result import Limits, SAT, SolverResult, UNSAT
from .flat import FlatSolver


def _ilit(dimacs_lit: int) -> int:
    """DIMACS literal to the kernel's internal encoding."""
    var = abs(dimacs_lit)
    return 2 * (var - 1) + (1 if dimacs_lit < 0 else 0)


def _dlit(lit: int) -> int:
    """Internal literal back to DIMACS."""
    var = (lit >> 1) + 1
    return -var if (lit & 1) else var


class FlatCnfSolver:
    """Flat-array CDCL over a :class:`CnfFormula`.

    One instance may be solved repeatedly (e.g. under different
    assumptions); learned clauses persist between calls.
    """

    def __init__(self, formula: CnfFormula,
                 proof=None,
                 certify: bool = False,
                 trace=None,
                 phase_timers: bool = False,
                 progress_interval: int = 0,
                 progress=None,
                 debug_checks: bool = False,
                 **solver_kwargs):
        #: Replay every answer through repro.verify (CertificationError on
        #: mismatch); implies proof collection, like the legacy solver.
        self.certify = certify
        if certify and proof is None:
            from ..proof import ProofLog
            proof = ProofLog()
        self.proof = proof
        self.formula = formula
        self.solver = FlatSolver(formula.num_vars, proof=proof,
                                 trace=trace, phase_timers=phase_timers,
                                 progress_interval=progress_interval,
                                 progress=progress,
                                 debug_checks=debug_checks,
                                 **solver_kwargs)
        self.num_vars = formula.num_vars
        for clause in formula.clauses:
            self.add_clause(clause)

    @property
    def stats(self):
        return self.solver.stats

    @property
    def ok(self):
        return self.solver.ok

    @property
    def tracer(self):
        return self.solver.tracer

    @property
    def timers(self):
        return self.solver.timers

    def check_invariants(self) -> None:
        self.solver.check_invariants()

    def add_clause(self, dimacs_literals: Sequence[int]) -> bool:
        """Add a problem clause (root level only).  False = UNSAT."""
        for dl in dimacs_literals:
            if not 1 <= abs(dl) <= self.num_vars:
                raise SolverError("literal {} out of range".format(dl))
        return self.solver.add_clause([_ilit(dl) for dl in dimacs_literals])

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None) -> SolverResult:
        """Solve under optional DIMACS-literal assumptions."""
        assume = [_ilit(a) for a in assumptions]
        result = self.solver.solve(assumptions=assume, limits=limits)
        if result.status == SAT and result.model is not None:
            result.model = {v + 1: value
                            for v, value in result.model.items()}
        if result.core is not None:
            result.core = [_dlit(l) for l in result.core]
        if self.certify:
            self._certify(result, assumptions)
        return result

    def _certify(self, result: SolverResult,
                 assumptions: Sequence[int]) -> None:
        from ..verify.certify import (certify_cnf_sat, certify_cnf_unsat,
                                      require)
        if result.status == SAT:
            model = dict(result.model)
            for a in assumptions:
                if model.get(abs(a), a > 0) != (a > 0):
                    raise SolverError(
                        "SAT model violates assumption {}".format(a))
            require(certify_cnf_sat(self.formula, model),
                    context=self.formula.name)
        elif result.status == UNSAT and not assumptions:
            require(certify_cnf_unsat(self.formula, self.proof),
                    context=self.formula.name)
