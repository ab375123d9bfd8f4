"""Circuit adapter for the flat kernel: the ``kernel`` preset's engine.

Compiles an AIG-style :class:`~repro.circuit.netlist.Circuit` into the
:class:`~repro.kernel.flat.FlatSolver`'s clause form — variables are node
ids, literals the circuit's own ``2*node + inv`` encoding, so models,
assumption cores, and learned clauses need no translation at all.

Each AND gate ``g = a & b`` contributes the Larrabee clauses

* ``(~g | a)`` and ``(~g | b)`` — binary, compiled straight into the
  kernel's binary implication lists (no watch machinery), and
* ``(g | ~a | ~b)`` — ternary, into the clause arena,

which is exactly the Tseitin encoding :func:`repro.circuit.cnf_convert.
tseitin` produces (DIMACS var = node + 1).  Because the kernel's clause
database *is* that encoding, its DRUP log replays against the Tseitin
formula and the whole ``repro.verify`` machinery certifies kernel answers
unchanged.

:class:`KernelEngine` exposes the same surface
:class:`~repro.core.solver.CircuitSolver` drives on the legacy
:class:`~repro.csat.engine.CSatEngine` (stats, tracer, timers,
``solve(assumptions, limits, proof_refutation)``, and the explicit-learning
pair ``solve_subproblem`` / ``add_learned_clause``), so the runtime, cube,
and serve layers pick the kernel up through ``SolverOptions.backend``
with no changes of their own.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuit.netlist import Circuit
from ..result import Limits, SolverResult
from .flat import FlatSolver


class KernelEngine:
    """Flat-array CDCL search over one :class:`Circuit`.

    Drop-in engine for :class:`~repro.core.solver.CircuitSolver` when
    ``SolverOptions.backend == "kernel"``.  It runs the paper's explicit
    learning (:mod:`repro.csat.explicit`) through :meth:`solve_subproblem`
    and :meth:`add_learned_clause`; J-node decisions and implicit learning
    stay with the legacy engine.
    """

    def __init__(self, circuit: Circuit, options=None, proof=None):
        self.circuit = circuit
        self.options = options
        n = circuit.num_nodes
        self.num_nodes = n
        kwargs = {}
        if options is not None:
            kwargs = dict(
                var_decay=options.var_decay,
                clause_decay=options.clause_decay,
                learnt_limit_base=options.learnt_limit_base,
                learnt_limit_growth=options.learnt_limit_growth,
                trace=options.trace,
                phase_timers=options.phase_timers,
                progress_interval=options.progress_interval,
                progress=options.progress,
            )
        self.solver = FlatSolver(n, proof=proof, **kwargs)
        self.proof = proof
        #: Saved phases from before the first sub-problem since the last
        #: solve(); see solve_subproblem.
        self._phases_before_subproblems = None
        solver = self.solver
        bimp = solver.bimp
        attach = solver._attach_arena
        for g in circuit.and_nodes():
            f0, f1 = circuit.fanins(g)
            ng = 2 * g + 1
            if (f0 >> 1) == (f1 >> 1):
                # Degenerate gate: AND(x, x) is a buffer, AND(x, ~x) is
                # constant false.
                if f0 == f1:
                    solver.add_clause([ng, f0])       # g -> x
                    solver.add_clause([2 * g, f0 ^ 1])  # x -> g
                else:
                    solver.add_clause([ng])
                continue
            # (~g | f0), (~g | f1) straight into the implication lists and
            # (g | ~f0 | ~f1) straight into the arena — add_clause would
            # put them there too, but the gates are the bulk of
            # construction, so skip its normalisation scans.  They are
            # no-ops here: nothing is assigned until the constant node
            # below, and g, f0 and f1 are three distinct nodes.
            bimp[2 * g].append(f0)
            bimp[f0 ^ 1].append(ng)
            bimp[2 * g].append(f1)
            bimp[f1 ^ 1].append(ng)
            solver.n_bin_problem += 2
            attach([2 * g, f0 ^ 1, f1 ^ 1])
        # Constant node 0 is FALSE: asserting literal 1 ("node0 = 0") after
        # the gates are wired propagates constants through the netlist at
        # the root level, like the legacy engine's pre-seeded trail entry.
        solver.add_clause([1])

    # Surface shared with CSatEngine (what CircuitSolver/oracle touch). --

    @property
    def stats(self):
        return self.solver.stats

    @property
    def tracer(self):
        return self.solver.tracer

    @property
    def timers(self):
        return self.solver.timers

    @property
    def solve_seconds_total(self):
        return self.solver.solve_seconds_total

    @property
    def ok(self):
        return self.solver.ok

    def check_invariants(self) -> None:
        self.solver.check_invariants()

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None,
              proof_refutation: bool = False) -> SolverResult:
        """Search under circuit-literal assumptions.

        Models map node ids to booleans (full assignments, like the CNF
        path); assumption cores come back in circuit literals.
        """
        if self._phases_before_subproblems is not None:
            self.solver.saved_phase = self._phases_before_subproblems
            self._phases_before_subproblems = None
        return self.solver.solve(assumptions=assumptions, limits=limits,
                                 proof_refutation=proof_refutation)

    def solve_subproblem(self, assumptions: Sequence[int],
                         limits: Optional[Limits] = None,
                         max_learned: Optional[int] = None) -> SolverResult:
        """One explicit-learning sub-problem, confined to its signals.

        Free decisions come only from the fan-in cone of the assumed
        signals, the kernel's stand-in for the legacy engine's J-node
        frontier.  Once that cone is fully assigned without a conflict the
        assumptions are satisfiable: the cone's inputs fix every cone value
        whatever the other inputs are, so the call returns SAT with the
        cone's partial model.  The cone is built at the first free
        decision, so a sub-problem refuted while its assumptions propagate
        never pays for it.

        Sub-problems assert values their signals are unlikely to take, so
        the polarities they save would mislead the main search: the next
        :meth:`solve` starts from the saved phases of before the first
        sub-problem.  VSIDS activities are kept.
        """
        solver = self.solver
        if self._phases_before_subproblems is None:
            self._phases_before_subproblems = list(solver.saved_phase)
        return solver.solve(assumptions=assumptions, limits=limits,
                            max_learned=max_learned,
                            cone=lambda: self.circuit.cone(assumptions))

    def add_learned_clause(self, lits: Sequence[int]) -> bool:
        """Attach a sound clause at decision level 0 (a refuted
        sub-problem's negated assumptions): DRUP-logged, counted in
        ``learned_clauses``/``learned_literals`` and traced as ``learn``.
        Returns False once the clause database is refuted."""
        return self.solver.add_learned(lits)
