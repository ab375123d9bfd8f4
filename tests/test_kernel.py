"""Kernel internals: invariants under adversarial search, core laws.

``FlatSolver(debug_checks=True)`` runs :meth:`check_invariants` after
*every* conflict, so any watch-list, arena, or trail corruption fails at
the conflict that caused it rather than as a wrong verdict much later.
The failed-assumption-core laws mirror the engine-independent checks in
``test_cube.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit.netlist import Circuit
from repro.cnf.formula import CnfFormula
from repro.core.solver import CircuitSolver
from repro.csat.options import SolverOptions, preset
from repro.errors import SolverError
from repro.kernel import FlatCnfSolver, FlatSolver, KernelEngine
from repro.result import Limits, SAT, UNKNOWN, UNSAT

from conftest import build_full_adder, build_random_circuit


# ----------------------------------------------------------------------
# check_invariants after every conflict on adversarial instances
# ----------------------------------------------------------------------

def _php_formula(holes: int) -> CnfFormula:
    """Pigeonhole: holes+1 pigeons, conflict-dense and UNSAT."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return CnfFormula(num_vars=pigeons * holes, clauses=clauses,
                      name="php{}".format(holes))


def test_invariants_every_conflict_pigeonhole():
    solver = FlatCnfSolver(_php_formula(5), debug_checks=True)
    assert solver.solve().status == UNSAT
    solver.check_invariants()


def test_invariants_every_conflict_random_circuits():
    for seed in range(12):
        circuit = build_random_circuit(seed, num_inputs=7, num_gates=50)
        engine = KernelEngine(circuit)
        engine.solver.debug_checks = True
        for out in circuit.outputs:
            engine.solve(assumptions=[out])
        engine.check_invariants()


def test_invariants_survive_clause_db_reduction():
    """Force _reduce_db to run repeatedly: a small learnt limit plus a
    conflict-rich instance, with checks after every conflict."""
    solver = FlatCnfSolver(_php_formula(6), debug_checks=True,
                           learnt_limit_base=10.0,
                           learnt_limit_growth=1.05)
    assert solver.solve().status == UNSAT
    assert solver.stats.deleted_clauses > 0
    solver.check_invariants()


def test_invariants_survive_restarts_and_assumption_cycles():
    rng = random.Random(5)
    circuit = build_random_circuit(60, num_inputs=10, num_gates=120)
    engine = KernelEngine(circuit)
    engine.solver.debug_checks = True
    engine.solver.restart_base = 4  # restart as often as possible
    nodes = [n for n in circuit.nodes() if circuit.is_and(n)]
    for _ in range(12):
        assume = [2 * rng.choice(nodes) + rng.randint(0, 1)
                  for _ in range(rng.randint(1, 4))]
        engine.solve(assumptions=assume)
        engine.check_invariants()


def test_invariant_checker_catches_planted_corruption():
    """The checker is only worth trusting if it actually fires."""
    solver = FlatSolver(4)
    solver.add_clause([0, 2, 4])
    solver.watches[6].append(0)
    solver.watches[6].append(2)  # watch by a literal not in slots 0/1
    with pytest.raises(SolverError):
        solver.check_invariants()

    solver = FlatSolver(3)
    solver.add_clause([0, 2, 4])
    del solver.watches[0][:]  # clause no longer watched twice
    with pytest.raises(SolverError):
        solver.check_invariants()

    solver = FlatSolver(2)
    solver.bimp[0].append(2)  # asymmetric binary implication
    with pytest.raises(SolverError):
        solver.check_invariants()


# ----------------------------------------------------------------------
# Failed-assumption cores (mirrors test_cube.py's laws)
# ----------------------------------------------------------------------

def test_kernel_core_excludes_irrelevant_assumptions():
    c = Circuit("core")
    x = c.add_input("x")
    y = c.add_input("y")
    z = c.add_input("z")
    g = c.add_and(x, y)
    c.add_output(g, "o")
    result = KernelEngine(c).solve(assumptions=[z, x, y, g ^ 1])
    assert result.status == UNSAT
    assert result.core is not None
    assert z not in result.core
    assert set(result.core) <= {x, y, g ^ 1}
    again = KernelEngine(c).solve(assumptions=list(result.core))
    assert again.status == UNSAT


def test_kernel_core_none_on_sat():
    c = build_random_circuit(5)
    result = KernelEngine(c).solve(assumptions=list(c.outputs))
    if result.status == SAT:
        assert result.core is None


def test_kernel_cnf_core_contradictory_pair():
    formula = CnfFormula(num_vars=3, clauses=[[1, 2], [-2, 3]])
    result = FlatCnfSolver(formula).solve(assumptions=[2, -2])
    assert result.status == UNSAT
    assert set(result.core) == {2, -2}


def test_kernel_cnf_core_through_implication_chain():
    formula = CnfFormula(num_vars=3, clauses=[[-1, 2]])
    result = FlatCnfSolver(formula).solve(assumptions=[3, 1, -2])
    assert result.status == UNSAT
    assert 3 not in result.core
    assert set(result.core) == {1, -2}


def test_kernel_core_is_contradictory_subset_randomized():
    rng = random.Random(42)
    for _ in range(30):
        nv = rng.randint(3, 10)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, nv + 1),
                                        min(rng.randint(1, 3), nv))]
                   for _ in range(rng.randint(3, 40))]
        formula = CnfFormula(num_vars=nv, clauses=clauses)
        assume = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1),
                                      rng.randint(1, nv))]
        result = FlatCnfSolver(formula).solve(assumptions=assume)
        if result.status == UNSAT and result.core is not None:
            assert set(result.core) <= set(assume)
            assert FlatCnfSolver(formula).solve(
                assumptions=result.core).status == UNSAT


# ----------------------------------------------------------------------
# Behavioral contracts shared with the legacy engines
# ----------------------------------------------------------------------

def test_kernel_full_adder_verdicts(full_adder):
    eng = KernelEngine(full_adder)
    s, carry = full_adder.outputs
    assert eng.solve(assumptions=[s, carry]).status == SAT
    # sum and carry cannot disagree with their definition:
    assert KernelEngine(full_adder).solve(
        assumptions=[s, s ^ 1]).status == UNSAT


def test_kernel_limits_and_unknown():
    f = _php_formula(7)  # hard enough not to finish in 10 conflicts
    r = FlatCnfSolver(f).solve(limits=Limits(max_conflicts=10))
    assert r.status == UNKNOWN
    assert r.stats.conflicts <= 256 + 10  # checked every 256 conflicts
    r = FlatCnfSolver(f).solve(limits=Limits(max_conflicts=0))
    assert r.status == UNKNOWN


def test_kernel_preset_certifies_end_to_end():
    for seed in (0, 3, 8):
        circuit = build_random_circuit(seed)
        result = CircuitSolver(
            circuit, preset("kernel", certify=True)).solve()
        assert result.status in (SAT, UNSAT)


def test_kernel_preset_rejects_learning_knobs():
    # The kernel runs explicit learning, by default in its preset ...
    assert preset("kernel").explicit_learning
    SolverOptions(backend="kernel", use_jnode=False,
                  explicit_learning=True).validate()
    # ... but J-node decisions and implicit learning stay legacy-only.
    with pytest.raises(SolverError):
        SolverOptions(backend="kernel", use_jnode=True).validate()
    with pytest.raises(SolverError):
        SolverOptions(backend="kernel", use_jnode=False,
                      implicit_learning=True).validate()
    with pytest.raises(SolverError):
        SolverOptions(backend="nonesuch").validate()


def test_kernel_model_is_total_assignment():
    circuit = build_full_adder()
    result = KernelEngine(circuit).solve(
        assumptions=[circuit.outputs[0]])
    assert result.status == SAT
    assert set(result.model) == set(range(circuit.num_nodes))
    assert result.model[0] is False  # constant node


def test_kernel_incremental_solves_share_learned_clauses():
    f = _php_formula(5)
    solver = FlatCnfSolver(f)
    assert solver.solve().status == UNSAT
    learned_once = solver.stats.learned_clauses
    assert solver.solve().status == UNSAT
    # Second call reuses the database: little to no new learning.
    assert solver.stats.learned_clauses <= learned_once * 2
