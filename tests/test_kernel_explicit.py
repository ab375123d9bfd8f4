"""Explicit learning on the flat kernel (``preset("kernel")``).

The kernel runs the paper's sub-problem sequence through
``KernelEngine.solve_subproblem`` and ``add_learned_clause``.  These tests
pin the headline effect (c6288), the proof trail (DRUP certification),
the cone contract of the confined sub-problem search (SAT models are
partial but certifiable, free decisions stay in the cone) and the
bookkeeping around it (learned-clause accounting, saved phases, the
decision heap).
"""

from __future__ import annotations

import pytest

from repro.bench.instances import instance_by_name
from repro.core.solver import CircuitSolver
from repro.csat.options import preset
from repro.gen.iscas import equiv_miter
from repro.gen.random_circuit import random_dag
from repro.kernel import FlatSolver, KernelEngine
from repro.obs import read_trace
from repro.proof import ProofLog
from repro.result import Limits, SAT, UNKNOWN, UNSAT
from repro.verify.certify import certify_sat_model


def _sat_subproblems(circuit):
    """Run the kernel's explicit phase; (assumptions, model) per SAT
    sub-problem."""
    solver = CircuitSolver(circuit, preset("kernel"))
    engine = solver.engine
    inner = engine.solve_subproblem
    found = []

    def spy(assumptions, limits=None, max_learned=None):
        result = inner(assumptions, limits, max_learned)
        if result.status == SAT:
            found.append((list(assumptions), result.model))
        return result

    engine.solve_subproblem = spy
    solver.prepare()
    return found


def test_c6288_within_twice_legacy_explicit_conflicts():
    m = equiv_miter("c6288")
    legacy = CircuitSolver(m, preset("explicit")).solve()
    assert legacy.status == UNSAT
    bound = 2 * legacy.stats.conflicts
    # Plain kernel search needs ~18k conflicts here; the bound keeps a
    # regression fast to fail.
    result = CircuitSolver(m, preset("kernel")).solve(
        limits=Limits(max_conflicts=bound))
    assert result.status == UNSAT
    assert result.stats.subproblems_solved > 0
    assert result.stats.conflicts <= bound


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_explicit_lemmas_replay_through_drup(name):
    result = CircuitSolver(equiv_miter(name),
                           preset("kernel", certify=True)).solve()
    assert result.status == UNSAT
    assert result.stats.subproblems_unsat > 0


@pytest.mark.parametrize("name", ["c7552.equiv", "9vliw010"])
def test_sat_subproblem_models_certify_on_paper_rows(name):
    circuit = instance_by_name(name).build()
    found = _sat_subproblems(circuit)
    assert found, "expected some satisfiable sub-problems"
    for assumptions, model in found:
        cert = certify_sat_model(circuit, model, assumptions)
        assert cert.ok, cert.detail
        # The model is the cone's, not a whole-circuit assignment.
        assert set(model) <= set(circuit.cone(assumptions))


def test_sat_subproblem_models_certify_on_random_dags():
    total = 0
    for seed in range(20):
        circuit = random_dag(24, 300, num_outputs=2, seed=seed)
        for assumptions, model in _sat_subproblems(circuit):
            cert = certify_sat_model(circuit, model, assumptions)
            assert cert.ok, (seed, assumptions, cert.detail)
            total += 1
    assert total > 20


def test_free_decisions_stay_in_the_cone(tmp_path):
    circuit = instance_by_name("9vliw010").build()
    outside = []
    for assumptions, _ in _sat_subproblems(circuit)[:5]:
        path = str(tmp_path / "sub.jsonl")
        engine = KernelEngine(circuit, preset("kernel", trace=path))
        result = engine.solve_subproblem(assumptions)
        engine.tracer.close()
        assert result.status == SAT
        cone = set(circuit.cone(assumptions))
        outside += [e["node"] for e in read_trace(path)
                    if e["kind"] == "decision" and e["node"] not in cone]
    assert outside == []


def test_cone_heap_hands_out_of_cone_entries_back():
    # a (var 0) is assumed; b and c (vars 1, 2) form the cone; x and y
    # (vars 3, 4) lie outside it.  Deciding ~b implies x, deciding ~c then
    # conflicts on y: the analysis bumps y, the back-jump frees it, and
    # the cone heap's next pick sets y's fresh entry aside.  It must reach
    # the main heap, where y's only other entry is stale.
    solver = FlatSolver(5)
    for clause in ([2, 6], [4, 7, 8], [4, 7, 9]):  # b|x, c|~x|y, c|~x|~y
        assert solver.add_clause(clause)
    result = solver.solve([0], cone=lambda: [0, 1, 2])
    assert result.status == SAT
    assert result.model == {0: True, 1: False, 2: True}
    assert solver.val[8] < 0 and solver.act[4] > 0
    assert (-solver.act[4], 4) in solver.heap


def test_max_learned_stops_the_call():
    m = equiv_miter("c6288")
    solver = KernelEngine(m).solver
    result = solver.solve(list(m.outputs), max_learned=5)
    assert result.status == UNKNOWN
    assert result.stats.learned_clauses == 5


def test_add_learned_clause_is_counted_logged_and_traced(tmp_path):
    path = str(tmp_path / "learn.jsonl")
    m = equiv_miter("c432")
    proof = ProofLog()
    engine = KernelEngine(m, preset("kernel", trace=path), proof=proof)
    a, b = 2 * m.inputs[0], 2 * m.inputs[1]
    assert engine.add_learned_clause([a ^ 1, b ^ 1])
    assert engine.add_learned_clause([a ^ 1])   # unit: asserted at the root
    assert engine.solver.lit_value(a) == 0
    # b's root-false partner is dropped: the clause becomes unit b.
    assert engine.add_learned_clause([a, b])
    assert engine.solver.lit_value(b) == 1
    # Every literal false at the root: the database is refuted.
    assert not engine.add_learned_clause([a, b ^ 1])
    assert not engine.ok and proof.complete
    engine.tracer.close()
    assert engine.stats.learned_clauses == 4
    assert engine.stats.learned_literals == 4
    learns = [e for e in read_trace(path) if e["kind"] == "learn"]
    assert [e["size"] for e in learns] == [2, 1, 1, 0]
    assert [len(lits) for _, lits in proof.steps] == [2, 1, 1, 0]


def test_saved_phases_return_after_the_explicit_phase():
    m = equiv_miter("c432")
    solver = CircuitSolver(m, preset("kernel"))
    engine = solver.engine
    before = list(engine.solver.saved_phase)
    solver.prepare()
    assert solver.explicit_report.subproblems_run > 0
    activities = list(engine.solver.act)
    # A zero budget returns at once, after the phases are restored.
    engine.solve(list(m.outputs), limits=Limits(max_conflicts=0))
    assert engine.solver.saved_phase == before
    assert engine.solver.act == activities   # VSIDS activities are kept
