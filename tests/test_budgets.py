"""Resource budgets are per call: every engine counts a ``Limits`` budget
from the entry of the solve() it was passed to, and every entry point
that accepts one passes it on."""

from __future__ import annotations

import pytest

from repro.bench.instances import instance_by_name
from repro.circuit.bench_io import write_bench
from repro.circuit.cnf_convert import tseitin
from repro.cli import main
from repro.cnf.solver import CnfSolver
from repro.core.solver import CircuitSolver, check_equivalence
from repro.csat.engine import CSatEngine
from repro.csat.options import preset
from repro.gen.iscas import circuit_by_name, equiv_miter
from repro.kernel import KernelEngine
from repro.result import Limits, UNKNOWN, UNSAT

BUDGET = Limits(max_decisions=200)


def _solver(kind):
    """A reusable solve() under BUDGET on one engine.  Plain search needs
    thousands of decisions on c6288.equiv, so every call runs out."""
    m = equiv_miter("c6288")
    if kind == "cnf":
        solver = CnfSolver(tseitin(m)[0])
        return lambda: solver.solve(limits=BUDGET)
    engine = CSatEngine(m) if kind == "csat" else KernelEngine(m)
    return lambda: engine.solve(assumptions=list(m.outputs), limits=BUDGET)


@pytest.mark.parametrize("kind", ["csat", "kernel", "cnf"])
def test_decision_budget_counts_from_each_call(kind):
    solve = _solver(kind)
    first = solve()
    second = solve()
    assert first.status == second.status == UNKNOWN
    # A lifetime count would leave the second call no budget at all.
    assert first.stats.decisions == second.stats.decisions == 200


def test_explicit_phase_decisions_do_not_spend_the_objective_budget():
    circuit = instance_by_name("c3540.equiv").build()
    unlimited = CircuitSolver(circuit, preset("explicit")).solve()
    assert unlimited.status == UNSAT
    # The explicit phase alone spends more decisions than this budget.
    assert unlimited.stats.decisions > 800
    result = CircuitSolver(circuit, preset("explicit")).solve(
        limits=Limits(max_decisions=800))
    assert result.status == UNSAT


def test_check_equivalence_honours_limits():
    c432 = circuit_by_name("c432")
    result = check_equivalence(c432, c432, preset("kernel"),
                               limits=Limits(max_conflicts=0))
    assert result.status == UNKNOWN


def test_cli_equiv_budget_zero_is_undecided(tmp_path, capsys):
    path = tmp_path / "c432.bench"
    path.write_text(write_bench(circuit_by_name("c432")))
    assert main(["equiv", str(path), str(path), "--budget", "0"]) == 2
    assert "UNDECIDED" in capsys.readouterr().out
