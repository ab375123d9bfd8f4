"""Tests for the fault-tolerant runtime: supervisor, portfolio, faults.

The fault-injection matrix below is the contract the robustness work is
built around: every failure kind the taxonomy names must be *producible*
on demand (via repro.runtime.faults) and must surface as exactly the
structured outcome the supervisor promises — never as a traceback or a
hang in the supervising process.
"""

from __future__ import annotations

import time

import pytest

from repro import Circuit
from repro.errors import (CORRUPT_ANSWER, CRASHED, LOST, MEMOUT, TIMEOUT,
                          SolverError, WorkerFailure)
from repro.result import Limits, SAT, SolverResult, UNKNOWN, UNSAT
from repro.runtime import (EngineSpec, FaultPlan, WorkerJob, default_ladder,
                           run_supervised, solve_portfolio)
from repro.runtime.faults import NO_FAULTS
from repro.runtime.portfolio import ladder_from_names
from conftest import build_full_adder


def build_unsat_circuit() -> Circuit:
    """out = a AND NOT a — trivially UNSAT."""
    c = Circuit("contradiction")
    a = c.add_input("a")
    c.add_output(c.add_and(a, a ^ 1), "out")
    return c


def job_for(circuit: Circuit, fault=None, **kwargs) -> WorkerJob:
    return WorkerJob(circuit=circuit, name="explicit", fault=fault, **kwargs)


# ----------------------------------------------------------------------
# Supervisor: healthy workers
# ----------------------------------------------------------------------

class TestSupervisorHealthy:
    def test_sat_roundtrip(self, full_adder):
        outcome = run_supervised(job_for(full_adder), wall_seconds=30)
        assert outcome.ok and outcome.decisive
        assert outcome.result.status == SAT
        assert outcome.result.model  # model crossed the boundary
        assert outcome.engine == "explicit"

    def test_unsat_roundtrip(self):
        outcome = run_supervised(job_for(build_unsat_circuit()),
                                 wall_seconds=30)
        assert outcome.ok
        assert outcome.result.status == UNSAT

    def test_cnf_kind_model_is_node_indexed(self, full_adder):
        outcome = run_supervised(
            WorkerJob(circuit=full_adder, name="cnf", kind="cnf"),
            wall_seconds=30, certify="sat")
        assert outcome.ok and outcome.result.status == SAT

    @pytest.mark.parametrize("kind", ["brute", "bdd"])
    def test_tiny_cone_engines(self, full_adder, kind):
        outcome = run_supervised(
            WorkerJob(circuit=full_adder, name=kind, kind=kind),
            wall_seconds=30)
        assert outcome.ok and outcome.result.status == SAT

    @pytest.mark.parametrize("kind", ["csat", "cnf"])
    def test_full_certification_accepts_honest_unsat(self, kind):
        outcome = run_supervised(job_for(build_unsat_circuit(), kind=kind),
                                 wall_seconds=30, certify="full")
        assert outcome.ok and outcome.result.status == UNSAT


# ----------------------------------------------------------------------
# Supervisor: the fault-injection matrix
# ----------------------------------------------------------------------

class TestFaultMatrix:
    """Each injected fault must surface as its documented failure kind."""

    @pytest.mark.parametrize("fault,expected_kind", [
        ("crash", CRASHED),
        ("segv", CRASHED),
        ("hang", TIMEOUT),
        ("hang-hard", TIMEOUT),
        ("membomb", MEMOUT),
        ("lost", LOST),
        ("corrupt", CORRUPT_ANSWER),
    ])
    def test_fault_surfaces_as(self, full_adder, fault, expected_kind):
        outcome = run_supervised(job_for(full_adder, fault=fault),
                                 wall_seconds=1.0, grace_seconds=0.5)
        assert not outcome.ok
        assert isinstance(outcome.failure, WorkerFailure)
        assert outcome.failure.kind == expected_kind
        assert outcome.failure.engine == "explicit"

    def test_segv_fault_is_silent_under_faulthandler(self):
        # pytest (and `python -X faulthandler`) enable faulthandler; the
        # injected segfault must not dump the parent's stack on stderr.
        import os
        import subprocess
        import sys
        script = (
            "from repro import Circuit\n"
            "from repro.runtime import WorkerJob, run_supervised\n"
            "c = Circuit('and2')\n"
            "a, b = c.add_input('a'), c.add_input('b')\n"
            "c.add_output(c.add_and(a, b), 'y')\n"
            "outcome = run_supervised(WorkerJob(circuit=c, fault='segv'),\n"
            "                         wall_seconds=20)\n"
            "print(outcome.failure.kind)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-X", "faulthandler", "-c", script],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == CRASHED
        assert "Fatal Python error" not in proc.stderr

    def test_hang_killed_within_grace_of_budget(self, full_adder):
        wall, grace = 0.5, 0.5
        t0 = time.perf_counter()
        outcome = run_supervised(job_for(full_adder, fault="hang"),
                                 wall_seconds=wall, grace_seconds=grace)
        elapsed = time.perf_counter() - t0
        assert outcome.failure.kind == TIMEOUT
        # Documented bound: budget + grace (plus scheduling slack).
        assert elapsed <= wall + grace + 1.0

    def test_hang_hard_needs_sigkill_escalation(self, full_adder):
        wall, grace = 0.4, 0.4
        t0 = time.perf_counter()
        outcome = run_supervised(job_for(full_adder, fault="hang-hard"),
                                 wall_seconds=wall, grace_seconds=grace)
        elapsed = time.perf_counter() - t0
        assert outcome.failure.kind == TIMEOUT
        assert elapsed <= wall + grace + 1.0

    def test_membomb_with_cap_is_memout(self, full_adder):
        outcome = run_supervised(
            job_for(full_adder, fault="membomb", mem_limit_mb=256),
            wall_seconds=20, grace_seconds=1.0)
        assert outcome.failure.kind == MEMOUT
        assert "256" in outcome.failure.detail

    def test_corrupt_model_caught_by_sat_certification(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="corrupt"),
                                 wall_seconds=30, certify="sat")
        assert outcome.failure.kind == CORRUPT_ANSWER

    def test_corrupt_model_trusted_when_certify_off(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="corrupt"),
                                 wall_seconds=30, certify="off")
        assert outcome.ok  # certification off: tampering goes unnoticed

    def test_wrong_answer_caught_by_full_certification(self, full_adder):
        # SAT flipped to UNSAT with no proof: only "full" rejects it.
        outcome = run_supervised(job_for(full_adder, fault="wrong-answer"),
                                 wall_seconds=30, certify="full")
        assert outcome.failure.kind == CORRUPT_ANSWER

    def test_failure_as_dict_shape(self, full_adder):
        outcome = run_supervised(job_for(full_adder, fault="crash"),
                                 wall_seconds=10)
        record = outcome.failure.as_dict()
        assert set(record) == {"kind", "detail", "engine", "seconds"}
        assert record["kind"] == CRASHED


# ----------------------------------------------------------------------
# Portfolio failover
# ----------------------------------------------------------------------

class TestPortfolio:
    def test_sequential_winner(self, full_adder):
        report = solve_portfolio(full_adder, budget=30, workers=1)
        assert report.result.status == SAT
        assert report.winner is not None
        assert not report.degraded
        assert report.result.engine == report.winner

    def test_racing_winner(self, full_adder):
        report = solve_portfolio(full_adder, budget=30, workers=3)
        assert report.result.status == SAT
        assert report.winner is not None

    def test_unsat_instance(self):
        report = solve_portfolio(build_unsat_circuit(), budget=30)
        assert report.result.status == UNSAT

    def test_crash_retry_success(self, full_adder):
        # First spawn crashes; the reseeded retry wins.
        ladder = [EngineSpec("explicit")]
        report = solve_portfolio(full_adder, budget=30, ladder=ladder,
                                 max_retries=1,
                                 faults=FaultPlan.parse("crash@0"))
        assert report.result.status == SAT
        assert report.winner == "explicit"
        outcomes = [a.outcome for a in report.attempts]
        assert outcomes == [CRASHED, SAT]
        # The crash stays on the record as failure provenance.
        assert report.result.failures[0]["kind"] == CRASHED

    def test_corrupt_answer_downgrade_then_failover(self, full_adder):
        # Rung 0 tampers with its answer; certification downgrades it to
        # CORRUPT_ANSWER and the next rung answers instead.
        ladder = [EngineSpec("explicit"), EngineSpec("cnf", "cnf")]
        report = solve_portfolio(full_adder, budget=30, ladder=ladder,
                                 max_retries=0,
                                 faults=FaultPlan.parse("corrupt@0"))
        assert report.result.status == SAT
        assert report.winner == "cnf"
        assert report.attempts[0].outcome == CORRUPT_ANSWER

    def test_timeout_not_retried(self, full_adder):
        ladder = [EngineSpec("explicit")]
        report = solve_portfolio(full_adder, budget=1.0, grace_seconds=0.3,
                                 ladder=ladder, max_retries=2,
                                 faults=FaultPlan.parse("hang-hard@*"))
        # TIMEOUT is deterministic exhaustion: exactly one attempt.
        assert len(report.attempts) == 1
        assert report.attempts[0].outcome == TIMEOUT

    def test_total_failure_degrades_to_structured_unknown(self, full_adder):
        budget, grace = 1.5, 0.3
        t0 = time.perf_counter()
        report = solve_portfolio(full_adder, budget=budget,
                                 grace_seconds=grace,
                                 faults=FaultPlan.parse("hang-hard@*"))
        elapsed = time.perf_counter() - t0
        assert report.degraded
        result = report.result
        assert isinstance(result, SolverResult)
        assert result.status == UNKNOWN
        assert result.failures  # full provenance survives
        assert all(f["kind"] == TIMEOUT for f in result.failures)
        # Hard bound: budget + grace (+ slack for process teardown).
        assert elapsed <= budget + grace + 1.5

    def test_degraded_merges_cooperative_stats(self, full_adder):
        # Healthy workers under a zero-conflict budget return UNKNOWN
        # cooperatively; their partial stats are merged into the result.
        ladder = [EngineSpec("explicit"), EngineSpec("csat", preset="csat")]
        jobs = [spec.job(full_adder, None, 0, None, False, None)
                for spec in ladder]
        for job in jobs:
            job.limits = Limits(max_conflicts=0)
        report = solve_portfolio(full_adder, budget=30, ladder=ladder)
        assert report.result.status == SAT  # trivial instance still solves

    def test_budget_exhausted_skips_remaining_rungs(self, full_adder):
        ladder = [EngineSpec("explicit"), EngineSpec("cnf", "cnf"),
                  EngineSpec("brute", "brute")]
        report = solve_portfolio(full_adder, budget=0.8, grace_seconds=0.2,
                                 ladder=ladder,
                                 faults=FaultPlan.parse("hang@*"))
        assert report.degraded
        assert report.attempts  # at least one rung ran into the wall
        # Whatever never started is reported, not silently dropped.
        assert len(report.attempts) + len(report.skipped) <= 2 * len(ladder)

    def test_invalid_arguments(self, full_adder):
        with pytest.raises(ValueError):
            solve_portfolio(full_adder, workers=0)
        with pytest.raises(ValueError):
            solve_portfolio(full_adder, certify="paranoid")

    def test_report_as_dict(self, full_adder):
        report = solve_portfolio(full_adder, budget=30)
        data = report.as_dict()
        assert data["winner"] == report.winner
        assert data["result"]["status"] == report.result.status
        assert isinstance(data["attempts"], list)

    def test_default_ladder_scales_with_circuit(self, full_adder):
        names = [spec.name for spec in default_ladder(full_adder)]
        assert "explicit" in names and "cnf" in names
        assert "brute" in names and "bdd" in names  # tiny circuit
        big = Circuit("big")
        lits = [big.add_input("i{}".format(k)) for k in range(20)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = big.add_and(acc, lit)
        big.add_output(acc, "o")
        names = [spec.name for spec in default_ladder(big)]
        assert "brute" not in names  # too many inputs to enumerate

    def test_default_ladder_starts_on_the_kernel(self, full_adder):
        ladder = default_ladder(full_adder)
        assert (ladder[0].name, ladder[0].kind, ladder[0].preset) \
            == ("kernel", "csat", "kernel")
        assert [s.preset for s in ladder[1:4]] \
            == ["explicit", "csat-jnode", "implicit"]
        # A rung named for a legacy preset still runs that preset.
        job = EngineSpec("explicit").job(full_adder, None, 0, None, False,
                                         None)
        assert (job.kind, job.preset_name) == ("csat", "explicit")
        assert solve_portfolio(full_adder, budget=30).winner == "kernel"

    def test_ladder_from_names(self):
        specs = ladder_from_names(["explicit", "cnf", "brute", "bdd"])
        assert [s.kind for s in specs] == ["csat", "cnf", "brute", "bdd"]


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_empty(self):
        assert FaultPlan.parse(None).empty
        assert FaultPlan.parse("").empty
        assert NO_FAULTS.fault_for(0) is None

    def test_indexed_and_wildcard(self):
        plan = FaultPlan.parse("crash@0,hang@2")
        assert plan.fault_for(0) == "crash"
        assert plan.fault_for(1) is None
        assert plan.fault_for(2) == "hang"
        plan = FaultPlan.parse("segv@*")
        assert plan.fault_for(0) == plan.fault_for(17) == "segv"

    def test_index_beats_wildcard(self):
        plan = FaultPlan.parse("crash@*,lost@1")
        assert plan.fault_for(0) == "crash"
        assert plan.fault_for(1) == "lost"

    def test_probabilistic_terms_are_deterministic(self):
        plan_a = FaultPlan.parse("crash@p0.5", seed=7)
        plan_b = FaultPlan.parse("crash@p0.5", seed=7)
        draws = [plan_a.fault_for(i) for i in range(64)]
        assert draws == [plan_b.fault_for(i) for i in range(64)]
        assert "crash" in draws and None in draws  # both sides occur

    @pytest.mark.parametrize("spec", ["explode@0", "crash", "crash@x"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


# ----------------------------------------------------------------------
# Limits edge cases (satellite): zero/negative budgets, validation
# ----------------------------------------------------------------------

class TestLimitsEdgeCases:
    @pytest.mark.parametrize("seconds", [0, -1, 0.0, -3.5])
    def test_zero_or_negative_seconds_is_immediate_unknown(
            self, full_adder, seconds):
        from repro.cnf.solver import CnfSolver
        from repro.circuit.cnf_convert import tseitin
        from repro.core.solver import solve_circuit
        limits = Limits(max_seconds=seconds)
        result = solve_circuit(full_adder, limits=limits)
        assert result.status == UNKNOWN
        formula, _ = tseitin(full_adder, objectives=list(full_adder.outputs))
        result = CnfSolver(formula).solve(limits=Limits(max_seconds=seconds))
        assert result.status == UNKNOWN  # identical on both engines

    @pytest.mark.parametrize("field,value", [
        ("max_conflicts", 0), ("max_decisions", -2)])
    def test_zero_or_negative_counters_are_immediate_unknown(
            self, full_adder, field, value):
        from repro.core.solver import solve_circuit
        result = solve_circuit(full_adder, limits=Limits(**{field: value}))
        assert result.status == UNKNOWN

    def test_exhausted_on_entry(self):
        assert Limits(max_seconds=0).exhausted_on_entry()
        assert Limits(max_conflicts=-1).exhausted_on_entry()
        assert not Limits().exhausted_on_entry()
        assert not Limits(max_seconds=1).exhausted_on_entry()

    @pytest.mark.parametrize("kwargs", [
        {"max_conflicts": True},
        {"max_conflicts": 1.5},
        {"max_seconds": float("nan")},
        {"max_seconds": "soon"},
        {"max_decisions": "many"},
    ])
    def test_validate_rejects_bad_types(self, kwargs):
        with pytest.raises(SolverError):
            Limits(**kwargs).validate()

    def test_validate_returns_self(self):
        limits = Limits(max_seconds=5)
        assert limits.validate() is limits


# ----------------------------------------------------------------------
# KeyboardInterrupt containment (satellite)
# ----------------------------------------------------------------------

class TestKeyboardInterrupt:
    def test_csat_engine_returns_unknown(self, full_adder, monkeypatch):
        from repro.core.solver import CircuitSolver
        from repro.csat.engine import CSatEngine
        from repro.csat.options import preset

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CSatEngine, "_search", boom)
        result = CircuitSolver(full_adder, preset("explicit")).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_cnf_solver_returns_unknown(self, full_adder, monkeypatch):
        from repro.circuit.cnf_convert import tseitin
        from repro.cnf.solver import CnfSolver

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CnfSolver, "_search", boom)
        formula, _ = tseitin(full_adder, objectives=list(full_adder.outputs))
        result = CnfSolver(formula).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_core_solver_contains_interrupt_in_prepare(self, full_adder,
                                                       monkeypatch):
        from repro.core import solver as core_solver

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(core_solver.CircuitSolver, "prepare", boom)
        result = core_solver.CircuitSolver(full_adder).solve()
        assert result.status == UNKNOWN
        assert result.interrupted

    def test_interrupted_survives_as_dict(self):
        result = SolverResult(status=UNKNOWN, interrupted=True)
        assert result.as_dict()["interrupted"] is True
