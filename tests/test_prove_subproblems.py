"""The one correlation-proving loop and its three callers.

:func:`repro.csat.explicit.prove_subproblems` walks explicit learning's
sub-problems, SAT sweeping's candidates and the incremental prepass's
stored lemmas.  These tests pin what the paper rows get out of it (the
kernel preset's explicit phase and the sweep's merges), hold every
verdict of every caller to exhaustive simulation, and cover the walk's
own contract: oracle first, lazy engine, stop rule.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Circuit
from repro.bench.instances import instance_by_name
from repro.circuit.miter import miter
from repro.core.solver import CircuitSolver
from repro.core.sweep import sat_sweep
from repro.csat import explicit
from repro.csat.explicit import (SubProblem, prove_subproblems,
                                 run_explicit_learning)
from repro.csat.options import preset
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.inc import (ConeCertifier, KnowledgeStore, absorb_sweep,
                       incremental_prepass, mutate_circuit)
from repro.inc.bench import tamper_store_file
from repro.kernel.circuit import KernelEngine
from repro.result import Limits
from repro.sim.bitsim import truth_tables
from repro.sim.correlation import CorrelationSet
from conftest import build_random_circuit

#: preset("kernel") on the paper's equivalence rows: (conflicts,
#: decisions, sub-problems run, sub-problems refuted).
EXPLICIT_PINS = {
    "c1355.equiv": (239, 649, 477, 477),
    "c3540.equiv": (288, 770, 521, 521),
    "c6288.equiv": (420, 1204, 839, 839),
    "c7552.equiv": (264, 1525, 519, 495),
}

#: sat_sweep's defaults on the same rows: (pairs merged, constants
#: merged, refuted, undecided).
SWEEP_PINS = {
    "c1355.equiv": (205, 67, 0, 0),
    "c3540.equiv": (241, 39, 0, 0),
    "c6288.equiv": (392, 55, 0, 0),
    "c7552.equiv": (210, 75, 24, 0),
}


@pytest.mark.parametrize("name", sorted(EXPLICIT_PINS))
def test_kernel_explicit_phase_is_pinned(name):
    solver = CircuitSolver(instance_by_name(name).build(), preset("kernel"))
    result = solver.solve()
    report = solver.explicit_report
    assert (result.stats.conflicts, result.stats.decisions,
            report.subproblems_run, report.subproblems_unsat) \
        == EXPLICIT_PINS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_merges_are_pinned(name):
    result = sat_sweep(instance_by_name(name).build())
    assert (result.merged_pairs, result.merged_constants, result.refuted,
            result.undecided) == SWEEP_PINS[name]


# ----------------------------------------------------------------------
# Every verdict of every caller, against exhaustive simulation
# ----------------------------------------------------------------------

def holds(circuit, clause):
    """Does ``clause`` hold under every input assignment?"""
    tables = truth_tables(circuit)
    mask = (1 << (1 << circuit.num_inputs)) - 1
    word = 0
    for lit in clause:
        word |= tables[lit >> 1] ^ (mask if lit & 1 else 0)
    return word & mask == mask


class Witness:
    """Records each walk's verdicts and every clause a kernel is taught."""

    def __init__(self, monkeypatch, module):
        self.verdicts = []      # (circuit or None, sub, verdict)
        self.taught = []        # (circuit, clause)
        self.circuit = None     # set by callers whose engine is lazy
        inner = explicit.prove_subproblems
        witness = self

        def spy(engine, subs, **kwargs):
            circuit = getattr(engine, "circuit", witness.circuit)
            for sub, verdict in inner(engine, subs, **kwargs):
                witness.verdicts.append((circuit, sub, verdict))
                yield sub, verdict

        teach = KernelEngine.add_learned_clause

        def add_learned_clause(engine, lits):
            witness.taught.append((engine.circuit, list(lits)))
            return teach(engine, lits)

        monkeypatch.setattr(module, "prove_subproblems", spy)
        monkeypatch.setattr(KernelEngine, "add_learned_clause",
                            add_learned_clause)

    def check(self):
        seen = {True: 0, False: 0, None: 0}
        for circuit, sub, verdict in self.verdicts:
            seen[verdict] += 1
            if verdict is not None:
                negated = [a ^ 1 for a in sub.assumptions]
                assert holds(circuit, negated) is verdict, (sub, verdict)
        for circuit, clause in self.taught:
            assert holds(circuit, clause), clause
        return seen


def random_candidates(circuit, seed, classes=8, size=3):
    """Mostly false candidate classes, the first one constant."""
    rng = random.Random(seed)
    nodes = list(circuit.and_nodes())
    rng.shuffle(nodes)
    out = []
    for i in range(classes):
        members = sorted(nodes[i * size:(i + 1) * size])
        if i == 0:
            members = [0] + members
        out.append([(n, rng.randrange(2)) for n in members])
    return CorrelationSet(classes=out)


def test_explicit_learning_verdicts_hold(monkeypatch):
    witness = Witness(monkeypatch, explicit)
    for seed in range(6):
        c = build_random_circuit(seed + 1200, num_inputs=8, num_gates=60)
        options = preset("kernel")
        options.explicit_learn_limit = 1 if seed % 2 else 10
        engine = KernelEngine(c, options)
        run_explicit_learning(engine, random_candidates(c, seed))
    seen = witness.check()
    assert seen[True] and seen[False]


@pytest.mark.parametrize("budget", [1, 2000])
def test_sweep_verdicts_hold(monkeypatch, budget):
    from repro.core import sweep
    witness = Witness(monkeypatch, sweep)
    for seed in range(6):
        c = build_random_circuit(seed + 1300, num_inputs=8, num_gates=60)
        sat_sweep(c, correlations=random_candidates(c, seed),
                  per_candidate_conflicts=budget)
        sat_sweep(c, seed=seed, per_candidate_conflicts=budget)
    seen = witness.check()
    assert seen[True] and seen[False]


@pytest.mark.parametrize("certifier", ["on", "off"])
def test_lemma_replay_verdicts_hold(monkeypatch, tmp_path, certifier):
    from repro.inc import replay
    witness = Witness(monkeypatch, replay)
    inner = replay._replay_lemmas

    def replay_lemmas(circuit, *args):
        witness.circuit = circuit
        return inner(circuit, *args)

    monkeypatch.setattr(replay, "_replay_lemmas", replay_lemmas)
    if certifier == "off":
        monkeypatch.setattr(ConeCertifier, "clause", lambda self, lits: None)
    base = miter(array_multiplier(3), csa_multiplier(3))
    path = str(tmp_path / "store.jsonl")
    store = KnowledgeStore(path)
    absorb_sweep(store, base, sat_sweep(base, export_lemmas=True))
    for seed in (51, 52):
        incremental_prepass(mutate_circuit(base, seed=seed, edits=2), store)
    store.close()
    tamper_store_file(path)
    tampered = KnowledgeStore(path)
    for seed in (53, 54):
        incremental_prepass(mutate_circuit(base, seed=seed, edits=2),
                            tampered)
    tampered.close()
    seen = witness.check()
    assert seen[True] and seen[False]


# ----------------------------------------------------------------------
# The walk's own contract
# ----------------------------------------------------------------------

def _subs(circuit):
    """Three sub-problems on an AND gate g = a & b: (g=1, a=0) and
    (g=1, b=0) are refuted, (a=1, b=1) is satisfiable."""
    a, b = circuit.inputs
    g = circuit.outputs[0]
    return [SubProblem([g, 2 * a + 1], g >> 1, "pair"),
            SubProblem([g, 2 * b + 1], g >> 1, "pair"),
            SubProblem([2 * a, 2 * b], g >> 1, "pair")]


def _and_gate():
    c = Circuit(strash=False)
    a, b = c.add_input("a"), c.add_input("b")
    c.add_output(c.add_and(a, b), "g")
    return c


def test_verdicts_and_lessons_without_an_oracle():
    c = _and_gate()
    engine = KernelEngine(c)
    verdicts = [v for _, v in prove_subproblems(engine, _subs(c))]
    assert verdicts == [True, True, False]
    assert engine.stats.subproblems_solved == 3
    assert engine.stats.subproblems_unsat == 2
    assert engine.stats.learned_clauses == 2


def test_oracle_verdicts_skip_the_engine_and_a_lazy_one_is_not_built():
    c = _and_gate()
    built = []

    def factory():
        built.append(KernelEngine(c))
        return built[-1]

    walk = prove_subproblems(factory, _subs(c)[:2],
                             certify=lambda clause: True)
    assert [v for _, v in walk] == [True, True]
    assert built == []


def test_lazy_engine_is_taught_what_the_oracle_certified():
    c = _and_gate()
    subs = _subs(c)
    built = []

    def factory():
        built.append(KernelEngine(c))
        return built[-1]

    first = [a ^ 1 for a in subs[0].assumptions]
    walk = prove_subproblems(
        factory, subs,
        certify=lambda clause: True if clause == first else None)
    assert [v for _, v in walk] == [True, True, False]
    (engine,) = built
    assert engine.stats.subproblems_solved == 2   # the oracle took one
    # The certified clause reached the engine at its build, and the
    # refuted sub-problem's after it.
    assert engine.stats.learned_clauses == 2


def test_budget_out_is_undecided():
    c = instance_by_name("c6288.equiv").build()
    engine = KernelEngine(c)
    sub = SubProblem(list(c.outputs), max(l >> 1 for l in c.outputs),
                     "const")
    ((_, verdict),) = prove_subproblems(engine, [sub],
                                        limits=Limits(max_conflicts=1))
    assert verdict is None
    assert engine.stats.subproblems_unsat == 0


def test_deadline_and_refuted_engine_stop_the_walk():
    c = _and_gate()
    engine = KernelEngine(c)
    assert list(prove_subproblems(engine, _subs(c),
                                  deadline=time.perf_counter())) == []
    g = c.outputs[0]
    engine.add_learned_clause([g])
    engine.add_learned_clause([g ^ 1])
    assert not engine.ok
    assert list(prove_subproblems(engine, _subs(c))) == []
