"""Cube-and-conquer: cutter partition laws, core extraction, conquest."""

import pytest

from repro import (Circuit, CircuitSolver, CnfSolver, Limits, SAT, UNKNOWN,
                   UNSAT, miter)
from repro.cnf.formula import CnfFormula
from repro.cube import (CubeOutcome, CubeReport, CutterOptions, PRUNED,
                        SharedKnowledge, collect_csat_lemmas,
                        core_cube_literals, deserialize_classes,
                        generate_cubes, inject_csat_lemmas, prunes,
                        serialize_classes, solve_cubes)
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.runtime import FaultPlan
from repro.verify.certify import certify_sat_model

from conftest import build_random_circuit


def small_miter(width: int = 3) -> Circuit:
    return miter(array_multiplier(width), csa_multiplier(width))


def lit_true(lit: int, vals) -> bool:
    return bool(vals[lit >> 1]) ^ bool(lit & 1)


# ----------------------------------------------------------------------
# Cutter: determinism and partition laws
# ----------------------------------------------------------------------

def test_cutter_deterministic():
    circuit = small_miter(3)
    options = CutterOptions(max_cubes=16)
    first = generate_cubes(circuit, options=options)
    second = generate_cubes(circuit, options=options)
    assert [c.literals for c in first.all_leaves] \
        == [c.literals for c in second.all_leaves]
    assert first.lookaheads == second.lookaheads


def test_cutter_respects_max_cubes():
    circuit = small_miter(3)
    cubes = generate_cubes(circuit, options=CutterOptions(max_cubes=6))
    assert 1 <= len(cubes.cubes) <= 6


@pytest.mark.parametrize("seed", [2, 11, 29])
def test_cutter_leaves_partition_assignments(seed):
    """Leaves are decision literals only, so over any full assignment
    exactly one leaf (open or refuted) is consistent: the leaves tile the
    assignment space with no gap and no overlap."""
    circuit = build_random_circuit(seed, num_inputs=6, num_gates=40,
                                   num_outputs=2)
    cubes = generate_cubes(circuit, options=CutterOptions(max_cubes=12))
    if cubes.trivial is not None:
        pytest.skip("trivial instance: no tree to check")
    leaves = cubes.all_leaves
    assert len(leaves) >= 2

    # Pairwise contradictory: some variable is asserted both ways.
    for i, a in enumerate(leaves):
        set_a = set(a.literals)
        for b in leaves[i + 1:]:
            assert any(lit ^ 1 in set_a for lit in b.literals), \
                "leaves {} and {} overlap".format(a.index, b.index)

    # Exhaustive: bitsim-style spot check over input assignments.
    import random
    rng = random.Random(seed)
    for _ in range(64):
        vals = circuit.evaluate({pi: bool(rng.getrandbits(1))
                                 for pi in circuit.inputs})
        matches = [leaf for leaf in leaves
                   if all(lit_true(lit, vals) for lit in leaf.literals)]
        assert len(matches) == 1, \
            "assignment consistent with {} leaves".format(len(matches))


# ----------------------------------------------------------------------
# Failed-assumption cores (satellite: both engines)
# ----------------------------------------------------------------------

def test_csat_core_excludes_irrelevant_assumptions():
    c = Circuit("core")
    x = c.add_input("x")
    y = c.add_input("y")
    z = c.add_input("z")
    g = c.add_and(x, y)
    c.add_output(g, "o")
    # x AND y AND NOT g is contradictory; z is irrelevant.
    result = CircuitSolver(c).solve(objectives=[z, x, y, g ^ 1])
    assert result.status == UNSAT
    assert result.core is not None
    assert z not in result.core
    assert set(result.core) <= {x, y, g ^ 1}
    # The core alone must still be contradictory.
    again = CircuitSolver(c).solve(objectives=list(result.core))
    assert again.status == UNSAT


def test_csat_core_none_on_sat():
    c = build_random_circuit(5)
    result = CircuitSolver(c).solve()
    if result.status == SAT:
        assert result.core is None


def test_cnf_core_contradictory_pair():
    formula = CnfFormula(num_vars=3, clauses=[[1, 2], [-2, 3]])
    solver = CnfSolver(formula)
    result = solver.solve(assumptions=[2, -2])
    assert result.status == UNSAT
    assert set(result.core) == {2, -2}


def test_cnf_core_through_implication_chain():
    # 1 -> 2, assumptions 1 and NOT 2: both are needed.
    formula = CnfFormula(num_vars=3, clauses=[[-1, 2]])
    result = CnfSolver(formula).solve(assumptions=[3, 1, -2])
    assert result.status == UNSAT
    assert 3 not in result.core
    assert set(result.core) == {1, -2}


def test_core_prunes_helpers():
    assert prunes([4, 9], [4, 9, 12])
    assert not prunes([4, 9], [4, 12])
    assert core_cube_literals(None, [2, 4]) is None
    assert core_cube_literals([2, 8], [2, 4]) == [2]


# ----------------------------------------------------------------------
# Knowledge sharing
# ----------------------------------------------------------------------

def test_correlation_classes_roundtrip():
    from repro import find_correlations
    circuit = small_miter(3)
    correlations = find_correlations(circuit, seed=1)
    classes = serialize_classes(correlations)
    rebuilt = deserialize_classes(classes)
    assert rebuilt.classes == correlations.classes


def test_shared_knowledge_dedups():
    bus = SharedKnowledge()
    assert bus.absorb([[2], [4, 7]]) == 2
    assert bus.absorb([[2], [7, 4]]) == 0  # same clause, any order
    assert bus.absorb([[9]]) == 1
    assert bus.snapshot() == [[2], [4, 7], [9]]
    assert bus.snapshot(limit=2) == [[4, 7], [9]]


def test_lemma_roundtrip_preserves_answer():
    circuit = small_miter(3)
    donor = CircuitSolver(circuit)
    assert donor.solve().status == UNSAT
    lemmas = collect_csat_lemmas(donor.engine)
    assert lemmas  # a real refutation learns something shareable

    receiver = CircuitSolver(circuit)
    added = inject_csat_lemmas(receiver.engine, lemmas)
    result = receiver.solve()
    assert result.status == UNSAT
    assert added >= 0  # injection may close the instance at the root

    # And on a SAT instance, injected knowledge must not break the model.
    sat_circuit = build_random_circuit(3, num_inputs=6, num_gates=30)
    plain = CircuitSolver(sat_circuit).solve()
    if plain.status == SAT:
        donor2 = CircuitSolver(sat_circuit)
        donor2.solve()
        receiver2 = CircuitSolver(sat_circuit)
        inject_csat_lemmas(receiver2.engine, collect_csat_lemmas(donor2.engine))
        assert receiver2.solve().status == SAT


def test_inject_requires_root_level(full_adder):
    solver = CircuitSolver(full_adder)
    engine = solver.engine
    engine.solve(assumptions=list(full_adder.outputs))
    if engine.frame.trail_lim:
        with pytest.raises(ValueError):
            inject_csat_lemmas(engine, [[2]])


# ----------------------------------------------------------------------
# Conquest: agreement with flat solving (workers=0, the oracle mode)
# ----------------------------------------------------------------------

def test_inprocess_agrees_with_flat_solve_on_random_net():
    """~100 random instances: cube answers must match plain solve."""
    mismatches = []
    for seed in range(100):
        circuit = build_random_circuit(seed, num_inputs=5, num_gates=25,
                                       num_outputs=2)
        flat = CircuitSolver(circuit).solve()
        report = solve_cubes(circuit, workers=0,
                             cutter=CutterOptions(max_cubes=8))
        if report.result.status != flat.status:
            mismatches.append((seed, flat.status, report.result.status))
        if report.result.status == SAT:
            certificate = certify_sat_model(circuit, report.result.model,
                                            list(circuit.outputs))
            assert certificate.ok, "seed {}: {}".format(seed,
                                                        certificate.detail)
    assert not mismatches, mismatches


def test_inprocess_unsat_miter():
    report = solve_cubes(small_miter(3), workers=0,
                         cutter=CutterOptions(max_cubes=8))
    assert report.result.status == UNSAT
    assert report.result.engine == "cube"
    closed = [c for c in report.cubes
              if c.status in (UNSAT, "REFUTED", PRUNED)]
    assert len(closed) == len(report.cubes)


def test_certify_full_rejected():
    with pytest.raises(ValueError):
        solve_cubes(small_miter(3), workers=0, certify="full")


def test_report_as_dict_shape():
    report = solve_cubes(small_miter(3), workers=0,
                         cutter=CutterOptions(max_cubes=4))
    doc = report.as_dict()
    assert doc["result"]["status"] == UNSAT
    assert len(doc["cubes"]) == len(report.cubes)
    assert all("literals" in c for c in doc["cubes"])


# ----------------------------------------------------------------------
# Conquest: isolated workers
# ----------------------------------------------------------------------

def test_workers_unsat_with_lemma_sharing():
    report = solve_cubes(small_miter(3), workers=2,
                         cutter=CutterOptions(max_cubes=6), budget=60)
    assert report.result.status == UNSAT
    assert report.result.engine == "cube"


def test_workers_sat_early_cancel():
    for seed in range(20):
        circuit = build_random_circuit(seed, num_inputs=8, num_gates=50,
                                       num_outputs=1)
        if CircuitSolver(circuit).solve().status == SAT:
            break
    else:
        pytest.skip("no SAT instance found")
    report = solve_cubes(circuit, workers=2,
                         cutter=CutterOptions(max_cubes=6), budget=60)
    assert report.result.status == SAT
    certificate = certify_sat_model(circuit, report.result.model,
                                    list(circuit.outputs))
    assert certificate.ok
    # Early cancellation: siblings need not all have been solved.
    assert sum(1 for c in report.cubes if c.status == SAT) >= 1


def test_workers_fault_injection_failover():
    report = solve_cubes(small_miter(3), workers=2,
                         cutter=CutterOptions(max_cubes=4), budget=60,
                         faults=FaultPlan.parse("crash@0"), max_retries=1)
    assert report.result.status == UNSAT
    assert any(f["kind"] == "CRASHED" for f in report.result.failures)
    assert any(c.attempts > 1 for c in report.cubes)


def test_workers_unretried_timeout_degrades_to_unknown():
    report = solve_cubes(small_miter(4), workers=1,
                         cutter=CutterOptions(max_cubes=2),
                         budget=0.05)
    assert report.result.status == UNKNOWN


# ----------------------------------------------------------------------
# Integrations: oracle, CLI
# ----------------------------------------------------------------------

def test_oracle_includes_cube_engine(full_adder):
    from repro.verify.oracle import differential_check
    report = differential_check(full_adder, limits=Limits(max_conflicts=5000))
    names = [a.name for a in report.answers]
    assert "cube" in names
    assert report.ok, report.summary()


def test_cli_solve_cubes(tmp_path):
    from repro.circuit.bench_io import write_bench
    from repro.cli import main
    path = tmp_path / "adder.bench"
    circuit = build_random_circuit(1, num_inputs=6, num_gates=30,
                                   num_outputs=1)
    expected = CircuitSolver(circuit).solve().status
    path.write_text(write_bench(circuit))
    code = main(["solve", str(path), "--cubes", "2", "--budget", "60"])
    assert code == (10 if expected == SAT else 20)


def test_cli_cube_json(tmp_path, capsys):
    import json
    from repro.circuit.bench_io import write_bench
    from repro.cli import main
    path = tmp_path / "m.bench"
    path.write_text(write_bench(small_miter(3)))
    code = main(["cube", str(path), "--workers", "0", "--max-cubes", "4",
                 "--json"])
    assert code == 20
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["status"] == UNSAT
    assert doc["workers"] == 0


def test_cube_trace_events(tmp_path):
    import json
    trace = tmp_path / "cube.jsonl"
    report = solve_cubes(small_miter(3), workers=0,
                         cutter=CutterOptions(max_cubes=4),
                         trace=str(trace))
    assert report.result.status == UNSAT
    kinds = {json.loads(line)["kind"]
             for line in trace.read_text().splitlines()}
    assert {"cube_generated", "cube_start", "cube_result",
            "cube_end"} <= kinds
