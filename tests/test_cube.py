"""Cube-and-conquer: cutter partition laws, core extraction, conquest."""

import pytest

from repro import (Circuit, CircuitSolver, CnfSolver, Limits, SAT, UNKNOWN,
                   UNSAT, miter, preset)
from repro.cnf.formula import CnfFormula
from repro.cube import (CubeOutcome, CubeReport, CutterOptions, PRUNED,
                        SharedKnowledge, collect_csat_lemmas,
                        core_cube_literals, generate_cubes,
                        inject_csat_lemmas, prunes, solve_cubes)
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.obs.trace import Tracer
from repro.runtime import FaultPlan
from repro.runtime.supervisor import WorkerHandle
from repro.verify.certify import certify_sat_model

from conftest import build_random_circuit


def small_miter(width: int = 3) -> Circuit:
    return miter(array_multiplier(width), csa_multiplier(width))


def sat_circuit() -> Circuit:
    """The first satisfiable 8-input random circuit of a fixed seed run."""
    for seed in range(20):
        circuit = build_random_circuit(seed, num_inputs=8, num_gates=50,
                                       num_outputs=1)
        if CircuitSolver(circuit).solve().status == SAT:
            return circuit
    pytest.skip("no SAT instance found")


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

def test_shared_knowledge_dedups():
    bus = SharedKnowledge()
    assert bus.absorb([[2], [4, 7]]) == 2
    assert bus.absorb([[2], [7, 4]]) == 0  # same clause, any order
    assert bus.absorb([[9]]) == 1
    assert bus.snapshot() == [[2], [4, 7], [9]]
    assert bus.snapshot(limit=2) == [[4, 7], [9]]


def test_lemma_roundtrip_preserves_answer():
    # A kernel donor, as every cube engine is, and a legacy receiver, as
    # a serve csat job on a legacy preset is when it takes prepass seeds.
    circuit = small_miter(3)
    donor = CircuitSolver(circuit, preset("kernel"))
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
        donor2 = CircuitSolver(sat_circuit, preset("kernel"))
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
    circuit = sat_circuit()
    report = solve_cubes(circuit, workers=2,
                         cutter=CutterOptions(max_cubes=6), budget=60)
    assert report.result.status == SAT
    certificate = certify_sat_model(circuit, report.result.model,
                                    list(circuit.outputs))
    assert certificate.ok
    # Early cancellation: siblings need not all have been solved.
    assert sum(1 for c in report.cubes if c.status == SAT) >= 1


@pytest.mark.parametrize("expected", [SAT, UNSAT])
def test_cnf_workers_answer_and_share_circuit_literals(tmp_path, expected):
    """Cube workers answer, and export clauses of circuit literals only:
    the flat kernel numbers its variables as the circuit's nodes."""
    from repro.durable.checkpoint import load_checkpoint
    circuit = sat_circuit() if expected == SAT else small_miter(4)
    path = str(tmp_path / "cubes.ckpt")
    report = solve_cubes(circuit, workers=2,
                         cutter=CutterOptions(max_cubes=6), budget=60,
                         checkpoint_path=path, checkpoint_every=1)
    assert report.result.status == expected
    if expected == SAT:
        assert certify_sat_model(circuit, report.result.model,
                                 list(circuit.outputs)).ok
    # The pool the workers exported: clauses of circuit literals only.
    lemmas = load_checkpoint(path).lemmas
    assert all(clause and all(2 <= lit < 2 * circuit.num_nodes
                              for lit in clause) for clause in lemmas)
    if expected == UNSAT:
        assert lemmas


@pytest.mark.parametrize("path", ["in-process", "workers", "node"])
def test_a_conquest_builds_no_legacy_engine(monkeypatch, path):
    """Every cube runs on the flat kernel: with the legacy engine's
    constructor made to raise (forked workers inherit the patch), each
    cube path still answers an UNSAT miter and a SAT random circuit
    without a failure."""
    from repro.csat.engine import CSatEngine
    from repro.dist import solve_distributed
    from repro.serve.server import ReproServer
    sat = sat_circuit()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a conquest built a legacy engine")

    monkeypatch.setattr(CSatEngine, "__init__", refuse)
    node = ReproServer(port=0, workers=2).start() if path == "node" \
        else None
    try:
        for circuit, expected in ((small_miter(4), UNSAT), (sat, SAT)):
            if node is not None:
                report = solve_distributed(
                    circuit, nodes=[node.address], budget=60,
                    cutter=CutterOptions(max_cubes=6), poll_seconds=1.0)
            else:
                report = solve_cubes(
                    circuit, workers=2 if path == "workers" else 0,
                    cutter=CutterOptions(max_cubes=6), budget=60)
            assert report.result.status == expected
            assert not report.result.failures
            if expected == UNSAT:
                assert report.solved  # cubes reached the endpoint
    finally:
        if node is not None:
            node.stop(drain=False)


def test_workers_fault_injection_failover():
    # mult4: the driver's explicit phase closes mult3 before any cube.
    report = solve_cubes(small_miter(4), workers=2,
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
# Warm workers: one process per slot, isolation per cube
# ----------------------------------------------------------------------

class Recorder(Tracer):
    """Keeps every (kind, fields) event; safe across slot threads."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, kind, **fields):
        self.events.append((kind, fields))

    def of(self, kind):
        return [f for k, f in self.events if k == kind]


def warm_conquest(faults, workers=1, **kwargs):
    events = Recorder()
    closed = []
    close = WorkerHandle.close

    def spy(handle, tracer=None):
        outcome = close(handle, tracer)
        closed.append(handle.proc.exitcode)
        return outcome

    WorkerHandle.close = spy
    try:
        report = solve_cubes(small_miter(4), workers=workers, budget=120,
                             cutter=CutterOptions(max_cubes=4 * workers),
                             faults=FaultPlan.parse(faults), trace=events,
                             **kwargs)
    finally:
        WorkerHandle.close = close
    assert report.lost == report.double_counted == 0
    # Workers that outlive the conquest are closed, never signalled.
    assert closed and all(code == 0 for code in closed)
    return report, events


def test_warm_worker_serves_every_cube_of_its_slot():
    report, events = warm_conquest("")
    assert report.result.status == UNSAT
    assert len(events.of("cube_start")) >= 2
    assert len(events.of("worker_spawn")) == 1


def test_warm_slots_are_never_shared_between_slot_threads():
    # More slots than cores and a short switch interval: a slot handed to
    # two threads at once would interleave two cubes on one worker's pipe
    # or spawn more workers than slots.
    import sys
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report, events = warm_conquest("", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert report.result.status == UNSAT
    assert len(events.of("worker_spawn")) <= 4
    assert len(events.of("worker_result")) == len(events.of("cube_start"))


def test_warm_crash_fails_only_its_cube_and_retries_on_a_fresh_worker():
    # Fault-plan indices count cube dispatches: crash@1 is the second cube.
    report, events = warm_conquest("crash@1")
    assert report.result.status == UNSAT
    assert [f["kind"] for f in report.result.failures] == ["CRASHED"]
    starts = events.of("cube_start")
    crashed = starts[1]["cube"]
    assert [c.index for c in report.cubes if c.attempts > 1] == [crashed]
    assert [(s["cube"], s["attempt"]) for s in starts[2:3]] == [(crashed, 1)]
    # The crash ended the first worker; the retry's fresh one served the
    # rest.
    assert len(events.of("worker_spawn")) == 2


def test_warm_hang_is_its_cubes_timeout_and_the_next_cube_runs():
    report, events = warm_conquest("hang@1", limits=Limits(max_seconds=2.0),
                                   grace_seconds=0.5)
    statuses = [c.status for c in report.cubes]
    assert statuses.count("TIMEOUT") == 1
    assert all(s in (UNSAT, "REFUTED", "TIMEOUT") for s in statuses)
    assert report.result.status == UNKNOWN   # TIMEOUT is final
    # The watchdog ended the hung worker; a fresh one ran the next cubes.
    assert len(events.of("worker_spawn")) == 2


def test_warm_membomb_is_its_cubes_memout():
    report, events = warm_conquest("membomb@0", mem_limit_mb=256)
    statuses = [c.status for c in report.cubes]
    assert statuses.count("MEMOUT") == 1
    assert all(s in (UNSAT, "REFUTED", "MEMOUT") for s in statuses)
    assert report.result.status == UNKNOWN


def test_slot_replaces_a_worker_that_died_idle():
    import os
    import signal
    from repro.cube.conquer import CubeSlot, cube_job
    circuit = small_miter(4)
    cubes = generate_cubes(circuit, options=CutterOptions(max_cubes=4)).cubes
    spawns = iter(range(10))
    slot = CubeSlot(cube_job(circuit, circuit.outputs, phase_lemmas=None,
                             mem_limit_mb=None),
                    certify="sat", grace_seconds=1.0,
                    spawns=lambda: next(spawns))
    answers = []
    try:
        for cube in cubes[:2]:
            answers.append(slot.solve(cube.literals, 0, None, None,
                                      fault=None, tracer=None,
                                      cancelled=lambda: None))
            # SIGKILL from outside while the worker waits for its next
            # cube: it is no cube's failure, and the slot starts afresh.
            os.kill(slot.worker.proc.pid, signal.SIGKILL)
            slot.worker.proc.join(5.0)
    finally:
        slot.close()
    assert [a["status"] for a in answers] == [UNSAT, UNSAT]
    assert next(spawns) == 2


def test_phase_lemmas_reach_workers_uncut(monkeypatch):
    """c6288.equiv's explicit phase exports more clauses than a pool
    snapshot carries; every one of them reaches the warm worker."""
    from repro.bench.instances import instance_by_name
    from repro.cube import MAX_SHARED_LEMMAS, conquer
    from repro.runtime.worker import JobEngine
    circuit = instance_by_name("c6288.equiv").build()
    jobs = []
    spawn = conquer.spawn_worker

    def spy(job, **kwargs):
        jobs.append(job)
        return spawn(job, **kwargs)

    monkeypatch.setattr(conquer, "spawn_worker", spy)
    # The miter output is refuted at the root, so ask for its negation:
    # the phase and its clauses are the same, and cubes get dispatched.
    (out,) = circuit.outputs
    report = solve_cubes(circuit, [out ^ 1], workers=1, budget=60,
                         cutter=CutterOptions(max_cubes=2))
    assert report.result.status == SAT
    assert report.phase_lemmas == 839 > MAX_SHARED_LEMMAS
    (job,) = jobs
    assert len(job.seed_lemmas) == 839
    assert len(JobEngine(job)._held) == 839


def test_root_refuted_objective_needs_no_cube():
    from repro.bench.instances import instance_by_name
    report = solve_cubes(instance_by_name("c3540.equiv").build(), workers=2,
                         budget=60)
    assert report.result.status == UNSAT
    assert report.result.stats.conflicts - report.phase_conflicts < 100
    assert report.elapsed < 5.0


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
    code = main(["solve", str(path), "--workers", "2", "--budget", "60"])
    assert code == (10 if expected == SAT else 20)


def test_cli_cube_json(tmp_path, capsys):
    import json
    from repro.circuit.bench_io import write_bench
    from repro.cli import main
    path = tmp_path / "m.bench"
    path.write_text(write_bench(small_miter(3)))
    code = main(["solve", str(path), "--workers", "0", "--max-cubes", "4",
                 "--json"])
    assert code == 20
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["status"] == UNSAT
    assert doc["workers"] == 0


def test_cube_trace_events(tmp_path):
    import json
    trace = tmp_path / "cube.jsonl"
    report = solve_cubes(small_miter(4), workers=0,
                         cutter=CutterOptions(max_cubes=4),
                         trace=str(trace))
    assert report.result.status == UNSAT
    kinds = {json.loads(line)["kind"]
             for line in trace.read_text().splitlines()}
    assert {"cube_generated", "cube_start", "cube_result",
            "cube_end"} <= kinds


def test_ctrl_c_stops_in_process_cubes_promptly():
    """The in-process slot runs on the calling thread, so SIGINT reaches
    the search: the run ends at once with an UNKNOWN report."""
    import os
    import select
    import signal
    import subprocess
    import sys
    import time
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    # A terminal as the trace sink is line-buffered, so each event
    # arrives as it is written.
    master, slave = os.openpty()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", "--instance",
         "mult6.arith", "--workers", "0", "--budget", "120",
         "--trace", os.ttyname(slave)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        seen = b""
        deadline = time.monotonic() + 60.0
        while b"cube_start" not in seen:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([master], [], [], max(0.0, left))
            assert ready, "no cube started within 60s"
            seen += os.read(master, 4096)
        time.sleep(0.3)   # into the search (mult6's first cube takes ~2s)
        proc.send_signal(signal.SIGINT)
        signalled = time.monotonic()
        out, err = proc.communicate(timeout=30)
        elapsed = time.monotonic() - signalled
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        os.close(master)
        os.close(slave)
    assert proc.returncode == 0, err.decode()
    assert b"mult6.arith: UNKNOWN" in out
    assert elapsed < 5.0


def test_sigterm_ends_in_process_cubes_with_a_closed_trace(tmp_path):
    """SIGTERM ends a CLI run the way Ctrl-C does: a clean UNKNOWN, and
    a trace file whose cube boundaries reached the disk as they happened
    (no terminal needed) and which parses whole afterwards."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import time
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    trace = tmp_path / "t.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", "--instance",
         "mult6.arith", "--workers", "0", "--budget", "120",
         "--trace", str(trace)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60.0
        while not (trace.exists() and b"cube_start" in trace.read_bytes()):
            assert time.monotonic() < deadline, "no cube started within 60s"
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err.decode()
    assert b"mult6.arith: UNKNOWN" in out
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    kinds = [e["kind"] for e in events]
    assert "cube_start" in kinds and kinds[-2:] == ["cube_end", "span_end"]
