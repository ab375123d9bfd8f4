"""Distributed conquer fabric: node protocol, coordinator, resilience.

A node is a serve node (``ReproServer``): its ``/circuit`` and
``/conquer`` endpoints take a coordinator's cubes as jobs of its one
scheduler.  The fabric's contract under test:

* a node is idempotent at every boundary (circuit registration keys on
  the exact structural hash and the objectives; cube re-issues under one
  idempotency key map onto one job, and a key naming another cube or
  registration is a 409),
* the coordinator applies each cube result exactly once — steals and
  node deaths produce discarded duplicates, never double counting,
* answers are certified on the coordinator against its own circuit, and
* a SIGKILLed node's in-flight cubes are reassigned and the answer
  still lands.
"""

import time

import pytest

from repro import SAT, UNKNOWN, UNSAT, miter
from repro.core.solver import CircuitSolver
from repro.cube import CutterOptions, generate_cubes
from repro.cube.conquer import _CLOSED
from repro.cube.sharing import registration_key
from repro.dist import solve_distributed
from repro.errors import SolverError
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.obs.trace import Tracer
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import MAX_REGISTRATIONS
from repro.serve.server import ReproServer
from repro.verify.certify import certify_sat_model
from repro.circuit.bench_io import read_bench, write_bench
from repro.circuit.netlist import Circuit

from conftest import build_random_circuit


def small_miter(width: int = 3):
    return miter(array_multiplier(width), csa_multiplier(width))


def one_point_bug_miter():
    """A 4x4 array-vs-CSA multiplier miter, SAT at exactly one point: the
    CSA's product bit 0 flips when the 8 inputs spell 2."""
    csa = csa_multiplier(4)
    point = csa.and_many([2 * node ^ (i != 1)
                          for i, node in enumerate(csa.inputs)])
    csa.outputs[0] = csa.xor_(csa.outputs[0], point)
    # Round-tripped through bench, so the node numbers it the same way.
    return read_bench(write_bench(miter(array_multiplier(4), csa)))


def sat_circuit():
    for seed in range(20):
        circuit = build_random_circuit(seed, num_inputs=8, num_gates=50,
                                       num_outputs=1)
        if CircuitSolver(circuit).solve().status == SAT:
            return circuit
    pytest.skip("no SAT instance found")


@pytest.fixture
def node():
    n = ReproServer(port=0, workers=1).start()
    yield n
    n.stop(drain=False)


@pytest.fixture
def fleet():
    nodes = [ReproServer(port=0, workers=1).start() for _ in range(2)]
    yield nodes
    for n in nodes:
        n.stop(drain=False)


def client_for(node, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    return ServeClient.from_url(node.address, **kwargs)


def register(client, circuit, **extra):
    body = {"circuit": write_bench(circuit), "format": "bench"}
    body.update(extra)
    return client.call("POST", "/circuit", body=body)


def scheduler_status(client):
    return client.status()["scheduler"]


# ----------------------------------------------------------------------
# Node protocol
# ----------------------------------------------------------------------

class TestConquerNode:
    """A serve node's conquest endpoints, ``/circuit`` and ``/conquer``."""

    def test_health_announces_name_and_capacity(self, node):
        health = client_for(node).health()
        assert health["name"] == "node-{}".format(node.port)
        assert health["workers"] == 1

    def test_register_keys_on_exact_hash(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        first = register(client, circuit)
        assert first["key"] == registration_key(circuit, circuit.outputs)
        # Idempotent: the same circuit re-registers onto one entry.
        assert register(client, circuit)["key"] == first["key"]
        assert scheduler_status(client)["registrations"] == 1

    def test_conquer_solves_a_cube(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit)["key"]
        cube = generate_cubes(circuit,
                              options=CutterOptions(max_cubes=4)).cubes[0]
        snap = client.call("POST", "/conquer",
                           body={"key": key,
                                 "cube": list(cube.literals),
                                 "wait": 60})
        assert snap["state"] == "DONE"
        result = snap["result"]
        assert result["status"] in (SAT, UNSAT)
        # Fresh pool knowledge rides back on every result.
        assert isinstance(result["lemmas"], list)

    def test_idempotency_key_maps_reissue_onto_one_job(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit)["key"]
        cube = generate_cubes(circuit,
                              options=CutterOptions(max_cubes=4)).cubes[0]
        body = {"key": key, "cube": list(cube.literals),
                "idempotency_key": "steal-me", "wait": 60}
        first = client.call("POST", "/conquer", body=body)
        second = client.call("POST", "/conquer", body=body)
        assert second["job"] == first["job"]
        assert second["deduped"] is True
        assert not first["deduped"]

    def test_idempotency_key_naming_another_cube_is_a_409(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit)["key"]
        cubes = generate_cubes(circuit,
                               options=CutterOptions(max_cubes=4)).cubes
        first = client.call("POST", "/conquer", body={
            "key": key, "cube": list(cubes[0].literals),
            "idempotency_key": "cube-k", "wait": 60})
        # The same circuit under other objectives is another registration.
        other = register(client, circuit,
                         objectives=list(circuit.outputs) + [2])["key"]
        for body in ({"key": key, "cube": list(cubes[1].literals)},
                     {"key": other, "cube": list(cubes[0].literals)}):
            with pytest.raises(ServeError) as info:
                client.call("POST", "/conquer", retries=0, body=dict(
                    body, idempotency_key="cube-k", wait=60))
            assert (info.value.status, info.value.code) == \
                (409, "key-conflict")
        assert scheduler_status(client)["cube_jobs"] == 1
        # The cube the key names still dedups onto its job.
        again = client.call("POST", "/conquer", body={
            "key": key, "cube": list(cubes[0].literals),
            "idempotency_key": "cube-k"})
        assert again["job"] == first["job"] and again["deduped"]

    def test_registration_keeps_its_own_objectives(self, node):
        circuit = Circuit("two-outputs")
        a, b = circuit.add_input("a"), circuit.add_input("b")
        both = circuit.add_and(a, b)
        circuit.add_output(both, "ab")
        circuit.add_output(circuit.add_and(a, b ^ 1), "anb")
        client = client_for(node)
        key = register(client, circuit, objectives=[both])["key"]
        # A second conquest of the same circuit under other objectives
        # must not replace the first one's registration.
        other = register(client, circuit,
                         objectives=list(circuit.outputs))["key"]
        snap = client.call("POST", "/conquer",
                           body={"key": key, "cube": [], "wait": 60})
        assert snap["result"]["status"] == SAT   # a AND b alone is SAT
        assert key == registration_key(circuit, [both]) != other

    def test_unknown_circuit_is_a_structured_400(self, node):
        with pytest.raises(ServeError) as info:
            client_for(node).call("POST", "/conquer",
                                  body={"key": "nope", "cube": [2]})
        assert info.value.code == "unknown-circuit"
        assert info.value.status == 400

    @pytest.mark.parametrize("lemmas", [
        [5], "x", [[4, "a"]], [[10 ** 9]], [[]], [[1]]], ids=[
        "bare-int", "string", "non-int", "out-of-range", "empty-clause",
        "constant-node"])
    def test_malformed_lemmas_are_a_400_and_never_pooled(self, node,
                                                         lemmas):
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit)["key"]
        cube = generate_cubes(circuit,
                              options=CutterOptions(max_cubes=4)).cubes[0]
        with pytest.raises(ServeError) as info:
            client.call("POST", "/conquer",
                        body={"key": key, "cube": list(cube.literals),
                              "lemmas": lemmas}, retries=0)
        assert (info.value.status, info.value.code) == (400, "bad-request")
        assert scheduler_status(client)["cube_jobs"] == 0
        # Nothing was queued: the cube still gets a real answer.
        snap = client.call("POST", "/conquer",
                           body={"key": key, "cube": list(cube.literals),
                                 "wait": 60})
        assert snap["result"]["status"] in (SAT, UNSAT)

    @pytest.mark.parametrize("field", [
        {"cube": [10 ** 9]}, {"cube": [0]}, {"cube": ["2"]}, {"cube": 2}],
        ids=["out-of-range", "constant-node", "non-int", "not-a-list"])
    def test_bad_cube_or_engine_is_a_400(self, node, field):
        client = client_for(node)
        key = register(client, small_miter(3))["key"]
        body = dict({"key": key, "cube": [2]}, **field)
        with pytest.raises(ServeError) as info:
            client.call("POST", "/conquer", body=body, retries=0)
        assert (info.value.status, info.value.code) == (400, "bad-request")
        assert scheduler_status(client)["cube_jobs"] == 0

    @pytest.mark.parametrize("field", [
        {"objectives": ["x"]}, {"objectives": [5.7]},
        {"objectives": [10 ** 6]}, {"objectives": []},
        {"phase_lemmas": [[10 ** 6]]}, {"phase_lemmas": [[]]},
        {"phase_lemmas": "x"}], ids=[
        "objective-string", "objective-float", "objective-out-of-range",
        "objectives-empty", "phase-lemma-out-of-range",
        "phase-lemma-empty", "phase-lemmas-not-a-list"])
    def test_bad_objectives_or_classes_are_a_400(self, node, field):
        client = client_for(node)
        with pytest.raises(ServeError) as info:
            register(client, small_miter(3), **field)
        assert (info.value.status, info.value.code) == (400, "bad-request")
        assert scheduler_status(client)["registrations"] == 0

    def test_constant_objective_registers(self, node):
        # An output may be a constant literal, which no cube may name.
        reply = register(client_for(node), small_miter(3), objectives=[1])
        assert reply["objectives"] == [1]

    def test_engine_rides_on_the_dispatch(self, node):
        """An older coordinator's engine fields still ride on its
        requests: correlation classes on ``/circuit``, ``kind`` and
        ``preset`` on ``/conquer``.  The node accepts and ignores them,
        and answers the cube on its one engine."""
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit,
                       classes=[[[5, 0], [7, 1]]])["key"]
        assert key == registration_key(circuit, circuit.outputs)
        assert not {"kind", "preset", "backend"} & set(
            scheduler_status(client))
        cube = generate_cubes(circuit,
                              options=CutterOptions(max_cubes=4)).cubes[0]
        snap = client.call("POST", "/conquer", body={
            "key": key, "cube": list(cube.literals), "wait": 60,
            "kind": "cnf", "preset": "implicit"})
        assert snap["state"] == "DONE"
        assert snap["result"]["status"] in (SAT, UNSAT)

    def test_rejects_full_certification(self, monkeypatch):
        # A server certifying UNSAT proofs refuses cubes (a cube
        # refutation has no closed proof) and keeps checking the proofs
        # of its whole-circuit solves.
        import repro.verify.certify as certify
        checked = []
        original = certify.certify_unsat_proof

        def counting(*args, **kwargs):
            checked.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(certify, "certify_unsat_proof", counting)
        server = ReproServer(port=0, workers=1, certify="full").start()
        try:
            client = client_for(server)
            key = register(client, small_miter(3))["key"]
            with pytest.raises(ServeError) as info:
                client.call("POST", "/conquer", retries=0,
                            body={"key": key, "cube": [2], "wait": 60})
            assert (info.value.status, info.value.code) == \
                (400, "bad-request")
            assert scheduler_status(client)["cube_jobs"] == 0
            snap = client.submit(circuit_text=write_bench(small_miter(3)),
                                 wait=60)
            assert snap["result"]["status"] == UNSAT
            assert checked
        finally:
            server.stop(drain=False)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

class TestSolveDistributed:
    def test_unsat_across_two_nodes(self, fleet):
        # mult4: the driver's explicit phase closes mult3 before any cube.
        report = solve_distributed(
            small_miter(4), nodes=[n.address for n in fleet],
            cutter=CutterOptions(max_cubes=6), budget=60,
            poll_seconds=1.0)
        assert report.result.status == UNSAT
        assert report.result.engine == "dist"
        assert report.total_workers == 2
        assert report.double_counted == 0
        assert report.lost == 0
        # Every terminal answer names the node that produced it.
        solved = [c for c in report.cubes
                  if c.status in (SAT, UNSAT, UNKNOWN)]
        assert solved and all(c.node for c in solved)
        assert all(c.status in _CLOSED for c in report.cubes)

    def test_sat_model_certified_on_coordinator(self, fleet):
        circuit = sat_circuit()
        report = solve_distributed(
            circuit, nodes=[n.address for n in fleet],
            cutter=CutterOptions(max_cubes=6), budget=60,
            poll_seconds=1.0)
        assert report.result.status == SAT
        assert report.certified >= 1
        certificate = certify_sat_model(circuit, report.result.model,
                                        list(circuit.outputs))
        assert certificate.ok

    def test_work_stealing_discards_duplicates(self, fleet):
        # Two cubes of very different hardness on two one-worker nodes:
        # the node that finishes first re-issues the straggler's cube,
        # and whichever answer lands second is discarded.
        report = solve_distributed(
            small_miter(5), nodes=[n.address for n in fleet],
            cutter=CutterOptions(max_cubes=2), budget=120,
            steal_after=0.1, poll_seconds=0.5)
        assert report.result.status == UNSAT
        assert report.steals >= 1
        assert report.double_counted == 0
        assert report.lost == 0

    def test_no_reachable_node_raises(self):
        sock_port = 1  # nothing listens on port 1
        with pytest.raises(SolverError):
            solve_distributed(small_miter(3),
                              nodes=["http://127.0.0.1:{}".format(sock_port)],
                              client_retries=0, client_timeout=1.0)

    def test_takes_a_plain_serve_node(self):
        # Any `repro serve` node takes a conquest's cubes, with its
        # default settings.
        server = ReproServer(port=0).start()
        try:
            report = solve_distributed(
                small_miter(4), nodes=[server.address],
                cutter=CutterOptions(max_cubes=6), budget=60,
                poll_seconds=1.0)
        finally:
            server.stop(drain=False)
        assert report.result.status == UNSAT
        assert report.total_workers == 2
        assert sum(info.dispatched for info in report.nodes) >= 1
        assert report.lost == report.double_counted == 0

    def test_submits_and_a_conquest_share_one_server(self):
        # Whole-circuit solves and a conquest's cubes run side by side
        # on one server's threads, and every answer is right.
        import threading
        from repro.bench.instances import instance_by_name
        server = ReproServer(port=0, workers=2).start()
        answers = {}

        def submit(name):
            snap = client_for(server).submit(instance=name, wait=120)
            answers[name] = snap["result"]["status"]

        names = ("c1355.equiv", "9vliw010")
        threads = [threading.Thread(target=submit, args=(name,))
                   for name in names]
        try:
            for thread in threads:
                thread.start()
            report = solve_distributed(
                small_miter(5), nodes=[server.address],
                cutter=CutterOptions(max_cubes=8), budget=120,
                poll_seconds=1.0)
            for thread in threads:
                thread.join(120)
        finally:
            server.stop(drain=False)
        assert report.result.status == UNSAT
        assert report.lost == report.double_counted == 0
        assert answers == {name: instance_by_name(name).expected
                           for name in names}

    def test_checkpoint_resume_skips_closed_cubes(self, node, tmp_path):
        path = str(tmp_path / "dist.ckpt")
        circuit = small_miter(4)
        first = solve_distributed(
            circuit, nodes=[node.address],
            cutter=CutterOptions(max_cubes=6), budget=60,
            checkpoint_path=path, checkpoint_every=1, poll_seconds=1.0)
        assert first.result.status == UNSAT
        resumed = solve_distributed(
            circuit, nodes=[node.address],
            budget=60, resume_from=path, poll_seconds=1.0)
        assert resumed.result.status == UNSAT
        assert resumed.resumed == len(first.cubes)
        # Everything was closed at restore: nothing was re-dispatched.
        assert all(info.dispatched == 0 for info in resumed.nodes)

    def test_conquests_of_one_circuit_share_no_cube_job(self, node):
        # Two cuts of one circuit number their cubes alike; a job keyed on
        # the cube's index would answer the second cut's cubes with the
        # first cut's answers.
        circuit = one_point_bug_miter()
        for max_cubes in (8, 2):
            report = solve_distributed(
                circuit, nodes=[node.address], budget=60,
                cutter=CutterOptions(max_cubes=max_cubes), poll_seconds=1.0)
            assert report.result.status == SAT, max_cubes

    def test_lemma_exchange_reaches_both_sides(self, fleet):
        report = solve_distributed(
            small_miter(4), nodes=[n.address for n in fleet],
            cutter=CutterOptions(max_cubes=6), budget=60,
            poll_seconds=0.5)
        assert report.result.status == UNSAT
        sent = sum(info.lemmas_sent for info in report.nodes)
        assert report.lemmas_shared >= 0
        assert sent >= 0  # piggybacked batches are counted per node


# ----------------------------------------------------------------------
# Warm workers on a node: one per slot and registration, bounded state
# ----------------------------------------------------------------------

def padded_miter(pad: int):
    """A mult4 miter with ``pad`` dangling inputs: a distinct circuit
    (and registration) per ``pad``, with the same search."""
    circuit = small_miter(4)
    for i in range(pad):
        circuit.add_input("pad{}".format(i))
    # Round-tripped through bench, so the node numbers it the same way.
    return read_bench(write_bench(circuit))


class TestWarmNode:
    def test_slot_keeps_one_warm_worker_for_the_conquest(self, node):
        report = solve_distributed(
            small_miter(4), nodes=[node.address],
            cutter=CutterOptions(max_cubes=6), budget=60, poll_seconds=1.0)
        assert report.result.status == UNSAT
        assert report.lost == report.double_counted == 0
        (info,) = report.nodes
        assert node.scheduler.stats()["workers_spawned"] == 1 \
            < info.dispatched

    def test_finished_registrations_are_evicted_with_jobs_and_workers(self):
        import multiprocessing
        before = set(multiprocessing.active_children())
        node = ReproServer(port=0, workers=1).start()
        try:
            for pad in range(MAX_REGISTRATIONS + 3):
                report = solve_distributed(
                    padded_miter(pad), nodes=[node.address],
                    cutter=CutterOptions(max_cubes=4), budget=60,
                    poll_seconds=1.0)
                assert report.result.status == UNSAT
                stats = node.scheduler.stats()
                assert stats["registrations"] <= MAX_REGISTRATIONS
                assert stats["cube_jobs"] <= 4 * MAX_REGISTRATIONS
                live = set(multiprocessing.active_children()) - before
                assert len(live) <= node.scheduler.workers
            assert stats["workers_spawned"] == MAX_REGISTRATIONS + 3
        finally:
            node.stop(drain=False)
        assert not set(multiprocessing.active_children()) - before

    def test_a_new_registration_is_never_its_own_eviction(self):
        from repro.result import Limits
        from repro.serve.scheduler import (CubeRequest, JobRequest,
                                           SolveScheduler)
        sched = SolveScheduler(workers=1)
        try:
            blocker = sched.submit(JobRequest(
                circuit=small_miter(3), fault="hang",
                limits=Limits(max_seconds=1)))
            deadline = time.monotonic() + 30.0
            while blocker.started is None and time.monotonic() < deadline:
                time.sleep(0.01)
            for pad in range(MAX_REGISTRATIONS):
                busy = sched.register(padded_miter(pad), None, None,
                                      "busy")
                sched.submit(CubeRequest(registration=busy, cube=[]))
            fresh = sched.register(padded_miter(MAX_REGISTRATIONS), None,
                                   None, "fresh")
            assert not fresh.evicted
            assert sched.registration(fresh.key) is fresh
            cube = sched.submit(CubeRequest(registration=fresh, cube=[]))
            assert cube.state == "QUEUED"
            # Every registration is busy: the table holds one extra until
            # an older one goes idle.
            assert sched.stats()["registrations"] == MAX_REGISTRATIONS + 1
        finally:
            sched.close(drain=False, timeout=30)

    def test_solve_jobs_and_keys_survive_every_eviction(self):
        from repro.serve.scheduler import JobRequest
        node = ReproServer(port=0, workers=2).start()
        solves = []
        try:
            for pad in range(MAX_REGISTRATIONS + 3):
                solves.append(node.scheduler.submit(JobRequest(
                    circuit=padded_miter(pad), label="solve",
                    idempotency_key="solve-{}".format(pad))))
                report = solve_distributed(
                    padded_miter(pad), nodes=[node.address],
                    cutter=CutterOptions(max_cubes=4), budget=60,
                    poll_seconds=1.0)
                assert report.result.status == UNSAT
                stats = node.scheduler.stats()
                assert stats["registrations"] <= MAX_REGISTRATIONS
                assert stats["cube_jobs"] <= 4 * MAX_REGISTRATIONS
            for pad, job in enumerate(solves):
                assert job.wait(60) and job.result["status"] == UNSAT
                assert node.job(job.id) is job
                # The key still names its job.
                assert node.scheduler.submit(JobRequest(
                    circuit=padded_miter(pad),
                    idempotency_key="solve-{}".format(pad))) is job
        finally:
            node.stop(drain=False)

    def test_cubes_leave_no_journal_record_or_cache_entry(self, tmp_path):
        from repro.durable.journal import replay_journal
        journal = str(tmp_path / "serve.wal")
        node = ReproServer(port=0, workers=2, journal_path=journal,
                           store_path=str(tmp_path / "store.jsonl")).start()
        try:
            report = solve_distributed(
                small_miter(4), nodes=[node.address],
                cutter=CutterOptions(max_cubes=6), budget=60,
                poll_seconds=1.0)
            assert report.result.status == UNSAT
            assert sum(info.dispatched for info in report.nodes) >= 1
            assert node.cache.stats()["entries"] == 0
            assert replay_journal(journal).records == 0
        finally:
            node.stop(drain=False)

    def test_phase_lemmas_ride_on_the_registration_uncut(self, node):
        from repro.bench.instances import instance_by_name
        from repro.csat.options import preset
        from repro.cube import MAX_SHARED_LEMMAS, collect_csat_lemmas
        circuit = instance_by_name("c6288.equiv").build()
        driver = CircuitSolver(circuit, preset("kernel"))
        driver.prepare()
        lemmas = collect_csat_lemmas(driver.engine, limit=None)
        assert len(lemmas) == 839 > MAX_SHARED_LEMMAS
        key = register(client_for(node), circuit,
                       phase_lemmas=lemmas)["key"]
        assert node.scheduler.registration(key).phase_lemmas == lemmas

    def test_correlation_rich_miter_is_unsat_before_any_dispatch(self, node):
        from repro.bench.instances import instance_by_name
        report = solve_distributed(
            instance_by_name("c6288.equiv").build(), nodes=[node.address],
            budget=10, poll_seconds=1.0)
        assert report.result.status == UNSAT
        assert report.elapsed < 10
        assert report.phase_lemmas == 839


# ----------------------------------------------------------------------
# Resilience: node death mid-run (real subprocesses, real SIGKILL)
# ----------------------------------------------------------------------

class KillAtFirstDispatch(Tracer):
    """SIGKILLs a node as the coordinator first dispatches a cube to it,
    so the node dies mid-conquest however fast the conquest runs."""

    enabled = True

    def __init__(self, node, name):
        self.node = node
        self.name = name
        self.killed = False

    def emit(self, kind, **fields):
        if kind == "span_start" and fields.get("name") == "dispatch" \
                and fields.get("node") == self.name and not self.killed:
            self.killed = True
            self.node.sigkill()


class TestNodeDeath:
    def test_sigkilled_node_is_reassigned_and_answer_lands(self):
        from repro.dist.bench import launch_local_nodes
        circuit = small_miter(5)
        fleet = launch_local_nodes(2, workers=1)
        try:
            assassin = KillAtFirstDispatch(
                fleet[1], "node-" + fleet[1].url.rsplit(":", 1)[1])
            report = solve_distributed(
                circuit, nodes=[n.url for n in fleet],
                cutter=CutterOptions(max_cubes=4), budget=180,
                client_timeout=5.0, client_retries=1,
                steal_after=0.5, poll_seconds=1.0, trace=assassin)
            assert assassin.killed
        finally:
            for n in fleet:
                n.stop()
        assert report.result.status == UNSAT
        assert sum(1 for info in report.nodes if not info.alive) == 1
        assert report.double_counted == 0
        assert report.lost == 0
        # The survivor finished the whole partition.
        survivor = next(info for info in report.nodes if info.alive)
        assert survivor.completed >= 1


class TestLocalFleet:
    def test_node_that_exits_at_startup_fails_fast(self, tmp_path):
        from repro.dist.bench import launch_local_nodes
        started = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            launch_local_nodes(1, workers="x",
                               workdir=str(tmp_path), startup_timeout=60.0)
        # The exit is seen by polling the child, not by the timeout.
        assert time.monotonic() - started < 30.0
        log_path = str(tmp_path / "node-0.log")
        assert "exited with 2" in str(info.value)
        assert log_path in str(info.value)
        with open(log_path) as fh:
            assert "invalid int value: 'x'" in fh.read()


# ----------------------------------------------------------------------
# CLI integrations
# ----------------------------------------------------------------------

class TestCli:
    def test_status_renders_a_conquer_node(self, node, capsys):
        from repro.cli import main
        assert main(["status", node.address]) == 0
        out = capsys.readouterr().out
        assert "serve at {}".format(node.address) in out
        assert "registrations: 0" in out

    def test_status_json_is_the_raw_payload(self, node, capsys):
        import json
        from repro.cli import main
        assert main(["status", node.address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"]["workers_spawned"] == 0

    def test_status_bad_url_is_exit_2(self, capsys):
        from repro.cli import main
        assert main(["status", "ftp://nope"]) == 2

    def test_dist_cli_solves_with_explicit_nodes(self, fleet, tmp_path,
                                                 capsys):
        from repro.cli import main
        path = tmp_path / "m.bench"
        path.write_text(write_bench(small_miter(3)))
        code = main(["solve", str(path),
                     "--nodes", ",".join(n.address for n in fleet),
                     "--max-cubes", "6", "--budget", "60"])
        assert code == 20  # UNSAT
        out = capsys.readouterr().out
        assert "dist: UNSAT" in out
        assert "node-{}".format(fleet[0].port) in out

    def test_failure_exit_codes_cover_the_taxonomy(self):
        from repro.cli import _failure_exit
        assert _failure_exit({"failures": [{"kind": "TIMEOUT"}]}) == 3
        assert _failure_exit({"failures": [{"kind": "MEMOUT"}]}) == 4
        assert _failure_exit({"failures": [{"kind": "CRASHED"}]}) == 5
        assert _failure_exit({"failures": [{"kind": "CORRUPT_ANSWER"}]}) == 6
        assert _failure_exit({"failures": [{"kind": "LOST"}]}) == 7
        assert _failure_exit({"failures": []}) == 0
        assert _failure_exit({}) == 0


# ----------------------------------------------------------------------
# Kernel backend rides the fabric end to end
# ----------------------------------------------------------------------

class TestKernelBackend:
    def test_cnf_kernel_cubes_through_a_node(self):
        """A node's cube workers run the flat kernel, as local ones do."""
        node = ReproServer(port=0, workers=1).start()
        try:
            report = solve_distributed(
                small_miter(3), nodes=[node.address],
                cutter=CutterOptions(max_cubes=4), budget=60,
                poll_seconds=1.0)
        finally:
            node.stop(drain=False)
        assert report.result.status == UNSAT
