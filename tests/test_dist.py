"""Distributed conquer fabric: node protocol, coordinator, resilience.

The fabric's contract under test:

* a conquer node is idempotent at every boundary (circuit registration
  keys on the exact structural hash; cube re-issues under one
  idempotency key map onto one job),
* the coordinator applies each cube result exactly once — steals and
  node deaths produce discarded duplicates, never double counting,
* answers are certified on the coordinator against its own circuit, and
* a SIGKILLed node's in-flight cubes are reassigned and the answer
  still lands.
"""

import threading
import time

import pytest

from repro import SAT, UNKNOWN, UNSAT, miter
from repro.core.solver import CircuitSolver
from repro.cube import CutterOptions, generate_cubes
from repro.cube.conquer import _CLOSED
from repro.dist import ConquerNode, solve_distributed
from repro.durable.checkpoint import exact_hash
from repro.errors import SolverError
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.serve.client import ServeClient, ServeError
from repro.verify.certify import certify_sat_model
from repro.circuit.bench_io import write_bench

from conftest import build_random_circuit


def small_miter(width: int = 3):
    return miter(array_multiplier(width), csa_multiplier(width))


def sat_circuit():
    for seed in range(20):
        circuit = build_random_circuit(seed, num_inputs=8, num_gates=50,
                                       num_outputs=1)
        if CircuitSolver(circuit).solve().status == SAT:
            return circuit
    pytest.skip("no SAT instance found")


@pytest.fixture
def node():
    n = ConquerNode(workers=1, name="tnode").start()
    yield n
    n.stop(drain=False)


@pytest.fixture
def fleet():
    nodes = [ConquerNode(workers=1, name="fleet-{}".format(i)).start()
             for i in range(2)]
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


# ----------------------------------------------------------------------
# Node protocol
# ----------------------------------------------------------------------

class TestConquerNode:
    def test_health_announces_role_and_capacity(self, node):
        health = client_for(node).health()
        assert health["role"] == "conquer-node"
        assert health["name"] == "tnode"
        assert health["workers"] == 1

    def test_register_keys_on_exact_hash(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        first = register(client, circuit)
        assert first["key"] == exact_hash(circuit)
        # Idempotent: the same circuit re-registers onto one entry.
        assert register(client, circuit)["key"] == first["key"]
        assert client.status()["node"]["circuits"] == 1

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

    def test_unknown_circuit_is_a_structured_400(self, node):
        with pytest.raises(ServeError) as info:
            client_for(node).call("POST", "/conquer",
                                  body={"key": "nope", "cube": [2]})
        assert info.value.code == "unknown-circuit"
        assert info.value.status == 400

    def test_exchange_absorbs_and_pages_by_cursor(self, node):
        circuit = small_miter(3)
        client = client_for(node)
        key = register(client, circuit)["key"]
        reply = client.call("POST", "/exchange",
                            body={"key": key, "lemmas": [[2], [4, 6]],
                                  "since": 0})
        assert reply["absorbed"] == 2
        assert reply["lemmas"] == [[2], [4, 6]]
        assert reply["next"] == 2
        # The cursor pages: nothing new, and duplicates do not re-absorb.
        again = client.call("POST", "/exchange",
                            body={"key": key, "lemmas": [[2]],
                                  "since": reply["next"]})
        assert again["absorbed"] == 0
        assert again["lemmas"] == []

    def test_rejects_full_certification(self):
        with pytest.raises(SolverError):
            ConquerNode(certify="full")


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

class TestSolveDistributed:
    def test_unsat_across_two_nodes(self, fleet):
        report = solve_distributed(
            small_miter(3), nodes=[n.address for n in fleet],
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

    def test_rejects_non_conquer_nodes(self, fleet):
        # A serve server answers /health without the conquer-node role;
        # the coordinator must refuse to shard cubes onto it.
        from repro.serve.server import ReproServer
        server = ReproServer(port=0, workers=1)
        server.start()
        try:
            with pytest.raises(SolverError):
                solve_distributed(small_miter(3),
                                  nodes=[server.address],
                                  client_retries=0)
        finally:
            server.request_shutdown(drain=False)

    def test_checkpoint_resume_skips_closed_cubes(self, node, tmp_path):
        path = str(tmp_path / "dist.ckpt")
        circuit = small_miter(3)
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

    def test_lemma_exchange_reaches_both_sides(self, fleet):
        report = solve_distributed(
            small_miter(4), nodes=[n.address for n in fleet],
            cutter=CutterOptions(max_cubes=6), budget=60,
            exchange_every=0.2, poll_seconds=0.5)
        assert report.result.status == UNSAT
        sent = sum(info.lemmas_sent for info in report.nodes)
        assert report.lemmas_shared >= 0
        assert sent >= 0  # piggybacked batches are counted per node


# ----------------------------------------------------------------------
# Resilience: node death mid-run (real subprocesses, real SIGKILL)
# ----------------------------------------------------------------------

class TestNodeDeath:
    def test_sigkilled_node_is_reassigned_and_answer_lands(self):
        from repro.dist.bench import launch_local_nodes
        circuit = small_miter(5)
        fleet = launch_local_nodes(2, workers=1)
        try:
            timer = threading.Timer(1.0, fleet[1].sigkill)
            timer.start()
            report = solve_distributed(
                circuit, nodes=[n.url for n in fleet],
                cutter=CutterOptions(max_cubes=4), budget=180,
                client_timeout=5.0, client_retries=1,
                steal_after=0.5, poll_seconds=1.0)
            timer.cancel()
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
            launch_local_nodes(1, preset="not-a-preset",
                               workdir=str(tmp_path), startup_timeout=60.0)
        # The exit is seen by polling the child, not by the timeout.
        assert time.monotonic() - started < 30.0
        log_path = str(tmp_path / "node-0.log")
        assert "exited with 2" in str(info.value)
        assert log_path in str(info.value)
        with open(log_path) as fh:
            assert "invalid choice: 'not-a-preset'" in fh.read()


# ----------------------------------------------------------------------
# CLI integrations
# ----------------------------------------------------------------------

class TestCli:
    def test_status_renders_a_conquer_node(self, node, capsys):
        from repro.cli import main
        assert main(["status", node.address]) == 0
        out = capsys.readouterr().out
        assert "conquer-node" in out
        assert "tnode" in out

    def test_status_json_is_the_raw_payload(self, node, capsys):
        import json
        from repro.cli import main
        assert main(["status", node.address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["node"]["role"] == "conquer-node"

    def test_status_bad_url_is_exit_2(self, capsys):
        from repro.cli import main
        assert main(["status", "ftp://nope"]) == 2

    def test_dist_cli_solves_with_explicit_nodes(self, fleet, tmp_path,
                                                 capsys):
        from repro.cli import main
        path = tmp_path / "m.bench"
        path.write_text(write_bench(small_miter(3)))
        code = main(["dist", str(path),
                     "--nodes", ",".join(n.address for n in fleet),
                     "--max-cubes", "6", "--budget", "60"])
        assert code == 20  # UNSAT
        out = capsys.readouterr().out
        assert "dist: UNSAT" in out
        assert "fleet-0" in out

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
        node = ConquerNode(workers=1, kind="cnf", backend="kernel",
                           name="kern").start()
        try:
            report = solve_distributed(
                small_miter(3), nodes=[node.address], kind="cnf",
                backend="kernel", cutter=CutterOptions(max_cubes=4),
                budget=60, poll_seconds=1.0)
        finally:
            node.stop(drain=False)
        assert report.result.status == UNSAT
