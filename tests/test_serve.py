"""Tests for the serving subsystem: cache, scheduler, HTTP end to end.

The load-bearing claims: a renamed isomorphic circuit is a *certified*
cache hit; a flipped inverter is a miss; a tampered on-disk entry is
evicted, never served; invalid budgets are rejected at admission with a
structured reason; worker failures cross the protocol verbatim; and a
crash-injected worker leaves the server answering traffic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Circuit
from repro.circuit.bench_io import write_bench
from repro.durable.log import decode, encode
from repro.errors import CRASHED, TIMEOUT
from repro.result import Limits, SAT, UNKNOWN, UNSAT
from repro.serve import (AdmissionError, AnswerCache, JobRequest,
                         ReproServer, ServeClient, ServeError,
                         SolveScheduler, fingerprint, limits_class)
from repro.serve.loadgen import (build_workload, reference_answers,
                                 renamed_copy, run_load)
from repro.gen.random_circuit import random_dag
from conftest import build_full_adder, build_random_circuit


def build_unsat() -> Circuit:
    c = Circuit("contradiction")
    a = c.add_input("a")
    c.add_output(c.add_and(a, a ^ 1), "out")
    return c


def build_and2(names=("a", "b", "y")) -> Circuit:
    c = Circuit("and2")
    x = c.add_input(names[0])
    y = c.add_input(names[1])
    c.add_output(c.add_and(x, y), names[2])
    return c


def sat_model_of(circuit: Circuit):
    from repro.core.solver import CircuitSolver
    from repro.csat.options import preset
    # Legacy explicit on purpose: the server solves on the kernel by
    # default, and a reference must not be the engine under test.
    result = CircuitSolver(circuit, preset("explicit")).solve()
    assert result.status == SAT
    return result.model


# ----------------------------------------------------------------------
# Cache semantics
# ----------------------------------------------------------------------

class TestLimitsClass:
    def test_unlimited(self):
        assert limits_class(None) == "unlimited"
        assert limits_class(Limits()) == "unlimited"

    def test_budget_classes(self):
        assert limits_class(Limits(max_seconds=10)) == "s10"
        assert limits_class(Limits(max_conflicts=100,
                                   max_seconds=10)) == "c100-s10"


class TestAnswerCache:
    def test_renamed_isomorphic_circuit_hits(self):
        cache = AnswerCache()
        base = build_full_adder()
        model = sat_model_of(base)
        cache.store(fingerprint(base), None, "csat", SAT, model=model)
        twin = renamed_copy(base, "tw")
        hit = cache.lookup(twin, fingerprint(twin), None, "csat")
        assert hit is not None and hit["status"] == SAT
        # The served model was re-certified against the *twin*.
        from repro.verify.certify import certify_sat_model
        assert certify_sat_model(twin, hit["model"],
                                 list(twin.outputs)).ok

    def test_one_inverter_flip_misses(self):
        cache = AnswerCache()
        base = build_and2()
        cache.store(fingerprint(base), None, "csat", SAT,
                    model=sat_model_of(base))
        flipped = Circuit("flipped")
        x, y = flipped.add_input("a"), flipped.add_input("b")
        flipped.add_output(flipped.add_and(x, y ^ 1), "y")
        assert cache.lookup(flipped, fingerprint(flipped), None,
                            "csat") is None

    def test_limits_and_engine_partition_the_key(self):
        cache = AnswerCache()
        c = build_unsat()
        cache.store(fingerprint(c), Limits(max_seconds=5), "csat", UNSAT)
        assert cache.lookup(c, fingerprint(c), None, "csat") is None
        assert cache.lookup(c, fingerprint(c), Limits(max_seconds=5),
                            "cnf") is None
        assert cache.lookup(c, fingerprint(c), Limits(max_seconds=5),
                            "csat") is not None

    def test_unknown_never_cached(self):
        cache = AnswerCache()
        assert not cache.store(fingerprint(build_unsat()), None, "csat",
                               UNKNOWN)
        assert len(cache) == 0

    def test_cache_unsat_knob(self):
        cache = AnswerCache(cache_unsat=False)
        c = build_unsat()
        assert not cache.store(fingerprint(c), None, "csat", UNSAT)
        assert cache.lookup(c, fingerprint(c), None, "csat") is None

    def test_lru_eviction(self):
        cache = AnswerCache(max_entries=2)
        for seed in range(3):
            c = build_random_circuit(seed)
            cache.store(fingerprint(c), None, "csat", UNSAT)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        first = build_random_circuit(0)
        assert cache.lookup(first, fingerprint(first), None, "csat") is None


class TestDiskStore:
    def test_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        base = build_full_adder()
        cache = AnswerCache(store_path=path)
        cache.store(fingerprint(base), None, "csat", SAT,
                    model=sat_model_of(base))
        reloaded = AnswerCache(store_path=path)
        hit = reloaded.lookup(base, fingerprint(base), None, "csat")
        assert hit is not None and hit["status"] == SAT

    def test_tampered_sat_entry_evicted_not_served(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        base = build_and2()
        cache = AnswerCache(store_path=path)
        cache.store(fingerprint(base), None, "csat", SAT,
                    model=sat_model_of(base))
        # Tamper: flip the stored canonical bits to an UNSAT assignment,
        # re-encoded with a valid checksum so that certification, not the
        # checksum, is what rejects it.
        header, line = open(path, "rb").read().splitlines(keepends=True)
        record = decode(line)
        record["model_bits"] = [0] * len(record["model_bits"])
        with open(path, "wb") as fh:
            fh.write(header + encode(record))
        tampered = AnswerCache(store_path=path)
        assert tampered.lookup(base, fingerprint(base), None,
                               "csat") is None          # miss, not wrong
        assert tampered.stats()["rejected"] == 1
        # The bad entry was compacted away on disk as well.
        assert open(path).read().strip() == ""

    def test_corrupt_lines_skipped_on_load(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        c = build_unsat()
        cache = AnswerCache(store_path=path)
        cache.store(fingerprint(c), None, "csat", UNSAT)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        reloaded = AnswerCache(store_path=path)
        assert reloaded.lookup(c, fingerprint(c), None,
                               "csat") is not None


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------

@pytest.fixture
def scheduler():
    sched = SolveScheduler(workers=2, cache=AnswerCache(), max_queue=8)
    yield sched
    sched.close(drain=False, timeout=10)


class TestAdmission:
    def test_unknown_engine_rejected(self, scheduler):
        with pytest.raises(AdmissionError) as exc:
            scheduler.submit(JobRequest(circuit=build_full_adder(),
                                        engine="quantum"))
        assert exc.value.code == "bad-engine"

    def test_unknown_preset_rejected(self, scheduler):
        with pytest.raises(AdmissionError) as exc:
            scheduler.submit(JobRequest(circuit=build_full_adder(),
                                        preset="bogus"))
        assert exc.value.code == "bad-preset"
        assert scheduler.stats()["submitted"] == 0

    def test_nan_budget_rejected(self, scheduler):
        with pytest.raises(AdmissionError) as exc:
            scheduler.submit(JobRequest(
                circuit=build_full_adder(),
                limits=Limits(max_seconds=float("nan"))))
        assert exc.value.code == "bad-limits"
        assert scheduler.stats()["submitted"] == 0

    def test_non_numeric_budget_rejected(self, scheduler):
        with pytest.raises(AdmissionError) as exc:
            scheduler.submit(JobRequest(
                circuit=build_full_adder(),
                limits=Limits(max_conflicts="many")))
        assert exc.value.code == "bad-limits"

    def test_exhausted_budget_rejected_as_empty(self, scheduler):
        # Zero/negative budgets are numerically legal but could never
        # start a solve — rejected at the door, never queued.
        for limits in (Limits(max_conflicts=0), Limits(max_seconds=-1)):
            with pytest.raises(AdmissionError) as exc:
                scheduler.submit(JobRequest(circuit=build_full_adder(),
                                            limits=limits))
            assert exc.value.code == "empty-budget"
        assert scheduler.stats()["submitted"] == 0

    def test_reused_key_naming_another_request_is_a_conflict(
            self, scheduler):
        first = scheduler.submit(JobRequest(circuit=build_unsat(),
                                            idempotency_key="k"))
        for other in (JobRequest(circuit=build_full_adder(),
                                 idempotency_key="k"),
                      JobRequest(circuit=build_unsat(), engine="cnf",
                                 idempotency_key="k")):
            with pytest.raises(AdmissionError) as exc:
                scheduler.submit(other)
            assert (exc.value.code, exc.value.status) == \
                ("key-conflict", 409)
        # The same circuit and engine, renamed, still names the job.
        again = scheduler.submit(JobRequest(
            circuit=renamed_copy(build_unsat(), "tw"), idempotency_key="k"))
        assert again is first
        assert scheduler.stats()["submitted"] == 1
        assert first.wait(30) and first.result["status"] == UNSAT

    def test_racing_resubmits_under_one_key_share_one_job(self):
        # Check-then-act on the key map: submits of one request racing
        # under one key, with more threads than cores and a short switch
        # interval, must all get the same job.
        import sys
        sched = SolveScheduler(workers=1, cache=AnswerCache())
        circuit = build_random_circuit(5)
        fp = fingerprint(circuit)
        jobs, errors = [], []
        barrier = threading.Barrier(8)

        def submit():
            try:
                barrier.wait(10)
                jobs.append(sched.submit(JobRequest(
                    circuit=circuit, fp=fp, idempotency_key="race")))
            except Exception as exc:     # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            sched.close(drain=False, timeout=10)
        assert not errors
        assert len(jobs) == 8 and all(job is jobs[0] for job in jobs)
        assert sched.stats()["submitted"] == 1

    def test_draining_rejects_new_work(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache())
        sched.close(drain=True, timeout=10)
        with pytest.raises(AdmissionError) as exc:
            sched.submit(JobRequest(circuit=build_full_adder()))
        assert exc.value.code == "draining"

    @pytest.mark.slow
    def test_queue_full_rejected(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache(), max_queue=1)
        try:
            # Occupy the lone worker, then fill the queue.
            blocker = sched.submit(JobRequest(
                circuit=build_full_adder(), fault="hang",
                limits=Limits(max_seconds=3), label="blocker"))
            time.sleep(0.3)      # let the worker pick the blocker up
            sched.submit(JobRequest(circuit=build_random_circuit(1),
                                    label="queued"))
            with pytest.raises(AdmissionError) as exc:
                sched.submit(JobRequest(circuit=build_random_circuit(2),
                                        label="rejected"))
            assert exc.value.code == "queue-full"
            assert blocker.wait(20)
        finally:
            sched.close(drain=False, timeout=15)


class TestScheduling:
    def test_solve_sat_and_unsat(self, scheduler):
        sat_job = scheduler.submit(JobRequest(circuit=build_full_adder()))
        unsat_job = scheduler.submit(JobRequest(circuit=build_unsat()))
        assert sat_job.wait(30) and unsat_job.wait(30)
        assert sat_job.result["status"] == SAT
        assert sat_job.result["model_inputs"]  # actionable assignment
        assert unsat_job.result["status"] == UNSAT

    @pytest.mark.slow
    def test_identical_inflight_work_deduped(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache())
        try:
            blocker = sched.submit(JobRequest(
                circuit=build_full_adder(), fault="hang",
                limits=Limits(max_seconds=2), label="blocker"))
            time.sleep(0.3)
            base = build_random_circuit(7)
            primary = sched.submit(JobRequest(circuit=base, label="a"))
            twin = renamed_copy(base, "tw")
            follower = sched.submit(JobRequest(circuit=twin, label="b"))
            assert follower.deduped
            assert blocker.wait(30) and primary.wait(30)
            assert follower.wait(30)
            assert follower.result["status"] == primary.result["status"]
            assert follower.result["deduped_into"] == primary.id
            if primary.result["status"] == SAT:
                # The follower's model names its own inputs.
                assert set(follower.result["model_inputs"]) == \
                    {twin.name_of(pi) for pi in twin.inputs}
        finally:
            sched.close(drain=False, timeout=15)

    @pytest.mark.slow
    def test_higher_priority_runs_first(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache())
        try:
            blocker = sched.submit(JobRequest(
                circuit=build_full_adder(), fault="hang",
                limits=Limits(max_seconds=2), label="blocker"))
            time.sleep(0.3)
            low = sched.submit(JobRequest(circuit=build_random_circuit(11),
                                          priority=0, label="low"))
            high = sched.submit(JobRequest(circuit=build_random_circuit(12),
                                           priority=5, label="high"))
            assert blocker.wait(30) and low.wait(30) and high.wait(30)
            assert high.started <= low.started
        finally:
            sched.close(drain=False, timeout=15)

    def test_cached_answer_served_without_queueing(self, scheduler):
        base = build_random_circuit(3)
        first = scheduler.submit(JobRequest(circuit=base))
        assert first.wait(30)
        twin = renamed_copy(base, "tw")
        second = scheduler.submit(JobRequest(circuit=twin))
        assert second.done and second.cached
        assert second.result["cached"]
        assert second.result["status"] == first.result["status"]

    def test_crash_fault_surfaces_taxonomy(self, scheduler):
        job = scheduler.submit(JobRequest(circuit=build_full_adder(),
                                          fault="crash"))
        assert job.wait(30)
        assert job.result["status"] == UNKNOWN
        assert job.result["failures"][0]["kind"] == CRASHED

    def test_hang_fault_times_out(self, scheduler):
        job = scheduler.submit(JobRequest(
            circuit=build_full_adder(), fault="hang",
            limits=Limits(max_seconds=1)))
        assert job.wait(30)
        assert job.result["failures"][0]["kind"] == TIMEOUT

    @pytest.mark.slow
    def test_close_without_drain_cancels_queue(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache())
        blocker = sched.submit(JobRequest(
            circuit=build_full_adder(), fault="hang",
            limits=Limits(max_seconds=2), label="blocker"))
        time.sleep(0.3)
        queued = sched.submit(JobRequest(circuit=build_random_circuit(21)))
        assert sched.close(drain=False, timeout=20)
        assert queued.state == "CANCELLED"
        assert queued.result["failures"][0]["kind"] == "LOST"
        assert blocker.done


# ----------------------------------------------------------------------
# Retention: the job table keeps the last cache.max_entries finished
# solve jobs
# ----------------------------------------------------------------------

KEEP = 8


def distinct(seed: int) -> Circuit:
    return random_dag(6, 20, seed=seed)


def wide_and(width: int) -> Circuit:
    """A SAT circuit whose fingerprint differs for every ``width``."""
    c = Circuit("and{}".format(width))
    c.add_output(c.and_many([c.add_input("x{}".format(i))
                             for i in range(width)]), "y")
    return c


def block_worker(sched: SolveScheduler):
    """Hold a one-thread scheduler's worker on a hanging solve."""
    blocker = sched.submit(JobRequest(
        circuit=build_full_adder(), fault="hang",
        limits=Limits(max_seconds=1), label="blocker"))
    deadline = time.monotonic() + 30.0
    while blocker.started is None and time.monotonic() < deadline:
        time.sleep(0.01)


def finished_in_table(sched: SolveScheduler) -> int:
    stats = sched.stats()
    return (stats["jobs"] - stats["queued"] - stats["running"]
            - stats["waiting"])


class TestRetention:
    def test_table_keeps_the_last_finished_solves(self):
        srv = ReproServer(port=0, workers=1,
                          cache=AnswerCache(max_entries=KEEP)).start()
        try:
            client = ServeClient(srv.host, srv.port, timeout=30)
            ids = []
            for seed in range(50):
                snap = client.submit(
                    circuit_text=write_bench(distinct(seed)), wait=30,
                    idempotency_key="k{}".format(seed))
                assert snap["state"] == "DONE"
                ids.append(snap["job"])
                assert finished_in_table(srv.scheduler) <= KEEP
            assert srv.scheduler.stats()["jobs"] == KEEP
            for path in ("/result/", "/events/"):
                with pytest.raises(ServeError) as exc:
                    client.call("GET", path + ids[0])
                assert (exc.value.status, exc.value.code) == \
                    (404, "unknown-job")
            assert client.result(ids[-1])["state"] == "DONE"
            assert client.events(ids[-1])["events"]
        finally:
            srv.stop()

    def test_retired_key_makes_a_fresh_job_with_the_same_status(
            self, monkeypatch):
        from repro.verify import certify
        certified = []
        real = certify.certify_sat_model

        def spy(circuit, model, objectives):
            certified.append(circuit)
            return real(circuit, model, objectives)

        sched = SolveScheduler(workers=1, cache=AnswerCache(max_entries=KEEP))
        try:
            sat = build_full_adder()
            first = sched.submit(JobRequest(circuit=sat,
                                            idempotency_key="first"))
            assert first.wait(30) and first.result["status"] == SAT
            # Renamed copies under other keys: cache hits, which retire
            # the first job but keep its answer in the cache.
            for k in range(KEEP):
                hit = sched.submit(JobRequest(
                    circuit=renamed_copy(sat, "r{}".format(k)),
                    idempotency_key="hit{}".format(k)))
                assert hit.cached
            assert sched.job(first.id) is None
            monkeypatch.setattr(certify, "certify_sat_model", spy)
            again = sched.submit(JobRequest(circuit=sat,
                                            idempotency_key="first"))
            assert again is not first and again.id != first.id
            assert again.cached and again.result["status"] == SAT
            assert certified == [sat]    # re-certified against it
            # An answer the cache evicted too is solved again.
            unsat = sched.submit(JobRequest(circuit=build_unsat(),
                                            idempotency_key="unsat"))
            assert unsat.wait(30) and unsat.result["status"] == UNSAT
            for width in range(2, KEEP + 3):
                assert sched.submit(JobRequest(
                    circuit=wide_and(width))).wait(30)
            again = sched.submit(JobRequest(circuit=build_unsat(),
                                            idempotency_key="unsat"))
            assert again.wait(30) and not again.cached
            assert again.result["status"] == UNSAT
            # A retired key names no circuit any more: no key-conflict.
            for width in range(2, KEEP + 3):
                assert sched.submit(JobRequest(
                    circuit=wide_and(width))).wait(30)
            other = sched.submit(JobRequest(circuit=build_full_adder(),
                                            idempotency_key="unsat"))
            assert other.wait(30) and other.id != again.id
        finally:
            sched.close()

    def test_followers_and_cancelled_jobs_retire_too(self):
        sched = SolveScheduler(workers=1, cache=AnswerCache(max_entries=2))
        try:
            block_worker(sched)
            primary = sched.submit(JobRequest(circuit=distinct(1)))
            followers = [sched.submit(JobRequest(
                circuit=renamed_copy(distinct(1), "f{}".format(k))))
                for k in range(4)]
            assert all(job.deduped for job in followers)
            assert sched.stats()["waiting"] == 4
            assert primary.wait(30)
            assert all(job.wait(30) for job in followers)
            assert finished_in_table(sched) == 2
            assert sched.job(followers[0].id) is None
            block_worker(sched)
            queued = [sched.submit(JobRequest(circuit=distinct(10 + k)))
                      for k in range(4)]
        finally:
            assert sched.close(drain=False, timeout=30)
        assert all(job.state == "CANCELLED" for job in queued)
        # The second blocker finished last, after one cancelled job.
        assert sched.stats()["jobs"] == 2
        assert sum(sched.job(job.id) is job for job in queued) == 1


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    srv = ReproServer(port=0, workers=2, cache=AnswerCache(),
                      max_queue=16).start()
    yield srv
    srv.stop(drain=False, timeout=20)


@pytest.fixture
def client(server):
    return ServeClient(server.host, server.port, timeout=60)


AND2_BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
AND2_RENAMED = "INPUT(p)\nINPUT(q)\nOUTPUT(z)\nz = AND(p, q)\n"
AND3_BENCH = ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
              "t = AND(a, b)\ny = AND(t, c)\n")
OR2_BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n"


class TestHttp:
    def test_health_and_status(self, client):
        assert client.health()["ok"]
        status = client.status()
        assert status["ok"] and "scheduler" in status

    def test_submit_circuit_text_sat(self, client):
        snap = client.submit(circuit_text=AND2_BENCH, wait=30)
        assert snap["state"] == "DONE"
        assert snap["result"]["status"] == SAT
        assert snap["result"]["model_inputs"] == {"a": 1, "b": 1}

    def test_renamed_duplicate_served_from_cache(self, client):
        client.submit(circuit_text=AND2_BENCH, wait=30)
        snap = client.submit(circuit_text=AND2_RENAMED, wait=30)
        assert snap["result"]["status"] == SAT
        assert snap["result"]["cached"]
        # The model is in the *renamed* circuit's vocabulary: certified
        # against it, not just replayed blindly.
        assert snap["result"]["model_inputs"] == {"p": 1, "q": 1}

    def test_server_default_preset_is_the_kernel(self, client):
        # Structures no other test submits, so neither answer is cached.
        snap = client.submit(circuit_text=AND3_BENCH, wait=30)
        assert snap["result"]["status"] == SAT
        assert snap["result"]["engine"] == "csat:kernel"
        snap = client.submit(circuit_text=OR2_BENCH, preset="explicit",
                             wait=30)
        assert snap["result"]["status"] == SAT
        assert snap["result"]["engine"] == "csat:explicit"

    def test_submit_instance_unsat(self, client):
        snap = client.submit(instance="c1355.equiv", wait=60)
        assert snap["result"]["status"] == UNSAT

    def test_dimacs_text_sniffed(self, client):
        snap = client.submit(circuit_text="p cnf 2 2\n1 2 0\n-1 0\n",
                             wait=30)
        assert snap["result"]["status"] == SAT

    def test_bad_circuit_structured_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(circuit_text="y = FROB(a)\n")
        assert exc.value.code == "bad-circuit"
        assert exc.value.status == 400

    def test_invalid_budget_never_queued(self, client, server):
        before = server.scheduler.stats()["submitted"]
        with pytest.raises(ServeError) as exc:
            client.submit(circuit_text=AND2_BENCH,
                          limits={"max_seconds": "soon"})
        assert exc.value.code == "bad-limits"
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            client.submit(circuit_text=AND2_BENCH,
                          limits={"max_seconds": -5})
        assert exc.value.code == "empty-budget"
        assert exc.value.status == 400
        assert server.scheduler.stats()["submitted"] == before

    def test_unknown_limits_field_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(circuit_text=AND2_BENCH,
                          limits={"max_flux": 1})
        assert exc.value.code == "bad-limits"

    def test_unknown_engine_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(circuit_text=AND2_BENCH, engine="quantum")
        assert exc.value.code == "bad-engine"

    def test_unknown_preset_never_queued_or_journaled(self, tmp_path):
        from repro.durable.journal import KIND_ADMITTED, read_journal
        journal = str(tmp_path / "serve.wal")
        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            client = ServeClient(srv.host, srv.port, timeout=30)
            with pytest.raises(ServeError) as exc:
                client.submit(circuit_text=AND2_BENCH, preset="bogus")
            assert (exc.value.status, exc.value.code) == (400, "bad-preset")
            assert srv.scheduler.stats()["submitted"] == 0
        finally:
            srv.stop()
        assert not any(record["kind"] == KIND_ADMITTED
                       for record in read_journal(journal))

    def test_cube_job_fan_out_is_the_servers(self, client, monkeypatch):
        # A request's cube_workers is read as if absent: the job conquers
        # on SERVE_CUBE_WORKERS.  The spy answers without starting any.
        from repro.cube.conquer import CubeReport
        from repro.result import SolverResult
        from repro.serve.scheduler import SERVE_CUBE_WORKERS
        seen = []

        def spy(circuit, **kwargs):
            seen.append(kwargs["workers"])
            return CubeReport(result=SolverResult(status=UNKNOWN))

        monkeypatch.setattr("repro.cube.solve_cubes", spy)
        snap = client.call("POST", "/submit", body={
            "circuit": AND3_BENCH, "engine": "cube", "cube_workers": 64,
            "wait": 30})
        assert snap["result"]["status"] == UNKNOWN
        assert seen == [SERVE_CUBE_WORKERS] == [2]

    def test_crashed_worker_structured_and_server_survives(self, client):
        snap = client.submit(circuit_text=AND2_BENCH, engine="brute",
                             fault="crash", wait=30)
        assert snap["result"]["status"] == UNKNOWN
        assert snap["result"]["failures"][0]["kind"] == CRASHED
        # The server is still fully alive afterwards.
        assert client.health()["ok"]
        again = client.submit(circuit_text=AND2_RENAMED, wait=30)
        assert again["result"]["status"] == SAT

    def test_hang_worker_times_out_cleanly(self, client):
        snap = client.submit(circuit_text=AND2_BENCH, engine="brute",
                             fault="hang", limits={"max_seconds": 1},
                             wait=30)
        assert snap["result"]["failures"][0]["kind"] == TIMEOUT
        assert client.health()["ok"]

    def test_events_stream(self, client):
        snap = client.submit(circuit_text=AND2_BENCH, wait=30)
        feed = client.events(snap["job"])
        kinds = [e["kind"] for e in feed["events"]]
        assert "job_submit" in kinds
        assert feed["next"] == len(feed["events"])

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.result("j999999")
        assert exc.value.status == 404

    def test_reused_key_naming_another_circuit_is_a_409(self, client,
                                                         server, capsys):
        from repro.cli import main
        first = client.submit(instance="c1355.equiv", wait=60,
                              idempotency_key="reused-key")
        assert first["result"]["status"] == UNSAT
        before = server.scheduler.stats()["submitted"]
        with pytest.raises(ServeError) as exc:
            client.submit(instance="9vliw010", wait=60,
                          idempotency_key="reused-key")
        assert (exc.value.status, exc.value.code) == (409, "key-conflict")
        assert exc.value.attempts == 1     # a 409 is never retried
        # The CLI prints the server's error and exits 2.
        assert main(["submit", "--port", str(server.port),
                     "--instance", "9vliw010",
                     "--idempotency-key", "reused-key"]) == 2
        assert "key-conflict" in capsys.readouterr().err
        assert server.scheduler.stats()["submitted"] == before
        # An identical re-submit still gets the first job.
        again = client.submit(instance="c1355.equiv",
                              idempotency_key="reused-key")
        assert again["job"] == first["job"]

    def test_poll_then_wait(self, client):
        snap = client.submit(circuit_text="INPUT(a)\nOUTPUT(y)\n"
                                          "y = AND(a, a)\n")
        final = client.wait_for(snap["job"], timeout=30, poll=0.2)
        assert final["state"] == "DONE"
        assert final["result"]["status"] == SAT


class TestEndToEndLoad:
    def test_concurrent_mixed_traffic_differential(self, server):
        """The acceptance loop: concurrent mixed traffic, every answer
        differentially checked, duplicates hitting the cache."""
        workload = build_workload(seed=11, count=8, max_gates=60)
        expected = reference_answers(workload, max_seconds=30)
        local = ServeClient(server.host, server.port, timeout=60)
        report = run_load(local, workload, concurrency=3,
                          max_seconds=30, expected=expected)
        bad = [(r.label, r.status, r.detail)
               for r in report.records if not r.ok]
        assert not bad, bad
        # Replay warm: every request is now a cache hit.
        warm = run_load(local, workload, concurrency=3,
                        max_seconds=30, expected=expected)
        assert all(r.ok for r in warm.records)
        assert all(r.cached for r in warm.records)


class TestCliStdin:
    def test_solve_from_stdin(self, monkeypatch, capsys):
        import io
        from repro.cli import main
        monkeypatch.setattr("sys.stdin", io.StringIO(AND2_BENCH))
        assert main(["solve", "-"]) == 10
        assert "SAT" in capsys.readouterr().out

    def test_solve_cnf_from_stdin(self, monkeypatch, capsys):
        import io
        from repro.cli import main
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("p cnf 1 2\n1 0\n-1 0\n"))
        assert main(["solve-cnf", "-"]) == 20

    def test_cube_from_stdin(self, monkeypatch, capsys):
        import io
        from repro.cli import main
        monkeypatch.setattr("sys.stdin", io.StringIO(AND2_BENCH))
        assert main(["solve", "-", "--workers", "2"]) == 10


# ----------------------------------------------------------------------
# /metrics: exposition across every layer, scraped over HTTP
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def _scrape(self, server):
        from urllib.request import urlopen
        with urlopen("{}/metrics".format(server.address),
                     timeout=30) as resp:
            assert resp.status == 200
            content_type = resp.headers.get("Content-Type", "")
            assert content_type.startswith("text/plain")
            assert "version=0.0.4" in content_type
            return resp.read().decode("utf-8")

    @pytest.mark.slow
    def test_metrics_cover_serve_runtime_cube_engine(self, server, client):
        """The acceptance check: after mixed traffic (direct solve, cube
        solve, a door rejection), /metrics parses back as valid
        exposition with families from every instrumented layer."""
        from repro.circuit.bench_io import write_bench
        from repro.circuit.miter import miter
        from repro.gen.arith import array_multiplier, csa_multiplier
        from repro.obs.metrics import parse_exposition
        client.submit(circuit_text=AND2_BENCH, wait=30)
        # A mult4 miter survives the driver's explicit phase and the
        # cutter, so the cube layer actually partitions and solves (AND2
        # or a smaller miter would close before any cube).
        cube_text = write_bench(miter(array_multiplier(4),
                                      csa_multiplier(4)))
        client.submit(circuit_text=cube_text, engine="cube", wait=120,
                      label="cube-traffic")
        with pytest.raises(ServeError):
            client.submit(circuit_text=AND2_BENCH, engine="no-such")
        families = parse_exposition(self._scrape(server))
        # serve layer
        assert "repro_serve_submitted_total" in families
        assert "repro_serve_jobs_total" in families
        assert "repro_serve_job_seconds" in families
        assert "repro_serve_cache_lookups_total" in families
        assert "repro_serve_queue_depth" in families
        rejection_codes = {labels["code"] for _, labels, _ in
                           families["repro_serve_rejections_total"]["samples"]}
        assert "bad-engine" in rejection_codes
        # runtime layer (the direct solve ran under the supervisor)
        assert "repro_worker_spawns_total" in families
        assert "repro_worker_seconds" in families
        assert "repro_worker_results_total" in families
        # cube layer
        cube_statuses = {labels["status"] for _, labels, _ in
                         families["repro_cube_total"]["samples"]}
        assert cube_statuses, "cube solve recorded no outcomes"
        # engine layer: subprocess stats folded into the parent registry
        engines = {labels["engine"] for _, labels, _ in
                   families["repro_solve_total"]["samples"]}
        assert engines & {"csat", "cnf", "kernel"}
        assert "repro_engine_conflicts_total" in families
        # histogram invariants survive the HTTP round trip (cumulative
        # buckets are monotone within each labeled series)
        samples = families["repro_serve_job_seconds"]["samples"]
        per_engine = {}
        for name, labels, value in samples:
            if name.endswith("_bucket"):
                per_engine.setdefault(labels["engine"], []).append(value)
        assert per_engine
        for engine, buckets in per_engine.items():
            assert buckets == sorted(buckets), engine

    def test_metrics_cli_scrapes_and_parses(self, server, client, capsys):
        from repro.cli import main
        client.submit(circuit_text=AND2_BENCH, wait=30)
        code = main(["status", server.address, "--metrics"])
        captured = capsys.readouterr()
        assert code == 0
        assert "repro_serve_submitted_total" in captured.out
        code = main(["status", server.address, "--metrics", "--raw"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE" in captured.out
