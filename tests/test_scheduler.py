"""The one cube scheduler, driven by scripted endpoints (no fork, no HTTP).

``repro.cube.conquer._conquer`` runs the loop behind both ``solve_cubes``
and ``solve_distributed``.  Each test here scripts what its endpoints
answer, so the loop's policies are pinned without timing-dependent
subprocesses or sockets:

* a SAT model that fails the scheduler's certification becomes
  CORRUPT_ANSWER and is retried with ``attempt + 1``;
* a retryable failure is requeued, and the local endpoint reseeds it;
* a late answer for an already-closed cube is a counted duplicate,
  never a second application;
* an empty failed-assumption core closes the instance and prunes the
  queued cubes;
* a dead endpoint's sole-owned in-flight cube is reassigned;
* many slot threads with eager stealing still apply each cube once.
"""

import threading
from types import SimpleNamespace

from repro import UNKNOWN, UNSAT, miter
from repro.csat.options import preset
from repro.cube import CutterOptions, PRUNED, solve_cubes
from repro.cube.conquer import EndpointDown, NodeInfo, _conquer
from repro.dist import DistReport
from repro.errors import CORRUPT_ANSWER, CRASHED
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.obs.trace import Tracer
from repro.result import SolverResult, SolverStats
from repro.runtime.portfolio import RESEED_STRIDE
from repro.runtime.supervisor import WorkerOutcome

WAIT = 30.0   # bound on every wait in a scripted endpoint

UNSAT_PAYLOAD = {"status": UNSAT, "core": None,
                 "stats": SolverStats(conflicts=1).as_dict()}


def small_miter():
    return miter(array_multiplier(3), csa_multiplier(3))


class Scripted:
    """An endpoint whose answers come from ``script(endpoint, cube,
    attempt)``: a payload, None (no answer) or a raised EndpointDown."""

    def __init__(self, name, script, slots=1):
        self.info = NodeInfo(url="fake://" + name, name=name, workers=slots)
        self.script = script
        self.calls = []
        self.started = threading.Event()

    def open(self, conquest):
        self.conquest = conquest

    def solve(self, cube, attempt, lemmas, limits):
        self.calls.append((cube.index, attempt))
        self.started.set()
        return self.script(self, cube, attempt)

    def close(self):
        pass


class Events(Tracer):
    """Records (kind, fields) of every event; wakes waiters per event."""

    enabled = True

    def __init__(self):
        self.events = []
        self.cv = threading.Condition()

    def emit(self, kind, **fields):
        with self.cv:
            self.events.append((kind, fields))
            self.cv.notify_all()

    def wait_for(self, predicate):
        with self.cv:
            assert self.cv.wait_for(
                lambda: any(predicate(k, f) for k, f in self.events), WAIT)


def conquer(endpoints, circuit=None, **kwargs):
    params = dict(trace=None, span_fields={}, options=preset("implicit"),
                  cutter=CutterOptions(max_cubes=6), budget=60, limits=None,
                  certify="sat", share_lemmas=True, max_retries=1,
                  checkpoint_path=None, checkpoint_every=8,
                  resume_from=None)
    params.update(kwargs)
    report = DistReport(result=SolverResult(status=UNKNOWN),
                        nodes=[e.info for e in endpoints])
    return _conquer(circuit or small_miter(), None, report,
                    lambda tracer: endpoints, **params)


def test_bad_model_becomes_corrupt_answer_and_is_retried():
    def script(endpoint, cube, attempt):
        if not endpoint.calls[1:]:
            # The miter is UNSAT, so no model can replay.
            return {"status": "SAT", "model": {"1": True}}
        return UNSAT_PAYLOAD

    node = Scripted("a", script)
    report = conquer([node])
    assert report.result.status == UNSAT
    first_cube = node.calls[0][0]
    assert (first_cube, 1) in node.calls
    outcome = next(c for c in report.cubes if c.index == first_cube)
    assert outcome.attempts == 2 and outcome.status == UNSAT
    (failure,) = report.result.failures
    assert failure["kind"] == CORRUPT_ANSWER
    assert "coordinator certification" in failure["detail"]
    assert report.double_counted == 0 and report.lost == 0


def test_retryable_failure_is_requeued():
    def script(endpoint, cube, attempt):
        if not endpoint.calls[1:]:
            return {"status": "FAILED",
                    "failure": {"kind": CRASHED, "detail": "boom"}}
        return UNSAT_PAYLOAD

    node = Scripted("a", script)
    report = conquer([node])
    assert report.result.status == UNSAT
    assert (node.calls[0][0], 1) in node.calls
    assert [f["kind"] for f in report.result.failures] == [CRASHED]


def test_local_endpoint_reseeds_a_retry(monkeypatch):
    jobs = []

    def fake_spawn(job, **_kwargs):
        jobs.append(job)
        if len(jobs) == 1:
            from repro.errors import WorkerFailure
            outcome = WorkerOutcome(job.name, failure=WorkerFailure(
                CRASHED, "boom", engine=job.name))
        else:
            outcome = WorkerOutcome(job.name, result=SolverResult(
                status=UNSAT, stats=SolverStats(conflicts=1)))
        return SimpleNamespace(
            proc=SimpleNamespace(is_alive=lambda: False),
            expired=lambda: False,
            reap=lambda certify, tracer: outcome)

    monkeypatch.setattr("repro.cube.conquer.spawn_worker", fake_spawn)
    report = solve_cubes(small_miter(), workers=1, budget=60,
                         cutter=CutterOptions(max_cubes=4))
    assert report.result.status == UNSAT
    first, retry = jobs[0], jobs[1]
    assert retry.name == first.name     # the same cube, again
    base = preset("implicit").sim_seed
    assert "sim_seed" not in first.overrides and first.seed_classes
    assert retry.overrides["sim_seed"] == base + RESEED_STRIDE
    assert retry.seed_classes is None


def test_late_answer_for_closed_cube_is_a_duplicate():
    events = Events()

    def slow(endpoint, cube, attempt):
        if endpoint.calls[1:]:
            return UNSAT_PAYLOAD
        # Hold the first cube until a thief's answer closed it.
        events.wait_for(lambda kind, f: kind == "cube_result"
                        and f["cube"] == cube.index)
        return UNSAT_PAYLOAD

    def fast(endpoint, cube, attempt):
        assert owner.started.wait(WAIT)
        return UNSAT_PAYLOAD

    owner = Scripted("owner", slow)
    thief = Scripted("thief", fast)
    report = conquer([owner, thief], trace=events, steal_after=0.0)
    assert report.result.status == UNSAT
    assert report.steals >= 1
    assert report.duplicates == owner.info.duplicates == 1
    assert report.double_counted == 0 and report.lost == 0
    held = owner.calls[0][0]
    outcome = next(c for c in report.cubes if c.index == held)
    assert outcome.node == "thief"


def test_empty_core_closes_instance_and_prunes_queue():
    def script(endpoint, cube, attempt):
        return {"status": UNSAT, "core": [], "stats": {}}

    node = Scripted("a", script)
    report = conquer([node])
    assert report.result.status == UNSAT
    assert len(node.calls) == 1
    first = node.calls[0][0]
    others = [c for c in report.cubes if c.index != first
              and c.status != "REFUTED"]
    assert others and all(c.status == PRUNED and c.pruned_by == first
                          for c in others)
    assert report.lost == 0


def test_dead_endpoints_cube_is_reassigned():
    def dying(endpoint, cube, attempt):
        raise EndpointDown("connection refused")

    def survivor(endpoint, cube, attempt):
        assert doomed.started.wait(WAIT)
        return UNSAT_PAYLOAD

    doomed = Scripted("doomed", dying)
    alive = Scripted("alive", survivor)
    report = conquer([doomed, alive], steal_after=3600.0)
    assert report.result.status == UNSAT
    assert report.reassigned == 1
    assert not doomed.info.alive
    assert doomed.info.detail == "connection refused"
    lost_cube = doomed.calls[0][0]
    assert (lost_cube, 0) in alive.calls
    assert report.double_counted == 0 and report.lost == 0


def test_many_slots_apply_each_cube_exactly_once():
    # More slot threads than cores, instant answers, eager stealing and a
    # short switch interval: a lost update in the scheduler's books would
    # break one of the equalities below.
    import sys
    answered = []

    def script(endpoint, cube, attempt):
        answered.append(cube.index)
        return UNSAT_PAYLOAD

    endpoints = [Scripted("n{}".format(i), script, slots=4)
                 for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        report = conquer(endpoints, cutter=CutterOptions(max_cubes=48),
                         steal_after=0.0)
    finally:
        sys.setswitchinterval(interval)
    assert report.result.status == UNSAT
    assert report.double_counted == 0 and report.lost == 0
    opened = [c for c in report.cubes if c.status != "REFUTED"]
    completed = sum(e.info.completed for e in endpoints)
    assert completed == len(opened)
    assert completed + report.duplicates == len(answered)
    assert sum(e.info.dispatched for e in endpoints) == len(answered)
    assert report.result.stats.conflicts == completed
