"""The benchmark's four workloads, driven through repro's public entry points.

``paper_suite``   rows of the paper's catalogue, in process, both cores.
``serve_cold``    structurally new requests against a fresh HTTP server.
``serve_warm``    duplicates of primed requests: the answer cache's read side.
``conquer_mult``  multiplier miters through ``solve_cubes`` and
                  ``solve_distributed`` (one local conquer node).

Each workload sets the system up several times (the median is
``setup_s``), runs a closed loop for the requested seconds, and checks
every answer.  A wrong answer, an UNKNOWN, a taxonomy failure or a refused
or timed-out request is a failed operation, never a crash.

On the 2-CPU VM this was built on, the host's speed drifts by up to 1.6x
over seconds to tens of minutes, so a raw timing says as much about the
host as about the program.  Every timing is therefore scaled by
:func:`host_factor`, probed while the system under test is idle just
before and after the operation, set-up or request batch it scales.
``paper_suite`` and ``conquer_mult`` repeat their operations in whole
passes and report each operation's median scaled time over the passes;
their throughput comes from the same medians.  ``conquer_mult`` solves a
freshly masked miter each pass, so no cube memo serves a repeat.  The
serve workloads drive one server for the whole run, in segments with
host probes between them.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Circuit, CircuitSolver, preset
from repro.bench.instances import instance_by_name
from repro.circuit.miter import miter
from repro.circuit.bench_io import write_bench
from repro.circuit.source import read_circuit_text
from repro.circuit.topo import append_circuit
import repro.cube
import repro.dist.coordinator
from repro.dist.bench import launch_local_nodes
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.result import Limits, SAT, UNSAT
from repro.serve.cache import AnswerCache
from repro.serve.client import ServeClient, ServeError
from repro.gen.random_circuit import random_dag
from repro.inc.mutate import mutate_circuit
from repro.serve.loadgen import renamed_copy
from repro.serve.server import ReproServer
from repro.verify.certify import certify_sat_model

from spans import Recorder

#: The host-speed probe (see :func:`host_factor`): loop length, and its
#: best time on the build VM in its fast state (6.1-6.4 ms).
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.0062

#: Set-ups per run; ``setup_s`` is their median.  serve_warm's set-up
#: primes the cache with real solves, the costliest, so it repeats less.
SETUP_REPEATS = 5
WARM_SETUP_REPEATS = 3

#: Paper rows: (instance, presets).  Every row the catalogue has would
#: take ~80 s per pass on 2 CPUs; this pass (~5 s) keeps SAT rows, UNSAT
#: rows of the equiv, opt and scan families, and c6288, and is short
#: enough to repeat about five times in a run.  c6288 runs on
#: ``explicit`` only: on the ``kernel`` preset it alone takes ~26 s.
#: 9vliw004 runs on ``kernel`` only: on ``explicit`` it takes 1.3-2 s.
PAPER_ROWS: List[Tuple[str, Tuple[str, ...]]] = [
    ("c1355.equiv", ("explicit", "kernel")),
    ("c3540.equiv", ("explicit", "kernel")),
    ("c7552.equiv", ("explicit", "kernel")),
    ("c6288.equiv", ("explicit",)),
    ("c3540.opt", ("explicit", "kernel")),
    ("s38417.scan.equiv", ("explicit", "kernel")),
    ("9vliw004", ("kernel",)),
    ("9vliw010", ("explicit", "kernel")),
]

#: conquer_mult: multiplier width.  mult6 takes 10-12 s per solve here,
#: too long to repeat within one run.
CONQUER_WIDTH = 5
CONQUER_BUDGET_S = 60.0

#: Serve request budget (seconds) and traffic shape.
REQUEST_BUDGET_S = 30.0
DRIVE_SEGMENTS = 5        # host probes split a timed loop this often
#: The primed requests, by class and answer.  A SAT hit is re-certified
#: and an UNSAT one is not, so fixing the answers as well as the classes
#: keeps the cost of a hit from drifting with the seed.
WARM_PRIMED = (("unsat_miter:4", UNSAT), ("unsat_miter:4", UNSAT),
               ("unsat_miter:3", UNSAT), ("mutated_miter", UNSAT),
               ("mutated_miter", UNSAT), ("cnf_phase", SAT),
               ("cnf_phase", SAT), ("cnf_phase", UNSAT),
               ("cnf_phase", UNSAT), ("random_dag", SAT),
               ("random_dag", SAT))
WARM_RENAMED = 400        # renamed copies, more than the server's parse
#                           memo holds, so each one is parsed and
#                           fingerprinted when it arrives
COLD_POOL_PER_S = 14      # generated cold requests per second of run
#: Instance sizes are fixed, so only the structure varies with the seed.
CNF_VARS = 50
DAG_GATES = 150
#: One cycle of cold traffic.  Fixed class proportions keep the latency
#: mix from drifting with the seed; the seed picks the instances.  The
#: sweep is a store write: it sweeps a base no request is built from.
COLD_CYCLE = ("unsat_miter:4", "cnf_phase", "random_dag", "mutated_miter",
              "cnf_phase", "unsat_miter:3", "cnf_phase", "mutated_miter",
              "random_dag", "unsat_miter:4", "cnf_phase", "sweep")


@dataclass
class Config:
    seed: int
    seconds: float
    workers: int
    clients: int
    tmp: str
    recorder: Recorder
    #: Test hook: flip the expected answer of the first operation.
    plant_wrong: bool = False


@dataclass
class Sample:
    op: str
    cls: str
    seconds: float = 0.0       # start to verified answer
    ok: bool = True
    detail: str = ""
    timed: bool = True         # counts toward ops_per_s and latency
    verdict_s: float = 0.0     # time to verdict (in-process solves)
    queue_s: float = 0.0       # serve: the job's queue wait
    status: str = "?"
    key: str = ""              # the operation's identity across passes
    scale: float = 1.0         # host_factor() around it


@dataclass
class Outcome:
    setup_s: List[float]
    samples: List[Sample]
    #: Verified operations per second and the latencies the percentiles
    #: are taken over (pass-based workloads: each operation's median over
    #: the passes).  These and ``setup_s`` are scaled by the host factor.
    ops_per_s: float
    latencies_s: List[float]
    #: Workload-specific end-to-end figures: name -> (value, unit).
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


def _flip(status: str) -> str:
    return UNSAT if status == SAT else SAT


def _check(status: str, want: Optional[str]) -> Tuple[bool, str]:
    if status not in (SAT, UNSAT):
        return False, "no decisive answer ({})".format(status)
    if want is not None and status != want:
        return False, "expected {}, got {}".format(want, status)
    return True, ""


def _timed_loop(seconds: float, body: Callable[[int], None],
                limit: int = 1 << 30) -> Tuple[float, List[float]]:
    """Run whole passes of ``body(pass_index)``, as many as fit best in
    ``seconds`` judging by the first (at most ``limit``); returns the
    wall time and each pass's time.

    Whole passes keep throughput independent of where the clock stops.
    """
    gc.collect()   # set-up's garbage is not the first pass's cost
    start = time.perf_counter()
    times: List[float] = []
    passes = 1
    while len(times) < passes:
        started = time.perf_counter()
        body(len(times))
        times.append(time.perf_counter() - started)
        if len(times) == 1:
            passes = min(limit, max(1, int(seconds / times[0] + 0.5)))
    return time.perf_counter() - start, times


def host_factor() -> float:
    """The host's speed now, relative to the build VM's fast state.

    Times :data:`REF_LOOPS` iterations of a fixed pure-Python loop (best
    of three) and returns ``REF_NOMINAL_S`` over that time: a time taken
    on a slowed host, multiplied by the factor, reads as the time it would
    have taken at the reference speed.  Call it only while the system
    under test is idle, so that the loop measures the host alone.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return REF_NOMINAL_S / best


def _per_op(samples: List[Sample], attr: str = "seconds") -> Dict[str, float]:
    """Each verified operation's median scaled ``attr`` over the passes."""
    values: Dict[str, List[float]] = {}
    for s in samples:
        if s.timed and s.ok:
            values.setdefault(s.key, []).append(getattr(s, attr) * s.scale)
    return {key: statistics.median(v) for key, v in values.items()}


def _rate(per_op: Dict[str, float]) -> float:
    """Operations per second of one caller running each operation once."""
    total = sum(per_op.values())
    return len(per_op) / total if total > 0 else 0.0


def masked_miter(width: int, mask: int, label: str) -> Circuit:
    """Array-vs-CSA multiplier miter with inputs inverted by ``mask``.

    UNSAT by construction (both halves see the same inverted inputs);
    each mask gives a structurally distinct circuit, so no fingerprint or
    memo keyed on structure can carry an answer from one to the next.
    """
    m = miter(array_multiplier(width), csa_multiplier(width))
    c = Circuit(label, strash=False)
    input_map = {pi: c.add_input("x{}".format(k)) ^ ((mask >> k) & 1)
                 for k, pi in enumerate(m.inputs)}
    copied = append_circuit(c, m, input_map, raw=True)
    for k, lit in enumerate(m.outputs):
        c.add_output(copied[lit >> 1] ^ (lit & 1), "o{}".format(k))
    return c


# ----------------------------------------------------------------------
# paper_suite
# ----------------------------------------------------------------------

def paper_suite(cfg: Config) -> Outcome:
    rows = PAPER_ROWS
    setups = []
    # Building the rows takes ~0.05 s: more set-ups steady the median.
    for _ in range(3 * SETUP_REPEATS):
        circuits: Dict[str, Circuit] = {}
        gc.collect()   # the previous set-up's circuits are not timed
        before = host_factor()
        started = time.perf_counter()
        circuits = {name: instance_by_name(name).build() for name, _ in rows}
        seconds = time.perf_counter() - started
        setups.append(seconds * (before + host_factor()) / 2)
    expected = {name: instance_by_name(name).expected for name, _ in rows}
    if cfg.plant_wrong:
        expected[rows[0][0]] = _flip(expected[rows[0][0]])
    ops = [(name, p) for name, presets in rows for p in presets]
    rng = random.Random(cfg.seed)
    samples: List[Sample] = []

    def one_pass(index: int) -> None:
        order = list(ops)
        rng.shuffle(order)
        for name, p in order:
            sample = Sample("{}/{}/{}".format(name, p, index), p,
                            key="{}/{}".format(name, p), scale=host_factor())
            with cfg.recorder.op(sample.op):
                started = time.perf_counter()
                try:
                    result = CircuitSolver(circuits[name], preset(p)).solve()
                    sample.verdict_s = time.perf_counter() - started
                    sample.status = result.status
                    sample.ok, sample.detail = _check(result.status,
                                                      expected[name])
                    if sample.ok and result.status == SAT:
                        cert = certify_sat_model(circuits[name], result.model)
                        sample.ok, sample.detail = cert.ok, cert.detail
                except Exception as exc:  # noqa: BLE001 — a failed op
                    sample.ok = False
                    sample.detail = "{}: {}".format(type(exc).__name__, exc)
                sample.seconds = time.perf_counter() - started
            sample.scale = (sample.scale + host_factor()) / 2
            samples.append(sample)

    wall, pass_s = _timed_loop(cfg.seconds, one_pass)
    per_op = _per_op(samples)
    verdicts = _per_op(samples, "verdict_s")
    named = {"{}.suite_s".format(p): (
        sum(v for key, v in verdicts.items() if key.endswith("/" + p)), "s")
        for p in ("explicit", "kernel")}
    notes = {"rows": len(rows), "passes": len(pass_s), "wall_s": wall}
    return Outcome(setups, samples, _rate(per_op), list(per_op.values()),
                   named, notes)


# ----------------------------------------------------------------------
# conquer_mult
# ----------------------------------------------------------------------

def conquer_mult(cfg: Config) -> Outcome:
    rng = random.Random(cfg.seed)
    # A fresh mask for every pass, so a conquer node's cube memo can never
    # answer a repeated miter.  Masks barely change the search (six mult5
    # masks took 2530-2710 conflicts each), so a path's median time over
    # the passes is the time of one miter.  The pool assumes a pass takes
    # at least a second.
    masks = rng.sample(range(1 << (2 * CONQUER_WIDTH)), int(cfg.seconds) + 2)

    def build(index: int) -> Circuit:
        with cfg.recorder.span("circuit.build"):
            return masked_miter(CONQUER_WIDTH, masks[index], "mult{}m{}"
                                .format(CONQUER_WIDTH, masks[index]))

    samples: List[Sample] = []

    def solve(path: str, circuit: Circuit, urls: List[str]) -> Sample:
        sample = Sample("{}/{}".format(path, circuit.name), path, key=path,
                        scale=host_factor())
        with cfg.recorder.op(sample.op):
            started = time.perf_counter()
            try:
                if path == "cube":
                    report = repro.cube.solve_cubes(
                        circuit, workers=cfg.workers,
                        budget=CONQUER_BUDGET_S)
                    problems = []
                else:
                    report = repro.dist.coordinator.solve_distributed(
                        circuit, nodes=urls, budget=CONQUER_BUDGET_S)
                    problems = ["{} {}".format(k, v) for k, v in
                                (("lost", report.lost),
                                 ("double_counted",
                                  report.double_counted)) if v]
                sample.verdict_s = time.perf_counter() - started
                sample.status = report.result.status
                want = UNSAT
                if cfg.plant_wrong and not samples:
                    want = SAT
                sample.ok, sample.detail = _check(sample.status, want)
                if sample.ok and report.result.stats.conflicts <= 0:
                    # A memoised or otherwise skipped search would
                    # flatter the solve time: fail it loudly.
                    sample.ok = False
                    sample.detail = "solve reported no conflicts"
                if sample.ok and problems:
                    sample.ok = False
                    sample.detail = ", ".join(problems)
            except Exception as exc:  # noqa: BLE001 — a failed op
                sample.ok = False
                sample.detail = "{}: {}".format(type(exc).__name__, exc)
            sample.seconds = time.perf_counter() - started
        sample.scale = (sample.scale + host_factor()) / 2
        return sample

    setups: List[float] = []
    nodes: list = []
    try:
        for _ in range(SETUP_REPEATS):
            for node in nodes:
                node.stop()
            gc.collect()
            before = host_factor()
            started = time.perf_counter()
            build(0)
            nodes = launch_local_nodes(1, cfg.workers, workdir=cfg.tmp)
            seconds = time.perf_counter() - started
            setups.append(seconds * (before + host_factor()) / 2)
        urls = [node.url for node in nodes]

        def one_pass(index: int) -> None:
            circuit = build(index)
            for path in ("cube", "dist"):
                samples.append(solve(path, circuit, urls))

        wall, pass_s = _timed_loop(cfg.seconds, one_pass, len(masks))
    finally:
        for node in nodes:
            node.stop()
    per_op = _per_op(samples)
    verdicts = _per_op(samples, "verdict_s")
    named = {"{}.solve_s".format(path): (verdicts.get(path, 0.0), "s")
             for path in ("cube", "dist")}
    notes = {"passes": len(pass_s), "width": CONQUER_WIDTH, "wall_s": wall}
    return Outcome(setups, samples, _rate(per_op), list(per_op.values()),
                   named, notes)


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------

@dataclass
class Request:
    label: str
    text: str
    cls: str
    expect: Optional[str] = None      # None: checked against a reference
    engine: str = "csat"
    timed: bool = True


def _boot(cfg: Config, tag: str) -> Tuple[ReproServer, ServeClient, str]:
    """A fresh server: new answer cache, journal and knowledge store."""
    root = tempfile.mkdtemp(prefix=tag + "-", dir=cfg.tmp)
    server = ReproServer(
        host="127.0.0.1", port=0, workers=cfg.workers, max_queue=256,
        cache=AnswerCache(store_path=os.path.join(root, "cache.jsonl")),
        journal_path=os.path.join(root, "journal.jsonl"),
        store_path=os.path.join(root, "store.jsonl")).start()
    client = ServeClient(server.host, server.port,
                         timeout=REQUEST_BUDGET_S + 30.0)
    client.health()
    return server, client, root


def _shutdown(server: ReproServer, root: str) -> None:
    server.stop(drain=True)
    if server.store is not None:
        server.store.close()
    shutil.rmtree(root, ignore_errors=True)


def _model_for(circuit: Circuit, inputs: Dict[str, int]) -> Dict[int, bool]:
    """A served input assignment as a model.  Inputs it leaves out are
    completed with False, as :func:`certify_sat_model` does."""
    return {pi: bool(inputs.get(circuit.name_of(pi) or "n{}".format(pi)))
            for pi in circuit.inputs}


def _send(cfg: Config, client: ServeClient, req: Request,
          circuits: Dict[str, Circuit]) -> Sample:
    """One request, timed from send to verified answer."""
    sample = Sample(req.label, req.cls, timed=req.timed)
    with cfg.recorder.op(req.label):
        started = time.perf_counter()
        try:
            snap = client.submit(circuit_text=req.text, engine=req.engine,
                                 label=req.label,
                                 limits={"max_seconds": REQUEST_BUDGET_S},
                                 wait=REQUEST_BUDGET_S + 10.0)
            if snap.get("state") != "DONE":
                snap = client.wait_for(snap["job"],
                                       timeout=REQUEST_BUDGET_S + 10.0)
            result = snap.get("result") or {}
            sample.queue_s = float(snap.get("queue_seconds") or 0.0)
            sample.status = str(result.get("status"))
            if result.get("failures"):
                sample.ok = False
                sample.detail = "failures: {}".format(result["failures"])
            elif req.engine == "sweep":
                absorbed = result.get("absorbed")
                if not isinstance(absorbed, dict) or "error" in absorbed:
                    sample.ok = False
                    sample.detail = "sweep not absorbed: {}".format(absorbed)
            else:
                sample.ok, sample.detail = _check(sample.status, req.expect)
                if sample.ok and sample.status == SAT:
                    circuit = circuits.get(req.text)
                    if circuit is None:
                        circuit = read_circuit_text(req.text, name=req.label)
                    cert = certify_sat_model(circuit, _model_for(
                        circuit, result.get("model_inputs") or {}))
                    sample.ok, sample.detail = cert.ok, cert.detail
        except (ServeError, KeyError, ValueError, TypeError) as exc:
            sample.ok = False
            sample.detail = "{}: {}".format(type(exc).__name__, exc)
        sample.seconds = time.perf_counter() - started
    return sample


def _drive(cfg: Config, client: ServeClient, requests: List[Request],
           circuits: Dict[str, Circuit], seconds: float
           ) -> Tuple[List[Sample], float]:
    """``cfg.clients`` closed-loop clients over ``requests`` in order,
    until ``seconds`` pass or the requests run out."""
    lock = threading.Lock()
    cursor = iter(requests)
    samples: List[Sample] = []
    started = time.perf_counter()
    deadline = started + seconds

    def pump() -> None:
        while time.perf_counter() < deadline:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            samples.append(_send(cfg, client, req, circuits))

    threads = [threading.Thread(target=pump, name="perfbench-client-{}"
                                .format(i)) for i in range(cfg.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - started


def _scaled_drive(cfg: Config, client: ServeClient, requests: List[Request],
                  circuits: Dict[str, Circuit]) -> Tuple[List[Sample], float]:
    """:func:`_drive` for ``cfg.seconds`` in :data:`DRIVE_SEGMENTS`
    segments, with the host probed between them while the server is idle.
    Each segment's samples carry the mean of the probes around it; returns
    the samples and the scaled wall time."""
    sent: List[Sample] = []
    wall = 0.0
    for _ in range(DRIVE_SEGMENTS):
        before = host_factor()
        samples, seconds = _drive(cfg, client, requests[len(sent):],
                                  circuits, cfg.seconds / DRIVE_SEGMENTS)
        scale = (before + host_factor()) / 2
        for sample in samples:
            sample.scale = scale
        sent.extend(samples)
        wall += seconds * scale
    return sent, wall


def _reference(text: str) -> str:
    """The other core's answer, computed outside any timed region."""
    circuit = read_circuit_text(text, name="reference")
    return CircuitSolver(circuit, preset("kernel")).solve(
        limits=Limits(max_seconds=REQUEST_BUDGET_S)).status


def _base_miter() -> Circuit:
    """The base miter swept into the store; mutated_miter requests are
    revisions of it."""
    return miter(array_multiplier(4), csa_multiplier(4))


def _cnf_text(rng: random.Random) -> str:
    """Random 3-SAT near the phase transition (clause ratio 4.26), as
    DIMACS text: the server converts it to a circuit."""
    nvars = CNF_VARS
    nclauses = int(nvars * 4.26)
    lines = ["p cnf {} {}".format(nvars, nclauses)]
    for _ in range(nclauses):
        lits = rng.sample(range(1, nvars + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v)
                              for v in lits) + " 0")
    return "\n".join(lines) + "\n"


class _Generator:
    """Structurally new requests of each traffic class, from one seed.

    Masks are drawn without replacement (width-3 requests from one end of
    the mask list, the sweeps' other bases from the other), so no two
    requests share a structure and no request's base was swept.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.base = _base_miter()
        self.masks = {3: rng.sample(range(1 << 6), 1 << 6),
                      4: rng.sample(range(1 << 8), 1 << 8)}
        self.made = 0

    def make(self, kind: str) -> Optional[Request]:
        """One request of ``kind`` (a COLD_CYCLE entry); None once the
        masks of that width are used up."""
        rng = self.rng
        label = "{}{}".format(kind.split(":")[0], self.made)
        self.made += 1
        if kind == "sweep" or kind.startswith("unsat_miter"):
            width = 3 if kind == "sweep" else int(kind.split(":")[1])
            if not self.masks[width]:
                return None
            if kind == "sweep":
                circuit = masked_miter(3, self.masks[3].pop(), label)
                return Request(label, write_bench(circuit), "sweep",
                               engine="sweep", timed=False)
            circuit = masked_miter(width, self.masks[width].pop(0), label)
            return Request(label, write_bench(circuit), "unsat_miter",
                           UNSAT)
        if kind == "mutated_miter":
            circuit = mutate_circuit(self.base, seed=rng.randrange(1 << 30),
                                     edits=2, name=label)
            return Request(label, write_bench(circuit), kind, UNSAT)
        if kind == "cnf_phase":
            return Request(label, _cnf_text(rng), kind)
        dag = random_dag(num_inputs=8, num_gates=DAG_GATES, num_outputs=1,
                         seed=rng.randrange(1 << 30))
        return Request(label, write_bench(dag), kind)


def serve_cold(cfg: Config) -> Outcome:
    rng = random.Random(cfg.seed)
    with cfg.recorder.paused():
        generator = _Generator(rng)
        requests = []
        for index in range(max(2 * len(COLD_CYCLE),
                               int(cfg.seconds * COLD_POOL_PER_S))):
            req = generator.make(COLD_CYCLE[index % len(COLD_CYCLE)])
            if req is None:
                break
            requests.append(req)
        base_text = write_bench(_base_miter())
    if cfg.plant_wrong:
        first = next(r for r in requests if r.expect is not None)
        first.expect = _flip(first.expect)
    setups = []
    samples: List[Sample] = []
    server = root = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                _shutdown(server, root)
            before = host_factor()
            started = time.perf_counter()
            server, client, root = _boot(cfg, "cold")
            seeded = _send(cfg, client, Request("seed-base", base_text,
                                                "sweep", engine="sweep",
                                                timed=False), {})
            seconds = time.perf_counter() - started
            setups.append(seconds * (before + host_factor()) / 2)
            seeded.op = "setup/" + seeded.op
            samples.append(seeded)
        gc.collect()
        timed, wall = _scaled_drive(cfg, client, requests, {})
        samples.extend(timed)
    finally:
        if server is not None:
            _shutdown(server, root)
    # Every cnf_phase / random_dag answer against the kernel core's.
    by_label = {r.label: r for r in requests}
    with cfg.recorder.paused():
        for sample in samples:
            req = by_label.get(sample.op)
            if req is None or req.expect is not None or not sample.ok \
                    or req.engine == "sweep":
                continue
            sample.ok, detail = _check(sample.status, _reference(req.text))
            sample.detail = detail and "reference: " + detail
    notes = {"requests_generated": len(requests), "requests_sent": len(timed),
             "pool_exhausted": len(timed) >= len(requests),
             "scaled_wall_s": wall}
    timed = [s for s in timed if s.timed]
    return Outcome(setups, samples, sum(1 for s in timed if s.ok) / wall,
                   [s.seconds * s.scale for s in timed], {}, notes)


def serve_warm(cfg: Config) -> Outcome:
    rng = random.Random(cfg.seed)
    with cfg.recorder.paused():
        generator = _Generator(rng)
        primed: List[Request] = []
        for kind, status in WARM_PRIMED:
            while True:
                req = generator.make(kind)
                if req.expect is None:
                    req.expect = _reference(req.text)
                if req.expect == status:
                    break
            primed.append(req)
        circuits = {req.text: read_circuit_text(req.text, name=req.label)
                    for req in primed}
        renamed: List[Request] = []
        for k in range(WARM_RENAMED):
            base = primed[k % len(primed)]
            twin = renamed_copy(circuits[base.text], "r{}".format(k))
            text = write_bench(twin)
            if base.expect == SAT:   # the models this client re-certifies
                circuits[text] = read_circuit_text(text, name=base.label)
            renamed.append(Request("", text, "duplicate", base.expect))
        count = max(200, int(cfg.seconds * 400))
        requests: List[Request] = []
        for k in range(count):
            if rng.random() < 0.5:
                base = renamed[k % len(renamed)]
                label = "dup{}".format(k)
                cls = "duplicate"
            else:
                base = primed[rng.randrange(len(primed))]
                label = "{}~{}".format(base.label, k)
                cls = base.cls
            requests.append(Request(label, base.text, cls, base.expect))
    if cfg.plant_wrong:
        requests[0].expect = _flip(requests[0].expect)
    setups = []
    samples: List[Sample] = []
    server = root = None
    try:
        for rep in range(WARM_SETUP_REPEATS):
            if server is not None:
                _shutdown(server, root)
            before = host_factor()
            started = time.perf_counter()
            server, client, root = _boot(cfg, "warm")
            prime = [Request("prime{}/{}".format(rep, r.label), r.text,
                             r.cls, r.expect, timed=False) for r in primed]
            done, _ = _drive(cfg, client, prime, circuits, 1e9)
            seconds = time.perf_counter() - started
            setups.append(seconds * (before + host_factor()) / 2)
            samples.extend(done)
        gc.collect()
        sent, wall = _scaled_drive(cfg, client, requests, circuits)
        samples.extend(sent)
    finally:
        if server is not None:
            _shutdown(server, root)
    notes = {"primed": len(primed), "renamed_copies": len(renamed),
             "requests_sent": len(sent), "scaled_wall_s": wall,
             "pool_exhausted": len(sent) >= len(requests)}
    timed = [s for s in sent if s.timed]
    return Outcome(setups, samples, sum(1 for s in timed if s.ok) / wall,
                   [s.seconds * s.scale for s in timed], {}, notes)


WORKLOADS: Dict[str, Callable[[Config], Outcome]] = {
    "paper_suite": paper_suite,
    "serve_cold": serve_cold,
    "serve_warm": serve_warm,
    "conquer_mult": conquer_mult,
}
