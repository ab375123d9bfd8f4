"""Seeded load generation for the serve subsystem.

Produces the mixed traffic a deployed equivalence-checking service sees —
satisfiable random DAGs, unsatisfiable multiplier miters, and *renamed
duplicates* of earlier requests (the regime the fingerprint cache
exists for) — drives a live server with concurrent clients, and checks
every answer (differentially against a direct in-process solve for
instances whose status is not known by construction).  The HTTP
end-to-end tests and the durable-log soak drive the server with it;
the service's performance is measured by perfbench's ``serve_cold``
and ``serve_warm`` workloads.

Everything is deterministic in the campaign seed: the same seed yields
the same instances, the same duplicate structure, and the same
submission order.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circuit.bench_io import write_bench
from ..circuit.miter import miter
from ..circuit.netlist import Circuit
from ..circuit.topo import append_circuit
from ..gen.random_circuit import random_dag
from ..result import SAT, UNSAT
from .client import ServeClient, ServeError

#: Traffic mix fractions (of the non-duplicate base instances).
_UNSAT_FRACTION = 0.34
#: Of the satisfiable side, how much is near-phase-transition random
#: 3-SAT (hard per byte) vs plain random DAGs (cheap filler).
_HARD_SAT_FRACTION = 0.7
#: Clause-to-variable ratio of the random 3-SAT traffic (the hardness
#: peak for random 3-SAT sits near 4.26).
_CNF_RATIO = 4.26


def _random_cnf_text(nvars: int, seed: int) -> str:
    """Random 3-SAT near the phase transition, as DIMACS text.

    Submitted verbatim: the serve path sniffs DIMACS and converts it to a
    circuit server-side, so this also keeps the CNF front door honest.
    These instances are the interesting regime for the cache — milliseconds
    to parse and fingerprint, tens to hundreds of milliseconds to solve.
    """
    rng = random.Random(seed)
    nclauses = int(nvars * _CNF_RATIO)
    lines = ["p cnf {} {}".format(nvars, nclauses)]
    for _ in range(nclauses):
        chosen = rng.sample(range(1, nvars + 1), 3)
        lines.append(" ".join(
            str(v if rng.random() < 0.5 else -v) for v in chosen) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class WorkItem:
    """One request of the generated workload."""

    label: str
    text: str                      # .bench circuit text
    expect: Optional[str] = None   # SAT/UNSAT when known by construction
    dup_of: Optional[str] = None   # label of the base item this renames


def renamed_copy(circuit: Circuit, tag: str) -> Circuit:
    """Structure-preserving copy with fresh, unrelated names.

    The raw copy keeps every gate verbatim (no strashing) so the written
    ``.bench`` differs from the original **only** in its identifiers —
    the canonical fingerprint must not notice the difference.
    """
    c = Circuit("{}_{}".format(tag, circuit.name), strash=False)
    input_map = {pi: c.add_input("{}_i{}".format(tag, k))
                 for k, pi in enumerate(circuit.inputs)}
    m = append_circuit(c, circuit, input_map, raw=True)
    for k, lit in enumerate(circuit.outputs):
        c.add_output(m[lit >> 1] ^ (lit & 1), "{}_o{}".format(tag, k))
    return c


def _hard_unsat(label: str, width: int, mask_seed: int) -> Circuit:
    """UNSAT by construction *and* hard for the solver: a miter of two
    structurally different multiplier implementations (array vs CSA),
    composed with a random input-inversion mask.

    The mask keeps the miter UNSAT (both halves see the same inverted
    inputs) while making each instance structurally distinct, so distinct
    labels get distinct fingerprints — a self-miter would instead collapse
    to constant false under the fingerprint's strashing and make the whole
    UNSAT traffic one cache line.
    """
    from ..bench.instances import array_multiplier, csa_multiplier
    rng = random.Random(mask_seed)
    m = miter(array_multiplier(width), csa_multiplier(width))
    c = Circuit(label, strash=False)
    input_map = {pi: c.add_input("x{}".format(k)) ^ rng.randint(0, 1)
                 for k, pi in enumerate(m.inputs)}
    copied = append_circuit(c, m, input_map, raw=True)
    for k, lit in enumerate(m.outputs):
        c.add_output(copied[lit >> 1] ^ (lit & 1), "o{}".format(k))
    return c


def build_workload(seed: int = 0, count: int = 40,
                   duplicate_fraction: float = 0.4,
                   max_gates: int = 200,
                   mutated_fraction: float = 0.0) -> List[WorkItem]:
    """Deterministic mixed traffic: SAT DAGs, UNSAT miters, renamed dups.

    The UNSAT instances are multiplier miters — small to parse and
    fingerprint but expensive to search — so a fingerprint hit saves real
    work; the SAT random DAGs keep the cheap-and-plentiful side of the
    traffic honest.

    ``mutated_fraction`` reserves that share of the stream for
    **mutated miters**: function-preserving edits of one shared base
    miter (:func:`repro.inc.mutate.mutate_circuit`).  Unlike renamed
    duplicates they are structurally *new* circuits — every fingerprint
    misses — so their latency story belongs to the knowledge store's
    incremental pre-pass, not the answer cache.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    mutated_count = int(round(count * max(0.0, mutated_fraction)))
    count = max(1, count - mutated_count)
    base_count = max(1, int(round(count * (1.0 - duplicate_fraction))))
    base: List[WorkItem] = []
    for i in range(base_count):
        if rng.random() < _UNSAT_FRACTION:
            width = 4 if rng.random() < 0.5 else 3
            m = _hard_unsat("unsat{}".format(i), width,
                            rng.randrange(1 << 30))
            base.append(WorkItem(label="unsat{}".format(i),
                                 text=write_bench(m), expect=UNSAT))
        elif rng.random() < _HARD_SAT_FRACTION:
            # Near-phase-transition 3-SAT: usually SAT, sometimes UNSAT;
            # always checked differentially, never assumed.
            base.append(WorkItem(
                label="cnf{}".format(i),
                text=_random_cnf_text(rng.randint(45, 60),
                                      rng.randrange(1 << 30))))
        else:
            # Random DAGs are usually SAT but not guaranteed: checked
            # differentially by the harness, not assumed.
            dag = random_dag(num_inputs=rng.randint(6, 10),
                             num_gates=rng.randint(max_gates // 2,
                                                   max_gates),
                             num_outputs=rng.randint(1, 2),
                             seed=rng.randrange(1 << 30))
            base.append(WorkItem(label="rand{}".format(i),
                                 text=write_bench(dag)))
    items = list(base)
    dup_index = 0
    while len(items) < count:
        origin = rng.choice(base)
        from ..circuit.source import read_circuit_text
        twin = renamed_copy(read_circuit_text(origin.text,
                                              name=origin.label),
                            "r{}".format(dup_index))
        items.append(WorkItem(label="{}#dup{}".format(origin.label,
                                                      dup_index),
                              text=write_bench(twin), expect=origin.expect,
                              dup_of=origin.label))
        dup_index += 1
    if mutated_count:
        items.extend(mutated_miter_items(
            seed=rng.randrange(1 << 30), count=mutated_count))
    rng.shuffle(items)
    return items


def mutated_miter_items(seed: int = 0, count: int = 8, width: int = 4,
                        edits: int = 2) -> List[WorkItem]:
    """A stream of function-preserving revisions of one base miter.

    Each item is UNSAT by construction (the edits rewrite ``s`` as
    ``s AND (s OR r)`` — an absorption identity — so the mitered
    functions never change) yet structurally novel: a fresh fingerprint,
    an answer-cache miss, and exactly the regime the knowledge store's
    cone-digest replay is accountable for.
    """
    from ..bench.instances import array_multiplier, csa_multiplier
    from ..inc.mutate import mutate_circuit
    base = miter(array_multiplier(width), csa_multiplier(width))
    rng = random.Random(seed)
    items = []
    for i in range(max(0, count)):
        mutant = mutate_circuit(base, seed=rng.randrange(1 << 30),
                                edits=edits, name="mut{}".format(i))
        items.append(WorkItem(label="mut{}".format(i),
                              text=write_bench(mutant), expect=UNSAT))
    return items


@dataclass
class RequestRecord:
    """Checked outcome of one submitted request."""

    label: str
    status: str = "?"
    cached: bool = False
    ok: bool = True
    detail: str = ""


@dataclass
class LoadReport:
    """One pass of the workload against one server configuration."""

    records: List[RequestRecord] = field(default_factory=list)


def run_load(client: ServeClient, workload: List[WorkItem],
             concurrency: int = 4, engine: str = "csat",
             preset: Optional[str] = None, max_seconds: float = 60.0,
             expected: Optional[Dict[str, str]] = None) -> LoadReport:
    """Fire the workload at a live server with ``concurrency`` clients.

    ``preset`` is sent with every request; ``None`` leaves it out, so
    the server's default preset (``kernel``) answers.  ``expected`` maps
    labels to SAT/UNSAT answers (from construction or a previous
    differential pass); any mismatch marks the record not-ok.
    """
    report = LoadReport()
    lock = threading.Lock()
    cursor = {"next": 0}

    def pump() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(workload):
                    return
                cursor["next"] = index + 1
            item = workload[index]
            record = RequestRecord(label=item.label)
            try:
                snap = client.submit(
                    circuit_text=item.text, engine=engine, preset=preset,
                    label=item.label,
                    limits={"max_seconds": max_seconds},
                    wait=max_seconds + 30.0)
                if snap.get("state") != "DONE":
                    snap = client.wait_for(snap["job"],
                                           timeout=max_seconds + 60.0)
                result = snap.get("result") or {}
                record.status = result.get("status", "?")
                record.cached = bool(result.get("cached"))
                want = (expected or {}).get(item.label) or item.expect
                if want is not None and record.status != want:
                    record.ok = False
                    record.detail = "expected {}, got {}".format(
                        want, record.status)
                elif record.status not in (SAT, UNSAT):
                    record.ok = False
                    record.detail = "no decisive answer: {}".format(
                        result.get("failures"))
            except ServeError as exc:
                record.ok = False
                record.detail = str(exc)
            with lock:
                report.records.append(record)

    threads = [threading.Thread(target=pump, daemon=True)
               for _ in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return report


def reference_answers(workload: List[WorkItem],
                      max_seconds: float = 60.0) -> Dict[str, str]:
    """Direct in-process solves: the differential reference for the run.

    They run legacy ``explicit`` on purpose: the server answers on the
    kernel by default, and a differential reference must not be the
    engine under test.
    """
    from ..circuit.source import read_circuit_text
    from ..core.solver import CircuitSolver
    from ..csat.options import preset as make_preset
    from ..result import Limits
    answers: Dict[str, str] = {}
    for item in workload:
        if item.dup_of is not None:
            continue  # same structure as its base; the base answer rules
        circuit = read_circuit_text(item.text, name=item.label)
        result = CircuitSolver(circuit, make_preset("explicit")).solve(
            limits=Limits(max_seconds=max_seconds))
        if result.status in (SAT, UNSAT):
            answers[item.label] = result.status
    for item in workload:
        if item.dup_of is not None and item.dup_of in answers:
            answers[item.label] = answers[item.dup_of]
    return answers
