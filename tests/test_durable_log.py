"""Tests for the durable-log primitive and the stores folded over it.

The load-bearing claims: damage to any byte of the journal, the
knowledge store, the answer cache or a cube checkpoint costs exactly the
records on the damaged lines — never a crash, never a changed answer;
compaction under concurrent appends loses no served answer and runs once
per threshold crossing; and every log stays within twice its largest
live set plus the compaction floor.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

import pytest

from repro import Circuit
from repro.bench.instances import array_multiplier, csa_multiplier
from repro.circuit.bench_io import write_bench
from repro.circuit.miter import miter
from repro.circuit.source import read_circuit_text
from repro.core.solver import CircuitSolver
from repro.core.sweep import sat_sweep
from repro.csat.options import preset
from repro.durable import (CheckpointError, CubeCheckpoint, Journal,
                           exact_hash, load_checkpoint, read_journal,
                           replay_journal, save_checkpoint)
from repro.durable import log
from repro.durable.journal import KIND_ADMITTED, KIND_FINISHED, KIND_STARTED
from repro.durable.log import LogError, decode
from repro.inc import (KnowledgeStore, absorb_sweep, incremental_prepass,
                       mutate_circuit)
from repro.result import SAT, UNSAT
from repro.serve import (AnswerCache, JobRequest, ReproServer, ServeClient,
                         SolveScheduler, fingerprint)
from repro.serve.cache import limits_class
from repro.serve.loadgen import build_workload, reference_answers, run_load
from repro.sim import circuits_equivalent_exhaustive
from conftest import build_full_adder

SEED = 20261017

#: UNSAT: y = (a AND b) AND NOT (a AND b).  One flipped byte turns
#: ``AND(g1, g2)`` into ``AND(g1, g1)``, a SAT circuit.
PENDING_BENCH = ("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng1 = AND(a, b)\n"
                 "g2 = NAND(a, b)\ny = AND(g1, g2)\n")
SAT_BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"


def _circuit(text: str, name: str) -> Circuit:
    return read_circuit_text(text, name=name, fmt="bench")


def _flip(data: bytes, offset: int, rng: random.Random) -> bytes:
    """``data`` with the byte at ``offset`` XORed by a non-zero mask."""
    flipped = bytearray(data)
    flipped[offset] ^= rng.randrange(1, 256)
    return bytes(flipped)


def _spans(data: bytes):
    """(start, newline index) of every line of a file that ends in one."""
    spans, start = [], 0
    while start < len(data):
        newline = data.index(b"\n", start)
        spans.append((start, newline))
        start = newline + 1
    return spans


def _admitted(key: str, text: str, label: str) -> dict:
    circuit = _circuit(text, label)
    return {"key": key, "job": "j-" + key,
            "digest": fingerprint(circuit).digest,
            "limits_class": limits_class(None), "engine": "csat",
            "preset": "explicit", "priority": 0, "label": label,
            "cube_workers": 2, "incremental": True, "limits": None,
            "source": {"circuit": text, "format": "bench"}}


# ----------------------------------------------------------------------
# The four stores, written through their real classes
# ----------------------------------------------------------------------

class _Files:
    """A small journal, knowledge store, answer cache and checkpoint."""

    def __init__(self, root):
        self.journal = str(root / "serve.wal")
        self.store = str(root / "store.jsonl")
        self.cache = str(root / "cache.jsonl")
        self.checkpoint = str(root / "cube.ckpt")

        journal = Journal(self.journal)
        done = _admitted("done", SAT_BENCH, "and2")
        journal.append(KIND_ADMITTED, **done)
        journal.append(KIND_STARTED, key="done", job=done["job"])
        journal.append(KIND_FINISHED, key="done", job=done["job"],
                       status=SAT, engine="csat", digest=done["digest"],
                       limits_class=done["limits_class"], model_bits=[1, 1])
        self.pending = _admitted("open", PENDING_BENCH, "pending")
        journal.append(KIND_ADMITTED, **self.pending)
        journal.close()

        self.base = miter(array_multiplier(2), csa_multiplier(2))
        store = KnowledgeStore(self.store)
        absorb_sweep(store, self.base,
                     sat_sweep(self.base, export_lemmas=True))
        store.close()

        cache = AnswerCache(store_path=self.cache)
        self.seeded = []
        for circuit in (_circuit(SAT_BENCH, "and2"),
                        _circuit(PENDING_BENCH, "pending"),
                        build_full_adder()):
            fp = fingerprint(circuit)
            result = CircuitSolver(circuit, preset("explicit")).solve()
            assert cache.store(fp, None, "csat", result.status,
                               model=result.model)
            self.seeded.append((circuit, fp, result.status))
        assert len({fp.digest for _c, fp, _s in self.seeded}) == 3

        ckpt_circuit = _circuit(PENDING_BENCH, "pending")
        self.ckpt = CubeCheckpoint(
            digest=fingerprint(ckpt_circuit).digest,
            exact=exact_hash(ckpt_circuit),
            objectives=list(ckpt_circuit.outputs),
            cubes=[{"index": 0, "literals": [4], "status": UNSAT,
                    "depth": 1}],
            lemmas=[[5, 7], [-3]], completed=1)
        save_checkpoint(self.checkpoint, self.ckpt)
        self.ckpt = load_checkpoint(self.checkpoint)


def _store_view(path: str, digests):
    store = KnowledgeStore(path)
    facts = sorted(json.dumps(r, sort_keys=True)
                   for r in store.lookup(digests).values())
    seen = {d for d in digests if store.seen(d)}
    assert len(store) == len(facts) and store.num_seen == len(seen)
    return facts, seen


def _store_expect(records):
    facts = sorted(json.dumps(r, sort_keys=True) for r in records
                   if r["kind"] != "seen")
    seen = {d for r in records if r["kind"] == "seen" for d in r["ks"]}
    return facts, seen


def _fact_digests(records):
    digests = set()
    for r in records:
        digests.update(r.get("ks", ()))
        digests.update(r[f] for f in ("k", "a", "b") if f in r)
        digests.update(d for d, _ in r.get("lits", ()))
    return sorted(digests)


def _cache_view(path: str, seeded):
    cache = AnswerCache(store_path=path)
    entries = len(cache)
    answers = []
    for circuit, fp, _status in seeded:
        hit = cache.lookup(circuit, fp, None, "csat")
        answers.append(None if hit is None else hit["status"])
    return entries, answers


def test_fuzz_every_byte_of_every_store(tmp_path):
    files = _Files(tmp_path)
    rng = random.Random(SEED)
    pristine = {}
    for name in ("journal", "store", "cache"):
        data = open(getattr(files, name), "rb").read()
        spans = _spans(data)
        assert data.endswith(b"\n") and json.loads(data[:spans[0][1]])["v"]
        records = [decode(data[s:e + 1]) for s, e in spans[1:]]
        assert all(r is not None for r in records)
        pristine[name] = (data, spans, records)
    digests = _fact_digests(pristine["store"][2])

    def reload(name, path, kept):
        """Load one damaged file; compare with the records it kept."""
        if name == "journal":
            assert read_journal(path) == kept
            replay_journal(path)
        elif name == "store":
            assert _store_view(path, digests) == _store_expect(kept)
        else:
            entries, answers = _cache_view(path, files.seeded)
            assert entries == len(kept)
            live = {r["digest"] for r in kept}
            for (_c, fp, status), answer in zip(files.seeded, answers):
                assert answer == (status if fp.digest in live else None)

    invalid_utf8 = 0
    for name, (data, spans, records) in pristine.items():
        path = getattr(files, name)
        header_end = spans[0][1]
        for offset in range(len(data)):
            flipped = _flip(data, offset, rng)
            invalid_utf8 += flipped[offset] >= 0x80
            line = next(i for i, (s, e) in enumerate(spans) if offset <= e)
            touched = {line, line + 1} if offset == spans[line][1] \
                else {line}
            for damaged, kept in (
                    (flipped,
                     [r for i, r in enumerate(records, 1)
                      if i not in touched]),
                    (data[:offset],
                     [r for (_s, e), r in zip(spans[1:], records)
                      if e <= offset])):
                with open(path, "wb") as fh:
                    fh.write(damaged)
                try:
                    reload(name, path, kept)
                except LogError:
                    assert offset <= header_end, (name, offset)
    assert invalid_utf8 > 0

    # The checkpoint: loads unchanged or is refused, never misread.
    data = open(files.checkpoint, "rb").read()
    for offset in range(len(data)):
        for damaged in (data[:offset], _flip(data, offset, rng)):
            with open(files.checkpoint, "wb") as fh:
                fh.write(damaged)
            try:
                loaded = load_checkpoint(files.checkpoint)
            except CheckpointError:
                continue
            assert loaded.as_dict() == files.ckpt.as_dict(), offset

    # Answers at a seeded sample of offsets.
    _check_recovered_answers(tmp_path, files, pristine["journal"], rng)
    _check_prepass_on_damaged_store(files, pristine["store"], rng)


def _check_recovered_answers(tmp_path, files, journal, rng):
    """A server booted on a damaged journal re-admits only the circuit
    that was journaled, and answers it truthfully."""
    data, spans, records = journal
    line = 1 + next(i for i, r in enumerate(records)
                    if r["kind"] == KIND_ADMITTED and r["key"] == "open")
    start, end = spans[line]
    for offset in rng.sample(range(start, end), 4):
        path = str(tmp_path / "boot{}.wal".format(offset))
        with open(path, "wb") as fh:
            fh.write(_flip(data, offset, rng))
        srv = ReproServer(port=0, workers=1, journal_path=path).start()
        srv.stop(drain=True, timeout=30)
        for record in read_journal(path):
            if record.get("key") != "open":
                continue
            if record["kind"] == KIND_ADMITTED:
                assert record["digest"] == files.pending["digest"], offset
            if record["kind"] == KIND_FINISHED:
                assert record["status"] in (UNSAT, "UNKNOWN"), offset


def _check_prepass_on_damaged_store(files, store, rng):
    data, spans, _records = store
    mutants = [mutate_circuit(files.base, seed=s, edits=2)
               for s in (SEED % 97, SEED % 89)]
    for offset in rng.sample(range(spans[1][0], len(data)), 6):
        with open(files.store, "wb") as fh:
            fh.write(_flip(data, offset, rng))
        damaged = KnowledgeStore(files.store)
        for mutant in mutants:
            outcome = incremental_prepass(mutant, damaged)
            assert circuits_equivalent_exhaustive(mutant, outcome.circuit)


def test_append_after_torn_tail_starts_a_new_line(tmp_path):
    """A crash mid-append leaves a torn last line; the next process's
    first append must not be glued onto it."""
    path = str(tmp_path / "s.jsonl")
    store = KnowledgeStore(path)
    store.add_const("d1", 1)
    store.close()
    with open(path, "ab") as fh:
        fh.write(b'{"kind":"const","k":"d2","va')
    again = KnowledgeStore(path)
    assert again.torn == 1
    again.add_const("d3", 0)
    again.close()
    final = KnowledgeStore(path)
    assert final.torn == 1
    assert final.lookup(["d1"]) and final.lookup(["d3"])


# ----------------------------------------------------------------------
# Compaction: races and the size bound
# ----------------------------------------------------------------------

@pytest.fixture
def rewrites(monkeypatch):
    """(path, appends since the last rewrite, records that rewrite kept)
    at each rewrite of any log."""
    seen = []
    rewrite = log.DurableLog._rewrite

    def spy(self, records):
        seen.append((self.path, self._since, self._kept))
        rewrite(self, records)
    monkeypatch.setattr(log.DurableLog, "_rewrite", spy)
    return seen


def test_compaction_race_keeps_every_served_answer(tmp_path, monkeypatch,
                                                   rewrites):
    floor = 16
    monkeypatch.setattr(log, "COMPACT_FLOOR", floor)
    cache = AnswerCache()
    circuits = []
    for text, status in ((SAT_BENCH, SAT), (PENDING_BENCH, UNSAT)):
        circuit = _circuit(text, "c")
        fp = fingerprint(circuit)
        model = {pi: True for pi in circuit.inputs} if status == SAT \
            else None
        cache.store(fp, None, "csat", status, model=model)
        circuits.append((circuit, fp))
    path = str(tmp_path / "race.wal")
    journal = Journal(path)
    scheduler = SolveScheduler(workers=1, cache=cache, journal=journal)
    served, errors = {}, []
    lock = threading.Lock()

    def client(tag):
        try:
            for i in range(100):
                circuit, fp = circuits[i % len(circuits)]
                key = "t{}-{}".format(tag, i)
                job = scheduler.submit(JobRequest(
                    circuit=circuit, engine="csat", fp=fp,
                    idempotency_key=key))
                assert job.wait(30) and job.cached
                with lock:
                    served[key] = job.result["status"]
        except Exception as exc:     # surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert scheduler.close(timeout=30)
    journal.close()
    assert not errors, errors
    assert len(served) == 400
    state = replay_journal(path)
    lost = sorted(key for key in served if key not in state.finished)
    assert not lost, "{} served answers lost".format(len(lost))
    assert all(state.finished[k]["status"] == s for k, s in served.items())
    assert rewrites
    assert all(since == max(floor, kept) for _path, since, kept in rewrites)


def _records_in(path: str) -> int:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - (1 if data else 0)


def _journal_steps(path):
    journal = Journal(path)
    for i in range(400):
        key = "k{}".format(i // 2 % 6)
        kind = KIND_ADMITTED if i % 2 == 0 else KIND_FINISHED
        journal.append(kind, key=key, job=key, status=UNSAT)
        yield len(replay_journal(path).live_records())


def _store_steps(path):
    store = KnowledgeStore(path, max_facts=6)
    for i in range(400):
        store.add_const("d{}".format(i), i % 2)
        yield len(store)


def _cache_steps(path):
    cache = AnswerCache(max_entries=5, store_path=path)
    for i in range(400):
        assert cache.restore("d{}".format(i), "unlimited", "csat", UNSAT)
        yield len(cache)


@pytest.mark.parametrize("steps", [_journal_steps, _store_steps,
                                   _cache_steps])
def test_file_stays_within_twice_live_plus_floor(tmp_path, monkeypatch,
                                                 steps):
    floor = 8
    monkeypatch.setattr(log, "COMPACT_FLOOR", floor)
    path = str(tmp_path / "log.jsonl")
    largest = 0
    for live in steps(path):
        largest = max(largest, live)
        assert _records_in(path) <= 2 * largest + floor


# ----------------------------------------------------------------------
# Soak: a serving node's three logs under traffic, then a clean reboot
# ----------------------------------------------------------------------

SOAK_SECONDS = 150.0


def _live_sizes(srv: ReproServer):
    stats = srv.store.stats()
    return {"journal": srv.journal.live_count(),
            "store": stats["facts"] + -(-stats["seen"] // 256),
            "cache": len(srv.cache)}


@pytest.mark.slow
def test_soak_bounded_logs_and_clean_reboot(tmp_path, monkeypatch,
                                            rewrites):
    floor = 64
    monkeypatch.setattr(log, "COMPACT_FLOOR", floor)
    paths = {name: str(tmp_path / (name + ".jsonl"))
             for name in ("journal", "store", "cache")}

    def boot() -> ReproServer:
        return ReproServer(
            port=0, workers=2, max_queue=64,
            cache=AnswerCache(max_entries=32, store_path=paths["cache"]),
            journal_path=paths["journal"],
            store_path=paths["store"]).start()

    sweep_text = write_bench(miter(array_multiplier(4), csa_multiplier(4)))
    srv = boot()
    largest = dict.fromkeys(paths, 0)
    sample = []
    try:
        client = ServeClient(srv.host, srv.port, timeout=120)
        deadline = time.monotonic() + SOAK_SECONDS
        rounds = 0
        while time.monotonic() < deadline:
            if rounds % 3 == 0:
                snap = client.submit(circuit_text=sweep_text,
                                     engine="sweep", wait=120)
                assert snap["state"] == "DONE", snap
            workload = build_workload(seed=SEED + rounds, count=12,
                                      max_gates=60, mutated_fraction=0.3)
            expected = reference_answers(workload, max_seconds=30)
            report = run_load(client, workload, concurrency=3,
                              max_seconds=30, expected=expected)
            bad = [(r.label, r.status, r.detail)
                   for r in report.records if not r.ok]
            assert not bad, bad
            sample.extend((item.text, expected[item.label])
                          for item in workload[:2]
                          if item.label in expected)
            for name, live in _live_sizes(srv).items():
                largest[name] = max(largest[name], live)
                assert _records_in(paths[name]) \
                    <= 2 * largest[name] + floor, (name, rounds)
            stats = srv.scheduler.stats()
            assert stats["jobs"] <= 32 + stats["queued"] + \
                stats["running"] + stats["waiting"]
            rounds += 1
    finally:
        srv.stop(drain=True, timeout=60)
        srv.store.close()
    assert rounds >= 3
    # Every log crossed its threshold at least once: the bound was live.
    assert {path for path, since, _kept in rewrites if since} \
        == set(paths.values())
    again = boot()
    try:
        assert again.recovery["skipped_lines"] == 0
        assert again.store.stats()["torn"] == 0
        assert again.cache.stats()["damaged"] == 0
        client = ServeClient(again.host, again.port, timeout=120)
        for text, status in random.Random(SEED).sample(
                sample, min(8, len(sample))):
            snap = client.submit(circuit_text=text, wait=60)
            assert snap["result"]["status"] == status
    finally:
        again.stop(drain=True, timeout=60)
        again.store.close()
