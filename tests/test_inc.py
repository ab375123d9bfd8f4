"""Tests for the incremental equivalence subsystem (:mod:`repro.inc`).

Covers the four layers end to end: cone digests (invariance and
discrimination), the durable knowledge store (roundtrip, torn tail,
version refusal, LRU, eviction, compaction), the exhaustive cone
certifier, the seeded mutator, the incremental pre-pass (warm replay on
never-seen revisions), the tampered-store soundness guarantee, and the
scheduler integration (sweep-as-a-service plus the solve pre-pass).
"""

import json
import os

import pytest

from repro import Circuit
from repro.circuit.miter import miter
from repro.circuit.netlist import lit_not
from repro.core.sweep import sat_sweep
from repro.csat.engine import CSatEngine
from repro.csat.options import SolverOptions
from repro.inc import (ConeCertifier, KnowledgeStore, StoreError,
                       absorb_sweep, incremental_prepass, mutate_circuit)
from repro.inc.bench import tamper_store_file
from repro.result import UNSAT
from repro.serve.fingerprint import cone_keys
from repro.sim import circuits_equivalent_exhaustive
from conftest import build_full_adder, build_random_circuit


def small_miter():
    from repro.bench.instances import array_multiplier, csa_multiplier
    return miter(array_multiplier(3), csa_multiplier(3))


def solve_outputs_true(circuit, seed_lemmas=()):
    engine = CSatEngine(circuit, SolverOptions(implicit_learning=True))
    for clause in seed_lemmas:
        engine.add_learned_clause(list(clause))
    return engine.solve(assumptions=[circuit.outputs[0]])


# ----------------------------------------------------------------------
# Cone digests
# ----------------------------------------------------------------------

class TestConeKeys:
    def _xor_chain(self, names, gate_order="ab"):
        c = Circuit(strash=False)
        pis = [c.add_input(n) for n in names]
        if gate_order == "ab":
            x = c.xor_(pis[0], pis[1])
            y = c.xor_(pis[2], pis[3])
        else:  # build the independent halves in the other order
            y = c.xor_(pis[2], pis[3])
            x = c.xor_(pis[0], pis[1])
        c.add_output(c.add_and(x, y), "out")
        return c

    def test_invariant_under_renaming(self):
        a = self._xor_chain(["a", "b", "c", "d"])
        b = self._xor_chain(["n1", "n2", "n3", "n4"])
        assert sorted(cone_keys(a).values()) == sorted(cone_keys(b).values())

    def test_invariant_under_gate_creation_order(self):
        a = self._xor_chain(["a", "b", "c", "d"], gate_order="ab")
        b = self._xor_chain(["a", "b", "c", "d"], gate_order="ba")
        assert sorted(cone_keys(a).values()) == sorted(cone_keys(b).values())

    def test_distinguishes_structure(self):
        c = Circuit(strash=False)
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.xor_(a, b), "y")
        d = Circuit(strash=False)
        a, b = d.add_input("a"), d.add_input("b")
        d.add_output(d.or_(a, b), "y")
        assert sorted(cone_keys(c, min_depth=1).values()) \
            != sorted(cone_keys(d, min_depth=1).values())

    def test_not_invariant_under_pi_permutation(self):
        # Positional seeding is deliberate: swapping which PI feeds which
        # leg changes the digest (the permutation-invariant key is the
        # per-cone fingerprint, which is much more expensive).
        c = Circuit(strash=False)
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.add_and(a, lit_not(b)), "y")
        d = Circuit(strash=False)
        a, b = d.add_input("a"), d.add_input("b")
        d.add_output(d.add_and(b, lit_not(a)), "y")
        assert sorted(cone_keys(c, min_depth=1).values()) \
            != sorted(cone_keys(d, min_depth=1).values())

    def test_min_depth_filters_shallow_cones(self):
        c = self._xor_chain(["a", "b", "c", "d"])
        deep = cone_keys(c, min_depth=2)
        shallow = cone_keys(c, min_depth=1)
        assert set(deep) < set(shallow)


# ----------------------------------------------------------------------
# Knowledge store
# ----------------------------------------------------------------------

class TestKnowledgeStore:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = KnowledgeStore(path)
        assert store.add_const("d1", 1)
        assert store.add_equiv("d2", "d3", anti=True)
        assert store.add_lemma([("d4", 0), ("d5", 1)])
        store.note_seen(["d1", "d2"])
        store.close()
        again = KnowledgeStore(path)
        assert len(again) == 3
        assert again.seen("d1") and again.seen("d2")
        assert not again.seen("zzz")
        kinds = sorted(k[0] for k in again.lookup(
            ["d1", "d2", "d3", "d4", "d5"]))
        assert kinds == ["const", "equiv", "lemma"]

    def test_duplicate_facts_not_restored(self, tmp_path):
        store = KnowledgeStore(str(tmp_path / "s.jsonl"))
        assert store.add_const("d1", 0)
        assert not store.add_const("d1", 0)
        assert len(store) == 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = KnowledgeStore(path)
        store.add_const("d1", 1)
        store.add_const("d2", 0)
        store.close()
        with open(path, "a") as fh:
            fh.write('{"kind":"const","k":"d3","va')  # crash mid-write
        again = KnowledgeStore(path)
        assert len(again) == 2
        assert again.torn == 1

    def test_version_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        first = KnowledgeStore(path)
        first.add_const("d1", 1)   # header is written lazily
        first.close()
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["v"] = 999
        lines[0] = json.dumps(header)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(StoreError):
            KnowledgeStore(path)

    def test_lru_cap(self, tmp_path):
        store = KnowledgeStore(str(tmp_path / "s.jsonl"), max_facts=4)
        for i in range(10):
            store.add_const("d{}".format(i), 0)
        assert len(store) <= 4
        # The survivors are the most recently added.
        assert store.lookup(["d9"]) and not store.lookup(["d0"])

    def test_evict_is_durable(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = KnowledgeStore(path)
        store.add_const("d1", 1)
        store.add_const("d2", 1)
        ((key, _record),) = store.lookup(["d1"]).items()
        assert store.evict(key, detail="test")
        assert store.rejected == 1
        store.close()
        again = KnowledgeStore(path)
        assert not again.lookup(["d1"])
        assert again.lookup(["d2"])

    def test_compact_preserves_facts(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = KnowledgeStore(path)
        for i in range(50):
            store.add_const("d{}".format(i), i % 2)
        store.note_seen(["d{}".format(i) for i in range(50)])
        before = os.path.getsize(path)
        store.compact()
        store.close()
        again = KnowledgeStore(path)
        assert len(again) == 50
        assert again.num_seen == 50
        assert os.path.getsize(path) <= before + 256


# ----------------------------------------------------------------------
# Exhaustive cone certifier
# ----------------------------------------------------------------------

class TestConeCertifier:
    def test_certifies_valid_clause(self):
        c = Circuit(strash=False)
        a, b = c.add_input("a"), c.add_input("b")
        g = c.add_and(a, b)
        c.add_output(g, "y")
        cert = ConeCertifier(c)
        # g -> a, i.e. (~g | a): valid for every assignment.
        assert cert.clause([lit_not(g), a]) is True
        assert cert.certified == 1

    def test_refutes_false_clause(self):
        c = Circuit(strash=False)
        a, b = c.add_input("a"), c.add_input("b")
        g = c.add_and(a, b)
        c.add_output(g, "y")
        cert = ConeCertifier(c)
        assert cert.clause([g]) is False  # "g is always true" is wrong
        assert cert.refuted == 1

    def test_too_wide_cone_defers(self):
        c = Circuit(strash=False)
        lits = [c.add_input("i{}".format(i)) for i in range(16)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = c.add_and(acc, lit)
        c.add_output(acc, "y")
        cert = ConeCertifier(c, max_inputs=8)
        assert cert.clause([acc]) is None  # exact answer out of budget
        assert cert.too_wide == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_exhaustive_truth(self, seed):
        import random
        from repro.sim.bitsim import truth_tables
        c = build_random_circuit(seed + 77, num_inputs=5, num_gates=25)
        tables = truth_tables(c)
        mask = (1 << (1 << c.num_inputs)) - 1
        cert = ConeCertifier(c)
        rng = random.Random(seed)
        ands = list(c.and_nodes())
        for _ in range(20):
            lits = [2 * rng.choice(ands) + rng.randrange(2)
                    for _ in range(rng.randrange(1, 3))]
            word = 0
            for lit in lits:
                word |= tables[lit >> 1] ^ (mask if lit & 1 else 0)
            expected = (word & mask) == mask
            assert cert.clause(lits) is expected


# ----------------------------------------------------------------------
# Seeded mutation
# ----------------------------------------------------------------------

class TestMutate:
    @pytest.mark.parametrize("seed", range(5))
    def test_function_preserved(self, seed):
        base = build_random_circuit(seed + 300, num_inputs=5, num_gates=30)
        mutant = mutate_circuit(base, seed=seed, edits=3)
        assert circuits_equivalent_exhaustive(base, mutant)

    def test_netlist_actually_changes(self):
        base = small_miter()
        mutant = mutate_circuit(base, seed=1, edits=2)
        assert mutant.num_ands > base.num_ands

    def test_interface_preserved(self):
        base = small_miter()
        mutant = mutate_circuit(base, seed=2, edits=2)
        assert ([mutant.name_of(p) for p in mutant.inputs]
                == [base.name_of(p) for p in base.inputs])
        assert mutant.output_names == base.output_names


# ----------------------------------------------------------------------
# Incremental pre-pass
# ----------------------------------------------------------------------

class TestIncrementalPrepass:
    def test_cold_store_is_honest(self, tmp_path):
        store = KnowledgeStore(str(tmp_path / "s.jsonl"))
        mutant = mutate_circuit(small_miter(), seed=3, edits=2)
        outcome = incremental_prepass(mutant, store)
        assert outcome.equivs_replayed == 0
        assert solve_outputs_true(outcome.circuit,
                                  outcome.seed_lemmas).status == UNSAT

    def test_warm_replay_on_unseen_revision(self, tmp_path):
        base = small_miter()
        store = KnowledgeStore(str(tmp_path / "s.jsonl"))
        absorb_sweep(store, base, sat_sweep(base, export_lemmas=True))
        mutant = mutate_circuit(base, seed=7, edits=2)
        outcome = incremental_prepass(mutant, store)
        assert outcome.useful
        assert outcome.equivs_replayed > 0
        assert outcome.lemmas_replayed > 0
        assert outcome.circuit.num_ands < mutant.num_ands
        assert outcome.rejected == 0
        assert solve_outputs_true(outcome.circuit,
                                  outcome.seed_lemmas).status == UNSAT

    def test_prepass_preserves_function(self, tmp_path):
        base = small_miter()
        store = KnowledgeStore(str(tmp_path / "s.jsonl"))
        absorb_sweep(store, base, sat_sweep(base, export_lemmas=True))
        for seed in (11, 12, 13):
            mutant = mutate_circuit(base, seed=seed, edits=2)
            outcome = incremental_prepass(mutant, store)
            assert circuits_equivalent_exhaustive(mutant, outcome.circuit)

    def test_tampered_store_never_changes_answers(self, tmp_path):
        self._check_tampered_store(tmp_path)

    def test_tampered_store_caught_by_search_alone(self, tmp_path,
                                                   monkeypatch):
        # Without the exact cone oracle every replayed fact is re-proved
        # by the kernel's sub-problem search, the path wide cones take.
        monkeypatch.setattr(ConeCertifier, "clause", lambda self, lits: None)
        self._check_tampered_store(tmp_path)

    def _check_tampered_store(self, tmp_path):
        base = small_miter()
        path = str(tmp_path / "s.jsonl")
        store = KnowledgeStore(path)
        absorb_sweep(store, base, sat_sweep(base, export_lemmas=True))
        store.close()
        assert tamper_store_file(path) > 0
        tampered = KnowledgeStore(path)
        for seed in (21, 22):
            mutant = mutate_circuit(base, seed=seed, edits=2)
            outcome = incremental_prepass(mutant, tampered)
            assert circuits_equivalent_exhaustive(mutant, outcome.circuit)
            assert solve_outputs_true(outcome.circuit,
                                      outcome.seed_lemmas).status == UNSAT
        # Corruption is detected and priced, not believed.
        assert tampered.rejected > 0


def test_inc_bench_leaves_no_temp_files(tmp_path, monkeypatch):
    import tempfile
    from repro.inc.bench import inc_bench_document
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    document = inc_bench_document(width=3, queries=1, edits=1)
    assert document["ok"]
    assert os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# Scheduler integration: sweep-as-a-service + solve pre-pass
# ----------------------------------------------------------------------

@pytest.fixture
def warm_scheduler(tmp_path):
    from repro.serve.cache import AnswerCache
    from repro.serve.scheduler import JobRequest, SolveScheduler
    store = KnowledgeStore(str(tmp_path / "store.jsonl"))
    sched = SolveScheduler(workers=2, cache=AnswerCache(), max_queue=8,
                           store=store)
    yield sched, store, JobRequest
    sched.close(drain=False, timeout=20)


class TestSchedulerIntegration:
    def test_sweep_job_absorbs_into_store(self, warm_scheduler):
        sched, store, JobRequest = warm_scheduler
        job = sched.submit(JobRequest(circuit=small_miter(),
                                      engine="sweep", label="sweep-base"))
        assert job.wait(60)
        result = job.result
        assert result["sweep"]["gates_after"] \
            < result["sweep"]["gates_before"]
        absorbed = result["absorbed"]
        assert "error" not in absorbed
        assert absorbed["equivs"] + absorbed["consts"] > 0
        assert len(store) > 0

    def test_solve_prepass_fires_after_sweep(self, warm_scheduler):
        sched, store, JobRequest = warm_scheduler
        base = small_miter()
        sweep_job = sched.submit(JobRequest(circuit=base, engine="sweep"))
        assert sweep_job.wait(60)
        mutant = mutate_circuit(base, seed=31, edits=2)
        job = sched.submit(JobRequest(circuit=mutant, label="warm"))
        assert job.wait(60)
        assert job.result["status"] == UNSAT
        prepass = [e for e in job.events if e["kind"] == "inc_prepass"]
        assert prepass and prepass[0]["equivs_replayed"] > 0

    def test_fully_certified_revisions_on_the_default_preset(self,
                                                             tmp_path):
        # The prepass's seed lemmas reach the kernel as problem clauses;
        # full certification replays each UNSAT proof against the
        # circuit the worker solved, so a bad seed would surface here.
        from repro.gen.arith import array_multiplier, csa_multiplier
        from repro.serve.cache import AnswerCache
        from repro.serve.scheduler import JobRequest, SolveScheduler
        store = KnowledgeStore(str(tmp_path / "store.jsonl"))
        sched = SolveScheduler(workers=2, cache=AnswerCache(), max_queue=8,
                               store=store, certify="full")
        try:
            base = miter(array_multiplier(4), csa_multiplier(4))
            sweep_job = sched.submit(JobRequest(circuit=base,
                                                engine="sweep"))
            assert sweep_job.wait(60)
            assert "error" not in sweep_job.result["absorbed"]
            seeded = 0
            for seed in (41, 42, 43):
                mutant = mutate_circuit(base, seed=seed, edits=2)
                job = sched.submit(JobRequest(circuit=mutant,
                                              label="rev{}".format(seed)))
                assert job.wait(120)
                assert job.result["status"] == UNSAT, job.result
                assert job.result["engine"] == "csat:kernel"
                seeded += sum(e.get("seed_lemmas", 0) for e in job.events
                              if e["kind"] == "inc_prepass")
            assert seeded > 0
        finally:
            sched.close(drain=False, timeout=20)

    def test_no_incremental_escape_hatch(self, warm_scheduler):
        sched, store, JobRequest = warm_scheduler
        base = small_miter()
        sweep_job = sched.submit(JobRequest(circuit=base, engine="sweep"))
        assert sweep_job.wait(60)
        mutant = mutate_circuit(base, seed=32, edits=2)
        job = sched.submit(JobRequest(circuit=mutant, incremental=False))
        assert job.wait(60)
        assert job.result["status"] == UNSAT
        assert not [e for e in job.events if e["kind"] == "inc_prepass"]
