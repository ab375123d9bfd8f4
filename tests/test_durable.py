"""Tests for the durability layer: journal, checkpoints, salvage, chaos.

The load-bearing claims: a finished job's answer survives a crash (the
journal fsyncs it before the client sees it); replay is idempotent and
skips torn lines with a counted warning; a checkpoint from a different
circuit or objective set is refused, never silently resumed; a resumed
conquest skips closed cubes and still proves the instance; a worker
killed by the watchdog donates its lemma pool to the survivors; and the
hardened client retries transient failures under one idempotency key
without ever double-solving.
"""

from __future__ import annotations

import http.server
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import Circuit
from repro.bench.instances import instance_by_name
from repro.circuit.bench_io import write_bench
from repro.cube.conquer import solve_cubes
from repro.durable import (CheckpointError, CubeCheckpoint, Journal,
                           JournalError, answer_digest, exact_hash,
                           load_checkpoint, read_journal, replay_journal,
                           save_checkpoint)
from repro.durable.journal import (JOURNAL_VERSION, KIND_ADMITTED,
                                   KIND_CANCELLED, KIND_FINISHED,
                                   KIND_STARTED)
from repro.obs.metrics import (MetricsRegistry, default_registry,
                               disable_metrics, enable_metrics,
                               parse_exposition)
from repro.result import Limits, SAT, UNSAT
from repro.serve import AnswerCache, JobRequest, ReproServer, ServeClient, \
    ServeError, SolveScheduler, fingerprint
from conftest import build_full_adder


def build_unsat() -> Circuit:
    c = Circuit("contradiction")
    a = c.add_input("a")
    c.add_output(c.add_and(a, a ^ 1), "out")
    return c


@pytest.fixture
def registry():
    reg = enable_metrics(MetricsRegistry())
    yield reg
    disable_metrics()


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------

class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        journal.append(KIND_ADMITTED, key="k1", job="j1", digest="d1")
        journal.append(KIND_STARTED, key="k1", job="j1")
        journal.append(KIND_FINISHED, key="k1", job="j1", status=UNSAT,
                       answer=answer_digest(UNSAT, None))
        journal.append(KIND_ADMITTED, key="k2", job="j2", digest="d2")
        journal.close()
        state = replay_journal(path)
        assert set(state.finished) == {"k1"}
        assert set(state.pending) == {"k2"}
        assert state.skipped == 0

    def test_replay_is_idempotent(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        journal.append(KIND_ADMITTED, key="k", job="j")
        journal.append(KIND_FINISHED, key="k", job="j", status=SAT,
                       model_bits=[1, 0])
        journal.close()
        first = replay_journal(path)
        second = replay_journal(path)
        assert first.live_records() == second.live_records()
        assert first.finished == second.finished

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        journal.append(KIND_ADMITTED, key="k", job="j")
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "finished", "key": "k", "sta')  # torn write
        skipped = []
        state = replay_journal(path, skipped=skipped)
        assert skipped and state.skipped == len(skipped)
        # The torn finished record must NOT count: the job is pending.
        assert set(state.pending) == {"k"}
        assert not state.finished

    def test_version_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "journal",
                                 "v": JOURNAL_VERSION + 1}) + "\n")
        with pytest.raises(JournalError, match="version"):
            read_journal(path)

    def test_cancelled_is_terminal_and_finish_wins(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        journal.append(KIND_ADMITTED, key="a", job="j1")
        journal.append(KIND_CANCELLED, key="a", job="j1")
        journal.append(KIND_ADMITTED, key="b", job="j2")
        journal.append(KIND_FINISHED, key="b", job="j2", status=UNSAT)
        journal.append(KIND_CANCELLED, key="b", job="j2")
        journal.close()
        state = replay_journal(path)
        assert set(state.cancelled) == {"a"}
        assert set(state.finished) == {"b"}   # finished beats cancelled
        assert not state.pending

    def test_compaction_preserves_live_view(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        for i in range(20):
            key = "k{}".format(i % 4)
            journal.append(KIND_ADMITTED, key=key, job=key)
            journal.append(KIND_FINISHED, key=key, job=key, status=UNSAT)
        journal.append(KIND_ADMITTED, key="open", job="open")
        before = replay_journal(path)
        journal.compact(before.live_records())
        after = replay_journal(path)
        assert after.finished.keys() == before.finished.keys()
        assert set(after.pending) == {"open"}
        # Compacted file is smaller: one finished record per key, and no
        # admitted record of a finished job.
        assert len(read_journal(path)) == 4 + 1
        journal.close()

    def test_admission_after_a_terminal_record_is_pending(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        for key, terminal in (("c", KIND_CANCELLED), ("f", KIND_FINISHED)):
            journal.append(KIND_ADMITTED, key=key, job=key + "1")
            journal.append(terminal, key=key, job=key + "1", status=UNSAT)
            journal.append(KIND_ADMITTED, key=key, job=key + "2")
        journal.append(KIND_ADMITTED, key="q", job="q1")
        for _ in range(2):
            state = replay_journal(path)
            assert set(state.pending) == {"c", "f", "q"}
            assert state.pending["f"]["job"] == "f2"
            assert set(state.finished) == {"f"}
            journal.compact(state.live_records())
        journal.close()

    def test_journal_records_metric(self, tmp_path, registry):
        journal = Journal(str(tmp_path / "j.wal"))
        journal.append(KIND_ADMITTED, key="k", job="j")
        journal.append(KIND_FINISHED, key="k", job="j", status=UNSAT)
        journal.close()
        families = parse_exposition(registry.render())
        samples = dict(((labels.get("kind"), value) for _, labels, value in
                        families["repro_journal_records_total"]["samples"]))
        assert samples["admitted"] == 1.0
        assert samples["finished"] == 1.0

    def test_answer_digest_stable_and_discriminating(self):
        assert answer_digest(SAT, [1, 0]) == answer_digest(SAT, [1, 0])
        assert answer_digest(SAT, [1, 0]) != answer_digest(SAT, [0, 1])
        assert answer_digest(SAT, None) != answer_digest(UNSAT, None)

    def test_live_view_keeps_the_last_terminal_records(self, tmp_path):
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        assert journal.recover(3) is None      # no file yet
        for i in list(range(10)) + [8]:     # k8 finishes again last
            journal.append(KIND_ADMITTED, key="k{}".format(i), job="j")
            journal.append(KIND_FINISHED, key="k{}".format(i), job="j",
                           status=UNSAT)
        journal.append(KIND_ADMITTED, key="open", job="j")
        journal.append(KIND_ADMITTED, key="gone", job="j")
        journal.append(KIND_CANCELLED, key="gone", job="j")
        live = journal.live_records()
        # A cancelled record counts among the kept terminal records.
        assert [(r["kind"], r["key"]) for r in live] == [
            (KIND_FINISHED, "k9"), (KIND_FINISHED, "k8"),
            (KIND_CANCELLED, "gone"), (KIND_ADMITTED, "open")]
        journal.close()

    def test_compaction_writes_the_view_without_reading_the_file(
            self, tmp_path, monkeypatch):
        from repro.durable import log
        monkeypatch.setattr(log, "COMPACT_FLOOR", 8)
        path = str(tmp_path / "j.wal")
        journal = Journal(path)
        journal.recover(4)
        scans = []
        scan = log.DurableLog.scan

        def spy(self, damaged=None):
            scans.append(self.path)
            return scan(self, damaged)
        monkeypatch.setattr(log.DurableLog, "scan", spy)
        for i in range(40):
            journal.append(KIND_ADMITTED, key="k{}".format(i), job="j")
            journal.append(KIND_FINISHED, key="k{}".format(i), job="j",
                           status=UNSAT)
        assert not scans
        journal.close()
        # 80 appends crossed the floor: the file is the 4-record view
        # plus the appends since the last compaction.
        assert len(read_journal(path)) < 4 + 8
        assert replay_journal(path, keep=4).live_records() == \
            journal.live_records()

    def test_concurrent_appends_fold_in_file_order(self, tmp_path,
                                                   monkeypatch):
        from repro.durable import log
        monkeypatch.setattr(log, "COMPACT_FLOOR", 16)
        path = str(tmp_path / "j.wal")
        journal = Journal(path)

        def client(t):
            for i in range(40):
                key = "t{}-{}".format(t, i)
                journal.append(KIND_ADMITTED, key=key, job=key)
                journal.append(KIND_FINISHED, key=key, job=key,
                               status=UNSAT)
            journal.append(KIND_ADMITTED, key="open{}".format(t), job="j")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        live = journal.live_records()
        journal.close()
        assert live == replay_journal(path).live_records()
        assert [r["kind"] for r in live] == \
            [KIND_FINISHED] * 320 + [KIND_ADMITTED] * 8

    def test_head_shaped_journal_boots_to_the_bounded_view(self, tmp_path):
        # The unbounded shape older servers wrote: an admitted+finished
        # pair per key, source text included.
        path = str(tmp_path / "serve.wal")
        source = {"circuit": write_bench(build_unsat()), "format": "bench"}
        journal = Journal(path)
        for i in range(20):
            key = "k{}".format(i)
            journal.append(KIND_ADMITTED, key=key, job=key, engine="csat",
                           label=key, source=source)
            journal.append(KIND_FINISHED, key=key, job=key, engine="csat",
                           status=UNSAT, digest="d{}".format(i),
                           limits_class="unlimited")
        journal.close()
        srv = ReproServer(port=0, workers=1,
                          cache=AnswerCache(max_entries=8),
                          journal_path=path).start()
        try:
            assert srv.recovery["rehydrated"] == 8
            assert srv.recovery["replayed"] == 0
        finally:
            srv.stop()
        records = read_journal(path)
        assert [r["key"] for r in records] == \
            ["k{}".format(i) for i in range(12, 20)]
        assert all(r["kind"] == KIND_FINISHED for r in records)


JOURNAL_STEPS = st.lists(
    st.tuples(st.sampled_from((KIND_ADMITTED, KIND_STARTED, KIND_FINISHED,
                               KIND_CANCELLED, "compact", "reopen")),
              st.integers(0, 7)),
    max_size=80)


@given(JOURNAL_STEPS, st.one_of(st.none(), st.integers(1, 5)))
@settings(max_examples=60, deadline=None)
def test_in_memory_fold_matches_a_replay(steps, keep):
    """Whatever the appends, however many compactions they cross, and
    however often the journal is reopened on its file, its in-memory
    view is what a replay of its file folds."""
    from unittest import mock
    from repro.durable import log
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(log, "COMPACT_FLOOR", 6):
        path = os.path.join(tmp, "j.wal")
        journal = Journal(path)
        journal.recover(keep)
        for kind, key in steps:
            if kind == "reopen":
                journal.close()
                journal = Journal(path)
                journal.recover(keep)
            elif kind == "compact":
                journal.compact(journal.live_records())
            else:
                journal.append(kind, key="k{}".format(key), job="j",
                               status=UNSAT)
            assert journal.live_records() == \
                replay_journal(path, keep=keep).live_records()
            assert journal.live_count() == len(journal.live_records())
        journal.close()


# ----------------------------------------------------------------------
# Checkpoint identity and atomicity
# ----------------------------------------------------------------------

class TestCheckpoint:
    def _checkpoint_for(self, circuit, objectives=None):
        objectives = list(objectives if objectives is not None
                          else circuit.outputs)
        return CubeCheckpoint(
            digest=fingerprint(circuit).digest, exact=exact_hash(circuit),
            objectives=objectives,
            cubes=[{"index": 0, "literals": [4], "status": UNSAT,
                    "depth": 1},
                   {"index": 1, "literals": [5], "status": "SKIPPED",
                    "depth": 1}],
            lemmas=[[5]], completed=1)

    def test_round_trip(self, tmp_path):
        circuit = build_full_adder()
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, self._checkpoint_for(circuit))
        loaded = load_checkpoint(path)
        loaded.validate_for(circuit, list(circuit.outputs))
        assert loaded.completed == 1 and loaded.lemmas == [[5]]

    def test_wrong_circuit_refused(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, self._checkpoint_for(build_full_adder()))
        other = build_unsat()
        with pytest.raises(CheckpointError, match="different instance"):
            load_checkpoint(path).validate_for(other, list(other.outputs))

    def test_wrong_objectives_refused(self, tmp_path):
        circuit = build_full_adder()
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, self._checkpoint_for(circuit))
        wrong = [list(circuit.outputs)[0]]
        with pytest.raises(CheckpointError, match="objective"):
            load_checkpoint(path).validate_for(circuit, wrong)

    def test_version_mismatch_refused(self, tmp_path):
        circuit = build_full_adder()
        path = str(tmp_path / "c.ckpt")
        checkpoint = self._checkpoint_for(circuit)
        doc = checkpoint.as_dict()
        doc["v"] = 999
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupt_file_is_a_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        with open(path, "w") as fh:
            fh.write('{"version": 1, "cub')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("clause", [[10 ** 9], [], [1], [5, -4],
                                        ["5"], [5.7]],
                             ids=["out-of-range", "empty-clause",
                                  "constant-node", "negative",
                                  "string-literal", "float-literal"])
    def test_bad_lemma_pool_refused(self, tmp_path, clause):
        # Written through save_checkpoint, so the checksum holds: only
        # the literal rule can catch it.
        circuit = build_full_adder()
        path = str(tmp_path / "c.ckpt")
        checkpoint = self._checkpoint_for(circuit)
        checkpoint.lemmas.append(clause)
        save_checkpoint(path, checkpoint)
        with pytest.raises(CheckpointError, match="lemma") as err:
            load_checkpoint(path).validate_for(circuit,
                                               list(circuit.outputs))
        assert repr(clause) in str(err.value)

    @pytest.mark.parametrize("kind", [str, float])
    def test_non_int_objectives_refused(self, tmp_path, kind):
        # Equal in value (5.0 == 5), so only the literal type tells them
        # apart once the load stops coercing.
        circuit = build_full_adder()
        path = str(tmp_path / "c.ckpt")
        checkpoint = self._checkpoint_for(circuit)
        checkpoint.objectives = [kind(lit) for lit in circuit.outputs]
        save_checkpoint(path, checkpoint)
        with pytest.raises(CheckpointError, match="objective"):
            load_checkpoint(path).validate_for(circuit,
                                               list(circuit.outputs))

    @pytest.mark.parametrize("change,match", [
        ({1: {"index": 0}}, "index"), ({1: {"index": "1"}}, "index"),
        ({1: None}, "split tree"), ({2: {"literals": []}}, "split tree"),
        ({1: {"literals": [7]}}, "split tree"),
        ({1: {"literals": [5, 5]}}, "split tree"),
        ({1: {"literals": [4]}}, "split tree")], ids=[
        "repeated-index", "non-int-index", "missing-leaf", "overlap",
        "one-polarity", "repeated-literal", "repeated-cube"])
    def test_cubes_that_are_no_partition_refused(self, change, match):
        circuit = build_full_adder()
        checkpoint = self._checkpoint_for(circuit)
        for position, fields in change.items():
            if fields is None:
                del checkpoint.cubes[position]
            elif position < len(checkpoint.cubes):
                checkpoint.cubes[position].update(fields)
            else:
                checkpoint.cubes.append(dict(fields, index=position))
        with pytest.raises(CheckpointError, match=match):
            checkpoint.validate_for(circuit, list(circuit.outputs))

    @pytest.mark.parametrize("literals", [[10 ** 9], [0], ["4"], "4", None],
                             ids=["out-of-range", "constant-node", "non-int",
                                  "not-a-list", "missing"])
    def test_bad_cube_literals_refused(self, literals):
        circuit = build_full_adder()
        checkpoint = self._checkpoint_for(circuit)
        checkpoint.cubes[0]["literals"] = literals
        with pytest.raises(CheckpointError, match="cube literals"):
            checkpoint.validate_for(circuit, list(circuit.outputs))


# ----------------------------------------------------------------------
# Server recovery (simulated crash: abandon the node, boot a new one)
# ----------------------------------------------------------------------

class TestServerRecovery:
    def test_finished_answer_rehydrates_cache(self, tmp_path):
        journal = str(tmp_path / "serve.wal")
        circuit = build_unsat()
        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            job = srv.scheduler.submit(JobRequest(
                circuit=circuit, engine="csat", idempotency_key="key-1"))
            assert job.wait(30.0)
            assert job.result["status"] == UNSAT
            assert not job.cached
        finally:
            srv.stop()
        # "Crash": boot a second node from the same journal.
        srv2 = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            assert srv2.recovery["rehydrated"] >= 1
            job = srv2.scheduler.submit(JobRequest(
                circuit=circuit, engine="csat", idempotency_key="key-1"))
            assert job.wait(30.0)
            assert job.result["status"] == UNSAT
            # Served from the rehydrated cache, not re-solved.
            assert job.cached
        finally:
            srv2.stop()

    def test_pending_job_readmitted_and_metric_counts(self, tmp_path,
                                                      registry):
        journal_path = str(tmp_path / "serve.wal")
        circuit = build_unsat()
        # Hand-craft a crashed journal: admitted, never finished.
        journal = Journal(journal_path)
        journal.append(KIND_ADMITTED, key="lost-job", job="j1",
                       engine="csat", preset="explicit", label="crashed",
                       source={"circuit": write_bench(circuit),
                               "format": "bench"})
        journal.close()
        srv = ReproServer(port=0, workers=1,
                          journal_path=journal_path).start()
        try:
            assert srv.recovery["replayed"] == 1
            # The re-admitted job runs to completion under its old key.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                state = replay_journal(journal_path)
                if "lost-job" in state.finished:
                    break
                time.sleep(0.1)
            assert "lost-job" in replay_journal(journal_path).finished
        finally:
            srv.stop()
        families = parse_exposition(registry.render())
        assert families["repro_recovery_replayed_total"]["samples"][0][2] \
            == 1.0

    def test_recovered_job_keeps_its_preset(self, tmp_path):
        # A journaled preset is honoured; a record without one (written
        # by a client that left the field out) takes the server default.
        journal_path = str(tmp_path / "serve.wal")
        # Two structures, so the second job is not deduplicated into the
        # first.
        wide = Circuit("wide-contradiction")
        a, b = wide.add_input("a"), wide.add_input("b")
        wide.add_output(wide.add_and(wide.add_and(a, b), a ^ 1), "out")
        circuits = {"named": build_unsat(), "unnamed": wide}
        journal = Journal(journal_path)
        for key, extra in (("named", {"preset": "explicit"}),
                           ("unnamed", {})):
            journal.append(KIND_ADMITTED, key=key, job=key, engine="csat",
                           label=key, source={"circuit": write_bench(
                               circuits[key]), "format": "bench"}, **extra)
        journal.close()
        srv = ReproServer(port=0, workers=1,
                          journal_path=journal_path).start()
        try:
            assert srv.recovery["replayed"] == 2
            engines = {}
            for key in ("named", "unnamed"):
                # Same key: the scheduler hands back the recovered job.
                job = srv.scheduler.submit(JobRequest(
                    circuit=circuits[key], engine="csat",
                    idempotency_key=key))
                assert job.wait(30.0)
                assert job.result["status"] == UNSAT
                engines[key] = job.result["engine"]
        finally:
            srv.stop()
        assert engines == {"named": "csat:explicit",
                           "unnamed": "csat:kernel"}

    def test_recovery_refuses_an_unknown_preset(self, tmp_path):
        # Re-admission passes the door's checks again: a journaled job
        # naming no known preset is counted failed, never queued.  A
        # record still carrying the retired cube_workers field is read as
        # if it did not.
        journal_path = str(tmp_path / "serve.wal")
        source = {"circuit": write_bench(build_unsat()), "format": "bench"}
        journal = Journal(journal_path)
        journal.append(KIND_ADMITTED, key="bogus", job="j1", engine="csat",
                       preset="bogus", label="bogus", source=source)
        journal.append(KIND_ADMITTED, key="old", job="j2", engine="csat",
                       preset="explicit", label="old", cube_workers=64,
                       source=source)
        journal.close()
        srv = ReproServer(port=0, workers=1,
                          journal_path=journal_path).start()
        try:
            assert (srv.recovery["replayed"], srv.recovery["failed"]) == \
                (1, 1)
            assert srv.scheduler.stats()["submitted"] == 1
        finally:
            srv.stop()

    def test_resubmitted_cancelled_key_survives_a_crash(self, tmp_path):
        journal = str(tmp_path / "serve.wal")

        def queue_behind_a_blocker(srv, keys):
            blocker = srv.scheduler.submit(JobRequest(
                circuit=build_full_adder(), fault="hang",
                limits=Limits(max_seconds=0.5), label="blocker"))
            deadline = time.monotonic() + 30.0
            while blocker.started is None and time.monotonic() < deadline:
                time.sleep(0.02)
            for key in keys:
                srv.scheduler.submit(JobRequest(
                    circuit=build_unsat(), engine="csat", label=key,
                    idempotency_key=key))

        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            queue_behind_a_blocker(srv, ["K"])
        finally:
            srv.stop(drain=False)
        assert "K" in replay_journal(journal).cancelled
        # The restarted server has forgotten K: a re-submission is a new,
        # journaled job, which a crash must not lose.
        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            queue_behind_a_blocker(srv, ["K", "B"])
            for _ in range(2):
                state = replay_journal(journal)
                assert {"K", "B"} <= set(state.pending)
                srv.journal.compact(state.live_records())
        finally:
            srv.stop(drain=False)

    def test_bounded_journal_survives_a_kill(self, tmp_path, monkeypatch):
        from repro.durable import log
        from repro.gen.random_circuit import random_dag
        monkeypatch.setattr(log, "COMPACT_FLOOR", 16)
        journal = str(tmp_path / "serve.wal")
        killed = str(tmp_path / "killed.wal")
        srv = ReproServer(port=0, workers=1,
                          cache=AnswerCache(max_entries=8),
                          journal_path=journal).start()
        answers = {}
        try:
            for seed in range(50):
                key = "k{}".format(seed)
                job = srv.scheduler.submit(JobRequest(
                    circuit=random_dag(6, 20, seed=seed),
                    idempotency_key=key))
                assert job.wait(30)
                answers[key] = (seed, job.result["status"])
            # Sweep jobs stay pending behind a hanging one; a sweep's
            # answer is never cached, so none evicts a rehydrated one.
            blocker = srv.scheduler.submit(JobRequest(
                circuit=build_full_adder(), engine="sweep", fault="hang",
                limits=Limits(max_seconds=1), idempotency_key="blocker"))
            deadline = time.monotonic() + 30.0
            while blocker.started is None and time.monotonic() < deadline:
                time.sleep(0.01)
            pending = {"blocker"}
            for seed in range(3):
                key = "p{}".format(seed)
                srv.scheduler.submit(JobRequest(
                    circuit=random_dag(7, 20, seed=seed), engine="sweep",
                    idempotency_key=key))
                pending.add(key)
            live = srv.journal.live_records()
            # What a SIGKILL leaves: every append is fsynced.
            with open(journal, "rb") as src, open(killed, "wb") as dst:
                dst.write(src.read())
        finally:
            srv.stop(drain=False)
        last = ["k{}".format(seed) for seed in range(42, 50)]
        assert [r["key"] for r in live if r["kind"] == KIND_FINISHED] \
            == last
        assert {r["key"] for r in live if r["kind"] == KIND_ADMITTED} \
            == pending
        assert replay_journal(killed, keep=8).live_records() == live
        again = ReproServer(port=0, workers=1,
                            cache=AnswerCache(max_entries=8),
                            journal_path=killed).start()
        try:
            assert again.recovery["replayed"] == len(pending)
            assert again.recovery["rehydrated"] == 8
            for key in last:
                seed, status = answers[key]
                job = again.scheduler.submit(JobRequest(
                    circuit=random_dag(6, 20, seed=seed),
                    idempotency_key=key))
                assert job.cached and job.result["status"] == status
        finally:
            again.stop()

    def test_recovered_job_answered_from_the_cache_at_admission(
            self, tmp_path):
        # Re-admitting the first pending job journals its cache hit while
        # boot still walks the pending admissions.
        journal = str(tmp_path / "serve.wal")
        circuit = build_unsat()
        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            assert srv.scheduler.submit(JobRequest(
                circuit=circuit, idempotency_key="done")).wait(30.0)
        finally:
            srv.stop()
        writer = Journal(journal)
        for key, pending in (("again", circuit),
                             ("other", build_full_adder())):
            writer.append(KIND_ADMITTED, key=key, job=key, engine="csat",
                          label=key, source={"circuit": write_bench(pending),
                                             "format": "bench"})
        writer.close()
        node = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            assert node.recovery["replayed"] == 2
            again = node.scheduler.submit(JobRequest(
                circuit=circuit, idempotency_key="again"))
            assert again.cached and again.result["status"] == UNSAT
        finally:
            node.stop()
        assert set(replay_journal(journal).finished) == \
            {"done", "again", "other"}

    def test_replay_twice_is_idempotent(self, tmp_path):
        """Booting twice off the same journal must not duplicate work."""
        journal = str(tmp_path / "serve.wal")
        circuit = build_unsat()
        srv = ReproServer(port=0, workers=1, journal_path=journal).start()
        try:
            srv.scheduler.submit(JobRequest(
                circuit=circuit, engine="csat",
                idempotency_key="idem")).wait(30.0)
        finally:
            srv.stop()
        for _ in range(2):
            node = ReproServer(port=0, workers=1,
                               journal_path=journal).start()
            try:
                assert node.recovery["replayed"] == 0
                assert node.recovery["rehydrated"] == 1
            finally:
                node.stop()

    def test_scheduler_idempotency_key_dedups(self):
        scheduler = SolveScheduler(workers=1, cache=AnswerCache())
        try:
            circuit = build_unsat()
            first = scheduler.submit(JobRequest(
                circuit=circuit, engine="csat", idempotency_key="same"))
            second = scheduler.submit(JobRequest(
                circuit=circuit, engine="csat", idempotency_key="same"))
            assert first is second
            assert first.wait(30.0)
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# Resumable cube-and-conquer
# ----------------------------------------------------------------------

class TestCubeResume:
    def test_resume_skips_closed_cubes(self, tmp_path, registry):
        circuit = instance_by_name("mult5.arith").build()
        path = str(tmp_path / "cube.ckpt")
        report = solve_cubes(circuit, workers=0, checkpoint_path=path,
                             checkpoint_every=1)
        assert report.result.status == UNSAT
        checkpoint = load_checkpoint(path)
        assert checkpoint.completed == len(checkpoint.cubes)
        # Simulate a mid-run crash: reopen a couple of closed cubes.
        reopened = 0
        for raw in checkpoint.cubes:
            if raw["status"] in (UNSAT, "PRUNED") and reopened < 2:
                raw["status"] = "SKIPPED"
                reopened += 1
        save_checkpoint(path, checkpoint)
        resumed = solve_cubes(circuit, workers=0, resume_from=path)
        assert resumed.result.status == UNSAT
        assert resumed.resumed == len(checkpoint.cubes) - reopened
        families = parse_exposition(registry.render())
        assert families["repro_cube_resumed_total"]["samples"][0][2] \
            == float(resumed.resumed)

    def test_resume_refuses_other_circuit(self, tmp_path):
        circuit = instance_by_name("mult5.arith").build()
        path = str(tmp_path / "cube.ckpt")
        solve_cubes(circuit, workers=0, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different instance"):
            solve_cubes(build_full_adder(), workers=0, resume_from=path)

    def test_resume_refuses_out_of_range_pool(self, tmp_path):
        # A fresh conquest's record, built directly (no wall-clock budget
        # decides what it holds): every cube open, one planted lemma.
        from repro.circuit.miter import miter
        from repro.cube.cutter import generate_cubes
        from repro.gen.arith import array_multiplier, csa_multiplier
        circuit = miter(array_multiplier(4), csa_multiplier(4))
        objectives = list(circuit.outputs)
        cut = generate_cubes(circuit, objectives, workers=2)
        assert cut.cubes
        checkpoint = CubeCheckpoint(
            digest=fingerprint(circuit).digest, exact=exact_hash(circuit),
            objectives=objectives,
            cubes=[{"index": c.index, "literals": list(c.literals),
                    "status": "SKIPPED", "depth": c.depth}
                   for c in cut.cubes]
            + [{"index": c.index, "literals": list(c.literals),
                "status": "REFUTED", "depth": c.depth} for c in cut.refuted],
            lemmas=[[10 ** 9]])
        path = str(tmp_path / "cube.ckpt")
        save_checkpoint(path, checkpoint)
        with pytest.raises(CheckpointError, match=str(10 ** 9)):
            solve_cubes(circuit, workers=0, resume_from=path)
        # The same record with a clean pool resumes and proves the miter.
        checkpoint.lemmas = []
        save_checkpoint(path, checkpoint)
        report = solve_cubes(circuit, workers=0, resume_from=path)
        assert report.result.status == UNSAT

    @pytest.mark.parametrize("workers", [0, 1])
    def test_resume_refuses_a_record_that_is_no_partition(self, tmp_path,
                                                          workers):
        # Every cube of this SAT circuit is SAT.  Re-listing each one
        # under its index as UNSAT would resume to a wrong UNSAT.
        from repro.cube.cutter import CutterOptions, generate_cubes
        from repro.gen.random_circuit import random_dag
        circuit = random_dag(num_inputs=8, num_gates=40, seed=0)
        objectives = list(circuit.outputs)
        cubes = generate_cubes(circuit, objectives,
                               options=CutterOptions(max_cubes=4)).cubes
        assert len(cubes) == 4
        checkpoint = CubeCheckpoint(
            digest=fingerprint(circuit).digest, exact=exact_hash(circuit),
            objectives=objectives,
            cubes=[{"index": c.index, "literals": list(c.literals),
                    "status": status, "depth": c.depth}
                   for status in ("SKIPPED", UNSAT) for c in cubes])
        path = str(tmp_path / "cube.ckpt")
        save_checkpoint(path, checkpoint)
        with pytest.raises(CheckpointError, match="index"):
            solve_cubes(circuit, workers=workers, resume_from=path,
                        budget=60)

    def test_checkpoint_carries_lemma_pool(self, tmp_path):
        circuit = instance_by_name("mult5.arith").build()
        path = str(tmp_path / "cube.ckpt")
        solve_cubes(circuit, workers=0, checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.lemmas  # the shared engine learned something
        assert all(isinstance(l, int) for c in checkpoint.lemmas for l in c)


# ----------------------------------------------------------------------
# Lemma salvage from dying workers
# ----------------------------------------------------------------------

class TestLemmaSalvage:
    """A lemma-exporting job (a cube job: csat on the kernel preset)
    donates its pool even when it dies."""

    @pytest.mark.parametrize("kind", ["csat"])
    def test_watchdog_kill_salvages_lemmas(self, registry, kind):
        from repro.runtime.supervisor import spawn_worker
        from repro.runtime.worker import WorkerJob
        circuit = instance_by_name("mult6.arith").build()
        job = WorkerJob(circuit=circuit, name="salvage", kind=kind,
                        preset_name="kernel",
                        limits=Limits(max_seconds=1000),  # never self-stop
                        export_lemmas=True)
        handle = spawn_worker(job, wall_seconds=1.2, grace_seconds=3.0)
        while not handle.expired() and handle.proc.is_alive():
            time.sleep(0.05)
        outcome = handle.reap()
        assert outcome.failure is not None
        assert outcome.failure.kind == "TIMEOUT"
        assert outcome.lemmas, "dying worker should donate its pool"
        assert all(2 <= lit < 2 * circuit.num_nodes
                   for clause in outcome.lemmas for lit in clause)
        assert job.salvage_path is None   # read exactly once, then deleted
        families = parse_exposition(registry.render())
        assert families["repro_lemmas_salvaged_total"]["samples"][0][2] \
            == float(len(outcome.lemmas))

    @pytest.mark.parametrize("kind", ["csat"])
    def test_warm_worker_watchdog_kill_salvages_its_task(self, registry,
                                                         kind):
        # A warm worker's task runs under its own watchdog: killed past
        # it, the task is a TIMEOUT that still donates what it learned.
        from repro.runtime.supervisor import spawn_worker
        from repro.runtime.worker import WorkerJob
        circuit = instance_by_name("mult6.arith").build()
        job = WorkerJob(circuit=circuit, name="warm-salvage", kind=kind,
                        preset_name="kernel",
                        overrides={"explicit_learning": False},
                        export_lemmas=True)
        handle = spawn_worker(job, grace_seconds=3.0, warm=True)
        outcome = handle.run({"assumptions": [], "lemmas": None,
                              # never self-stop: only the watchdog ends it
                              "limits": Limits(max_seconds=1000),
                              "fault": None}, wall_seconds=1.2)
        assert outcome.failure is not None
        assert outcome.failure.kind == "TIMEOUT"
        assert not handle.alive
        assert outcome.lemmas, "dying worker should donate its pool"
        assert all(2 <= lit < 2 * circuit.num_nodes
                   for clause in outcome.lemmas for lit in clause)
        families = parse_exposition(registry.render())
        assert families["repro_lemmas_salvaged_total"]["samples"][0][2] \
            == float(len(outcome.lemmas))

    @pytest.mark.parametrize("kind", ["csat"])
    def test_delivered_worker_exits_cleanly_and_writes_no_salvage(
            self, monkeypatch, kind):
        # A worker that has answered is joined, not SIGTERMed: it exits 0
        # and never flushes the salvage file the reap would delete unread.
        from repro import miter
        from repro.gen.arith import array_multiplier, csa_multiplier
        from repro.runtime.supervisor import WorkerHandle, run_supervised
        from repro.runtime.worker import WorkerJob
        seen = []
        read_salvage = WorkerHandle._read_salvage

        def spy(handle, outcome, tracer=None):
            seen.append((handle.proc.exitcode,
                         os.path.getsize(handle.job.salvage_path)))
            return read_salvage(handle, outcome, tracer)

        monkeypatch.setattr(WorkerHandle, "_read_salvage", spy)
        job = WorkerJob(circuit=miter(array_multiplier(4),
                                      csa_multiplier(4)),
                        name="delivered", kind=kind, preset_name="kernel",
                        export_lemmas=True)
        outcome = run_supervised(job, wall_seconds=60)
        assert outcome.ok and outcome.result.status == UNSAT
        assert outcome.lemmas
        assert seen == [(0, 0)]
        assert job.salvage_path is None

    def test_no_salvage_file_without_export(self):
        from repro.runtime.supervisor import spawn_worker
        from repro.runtime.worker import WorkerJob
        job = WorkerJob(circuit=build_unsat(), name="plain", kind="csat")
        handle = spawn_worker(job, wall_seconds=30.0)
        outcome = handle.reap()
        while outcome.result is None and outcome.failure is None:
            time.sleep(0.05)
            outcome = handle.reap()
        assert job.salvage_path is None


# ----------------------------------------------------------------------
# Client hardening: retries, backoff, deadlines, idempotency
# ----------------------------------------------------------------------

class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Stub server: fail the first N requests with 503, then succeed."""

    failures_left = 0
    requests_seen = []

    def _respond(self, code, doc):
        body = json.dumps(doc).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._handle()

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        type(self).requests_seen.append(json.loads(raw) if raw else {})
        self._handle()

    def _handle(self):
        cls = type(self)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self._respond(503, {"error": {"code": "queue-full",
                                          "message": "backpressure"}})
            return
        self._respond(200, {"state": "DONE", "job": "j1",
                            "result": {"status": "UNSAT"}})

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.failures_left = 0
    _FlakyHandler.requests_seen = []
    httpd = http.server.HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()


class TestClientHardening:
    def test_retries_through_503(self, flaky_server):
        _FlakyHandler.failures_left = 2
        client = ServeClient("127.0.0.1", flaky_server, retries=3,
                             backoff=0.01, backoff_max=0.05, jitter_seed=7)
        snap = client.submit(instance="x", wait=0)
        assert snap["state"] == "DONE"

    def test_fail_fast_without_retries(self, flaky_server):
        _FlakyHandler.failures_left = 1
        client = ServeClient("127.0.0.1", flaky_server, retries=0)
        with pytest.raises(ServeError) as info:
            client.submit(instance="x", wait=0)
        assert info.value.status == 503

    def test_retried_submit_reuses_one_idempotency_key(self, flaky_server):
        _FlakyHandler.failures_left = 2
        client = ServeClient("127.0.0.1", flaky_server, retries=3,
                             backoff=0.01, backoff_max=0.05, jitter_seed=7)
        client.submit(instance="x", wait=0)
        keys = {req.get("idempotency_key")
                for req in _FlakyHandler.requests_seen}
        assert len(keys) == 1 and None not in keys

    def test_connection_error_retried_then_surfaces(self):
        # Nothing listens on this port: every attempt is "unreachable".
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = ServeClient("127.0.0.1", port, retries=2,
                             backoff=0.01, backoff_max=0.02, jitter_seed=1)
        t0 = time.monotonic()
        with pytest.raises(ServeError) as info:
            client.health()
        assert info.value.code == "unreachable"
        assert time.monotonic() - t0 >= 0.01   # it did back off

    def test_deadline_bounds_the_whole_call(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = ServeClient("127.0.0.1", port, retries=50,
                             backoff=0.05, backoff_max=0.1, jitter_seed=1)
        t0 = time.monotonic()
        with pytest.raises(ServeError):
            client._request("GET", "/health",
                            deadline=time.monotonic() + 0.4)
        assert time.monotonic() - t0 < 5.0

    def test_long_poll_wait_is_clamped(self, flaky_server):
        client = ServeClient("127.0.0.1", flaky_server, max_wait=0.5)
        snap = client.result("j1", wait=10_000.0)
        assert snap["state"] == "DONE"

    def _backoff_delays(self, monkeypatch, seed, failures=4):
        """The sleep sequence one seeded client produces while retrying."""
        _FlakyHandler.failures_left = failures
        delays = []
        monkeypatch.setattr("repro.serve.client.time.sleep",
                            lambda s: delays.append(round(s, 9)))
        try:
            client = ServeClient("127.0.0.1", self._flaky_port,
                                 retries=failures, backoff=0.25,
                                 backoff_max=5.0, jitter_seed=seed)
            client.submit(instance="x", wait=0)
        finally:
            monkeypatch.undo()
        return delays

    @pytest.fixture(autouse=True)
    def _remember_flaky_port(self, request):
        # _backoff_delays needs the fixture port without re-declaring it
        # on every test signature.
        self._flaky_port = (request.getfixturevalue("flaky_server")
                            if "flaky_server" in request.fixturenames
                            else None)

    def test_backoff_jitter_is_seed_deterministic(self, flaky_server,
                                                  monkeypatch):
        first = self._backoff_delays(monkeypatch, seed=1234)
        second = self._backoff_delays(monkeypatch, seed=1234)
        assert len(first) == 4
        assert first == second          # same seed, same jitter schedule
        other = self._backoff_delays(monkeypatch, seed=99)
        assert other != first           # the jitter is real, not constant
        # Exponential growth under the jitter envelope: every delay sits
        # in [0.5, 1.5) * min(backoff_max, backoff * 2**attempt).
        for attempt, delay in enumerate(first):
            base = min(5.0, 0.25 * (2 ** attempt))
            assert 0.5 * base <= delay < 1.5 * base

    def test_exhausted_retries_stamp_the_attempt_count(self, flaky_server):
        _FlakyHandler.failures_left = 10
        client = ServeClient("127.0.0.1", flaky_server, retries=2,
                             backoff=0.01, backoff_max=0.02, jitter_seed=7)
        with pytest.raises(ServeError) as info:
            client.submit(instance="x", wait=0)
        # The server's structured error crosses the retry loop verbatim,
        # with only the attempt count stamped on.
        assert info.value.code == "queue-full"
        assert info.value.status == 503
        assert info.value.attempts == 3  # 1 original + 2 retries

    def test_fail_fast_error_reports_one_attempt(self, flaky_server):
        _FlakyHandler.failures_left = 1
        client = ServeClient("127.0.0.1", flaky_server, retries=0)
        with pytest.raises(ServeError) as info:
            client.submit(instance="x", wait=0)
        assert info.value.attempts == 1


# ----------------------------------------------------------------------
# Kill -9 recovery, end to end (real subprocesses)
# ----------------------------------------------------------------------

def _repro_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestKillRecovery:
    def test_sigkilled_server_recovers_exactly_once(self, tmp_path):
        """The acceptance invariant: SIGKILL a serve node mid-workload,
        restart it on the same journal, and require zero lost certified
        answers and zero double-solved jobs."""
        from repro.durable.chaos import chaos_serve
        from repro.runtime.faults import KillPlan
        report = chaos_serve(
            rounds=1, seed=3, workers=1,
            instances=["c1355.equiv", "c1908.equiv"],
            budget=90.0, workdir=str(tmp_path),
            kill=KillPlan(min_delay=0.4, max_delay=0.8, seed=3))
        assert report.ok, report.violations
        assert report.kills == 1
        # The journal's live view holds a finished record per key.
        state = replay_journal(str(tmp_path / "serve.journal"))
        assert len(state.finished) == 2

    @pytest.mark.slow
    def test_serve_chaos_multiround(self, tmp_path):
        from repro.durable.chaos import chaos_serve
        report = chaos_serve(rounds=2, seed=0, workers=2,
                             workdir=str(tmp_path))
        assert report.ok, report.violations
        assert report.kills == 2

    @pytest.mark.slow
    def test_conquer_chaos_kill_and_resume(self, tmp_path):
        from repro.durable.chaos import chaos_conquer
        report = chaos_conquer(instance="mult6.arith", workers=2,
                               workdir=str(tmp_path), budget=240.0)
        assert report.ok, report.violations

    def test_sigterm_drains_and_flushes_journal(self, tmp_path):
        journal = str(tmp_path / "drain.wal")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--journal", journal],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=_repro_env())
        try:
            banner = proc.stdout.readline()   # "listening on http://...:P"
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            client = ServeClient("127.0.0.1", port, retries=3, backoff=0.1)
            snap = client.submit(instance="c1355.equiv", wait=0)
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The drain finished the in-flight job and fsynced the journal:
        # the admitted job's certified answer is in the live view.
        state = replay_journal(journal)
        assert snap["key"] in state.finished
