"""Tests for the observability subsystem (repro.obs).

The load-bearing invariant: with a tracer attached, event counts agree
*exactly* with the SolverStats counters for decisions, conflicts, restarts
and learned clauses — on both engines.  Phase timers must sum to the
result's ``time_seconds`` by construction (the ``other`` phase is the
remainder).
"""

import io
import json

import pytest

from repro import (CircuitSolver, CnfSolver, JsonlTracer, Limits,
                   SolverError, Tracer, UNSAT, preset, summarize_trace)
from repro.circuit.cnf_convert import tseitin
from repro.gen.iscas import equiv_miter
from repro.obs import (ALL_PHASES, NULL_TRACER, ProgressPrinter,
                       ProgressSnapshot, complete_phases, make_tracer,
                       read_trace, summarize_events)
from repro.obs.export import export_micro, micro_document, table_document
from repro.obs.timers import PhaseTimers


# ----------------------------------------------------------------------
# Tracer plumbing
# ----------------------------------------------------------------------

class TestTracer:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("decision", node=1)  # no-op, no error

    def test_make_tracer_off_specs(self):
        assert make_tracer(None) is None
        assert make_tracer(False) is None
        assert make_tracer(NULL_TRACER) is None
        assert make_tracer(Tracer()) is None

    def test_make_tracer_passthrough(self):
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        assert make_tracer(tracer) is tracer

    def test_jsonl_path_sink_owned(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        tracer.emit("decision", node=7, value=1, level=3)
        tracer.emit("conflict", level=3)
        tracer.close()
        assert tracer.events_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "decision"
        assert first["node"] == 7
        assert first["t"] >= 0.0

    def test_jsonl_filelike_sink_borrowed(self):
        buf = io.StringIO()
        with JsonlTracer(buf) as tracer:
            tracer.emit("restart")
        # Borrowed sink stays open after close().
        event = json.loads(buf.getvalue())
        assert event["kind"] == "restart"

    def test_timestamps_monotonic(self):
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        for _ in range(5):
            tracer.emit("decision")
        ts = [json.loads(line)["t"] for line in
              buf.getvalue().splitlines()]
        assert ts == sorted(ts)

    def test_close_idempotent(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()

    def test_concurrent_emits_write_whole_lines(self, tmp_path):
        # Scheduler slot threads, heartbeats and node worker threads all
        # share one tracer: interleaved writes must never tear a line.
        import sys
        import threading
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        threads_n, per_thread = 4, 5000

        def hammer(i):
            for n in range(per_thread):
                tracer.emit("conflict", thread=i, n=n, pad="é" * 32)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        tracer.close()
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        events = [json.loads(line.decode("utf-8")) for line in lines]
        assert len(events) == threads_n * per_thread == tracer.events_written
        assert sorted((e["thread"], e["n"]) for e in events) == [
            (i, n) for i in range(threads_n) for n in range(per_thread)]


class TestPhaseTimers:
    def test_as_dict_and_snapshot_delta(self):
        timers = PhaseTimers()
        timers.bcp += 1.0
        snap = timers.snapshot()
        timers.bcp += 0.5
        timers.analyze += 0.25
        delta = timers.delta_since(snap)
        assert delta["bcp"] == pytest.approx(0.5)
        assert delta["analyze"] == pytest.approx(0.25)
        assert timers.as_dict()["bcp"] == pytest.approx(1.5)

    def test_complete_phases_sums_to_total(self):
        split = complete_phases({"bcp": 0.5, "analyze": 0.2,
                                 "clause_db": 0.0, "decision": 0.1},
                                total_seconds=1.0, sim_seconds=0.1)
        assert set(split) == set(ALL_PHASES)
        assert sum(split.values()) == pytest.approx(1.0)
        assert split["other"] == pytest.approx(0.1)
        assert split["simulation"] == pytest.approx(0.1)

    def test_complete_phases_never_negative_other(self):
        split = complete_phases({"bcp": 2.0, "analyze": 0.0,
                                 "clause_db": 0.0, "decision": 0.0},
                                total_seconds=1.0)
        assert split["other"] == 0.0


# ----------------------------------------------------------------------
# Engine tracing: event counts == stats counters, phases sum to total
# ----------------------------------------------------------------------

def _count_kinds(path):
    counts = {}
    for event in read_trace(path):
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts


class TestCircuitEngineTracing:
    @pytest.mark.parametrize("name", ["explicit", "kernel"])
    def test_event_counts_match_stats_exactly(self, tmp_path, name):
        path = str(tmp_path / "c432.jsonl")
        m = equiv_miter("c432")
        solver = CircuitSolver(m, preset(name, trace=path))
        result = solver.solve()
        solver.engine.tracer.close()
        assert result.status == UNSAT
        counts = _count_kinds(path)
        stats = solver.stats
        assert counts.get("decision", 0) == stats.decisions
        assert counts.get("conflict", 0) == stats.conflicts
        assert counts.get("restart", 0) == stats.restarts
        assert counts.get("learn", 0) == stats.learned_clauses
        # Explicit-learning sub-problems are individually visible.
        assert counts.get("subproblem", 0) == stats.subproblems_solved

    @pytest.mark.parametrize("name", ["explicit", "kernel"])
    def test_phase_seconds_sum_to_time_seconds(self, name):
        m = equiv_miter("c432")
        solver = CircuitSolver(m, preset(name, phase_timers=True))
        result = solver.solve()
        assert set(result.phase_seconds) == set(ALL_PHASES)
        assert sum(result.phase_seconds.values()) == pytest.approx(
            result.time_seconds, rel=1e-6)
        assert result.phase_seconds["simulation"] == pytest.approx(
            result.sim_seconds)
        # The search did real BCP work, so the timer must have registered.
        assert result.phase_seconds["bcp"] > 0.0

    def test_tracing_off_leaves_no_phase_split(self):
        m = equiv_miter("c432")
        solver = CircuitSolver(m, preset("csat"))
        result = solver.solve()
        assert solver.engine.tracer is None
        assert solver.engine.timers is None
        assert result.phase_seconds == {}

    def test_progress_callback_receives_snapshots(self):
        snaps = []
        m = equiv_miter("c499")
        options = preset("csat", progress_interval=10,
                         progress=snaps.append)
        result = CircuitSolver(m, options).solve(
            limits=Limits(max_conflicts=200))
        assert result.stats.conflicts >= 10
        assert snaps, "expected at least one snapshot"
        snap = snaps[-1]
        assert isinstance(snap, ProgressSnapshot)
        assert snap.conflicts > 0
        assert snap.conflicts % 10 == 0
        assert snap.elapsed >= 0.0
        assert snap.conflict_rate >= 0.0
        d = snap.as_dict()
        assert d["conflicts"] == snap.conflicts
        assert "avg_backjump" in d

    def test_progress_events_land_in_trace(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        m = equiv_miter("c499")
        options = preset("csat", trace=path, progress_interval=10)
        CircuitSolver(m, options).solve(limits=Limits(max_conflicts=100))
        counts = _count_kinds(path)
        assert counts.get("progress", 0) >= 1

    def test_solve_start_end_bracket_trace(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        m = equiv_miter("c432")
        solver = CircuitSolver(m, preset("csat", trace=path))
        result = solver.solve()
        solver.engine.tracer.close()
        events = list(read_trace(path))
        assert events[0]["kind"] == "solve_start"
        # The trailing orchestration-gap "phase" event may follow the
        # final solve_end; the last solve_end is the main search.
        ends = [e for e in events if e["kind"] == "solve_end"]
        assert ends[-1]["status"] == result.status
        assert "phases" in ends[-1]

    def test_negative_progress_interval_rejected(self):
        with pytest.raises(SolverError):
            preset("csat", progress_interval=-1).validate()


class TestCnfSolverTracing:
    def _miter_formula(self, name="c499"):
        m = equiv_miter(name)
        formula, _ = tseitin(m, objectives=list(m.outputs))
        return formula

    def test_event_counts_match_stats_exactly(self, tmp_path):
        path = str(tmp_path / "cnf.jsonl")
        solver = CnfSolver(self._miter_formula(), trace=path)
        result = solver.solve(limits=Limits(max_conflicts=2000))
        solver.tracer.close()
        counts = _count_kinds(path)
        stats = solver.stats
        assert counts.get("decision", 0) == stats.decisions
        assert counts.get("conflict", 0) == stats.conflicts
        assert counts.get("restart", 0) == stats.restarts
        assert counts.get("learn", 0) == stats.learned_clauses
        assert result.stats.conflicts > 0

    def test_phase_seconds_sum_to_time_seconds(self):
        solver = CnfSolver(self._miter_formula(), phase_timers=True)
        result = solver.solve(limits=Limits(max_conflicts=500))
        assert sum(result.phase_seconds.values()) == pytest.approx(
            result.time_seconds, rel=1e-6)
        assert result.phase_seconds["bcp"] > 0.0
        # No simulation phase in the CNF baseline.
        assert result.phase_seconds["simulation"] == 0.0

    def test_tracing_off_by_default(self):
        solver = CnfSolver(self._miter_formula("c432"))
        result = solver.solve(limits=Limits(max_conflicts=100))
        assert solver.tracer is None
        assert solver.timers is None
        assert result.phase_seconds == {}

    def test_progress_callback_and_backjump_window(self):
        snaps = []
        solver = CnfSolver(self._miter_formula(), progress_interval=50,
                           progress=snaps.append)
        solver.solve(limits=Limits(max_conflicts=500))
        assert snaps
        assert all(s.conflicts % 50 == 0 for s in snaps)
        # Back-jumps happen on real instances; the window average must be
        # populated even without a tracer or timers attached.
        assert any(s.avg_backjump > 0.0 for s in snaps)

    def test_negative_progress_interval_rejected(self):
        with pytest.raises(SolverError):
            CnfSolver(self._miter_formula("c432"), progress_interval=-1)


# ----------------------------------------------------------------------
# Trace summarization
# ----------------------------------------------------------------------

class TestSummarize:
    def test_round_trip_against_stats(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        m = equiv_miter("c432")
        solver = CircuitSolver(m, preset("explicit", trace=path))
        result = solver.solve()
        solver.engine.tracer.close()
        summary = summarize_trace(path)
        stats = solver.stats
        assert summary.stat_counts == {
            "decisions": stats.decisions,
            "conflicts": stats.conflicts,
            "restarts": stats.restarts,
            "learned_clauses": stats.learned_clauses,
        }
        assert summary.subproblems_run == stats.subproblems_solved
        assert summary.subproblems_unsat == stats.subproblems_unsat
        assert summary.duration > 0.0
        # Per-call solve_end phases + the simulation phase event + the
        # orchestration-gap phase event must reconstruct the whole call:
        # summed phase seconds within 10% of the result's wall time.
        accounted = sum(summary.phase_seconds.values())
        assert accounted == pytest.approx(result.time_seconds, rel=0.10)
        text = summary.format()
        assert "decisions={}".format(stats.decisions) in text
        assert "phase breakdown" in text
        d = summary.as_dict()
        assert d["stat_counts"]["conflicts"] == stats.conflicts

    def test_summarize_events_timeline_and_top_nodes(self):
        events = [
            {"t": 0.0, "kind": "solve_start"},
            {"t": 0.1, "kind": "decision", "node": 5},
            {"t": 0.2, "kind": "decision", "node": 5},
            {"t": 0.3, "kind": "decision", "node": 9},
            {"t": 0.4, "kind": "conflict", "level": 2},
            {"t": 0.8, "kind": "conflict", "level": 1},
            {"t": 1.0, "kind": "solve_end", "status": "UNSAT",
             "phases": {"bcp": 0.5, "other": 0.5}},
        ]
        summary = summarize_events(events, bins=2, top=1)
        assert summary.events == 7
        assert summary.stat_counts["decisions"] == 3
        assert summary.stat_counts["conflicts"] == 2
        assert summary.top_decision_nodes == [(5, 2)]
        assert len(summary.conflict_timeline) == 2
        assert summary.conflict_timeline[0][1] == 1
        assert summary.conflict_timeline[1][1] == 1
        assert summary.solve_statuses == ["UNSAT"]
        assert summary.phase_seconds["bcp"] == pytest.approx(0.5)

    def test_read_trace_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"t":0.0,"kind":"decision"}\n{"t":0.1,"ki')
        events = list(read_trace(str(path)))
        assert len(events) == 1

    def test_read_trace_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text("hello world\n")
        with pytest.raises(ValueError):
            list(read_trace(str(path)))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestExport:
    _DUMP = {
        "datetime": "2026-01-01T00:00:00",
        "benchmarks": [
            {"name": "test_bcp", "stats": {"median": 0.25, "mean": 0.26,
                                           "stddev": 0.01, "min": 0.24,
                                           "rounds": 5, "iterations": 1}},
        ],
    }

    def test_micro_document_schema(self):
        doc = micro_document(self._DUMP)
        assert doc["schema"] == 1
        assert doc["kind"] == "bench_micro"
        assert doc["benchmarks"][0]["name"] == "test_bcp"
        assert doc["benchmarks"][0]["median"] == 0.25
        assert "python" in doc["environment"]

    def test_export_micro_writes_file(self, tmp_path):
        src = tmp_path / "dump.json"
        src.write_text(json.dumps(self._DUMP))
        out = tmp_path / "BENCH_micro.json"
        doc = export_micro(str(src), str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == doc
        assert on_disk["benchmarks"][0]["median"] == 0.25

    def test_table_document_round_trip(self):
        from repro.bench.harness import RunRecord, ShapeCheck

        class FakeTable:
            table_id = "table3"
            title = "Example"
            records = {"csat": [RunRecord(instance="c432", config="csat",
                                          status="UNSAT", seconds=0.5,
                                          conflicts=10)]}
            checks = [ShapeCheck(description="faster", passed=True)]
            all_passed = True

        doc = table_document(FakeTable())
        assert doc["kind"] == "bench_table"
        assert doc["table_id"] == "table3"
        cell = doc["records"]["csat"][0]
        assert cell["instance"] == "c432"
        assert cell["aborted"] is False
        assert doc["checks"][0]["passed"] is True
        # The document must be JSON-serializable as-is.
        json.dumps(doc)


# ----------------------------------------------------------------------
# ProgressPrinter
# ----------------------------------------------------------------------

class TestProgressPrinter:
    def test_writes_one_line_per_snapshot(self):
        buf = io.StringIO()
        printer = ProgressPrinter(stream=buf)
        snap = ProgressSnapshot(elapsed=1.5, conflicts=100, decisions=200,
                                propagations=5000, restarts=1,
                                learned_db=80, trail_depth=40,
                                decision_level=7, conflict_rate=66.7,
                                avg_backjump=1.4)
        printer(snap)
        printer(snap)
        assert printer.lines == 2
        out = buf.getvalue().splitlines()
        assert len(out) == 2
        assert "conflicts=100" in out[0]
        assert "avg-backjump=1.40" in out[0]


# ----------------------------------------------------------------------
# Kernel backend progress: same cadence contract as the legacy engine
# ----------------------------------------------------------------------

class TestKernelProgress:
    def test_kernel_progress_cadence_pinned(self):
        """--progress N on the kernel backend snapshots exactly on the
        N-conflict cadence, with live search state in every snapshot."""
        snaps = []
        m = equiv_miter("c499")
        # The main search: refuted explicit-learning sub-problems make no
        # back-jumps, and the back-jump window is per call.
        options = preset("kernel", explicit_learning=False,
                         progress_interval=10, progress=snaps.append)
        result = CircuitSolver(m, options).solve(
            limits=Limits(max_conflicts=200))
        assert result.stats.conflicts >= 10
        assert snaps, "kernel backend produced no progress snapshots"
        for snap in snaps:
            assert isinstance(snap, ProgressSnapshot)
            assert snap.conflicts % 10 == 0
            assert snap.conflicts > 0
            assert snap.elapsed >= 0.0
        # Cumulative counters never move backwards across snapshots.
        conflicts = [s.conflicts for s in snaps]
        assert conflicts == sorted(conflicts)
        # The kernel wires real back-jump accounting into the snapshot.
        assert any(s.avg_backjump > 0.0 for s in snaps)

    def test_kernel_progress_events_land_in_trace(self, tmp_path):
        path = str(tmp_path / "kp.jsonl")
        m = equiv_miter("c499")
        options = preset("kernel", trace=path, progress_interval=10)
        solver = CircuitSolver(m, options)
        solver.solve(limits=Limits(max_conflicts=100))
        solver.engine.tracer.close()
        events = [e for e in read_trace(path) if e["kind"] == "progress"]
        assert events, "no progress events in the kernel trace"
        assert all(e["conflicts"] % 10 == 0 for e in events)

    def test_kernel_cli_progress_flag(self, tmp_path, capsys):
        from repro.circuit.bench_io import write_bench
        from repro.cli import main
        path = tmp_path / "m.bench"
        path.write_text(write_bench(equiv_miter("c499")))
        code = main(["solve", str(path), "--preset", "kernel",
                     "--progress", "10"])
        captured = capsys.readouterr()
        assert code in (0, 20, 10)   # decisive either way
        assert "conflicts=" in captured.err
