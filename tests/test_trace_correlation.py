"""Cross-process trace correlation: span propagation and torn-line repair.

The contract under test: a traced multi-worker cube solve writes spans
from the parent (cube phase) and from every subprocess worker into one
merged JSONL file, and ``build_span_tree`` reassembles them into a
single tree under a single trace id.  ``read_trace`` must survive the
torn lines a killed worker leaves behind.
"""

import json

import pytest

from repro.circuit.miter import miter
from repro.gen.arith import array_multiplier, csa_multiplier
from repro.obs.context import SpanContext, child_context, context_of, new_id
from repro.obs.summary import build_span_tree, read_trace, span_tree_of
from repro.obs.trace import JsonlTracer


def small_miter(width: int = 3):
    return miter(array_multiplier(width), csa_multiplier(width))


# ----------------------------------------------------------------------
# SpanContext mechanics
# ----------------------------------------------------------------------

def test_new_ids_are_unique_hex():
    ids = {new_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


def test_child_shares_trace_id_and_parents_correctly():
    root = SpanContext.new_root()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id


def test_child_context_of_none_is_fresh_root():
    ctx = child_context(None)
    assert ctx.parent_id is None and ctx.trace_id


def test_context_of_reads_tracer_binding(tmp_path):
    path = str(tmp_path / "t.jsonl")
    tracer = JsonlTracer(path)
    assert context_of(tracer) is None
    ctx = SpanContext.new_root()
    tracer.context = ctx
    assert context_of(tracer) is ctx
    tracer.close()


def test_bound_tracer_stamps_span_on_events(tmp_path):
    path = str(tmp_path / "t.jsonl")
    tracer = JsonlTracer(path)
    tracer.context = SpanContext.new_root()
    tracer.emit("solve_start", assumptions=0)
    tracer.close()
    (event,) = list(read_trace(path))
    assert event["span"] == tracer.context.span_id


# ----------------------------------------------------------------------
# The acceptance scenario: 4-worker cube solve, one correlated tree
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_cube_solve_yields_single_span_tree(tmp_path):
    from repro.cube import solve_cubes
    path = str(tmp_path / "cube.jsonl")
    # mult4: the driver's explicit phase closes mult3 before any cube.
    report = solve_cubes(small_miter(4), workers=4, trace=path)
    assert report.result.status == "UNSAT"
    tree = span_tree_of(path)
    # One trace id across parent and every worker file's merged events.
    assert len(tree.trace_ids) == 1
    (root,) = tree.roots
    assert root.name == "cube"
    workers = [s for s in root.children if s.name.startswith("worker:")]
    assert workers, "no worker spans were merged back"
    for span in workers:
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id
        assert span.status is not None
        # Coarse worker events (solve_start/solve_end at least) rode
        # along and were re-stamped onto the parent clock.
        assert span.events >= 2
        assert span.end is not None and span.end >= span.start


@pytest.mark.slow
def test_untraced_cube_solve_writes_no_worker_files(tmp_path):
    import glob
    import tempfile
    from repro.cube import solve_cubes
    before = set(glob.glob(
        tempfile.gettempdir() + "/repro-worker-trace-*"))
    report = solve_cubes(small_miter(2), workers=2)
    after = set(glob.glob(
        tempfile.gettempdir() + "/repro-worker-trace-*"))
    assert report.result.status == "UNSAT"
    assert after == before   # no temp trace files created or leaked


# ----------------------------------------------------------------------
# Span-tree reconstruction from raw events
# ----------------------------------------------------------------------

def _span_events():
    root = SpanContext.new_root()
    child = root.child()
    return root, child, [
        {"kind": "span_start", "t": 0.0, "name": "supervise",
         "trace": root.trace_id, "span": root.span_id},
        {"kind": "span_start", "t": 0.1, "name": "worker:csat",
         "trace": child.trace_id, "span": child.span_id,
         "parent": child.parent_id},
        {"kind": "solve_start", "t": 0.2, "span": child.span_id},
        {"kind": "span_end", "t": 0.9, "span": child.span_id,
         "status": "SAT"},
        {"kind": "span_end", "t": 1.0, "span": root.span_id,
         "status": "SAT"},
    ]


def test_build_span_tree_links_parent_and_child():
    root_ctx, child_ctx, events = _span_events()
    tree = build_span_tree(events)
    assert tree.spans == 2
    (root,) = tree.roots
    assert root.span_id == root_ctx.span_id
    (child,) = root.children
    assert child.span_id == child_ctx.span_id
    assert child.seconds == pytest.approx(0.8)
    assert child.events == 1   # the solve_start stamped with its span
    assert tree.orphan_events == 0
    assert "worker:csat" in tree.format()


def test_build_span_tree_counts_orphans():
    _, _, events = _span_events()
    events.append({"kind": "conflict", "t": 0.5, "span": "feedbeef0000aaaa"})
    tree = build_span_tree(events)
    assert tree.orphan_events == 1


def test_unended_span_still_reported():
    root = SpanContext.new_root()
    tree = build_span_tree([
        {"kind": "span_start", "t": 0.0, "name": "supervise",
         "trace": root.trace_id, "span": root.span_id}])
    (node,) = tree.roots
    assert node.end is None and node.status is None


# ----------------------------------------------------------------------
# read_trace tolerance: torn and malformed lines
# ----------------------------------------------------------------------

def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_read_trace_skips_torn_final_line(tmp_path):
    path = _write_lines(tmp_path / "t.jsonl", [
        json.dumps({"kind": "solve_start", "t": 0.0}),
        json.dumps({"kind": "solve_end", "t": 1.0}),
        '{"kind": "conflict", "t": 1.5, "lev',   # killed mid-write
    ])
    skipped = []
    events = list(read_trace(path, skipped=skipped))
    assert [e["kind"] for e in events] == ["solve_start", "solve_end"]
    assert skipped == [3]


def test_read_trace_skips_torn_mid_file_line(tmp_path):
    path = _write_lines(tmp_path / "t.jsonl", [
        json.dumps({"kind": "solve_start", "t": 0.0}),
        "garbage not json",
        json.dumps({"kind": "solve_end", "t": 1.0}),
    ])
    skipped = []
    events = list(read_trace(path, skipped=skipped))
    assert [e["kind"] for e in events] == ["solve_start", "solve_end"]
    assert skipped == [2]


def test_read_trace_all_garbage_still_raises(tmp_path):
    path = _write_lines(tmp_path / "t.jsonl", [
        "not a trace",
        "also not a trace",
    ])
    with pytest.raises(ValueError):
        list(read_trace(path))


def test_cli_trace_warns_on_skipped_lines(tmp_path, capsys):
    from repro.cli import main
    path = _write_lines(tmp_path / "t.jsonl", [
        json.dumps({"kind": "solve_start", "t": 0.0, "assumptions": 0}),
        json.dumps({"kind": "conflict", "t": 0.5, "level": 3}),
        json.dumps({"kind": "solve_end", "t": 1.0, "status": "SAT"}),
        '{"kind": "torn',
    ])
    code = main(["trace", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped 1 malformed line" in captured.err


def test_cli_trace_renders_span_tree(tmp_path, capsys):
    from repro.cli import main
    _, _, events = _span_events()
    path = _write_lines(tmp_path / "t.jsonl",
                        [json.dumps(e) for e in events])
    code = main(["trace", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "worker:csat" in captured.out
    code = main(["trace", path, "--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["spans"]["roots"], "span tree missing from --json output"
