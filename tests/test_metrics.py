"""The metrics registry: semantics, exposition format, the export CLI,
and the shape of the committed benchmark baselines.

The parse-back tests are the contract the ``/metrics`` endpoint serves
under: everything the registry renders must round-trip through
:func:`repro.obs.metrics.parse_exposition` (a strict reader of the
Prometheus 0.0.4 text format) with values, labels, and histogram
invariants intact.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs.metrics import (LATENCY_BUCKETS, MetricsRegistry,
                               default_registry, disable_metrics,
                               enable_metrics, observe_solve,
                               parse_exposition)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

def test_counter_accumulates_and_renders():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_total", "A test counter")
    c.inc()
    c.inc(2.5)
    text = reg.render()
    assert "# TYPE repro_test_total counter" in text
    assert "repro_test_total 3.5" in text


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_total", "A test counter")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("repro_depth", "A test gauge")
    g.set(5)
    g.dec(2)
    g.inc()
    families = parse_exposition(reg.render())
    ((_, _, value),) = families["repro_depth"]["samples"]
    assert value == 4.0


def test_same_name_same_family_is_shared():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", "X")
    b = reg.counter("repro_x_total", "X")
    assert a is b


def test_same_name_different_type_rejected():
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "X")
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total", "X")


def test_labeled_children_are_independent():
    reg = MetricsRegistry()
    fam = reg.counter("repro_jobs_total", "Jobs", labelnames=("status",))
    fam.labels("SAT").inc(3)
    fam.labels(status="UNSAT").inc()
    families = parse_exposition(reg.render())
    by_status = {labels["status"]: value
                 for _, labels, value in families["repro_jobs_total"]["samples"]}
    assert by_status == {"SAT": 3.0, "UNSAT": 1.0}


def test_wrong_label_arity_rejected():
    reg = MetricsRegistry()
    fam = reg.counter("repro_jobs_total", "Jobs", labelnames=("status",))
    with pytest.raises(ValueError):
        fam.labels("SAT", "extra")
    with pytest.raises(ValueError):
        fam.labels(wrong="SAT")


def test_default_registry_off_by_default():
    disable_metrics()
    assert default_registry() is None
    reg = enable_metrics()
    try:
        assert default_registry() is reg
        assert enable_metrics() is reg   # idempotent, same instance
    finally:
        disable_metrics()
    assert default_registry() is None


# ----------------------------------------------------------------------
# Exposition format: escaping, histograms, parse-back
# ----------------------------------------------------------------------

def test_label_escaping_round_trips():
    reg = MetricsRegistry()
    fam = reg.counter("repro_esc_total", "Escapes", labelnames=("detail",))
    nasty = 'quote " backslash \\ newline \n end'
    fam.labels(nasty).inc()
    text = reg.render()
    # The rendered line must stay a single line.
    sample_lines = [l for l in text.splitlines()
                    if l.startswith("repro_esc_total{")]
    assert len(sample_lines) == 1
    families = parse_exposition(text)
    ((_, labels, value),) = families["repro_esc_total"]["samples"]
    assert labels["detail"] == nasty
    assert value == 1.0


def test_help_line_present_and_typed():
    reg = MetricsRegistry()
    reg.counter("repro_help_total", "Counts things with spaces")
    families = parse_exposition(reg.render())
    fam = families["repro_help_total"]
    assert fam["type"] == "counter"
    assert fam["help"] == "Counts things with spaces"


def test_histogram_buckets_cumulative_and_monotonic():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", "Latency")
    observations = [0.001, 0.003, 0.02, 0.02, 0.7, 250.0, 9999.0]
    for value in observations:
        h.observe(value)
    families = parse_exposition(reg.render())
    samples = families["repro_lat_seconds"]["samples"]
    buckets = [(labels["le"], value) for name, labels, value in samples
               if name.endswith("_bucket")]
    counts = [value for _, value in buckets]
    # Cumulative: never decreasing, ending at the total count on +Inf.
    assert counts == sorted(counts)
    assert buckets[-1][0] == "+Inf"
    assert counts[-1] == len(observations)
    count = [v for n, _, v in samples if n.endswith("_count")][0]
    total = [v for n, _, v in samples if n.endswith("_sum")][0]
    assert count == len(observations)
    assert total == pytest.approx(sum(observations))
    # Spot-check one boundary: le includes equal values.
    by_le = dict(buckets)
    expected = sum(1 for v in observations if v <= 0.025)
    assert by_le["0.025"] == expected


def test_histogram_labeled_children_render_all_series():
    reg = MetricsRegistry()
    h = reg.histogram("repro_solve_seconds", "Solve wall",
                      labelnames=("engine",))
    h.labels("csat").observe(0.5)
    h.labels("kernel").observe(1.5)
    families = parse_exposition(reg.render())
    engines = {labels["engine"]
               for name, labels, _ in
               families["repro_solve_seconds"]["samples"]}
    assert engines == {"csat", "kernel"}


def test_parse_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("this is { not an exposition\n")


def test_render_is_sorted_and_reparseable():
    reg = MetricsRegistry()
    reg.counter("repro_zz_total", "Z").inc()
    reg.counter("repro_aa_total", "A").inc()
    reg.histogram("repro_mm_seconds", "M").observe(0.1)
    text = reg.render()
    names = [l.split()[2] for l in text.splitlines()
             if l.startswith("# TYPE")]
    assert names == sorted(names)
    assert set(parse_exposition(text)) == {
        "repro_aa_total", "repro_mm_seconds", "repro_zz_total"}


def test_snapshot_is_json_ready():
    reg = MetricsRegistry()
    reg.counter("repro_snap_total", "S", labelnames=("k",)).labels("v").inc()
    snap = reg.snapshot()
    json.dumps(snap)   # must not raise
    assert "repro_snap_total" in snap


# ----------------------------------------------------------------------
# observe_solve: the shared engine instrumentation entry point
# ----------------------------------------------------------------------

def test_observe_solve_records_engine_families():
    from repro.result import SolverStats
    reg = MetricsRegistry()
    stats = SolverStats(conflicts=7, decisions=20, propagations=300,
                        restarts=2, learned_clauses=5)
    observe_solve(reg, "kernel", "UNSAT", 0.25, stats,
                  tiers={"core": 3, "mid": 2, "local": 1})
    families = parse_exposition(reg.render())
    assert ("repro_solve_total" in families
            and "repro_solve_seconds" in families)
    conflicts = {tuple(sorted(labels.items())): value
                 for _, labels, value in
                 families["repro_engine_conflicts_total"]["samples"]}
    assert conflicts == {(("engine", "kernel"),): 7.0}
    tiers = {labels["tier"]: value
             for _, labels, value in
             families["repro_engine_clause_db"]["samples"]}
    assert tiers == {"core": 3.0, "mid": 2.0, "local": 1.0}


def test_engines_record_into_enabled_registry():
    from repro.core.solver import CircuitSolver
    from repro.csat.options import preset
    from repro.gen.arith import array_multiplier, csa_multiplier
    from repro.circuit.miter import miter
    circuit = miter(array_multiplier(2), csa_multiplier(2))
    reg = enable_metrics()
    before = len(parse_exposition(reg.render())
                 .get("repro_solve_total", {"samples": []})["samples"])
    try:
        CircuitSolver(circuit, preset("explicit")).solve()
        families = parse_exposition(reg.render())
        statuses = [labels for _, labels, _ in
                    families["repro_solve_total"]["samples"]
                    if labels["engine"] == "csat"]
        assert statuses, "solve() did not record into the registry"
    finally:
        disable_metrics()


# ----------------------------------------------------------------------
# Export CLI: python -m repro.obs.export micro
# ----------------------------------------------------------------------

def _fake_pytest_benchmark_dump(tmp_path):
    dump = {
        "benchmarks": [
            {"name": "test_bench_a", "stats": {
                "median": 0.002, "mean": 0.0021, "stddev": 0.0001,
                "rounds": 30}},
            {"name": "test_bench_b", "stats": {
                "median": 0.5, "mean": 0.52, "stddev": 0.01,
                "rounds": 5}},
        ],
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    return path


def test_export_micro_cli_writes_document(tmp_path):
    dump = _fake_pytest_benchmark_dump(tmp_path)
    out = tmp_path / "BENCH_micro.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.export", "micro",
         str(dump), str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    document = json.loads(out.read_text())
    assert document["kind"] == "bench_micro"
    names = {b["name"] for b in document["benchmarks"]}
    assert names == {"test_bench_a", "test_bench_b"}
    env = document["environment"]
    # The comparability fields check_regression.py warns about.
    for key in ("python", "platform", "machine", "cpu_count"):
        assert key in env


def test_export_micro_cli_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.export", "micro"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def test_environment_info_comparability_fields():
    from repro.obs.export import environment_info
    env = environment_info()
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert "cpu_model" in env
    assert "numpy" in env   # None when absent, version string otherwise


# ----------------------------------------------------------------------
# Committed baselines: every BENCH_*.json is one the gate reads
# ----------------------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_committed_bench_files_load_through_the_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    unreadable = []
    for path in paths:
        try:
            gate.load_medians(str(path))
        except SystemExit as exc:   # no non-empty list of medians
            unreadable.append(str(exc))
    assert not unreadable
