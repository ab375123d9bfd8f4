"""Self-tests of the benchmark: tiny runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at a tiny size, traced and untraced, and every metric
``BENCHMARK.json`` names must come out with its unit; a planted wrong
answer must show up as a failed operation, not a crash.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from per_layer import PER_LAYER_RATIONALE  # noqa: E402

#: Three cheap rows: an UNSAT row, c6288 and a SAT row.
TINY_ROWS = [("c5315.equiv", ("explicit", "kernel")),
             ("c6288.equiv", ("explicit",)),
             ("9vliw010", ("kernel",))]


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "PAPER_ROWS", TINY_ROWS)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "WARM_SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "WARM_RENAMED", 20)
    return str(tmp_path)


def test_benchmark_json_matches_code(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == \
        run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"])
                for m in benchmark_json["per_layer"]}
    expected = {name: (run.END_TO_END.get(name.split(".", 1)[1])
                       if name.startswith("trace_overhead.")
                       else run.unit_of(name), better)
                for name, (better, _) in PER_LAYER_RATIONALE.items()}
    assert declared == expected


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported(workload, trace, tiny, benchmark_json):
    result, info = run.run(workload, seed=7, seconds=1.0, trace=trace,
                           tmp=tiny)
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark_json[key]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert json.loads(json.dumps(info))["environment"]["nproc"] >= 1
    if trace:
        metrics = result["metrics"]
        assert metrics["spans.ops_checked"]["value"] >= 1
        assert metrics["spans.ops_outside_tolerance"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_planted_wrong_answer_is_a_failed_operation(workload, tiny):
    cfg = workloads.Config(seed=7, seconds=1.0, workers=2, clients=2,
                           tmp=tiny, recorder=spans.Recorder(enabled=False),
                           plant_wrong=True)
    outcome = workloads.WORKLOADS[workload](cfg)
    failed = [s for s in outcome.samples if not s.ok]
    assert failed and failed[0].detail.startswith(("expected", "reference"))
    assert run.report(outcome)["named"]["failed_frac"]["value"] > 0


def test_per_op_takes_the_median_scaled_time_of_verified_samples():
    Sample = workloads.Sample
    samples = [Sample("a/0", "x", 1.0, key="a", scale=0.5),
               Sample("a/1", "x", 4.0, key="a", scale=0.5),
               Sample("a/2", "x", 9.0, key="a", scale=1.0),
               Sample("a/3", "x", 0.1, key="a", ok=False),
               Sample("b/0", "x", 0.2, key="b", timed=False)]
    assert workloads._per_op(samples) == {"a": 2.0}
    assert workloads.host_factor() > 0


def test_self_times_cover_the_root_exactly():
    recorder = spans.Recorder()
    with recorder.op("a"):
        recorder.call("serve.submit", sum, ([1, 2],), {})
        with recorder.span("circuit.build"):
            recorder.call("verify.certify", sum, ([3],), {})
    selfs = spans.self_times(recorder.spans)
    root = next(s for s in recorder.spans if s.name == "op")
    assert sum(selfs.values()) == pytest.approx(root.seconds, rel=1e-9)
    assert spans.accounting(recorder.spans)["spans.ops_checked"] == 1
