"""The repo benchmark: one command, four workloads, traced per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for half the seconds each, first
untraced and then with spans recorded around every layer call, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced) of every end-to-end metric.  The last line of standard output
is the result object; the line before it is a report with the
environment, sample counts, failure details and the workload-specific
figures (``explicit.suite_s`` ... ``dist.solve_s``, ``failed_frac``).

Temporary files live under ``.perfbench_tmp/`` in the working directory
and are removed at exit.  Exits 2 when the repro sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOAD_NAMES = ("paper_suite", "serve_cold", "serve_warm", "conquer_mult")

#: End-to-end metrics, reported on every workload (name -> unit).
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
              "latency_p95_ms": "ms", "peak_rss_mb": "MB"}

SERVE_CLASSES = ("unsat_miter", "cnf_phase", "random_dag", "mutated_miter",
                 "duplicate")

#: Upper bound on load threads and solver workers before clamping to nproc.
PARALLELISM = 2


def unit_of(name: str) -> str:
    """Per-layer units follow the metric-name suffix."""
    if name.endswith("us_per_conflict"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment(workers: int, clients: int) -> Dict[str, Any]:
    from repro.obs.export import environment_info
    nproc = len(os.sched_getaffinity(0))
    env = environment_info()
    env.update(nproc=nproc, label="{}-CPU".format(nproc), workers=workers,
               clients=clients)
    return env


def end_to_end(outcome) -> Dict[str, float]:
    return {"setup_s": statistics.median(outcome.setup_s),
            "ops_per_s": outcome.ops_per_s,
            "latency_p50_ms": 1e3 * statistics.median(outcome.latencies_s),
            "latency_p95_ms": 1e3 * percentile(outcome.latencies_s, 0.95),
            "peak_rss_mb": peak_rss_mb()}


def serve_metrics(outcome, spans) -> Dict[str, float]:
    """Serve-layer figures read from the client side and the op spans."""
    metrics: Dict[str, float] = {
        "serve.queue_wait_s": sum(s.queue_s for s in outcome.samples)}
    for cls in SERVE_CLASSES:
        values = [s.seconds for s in outcome.samples
                  if s.timed and s.cls == cls]
        metrics["serve.class.{}.p50_ms".format(cls)] = \
            1e3 * percentile(values, 0.5) if values else 0.0
    server_side: Dict[str, float] = {}
    for span in spans:
        if span.op is not None and span.name in (
                "serve.parse", "serve.submit", "serve.execute"):
            server_side[span.op] = server_side.get(span.op, 0.0) + \
                span.seconds
    overheads = [s.seconds - s.queue_s - server_side[s.op]
                 for s in outcome.samples if s.op in server_side]
    metrics["serve.http_overhead_ms"] = \
        1e3 * statistics.mean(overheads) if overheads else 0.0
    return metrics


def report(outcome) -> Dict[str, Any]:
    failed = [s for s in outcome.samples if not s.ok]
    timed = [s for s in outcome.samples if s.timed]
    named = {name: {"value": value, "unit": unit}
             for name, (value, unit) in outcome.named.items()}
    named["failed_frac"] = {
        "value": len(failed) / max(1, len(outcome.samples)),
        "unit": "ratio"}
    p95 = percentile([s.seconds for s in timed], 0.95)
    scales = [s.scale for s in timed]
    return {"samples": len(timed),
            "samples_beyond_p95": sum(1 for s in timed if s.seconds > p95),
            "setup_s_runs": outcome.setup_s,
            "host_factor": {"median": statistics.median(scales),
                            "min": min(scales), "max": max(scales)}
            if scales else None,
            "named": named,
            "notes": outcome.notes,
            "failures": [{"op": s.op, "detail": s.detail}
                         for s in failed[:10]]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tmp: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Returns (result object, report)."""
    import spans as spanlib
    import workloads
    from per_layer import PER_LAYER

    nproc = len(os.sched_getaffinity(0))
    workers = clients = max(1, min(PARALLELISM, nproc))

    def config(recorder, secs):
        return workloads.Config(seed=seed, seconds=secs, workers=workers,
                                clients=clients, tmp=tmp, recorder=recorder)

    fn = workloads.WORKLOADS[workload]
    outcomes = []
    info: Dict[str, Any] = {"workload": workload, "seed": seed,
                            "seconds": seconds, "trace": int(trace),
                            "environment": environment(workers, clients)}
    if not trace:
        outcome = fn(config(spanlib.Recorder(enabled=False), seconds))
        outcomes.append(outcome)
        values = end_to_end(outcome)
        units = END_TO_END
        info["report"] = report(outcome)
    else:
        plain = fn(config(spanlib.Recorder(enabled=False), seconds / 2))
        plain_values = end_to_end(plain)
        recorder = spanlib.Recorder()
        uninstall = spanlib.install(recorder)
        try:
            traced = fn(config(recorder, seconds / 2))
        finally:
            uninstall()
        outcomes += [plain, traced]
        traced_values = end_to_end(traced)
        values = spanlib.layer_metrics(recorder.spans)
        values.update(serve_metrics(traced, recorder.spans))
        for name in END_TO_END:
            values["trace_overhead." + name] = \
                traced_values[name] - plain_values[name]
        units = {name: unit_of(name) for name in PER_LAYER}
        for name in END_TO_END:
            units["trace_overhead." + name] = END_TO_END[name]
        missing = set(PER_LAYER) ^ set(values)
        if missing:
            raise RuntimeError("per-layer metric set mismatch: {}".format(
                sorted(missing)))
        info["report"] = {"untraced": report(plain),
                          "traced": report(traced),
                          "untraced_end_to_end": plain_values,
                          "traced_end_to_end": traced_values,
                          "spans": len(recorder.spans),
                          "accounting_tolerance":
                              spanlib.ACCOUNTING_TOLERANCE}
    samples = [s for o in outcomes for s in o.samples]
    failed = sum(1 for s in samples if not s.ok)
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    return result, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro sources under {}".format(SRC),
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing changes iteration orders the search depends on
        # (s38417.scan.equiv's conflict count moves by up to 14% from one
        # interpreter to the next): fix it so a seed fixes the work.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, SRC)
    # Conquer nodes are separate interpreters; they find the sources and
    # the scratch directory through the environment.
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get(
        "PYTHONPATH", "")
    tmp = os.path.join(os.getcwd(), ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    print(json.dumps({"report": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
