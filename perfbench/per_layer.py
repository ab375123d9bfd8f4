"""Per-layer metrics of the traced run, with what each should move.

Each entry is ``name: (better, should_move)``: ``should_move`` names the
end-to-end figure and workload a change to that layer is expected to
move, written down before anything is measured.  Times (``_s``) are
totals over the traced half of the run; ``<layer>.self_s`` is the time
inside that layer's spans not covered by a child span (``op.self_s`` is
the benchmark's own request handling: client, HTTP, answer checks).
``BENCHMARK.json`` lists the same names; a self-test keeps them equal.
"""

from __future__ import annotations

from typing import Dict, Tuple

_PAPER_EXPLICIT = "explicit.suite_s on paper_suite"
_PAPER_KERNEL = "kernel.suite_s on paper_suite"
_CUBE = "cube.solve_s on conquer_mult"
_DIST = "dist.solve_s on conquer_mult"
_COLD_P50 = "latency_p50_ms on serve_cold"
_COLD_P95 = "latency_p95_ms on serve_cold"
_WARM_P50 = "latency_p50_ms on serve_warm"

PER_LAYER_RATIONALE: Dict[str, Tuple[str, str]] = {
    "circuit.build_s": ("lower",
                        "setup_s on paper_suite and conquer_mult"),
    "sim.calls": ("lower", _PAPER_EXPLICIT),
    "sim.correlations_s": ("lower", _PAPER_EXPLICIT),
    "sim.pairs": ("higher", _PAPER_EXPLICIT),
    "csat.explicit_s": ("lower", _PAPER_EXPLICIT),
    "csat.subproblems": ("lower", _PAPER_EXPLICIT),
    "csat.search_s": ("lower", _PAPER_EXPLICIT + "; " + _COLD_P50),
    "csat.conflicts": ("lower", _PAPER_EXPLICIT + "; " + _COLD_P50),
    "csat.decisions": ("lower", _PAPER_EXPLICIT),
    "csat.propagations": ("lower", _PAPER_EXPLICIT),
    "csat.us_per_conflict": ("lower", _PAPER_EXPLICIT + "; " + _COLD_P50),
    "kernel.search_s": ("lower", _PAPER_KERNEL),
    "kernel.conflicts": ("lower", _PAPER_KERNEL),
    "kernel.propagations": ("lower", _PAPER_KERNEL),
    "kernel.us_per_conflict": ("lower", _PAPER_KERNEL),
    "runtime.jobs": ("lower", _COLD_P50 + "; " + _CUBE),
    "runtime.supervised_s": ("lower", _COLD_P50 + "; " + _CUBE),
    "runtime.child_solve_s": ("lower", _COLD_P50 + "; " + _CUBE),
    "runtime.overhead_s": ("lower", _COLD_P50 + "; " + _CUBE),
    "runtime.retries": ("lower", _CUBE),
    "runtime.failures": ("lower", _COLD_P50 + "; " + _CUBE),
    "serve.submit_s": ("lower", _WARM_P50 + "; " + _COLD_P95),
    "serve.fingerprint_s": ("lower", _WARM_P50 + "; " + _COLD_P95),
    "serve.cache.lookup_s": ("lower", _WARM_P50),
    "serve.cache.hit_ratio": ("higher", _WARM_P50),
    "serve.queue_wait_s": ("lower", _COLD_P95),
    "serve.http_overhead_ms": ("lower", _WARM_P50 + "; " + _COLD_P95),
    "serve.class.unsat_miter.p50_ms": ("lower", _COLD_P95),
    "serve.class.cnf_phase.p50_ms": ("lower", _COLD_P95),
    "serve.class.random_dag.p50_ms": ("lower", _COLD_P95),
    "serve.class.mutated_miter.p50_ms": ("lower", _COLD_P95),
    "serve.class.duplicate.p50_ms": ("lower", _WARM_P50),
    "inc.prepass.calls": ("lower", _COLD_P95),
    "inc.prepass_s": ("lower", _COLD_P95),
    "inc.prepass.useful_ratio": ("higher", _COLD_P95),
    "inc.absorb_s": ("lower", _COLD_P95),
    "durable.journal.appends": ("lower", _COLD_P50 + "; " + _WARM_P50),
    "durable.journal.append_s": ("lower", _COLD_P50 + "; " + _WARM_P50),
    "verify.certify.calls": ("lower", _WARM_P50),
    "verify.certify_s": ("lower", _WARM_P50),
    "cube.generate_s": ("lower", _CUBE),
    "cube.cubes": ("lower", _CUBE),
    "cube.pruned": ("higher", _CUBE),
    "cube.lemmas_shared": ("higher", _CUBE),
    "cube.conflicts": ("lower", _CUBE),
    "cube.us_per_conflict": ("lower", _CUBE),
    "cube.worker_busy_frac": ("higher", _CUBE),
    "dist.dispatches": ("lower", _DIST),
    "dist.steals": ("lower", _DIST),
    "dist.duplicates": ("lower", _DIST),
    "dist.lost": ("lower", _DIST),
    "dist.double_counted": ("lower", _DIST),
    "dist.conflicts": ("lower", _DIST),
    "dist.coordination_s": ("lower", _DIST),
    "circuit.self_s": ("lower", "setup_s on paper_suite and conquer_mult"),
    "sim.self_s": ("lower", _PAPER_EXPLICIT),
    "csat.self_s": ("lower", _PAPER_EXPLICIT),
    "kernel.self_s": ("lower", _PAPER_KERNEL),
    "runtime.self_s": ("lower", _COLD_P50 + "; " + _CUBE),
    "serve.self_s": ("lower", _WARM_P50),
    "inc.self_s": ("lower", _COLD_P95),
    "durable.self_s": ("lower", _COLD_P50 + "; " + _WARM_P50),
    "verify.self_s": ("lower", _WARM_P50),
    "cube.self_s": ("lower", _CUBE),
    "dist.self_s": ("lower", _DIST),
    "op.self_s": ("lower", _WARM_P50),
    "spans.ops_checked": ("higher", "none: span accounting check"),
    "spans.ops_outside_tolerance": ("lower", "none: span accounting check"),
    "spans.max_error_frac": ("lower", "none: span accounting check"),
    "trace_overhead.setup_s": ("lower", "none: tracing cost"),
    "trace_overhead.ops_per_s": ("higher", "none: tracing cost"),
    "trace_overhead.latency_p50_ms": ("lower", "none: tracing cost"),
    "trace_overhead.latency_p95_ms": ("lower", "none: tracing cost"),
    "trace_overhead.peak_rss_mb": ("lower", "none: tracing cost"),
}

PER_LAYER = tuple(PER_LAYER_RATIONALE)
