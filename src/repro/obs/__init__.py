"""repro.obs — solver telemetry: tracing, phase timers, progress, export.

The observability layer both engines report through:

* :mod:`repro.obs.trace` — structured JSONL event tracing
  (:class:`JsonlTracer`), attached via ``SolverOptions.trace`` or
  ``CnfSolver(trace=...)``;
* :mod:`repro.obs.timers` — per-phase wall-time split
  (:class:`PhaseTimers`), surfaced as ``SolverResult.phase_seconds``;
* :mod:`repro.obs.progress` — periodic :class:`ProgressSnapshot` delivery
  for long runs (``--progress`` on the CLI);
* :mod:`repro.obs.summary` — trace-file analysis behind ``repro trace``,
  including cross-process span-tree reconstruction;
* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters/gauges/histograms, Prometheus text exposition) behind
  ``GET /metrics`` and ``repro status URL --metrics``;
* :mod:`repro.obs.context` — trace/span identifiers that cross the
  subprocess-worker boundary;
* :mod:`repro.obs.export` — machine-readable benchmark output
  (``BENCH_micro.json``, per-table JSON).

This package sits *below* the engines in the import graph (the engines
import it, never the reverse), so it must stay free of solver imports.
See ``docs/observability.md`` for the event schema and overhead notes.
"""

from .context import SpanContext, child_context, context_of, new_id
from .export import (environment_info, export_micro, export_table,
                     micro_document, table_document)
from .metrics import (MetricsRegistry, default_registry, disable_metrics,
                      enable_metrics, observe_solve, parse_exposition)
from .progress import ProgressPrinter, ProgressSnapshot
from .summary import (SpanNode, SpanTree, TraceSummary, build_span_tree,
                      read_trace, span_tree_of, summarize_events,
                      summarize_trace)
from .timers import ALL_PHASES, SEARCH_PHASES, PhaseTimers, complete_phases
from .trace import EVENT_KINDS, JsonlTracer, NULL_TRACER, Tracer, make_tracer

__all__ = [
    "ALL_PHASES", "EVENT_KINDS", "JsonlTracer", "MetricsRegistry",
    "NULL_TRACER", "PhaseTimers", "ProgressPrinter", "ProgressSnapshot",
    "SEARCH_PHASES", "SpanContext", "SpanNode", "SpanTree", "TraceSummary",
    "Tracer", "build_span_tree", "child_context", "complete_phases",
    "context_of", "default_registry", "disable_metrics", "enable_metrics",
    "environment_info", "export_micro", "export_table", "make_tracer",
    "micro_document", "new_id", "observe_solve", "parse_exposition",
    "read_trace", "span_tree_of", "summarize_events", "summarize_trace",
    "table_document",
]
