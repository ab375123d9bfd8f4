"""Structured event tracing: where search effort goes, as it happens.

The tracer is a JSONL sink: one JSON object per line, each carrying a
monotonic timestamp ``t`` (seconds since the tracer was created) and a
``kind``.  Both solver engines emit events at the points where the
corresponding :class:`~repro.result.SolverStats` counters are incremented,
so for any completed run the event counts and the stats counters agree
exactly — this invariant is what makes a trace diffable against a result.

Event kinds
-----------

``solve_start`` / ``solve_end``
    One pair per ``solve()`` call (explicit-learning sub-problems are
    nested calls and produce their own pairs).  ``solve_end`` carries the
    status and, when phase timers are active, the per-phase seconds of
    that call.
``decision``
    One per counted decision (``stats.decisions``), with the decided node,
    value, and decision level.
``implication_batch``
    One per BCP run that assigned at least one literal: number of
    propagated trail entries, gate implications, trail depth.
``conflict``
    One per conflict (``stats.conflicts``), with the decision level.
``learn``
    One per learned clause (``stats.learned_clauses``), with its size.
``restart`` / ``reduce_db``
    Clause-database and restart maintenance events.
``correlation_hit``
    The implicit-learning hook fired (``stats.correlation_decisions``).
``subproblem``
    One explicit-learning sub-problem finished (kind, status, conflicts).
``phase``
    A non-search phase completed (e.g. ``simulation``), with seconds.
``progress``
    Periodic progress snapshot (see :mod:`repro.obs.progress`).
``cube_generated`` / ``cube_start`` / ``cube_result`` / ``cube_prune`` /
``cube_end``
    Cube-and-conquer lifecycle (see :mod:`repro.cube`): the tree was cut,
    a cube was launched, answered, pruned by a sibling's failed-assumption
    core, and the run finished.
``job_submit`` / ``job_dedup`` / ``job_start`` / ``job_done`` /
``cache_hit`` / ``serve_start`` / ``serve_drain``
    Serving lifecycle (see :mod:`repro.serve`): a request was admitted,
    attached to identical in-flight work, started solving, finished,
    was answered from the fingerprint cache; the server came up / began
    draining.
``span_start`` / ``span_end``
    Cross-process correlation (see :mod:`repro.obs.context`): one timed
    span of a trace tree opened/closed, carrying ``trace``/``span`` (and
    ``parent``) identifiers.  A tracer with a bound
    :class:`~repro.obs.context.SpanContext` stamps every event with its
    ``span``, which is how events merged from worker subprocess trace
    files stay attached to the right node of the tree.

Overhead
--------

The guaranteed-off fast path is ``tracer = None``: the engines hoist the
tracer into a local and guard every emission site with ``is not None``, so
a run without tracing pays one pointer comparison per search-loop
iteration and nothing per propagation.  :data:`NULL_TRACER` (an always-off
:class:`Tracer`) exists for callers that want an object rather than None.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, Optional

EVENT_KINDS = (
    "solve_start", "solve_end", "decision", "implication_batch", "conflict",
    "learn", "restart", "reduce_db", "correlation_hit", "subproblem",
    "phase", "progress",
    # Worker lifecycle (repro.runtime): supervisor-side events — emitted by
    # the parent process, never by the isolated workers themselves.
    "worker_spawn", "worker_result", "worker_fail", "worker_kill",
    "worker_retry", "portfolio_start", "portfolio_end", "degrade",
    # Cube-and-conquer lifecycle (repro.cube): driver-side events.
    "cube_generated", "cube_start", "cube_result", "cube_prune", "cube_end",
    # Serving lifecycle (repro.serve): scheduler/server-side events.
    "job_submit", "job_dedup", "job_start", "job_done", "cache_hit",
    "serve_start", "serve_drain",
    # Cross-process correlation (repro.obs.context).
    "span_start", "span_end",
)


class Tracer:
    """No-op base tracer: accepts every event and drops it.

    Also the extension point — subclass and override :meth:`emit` to route
    events anywhere (the built-in :class:`JsonlTracer` writes JSONL).
    """

    #: False on the base class; engines treat a disabled tracer as None.
    enabled = False

    #: Optional repro.obs.context.SpanContext; when set, every emitted
    #: event is stamped with the span id (see JsonlTracer.emit).
    context = None

    def emit(self, kind: str, **fields: Any) -> None:
        pass

    def now(self) -> float:
        """Seconds on this tracer's clock (0.0 for no-op tracers)."""
        return 0.0

    def close(self) -> None:
        pass

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared always-off tracer instance.
NULL_TRACER = Tracer()


class JsonlTracer(Tracer):
    """Writes one JSON object per event to a file or file-like sink.

    ``sink`` may be a path (the file is opened and owned — :meth:`close`
    closes it) or any object with a ``write`` method (borrowed; only
    flushed on close).  Timestamps come from ``clock`` (default
    ``time.perf_counter``) relative to construction time, so they are
    monotonic and start near zero.  Safe to share between threads: each
    event is written as one line under a lock.
    """

    enabled = True

    def __init__(self, sink, clock=time.perf_counter, context=None):
        self._clock = clock
        self._t0 = clock()
        self.events_written = 0
        self._lock = threading.Lock()
        #: Optional SpanContext: stamps a "span" field on every event.
        self.context = context
        if isinstance(sink, (str, os.PathLike)):
            self.path: Optional[str] = os.fspath(sink)
            self._fh = open(self.path, "w")
            self._owns = True
        else:
            self.path = getattr(sink, "name", None)
            self._fh = sink
            self._owns = False

    def now(self) -> float:
        return self._clock() - self._t0

    def emit(self, kind: str, **fields: Any) -> None:
        # An explicit "t" wins: the supervisor re-stamps events merged
        # from a worker subprocess trace onto this tracer's clock.
        t = fields.pop("t", None)
        record = {"t": round(self._clock() - self._t0, 6)
                  if t is None else round(t, 6), "kind": kind}
        if self.context is not None and "span" not in fields:
            record["span"] = self.context.span_id
        record.update(fields)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            if self._owns:
                self._fh.close()
            else:
                try:
                    self._fh.flush()
                except (ValueError, io.UnsupportedOperation):
                    pass  # sink already closed / not flushable
            self._fh = None


def make_tracer(spec) -> Optional[Tracer]:
    """Normalize a user-facing trace spec into ``Optional[Tracer]``.

    ``None``/``False`` mean off; a :class:`Tracer` passes through (None if
    it is disabled, e.g. :data:`NULL_TRACER`); a path or writable object
    becomes a :class:`JsonlTracer`.  Engines store the normalized value so
    the hot path only ever tests ``is not None``.
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, Tracer):
        return spec if spec.enabled else None
    return JsonlTracer(spec)
