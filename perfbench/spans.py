"""In-memory spans recorded around the calls into each repro layer.

The benchmark never edits the program: :func:`install` replaces public
functions and methods of the layers with timing wrappers, in every loaded
``repro`` module that holds a reference to them (so ``from x import f``
call sites are covered too), and :func:`uninstall` restores the originals.
Spans stay in memory; :func:`layer_metrics` and :func:`accounting` turn
them into the per-layer numbers when the run ends.

A span records its name, start, end, parent and the operation id it
belongs to.  Within a thread the parent is the enclosing span; a span
opened by a server thread with no enclosing span is parented to the root
span of its operation, which the benchmark opens around each request and
which the server threads find through the request label.  A process
forked by the program (the runtime's isolated workers) records nothing:
its memory is gone when it exits, so the wrappers fall through there.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, op: Optional[str],
                 parent: Optional[int], start: float):
        self.id = span_id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a disabled recorder makes :meth:`op` a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.active = enabled
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: Dict[str, int] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: Optional[str]) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = parent.op if op is None else op
            parent_id: Optional[int] = parent.id
        else:
            parent_id = self._roots.get(op) if op is not None else None
        span = Span(next(self._ids), name, op, parent_id,
                    time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)   # list.append is atomic under the GIL

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             op: Optional[str] = None,
             post: Optional[Callable] = None) -> Any:
        """Run ``fn`` inside a span; ``post(result, args)`` returns the
        span's attributes and runs after the span has ended."""
        if not self.active or os.getpid() != self.pid:
            return fn(*args, **kwargs)
        span = self._open(name, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if post is not None:
            span.attrs = post(result, args)
        return result

    @contextmanager
    def op(self, op_id: str, name: str = "op"):
        """The root span of one operation (a request, a solve)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, op_id)
        self._roots[op_id] = span.id
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        """Record nothing meanwhile: the benchmark's own input generation
        and reference solves call the same wrapped functions."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code (e.g. circuit builds
        the benchmark drives through the program's generators)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)


# ----------------------------------------------------------------------
# Attribute extractors (run after the span ends)
# ----------------------------------------------------------------------

def _stats(result, _args) -> Dict[str, Any]:
    stats = result.stats
    return {"conflicts": stats.conflicts, "decisions": stats.decisions,
            "propagations": stats.propagations}


def _pairs(result, _args) -> Dict[str, Any]:
    return {"pairs": len(result.pair_correlations())}


def _explicit(result, _args) -> Dict[str, Any]:
    return {"subproblems": result.subproblems_run}


def _handle(result, _args) -> Dict[str, Any]:
    return {"handle": id(result)}


def _reap(outcome, args) -> Dict[str, Any]:
    result = outcome.result
    return {"handle": id(args[0]), "ok": outcome.ok,
            "child_s": float(result.time_seconds or 0.0) if result else 0.0}


def _supervised(outcome, args) -> Dict[str, Any]:
    """Worker-reported search effort of a csat job (the serve path)."""
    job = args[0]
    result = outcome.result
    if job.kind != "csat" or result is None:
        return {}
    attrs = _stats(result, args)
    attrs["search_s"] = max(0.0, float(result.time_seconds or 0.0)
                            - float(result.sim_seconds or 0.0))
    return attrs


def _prepass(outcome, _args) -> Dict[str, Any]:
    return {"useful": bool(outcome.useful)}


def _lookup(hit, _args) -> Dict[str, Any]:
    return {"hit": hit is not None}


def _cube_report(report, _args) -> Dict[str, Any]:
    cubes = report.cubes
    return {"cubes": len(cubes), "pruned": report.pruned,
            "lemmas_shared": report.lemmas_shared,
            "conflicts": report.result.stats.conflicts,
            "cube_s": sum(c.seconds for c in cubes),
            "workers": report.workers, "wall_s": report.elapsed,
            "retries": sum(max(0, c.attempts - 1) for c in cubes)}


def _dist_report(report, _args) -> Dict[str, Any]:
    return {"dispatches": sum(n.dispatched for n in report.nodes),
            "steals": report.steals, "duplicates": report.duplicates,
            "lost": report.lost, "double_counted": report.double_counted,
            "conflicts": report.result.stats.conflicts,
            "cube_s": sum(c.seconds for c in report.cubes),
            "workers": report.total_workers, "wall_s": report.elapsed}


def _parse_label(args) -> Optional[str]:
    return args[2]


def _request_label(args) -> Optional[str]:
    return args[1].label


def _job_label(args) -> Optional[str]:
    return args[1].request.label


# (module, attribute, span name, attribute extractor)
FUNCTIONS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.circuit.source", "read_circuit_text", "circuit.read", None),
    ("repro.sim.correlation", "find_correlations", "sim.correlations",
     _pairs),
    ("repro.csat.explicit", "run_explicit_learning", "csat.explicit",
     _explicit),
    ("repro.runtime.supervisor", "spawn_worker", "runtime.spawn", _handle),
    ("repro.runtime.supervisor", "run_supervised", "runtime.supervised",
     _supervised),
    ("repro.serve.fingerprint", "fingerprint", "serve.fingerprint", None),
    ("repro.inc.replay", "incremental_prepass", "inc.prepass", _prepass),
    ("repro.inc.replay", "absorb_sweep", "inc.absorb", None),
    ("repro.verify.certify", "certify_sat_model", "verify.certify", None),
    ("repro.verify.certify", "certify_unsat_proof", "verify.certify", None),
    ("repro.cube.cutter", "generate_cubes", "cube.generate", None),
    ("repro.cube.conquer", "solve_cubes", "cube.solve", _cube_report),
    ("repro.dist.coordinator", "solve_distributed", "dist.solve",
     _dist_report),
]

# (module, class, method, span name, attribute extractor, op from args)
METHODS: List[Tuple[str, str, str, str, Optional[Callable],
                    Optional[Callable]]] = [
    ("repro.bench.instances", "Instance", "build", "circuit.build", None,
     None),
    ("repro.csat.engine", "CSatEngine", "solve", "csat.search", _stats,
     None),
    ("repro.kernel.circuit", "KernelEngine", "solve", "kernel.search",
     _stats, None),
    ("repro.runtime.supervisor", "WorkerHandle", "reap", "runtime.reap",
     _reap, None),
    ("repro.serve.server", "ReproServer", "parse_request_circuit",
     "serve.parse", None, _parse_label),
    ("repro.serve.scheduler", "SolveScheduler", "submit", "serve.submit",
     None, _request_label),
    ("repro.serve.scheduler", "SolveScheduler", "_execute", "serve.execute",
     None, _job_label),
    ("repro.serve.cache", "AnswerCache", "lookup", "serve.cache.lookup",
     _lookup, None),
    ("repro.durable.journal", "Journal", "append", "durable.journal.append",
     None, None),
]

#: Modules whose by-name imports must exist before patching.
_PRELOAD = ("repro.core.solver", "repro.core.sweep", "repro.kernel.simd",
            "repro.serve.server", "repro.serve.scheduler", "repro.cube",
            "repro.dist.coordinator", "repro.dist.bench", "repro.inc.replay")


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them."""
    for name in _PRELOAD:
        importlib.import_module(name)
    undo: List[Tuple[Any, str, Any]] = []

    def wrap(orig, name, post, opf):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return recorder.call(name, orig, args, kwargs,
                                 op=opf(args) if opf is not None else None,
                                 post=post)
        return wrapper

    for module_name, attr, name, post in FUNCTIONS:
        orig = getattr(importlib.import_module(module_name), attr)
        wrapper = wrap(orig, name, post, None)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is orig):
                undo.append((module, attr, orig))
                setattr(module, attr, wrapper)
    for module_name, cls_name, attr, name, post, opf in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, wrap(orig, name, post, opf))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: span.seconds - _covered(children.get(span.id, []),
                                            span.start, span.end)
            for span in spans}


#: Relative tolerance of the span accounting check.
ACCOUNTING_TOLERANCE = 0.05


def accounting(spans: List[Span]) -> Dict[str, float]:
    """Per operation, compare the sum of self times under its root span
    with the root's wall time.  Sums drift from the wall when spans of one
    operation overlap across threads or outlive their root."""
    selfs = self_times(spans)
    by_op: Dict[str, List[Span]] = {}
    for span in spans:
        if span.op is not None:
            by_op.setdefault(span.op, []).append(span)
    errors = []
    for members in by_op.values():
        roots = [s for s in members if s.name == "op"]
        if len(roots) != 1 or roots[0].seconds <= 0:
            continue
        total = sum(selfs[s.id] for s in members)
        errors.append(abs(total - roots[0].seconds) / roots[0].seconds)
    outside = sum(1 for e in errors if e > ACCOUNTING_TOLERANCE)
    return {"spans.ops_checked": len(errors),
            "spans.ops_outside_tolerance": outside,
            "spans.max_error_frac": max(errors) if errors else 0.0}


LAYERS = ("circuit", "sim", "csat", "kernel", "runtime", "serve", "inc",
          "durable", "verify", "cube", "dist")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer counts and times named in BENCHMARK.json."""
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attrs: Dict[str, float] = {}
    spawn_start: Dict[int, float] = {}
    supervised = child = 0.0
    jobs = failures = 0
    lookups = hits = useful = 0
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        count[span.name] = count.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and key != "handle":
                name = "{}:{}".format(span.name, key)
                attrs[name] = attrs.get(name, 0.0) + float(value)
        if span.name == "runtime.spawn":
            spawn_start[span.attrs.get("handle")] = span.start
        elif span.name == "runtime.reap":
            jobs += 1
            failures += 0 if span.attrs.get("ok") else 1
            started = spawn_start.pop(span.attrs.get("handle"), span.start)
            supervised += span.end - started
            child += span.attrs.get("child_s", 0.0)
        elif span.name == "serve.cache.lookup":
            lookups += 1
            hits += 1 if span.attrs.get("hit") else 0
        elif span.name == "inc.prepass":
            useful += 1 if span.attrs.get("useful") else 0

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def a(name: str) -> float:
        return attrs.get(name, 0.0)

    csat_search = t("csat.search") + a("runtime.supervised:search_s")
    csat_conflicts = a("csat.search:conflicts") + \
        a("runtime.supervised:conflicts")
    kernel_conflicts = a("kernel.search:conflicts")
    cube_conflicts = a("cube.solve:conflicts")
    cube_capacity = sum(s.attrs.get("workers", 0) * s.attrs.get("wall_s", 0)
                        for s in spans if s.name == "cube.solve")
    dist_coordination = sum(
        s.attrs.get("wall_s", 0.0)
        - _ratio(s.attrs.get("cube_s", 0.0), s.attrs.get("workers", 0))
        for s in spans if s.name == "dist.solve")
    metrics = {
        "circuit.build_s": t("circuit.build") + t("circuit.read"),
        "sim.calls": count.get("sim.correlations", 0),
        "sim.correlations_s": t("sim.correlations"),
        "sim.pairs": a("sim.correlations:pairs"),
        "csat.explicit_s": t("csat.explicit"),
        "csat.subproblems": a("csat.explicit:subproblems"),
        "csat.search_s": csat_search,
        "csat.conflicts": csat_conflicts,
        "csat.decisions": a("csat.search:decisions")
        + a("runtime.supervised:decisions"),
        "csat.propagations": a("csat.search:propagations")
        + a("runtime.supervised:propagations"),
        "csat.us_per_conflict": 1e6 * _ratio(csat_search, csat_conflicts),
        "kernel.search_s": t("kernel.search"),
        "kernel.conflicts": kernel_conflicts,
        "kernel.propagations": a("kernel.search:propagations"),
        "kernel.us_per_conflict": 1e6 * _ratio(t("kernel.search"),
                                               kernel_conflicts),
        "runtime.jobs": jobs,
        "runtime.supervised_s": supervised,
        "runtime.child_solve_s": child,
        "runtime.overhead_s": supervised - child,
        "runtime.retries": a("cube.solve:retries"),
        "runtime.failures": failures,
        "serve.submit_s": t("serve.submit"),
        "serve.fingerprint_s": t("serve.fingerprint"),
        "serve.cache.lookup_s": t("serve.cache.lookup"),
        "serve.cache.hit_ratio": _ratio(hits, lookups),
        "inc.prepass.calls": count.get("inc.prepass", 0),
        "inc.prepass_s": t("inc.prepass"),
        "inc.prepass.useful_ratio": _ratio(useful,
                                           count.get("inc.prepass", 0)),
        "inc.absorb_s": t("inc.absorb"),
        "durable.journal.appends": count.get("durable.journal.append", 0),
        "durable.journal.append_s": t("durable.journal.append"),
        "verify.certify.calls": count.get("verify.certify", 0),
        "verify.certify_s": t("verify.certify"),
        "cube.generate_s": t("cube.generate"),
        "cube.cubes": a("cube.solve:cubes"),
        "cube.pruned": a("cube.solve:pruned"),
        "cube.lemmas_shared": a("cube.solve:lemmas_shared"),
        "cube.conflicts": cube_conflicts,
        "cube.us_per_conflict": 1e6 * _ratio(a("cube.solve:cube_s"),
                                             cube_conflicts),
        "cube.worker_busy_frac": _ratio(a("cube.solve:cube_s"),
                                        cube_capacity),
        "dist.dispatches": a("dist.solve:dispatches"),
        "dist.steals": a("dist.solve:steals"),
        "dist.duplicates": a("dist.solve:duplicates"),
        "dist.lost": a("dist.solve:lost"),
        "dist.double_counted": a("dist.solve:double_counted"),
        "dist.conflicts": a("dist.solve:conflicts"),
        "dist.coordination_s": dist_coordination,
    }
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS + ("op",)}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[span.id]
    for layer, seconds in layer_self.items():
        metrics["{}.self_s".format(layer)] = seconds
    metrics.update(accounting(spans))
    return metrics
