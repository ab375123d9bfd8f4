"""Unified metrics: counters, gauges, histograms, Prometheus exposition.

The registry is the second telemetry channel next to tracing: where a
trace records *events* (one JSONL line each), the registry keeps cheap
*aggregates* — monotonic counters, point-in-time gauges, and fixed-bucket
latency histograms — that a scraper (``GET /metrics`` on the serve node,
``repro status URL --metrics`` on the CLI) reads as Prometheus text
exposition.

Overhead contract
-----------------

Same guarantee as :class:`repro.obs.trace.JsonlTracer`: the default is
**off** and the off path is one function call returning ``None`` per
*solve boundary*, never per search-loop iteration.  Engines do not touch
the registry inside the hot loop; they record their
:class:`~repro.result.SolverStats` deltas once per ``solve()`` call (the
counters the loop maintains anyway), so rates like conflicts/s fall out
at scrape time from successive counter samples.  ``default_registry()``
returns ``None`` unless :func:`enable_metrics` was called — the serve
stack enables it at server construction; batch CLI runs leave it off.

Thread safety: one registry-wide lock guards family/child creation and
every mutation.  All mutating operations are a handful of dict/float
operations, so contention is negligible next to a solve.

Naming follows the Prometheus conventions: ``repro_<layer>_<what>_total``
for counters, ``_seconds``/``_mb`` histograms with ``_sum``/``_count``
series, plain gauges for instantaneous values.  See
``docs/observability.md`` for the full catalog.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default buckets for latency histograms (seconds): spans the sub-10ms
#: cache-hit regime through multi-minute budgeted solves.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Default buckets for memory histograms (MB).
MEMORY_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                  2048.0, 4096.0)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format: backslash, quote,
    and newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_suffix(labelnames: Sequence[str],
                  labelvalues: Sequence[str],
                  extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = ['{}="{}"'.format(n, _escape_label(str(v)))
             for n, v in zip(labelnames, labelvalues)]
    if extra is not None:
        pairs.append('{}="{}"'.format(extra[0], _escape_label(extra[1])))
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Child:
    """One (labelvalues) sample of a family; does the actual arithmetic.

    Mutations take the owning registry's lock — callers hold *no* lock.
    """

    def __init__(self, family: "MetricFamily",
                 labelvalues: Tuple[str, ...]):
        self._family = family
        self._lock = family._lock
        self.labelvalues = labelvalues
        self.value = 0.0
        if family.type == HISTOGRAM:
            self.bucket_counts = [0] * len(family.buckets)
            self.sum = 0.0
            self.count = 0

    def inc(self, amount: float = 1.0) -> None:
        if self._family.type == COUNTER and amount < 0:
            raise ValueError("counters cannot decrease")
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._family.type != GAUGE:
            raise ValueError("dec() is gauge-only")
        with self._lock:
            self.value -= amount

    def set(self, value: float) -> None:
        if self._family.type != GAUGE:
            raise ValueError("set() is gauge-only")
        with self._lock:
            self.value = float(value)

    def observe(self, value: float) -> None:
        if self._family.type != HISTOGRAM:
            raise ValueError("observe() is histogram-only")
        with self._lock:
            # Per-bucket (non-cumulative) storage; render() accumulates.
            for i, bound in enumerate(self._family.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            self.sum += value
            self.count += 1


class MetricFamily:
    """One named metric and its labeled children."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 type: str, labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets)) if type == HISTOGRAM else ()
        self._lock = registry._lock
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not self.labelnames:
            # Unlabeled family: one implicit child, methods proxy to it.
            self._children[()] = _Child(self, ())

    def labels(self, *labelvalues: Any, **labelkwargs: Any) -> _Child:
        if labelkwargs:
            if labelvalues:
                raise ValueError("pass label values positionally or by "
                                 "name, not both")
            if set(labelkwargs) != set(self.labelnames):
                raise ValueError("{} takes label(s) {}, got {!r}".format(
                    self.name, self.labelnames, sorted(labelkwargs)))
            labelvalues = tuple(labelkwargs[name]
                                for name in self.labelnames)
        if len(labelvalues) != len(self.labelnames):
            raise ValueError("{} takes {} label(s) {}, got {!r}".format(
                self.name, len(self.labelnames), self.labelnames,
                labelvalues))
        key = tuple(str(v) for v in labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _Child(self, key)
        return child

    # Unlabeled convenience: family.inc() == family.labels().inc().
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def render(self) -> List[str]:
        lines = ["# HELP {} {}".format(self.name, self.help),
                 "# TYPE {} {}".format(self.name, self.type)]
        with self._lock:
            children = sorted(self._children.items())
            for key, child in children:
                if self.type == HISTOGRAM:
                    cumulative = 0
                    for bound, n in zip(self.buckets, child.bucket_counts):
                        cumulative += n
                        lines.append("{}_bucket{} {}".format(
                            self.name,
                            _label_suffix(self.labelnames, key,
                                          ("le", _format_value(bound))),
                            cumulative))
                    lines.append("{}_bucket{} {}".format(
                        self.name,
                        _label_suffix(self.labelnames, key, ("le", "+Inf")),
                        child.count))
                    lines.append("{}_sum{} {}".format(
                        self.name, _label_suffix(self.labelnames, key),
                        _format_value(child.sum)))
                    lines.append("{}_count{} {}".format(
                        self.name, _label_suffix(self.labelnames, key),
                        child.count))
                else:
                    lines.append("{}{} {}".format(
                        self.name, _label_suffix(self.labelnames, key),
                        _format_value(child.value)))
        return lines


class MetricsRegistry:
    """Thread-safe home of every metric family in one process."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, help: str, type: str,
                labelnames: Sequence[str],
                buckets: Sequence[float] = LATENCY_BUCKETS) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.type != type \
                        or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        "metric {!r} re-registered with a different "
                        "type/labels".format(name))
                return family
            family = MetricFamily(self, name, help, type, labelnames,
                                  buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, COUNTER, labelnames)

    def gauge(self, name: str, help: str,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, GAUGE, labelnames)

    def histogram(self, name: str, help: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS
                  ) -> MetricFamily:
        return self._family(name, help, HISTOGRAM, labelnames, buckets)

    def render(self) -> str:
        """The whole registry as Prometheus text exposition (0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda f: f.name)
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump (``repro status URL --metrics --json`` and
        tests)."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                samples = []
                for key, child in sorted(family._children.items()):
                    sample: Dict[str, Any] = {
                        "labels": dict(zip(family.labelnames, key))}
                    if family.type == HISTOGRAM:
                        sample["sum"] = child.sum
                        sample["count"] = child.count
                        sample["buckets"] = {
                            _format_value(b): n for b, n in
                            zip(family.buckets, child.bucket_counts)}
                    else:
                        sample["value"] = child.value
                    samples.append(sample)
                out[name] = {"type": family.type, "help": family.help,
                             "samples": samples}
        return out


# ----------------------------------------------------------------------
# Process-global registry: None unless explicitly enabled.
# ----------------------------------------------------------------------

_default: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> Optional[MetricsRegistry]:
    """The process registry, or None when metrics are off (the default).

    Call sites hoist this once per solve/job boundary and guard with
    ``is not None`` — the same contract as the tracer.
    """
    return _default


def enable_metrics(registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Install (and return) the process registry; idempotent."""
    global _default
    with _default_lock:
        if registry is not None:
            _default = registry
        elif _default is None:
            _default = MetricsRegistry()
        return _default


def disable_metrics() -> None:
    """Drop the process registry: subsequent solves record nothing."""
    global _default
    with _default_lock:
        _default = None


# ----------------------------------------------------------------------
# Instrumentation helpers: one call per solve/worker/cube boundary.
# ----------------------------------------------------------------------

#: SolverStats attribute -> engine counter suffix.
_STAT_COUNTERS = (
    ("conflicts", "repro_engine_conflicts_total",
     "CDCL conflicts (rate = conflicts/s)"),
    ("decisions", "repro_engine_decisions_total", "Search decisions"),
    ("propagations", "repro_engine_propagations_total",
     "Propagated literals (rate = propagations/s)"),
    ("restarts", "repro_engine_restarts_total",
     "Restarts (cadence = restarts over conflicts)"),
    ("learned_clauses", "repro_engine_learned_clauses_total",
     "Learned clauses added"),
)


def observe_solve(registry: MetricsRegistry, engine: str, status: str,
                  seconds: float, stats: Any = None,
                  tiers: Optional[Dict[str, int]] = None) -> None:
    """Record one finished engine ``solve()`` call.

    ``stats`` is the call's SolverStats *delta* (duck-typed); ``tiers``
    maps clause-DB tier name -> current size (kernel only).
    """
    registry.counter("repro_solve_total", "Engine solve() calls",
                     ("engine", "status")).labels(engine, status).inc()
    registry.histogram("repro_solve_seconds",
                       "Wall seconds per engine solve() call",
                       ("engine",)).labels(engine).observe(seconds)
    if stats is not None:
        # inc(0) still declares the family: scrapers see a stable set of
        # engine series from the first solve, however easy it was.
        for attr, name, help in _STAT_COUNTERS:
            amount = getattr(stats, attr, 0) or 0
            registry.counter(name, help,
                             ("engine",)).labels(engine).inc(amount)
    if tiers:
        gauge = registry.gauge("repro_engine_clause_db",
                               "Learned-clause DB size by tier",
                               ("engine", "tier"))
        for tier, size in tiers.items():
            gauge.labels(engine, tier).set(size)


# ----------------------------------------------------------------------
# Exposition parser: tests and `repro status --metrics` read it back.
# ----------------------------------------------------------------------

def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError("unquoted label value in {!r}".format(text))
        j = eq + 2
        raw: List[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\":
                raw.append(text[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        labels[name] = _unescape_label("".join(raw))
        i = j + 1
    return labels


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text exposition into families with samples.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}`` where ``sample_name``
    includes any ``_bucket``/``_sum``/``_count`` suffix.  Raises
    ``ValueError`` on lines that are neither comments nor samples.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_for(sample_name: str) -> Dict[str, Any]:
        for suffix in ("_bucket", "_sum", "_count", ""):
            if suffix and not sample_name.endswith(suffix):
                continue
            base = sample_name[:len(sample_name) - len(suffix)] \
                if suffix else sample_name
            if base in families:
                return families[base]
        return families.setdefault(
            sample_name, {"type": "untyped", "help": "", "samples": []})

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            families[name]["help"] = help
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []})
            families[name]["type"] = type.strip()
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if not sample_name or not value_text:
            raise ValueError("line {} is not a sample: {!r}".format(
                lineno, line))
        value = (float("inf") if value_text == "+Inf"
                 else float(value_text))
        family_for(sample_name)["samples"].append(
            (sample_name, labels, value))
    return families
