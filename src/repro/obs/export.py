"""Machine-readable benchmark output: the perf-trajectory exporters.

Two producers feed the repo's ``BENCH_*.json`` trajectory files:

* :func:`export_micro` trims a pytest-benchmark ``--benchmark-json`` dump
  of ``benchmarks/bench_micro.py`` into a small stable-schema document
  (``BENCH_micro.json``) that later PRs can diff medians against;
* :func:`export_table` serializes a :class:`repro.bench.tables.TableResult`
  (records + shape checks) so paper-table runs can be compared by machine
  instead of by eyeballing the rendered text.

Both are also reachable from the command line::

    python -m repro.obs.export micro PYTEST_BENCHMARK_JSON [OUT]

writes ``BENCH_micro.json`` (default) from a pytest-benchmark dump, and
``repro bench tableN --json OUT`` uses :func:`export_table` directly.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional

#: Schema version for every exported document; bump on breaking change.
SCHEMA_VERSION = 1


def _cpu_model() -> Optional[str]:
    """Best-effort CPU model string (Linux /proc/cpuinfo; else
    platform.processor)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
        return numpy.__version__
    except ImportError:
        return None


def environment_info() -> Dict[str, Any]:
    """The fields needed to judge whether two measurements are comparable.

    ``cpu_count``/``cpu_model``/``numpy`` matter most: a benchmark run
    on different silicon, a different core count, or with/without the
    vectorized simulation path is not comparable, and
    ``benchmarks/check_regression.py`` warns when they differ.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy": _numpy_version(),
    }


def micro_document(benchmark_dump: Dict[str, Any]) -> Dict[str, Any]:
    """Trim a pytest-benchmark JSON dump to the stable trajectory schema."""
    benchmarks: List[Dict[str, Any]] = []
    for bench in benchmark_dump.get("benchmarks", []):
        stats = bench.get("stats", {})
        benchmarks.append({
            "name": bench.get("name"),
            "median": stats.get("median"),
            "mean": stats.get("mean"),
            "stddev": stats.get("stddev"),
            "min": stats.get("min"),
            "rounds": stats.get("rounds"),
            "iterations": stats.get("iterations"),
        })
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench_micro",
        "source": "benchmarks/bench_micro.py",
        "datetime": benchmark_dump.get("datetime"),
        "environment": environment_info(),
        "benchmarks": benchmarks,
    }


def export_micro(benchmark_json_path: str,
                 out_path: str = "BENCH_micro.json") -> Dict[str, Any]:
    """Convert a ``--benchmark-json`` dump file; returns the document."""
    with open(benchmark_json_path) as fh:
        dump = json.load(fh)
    document = micro_document(dump)
    _write(document, out_path)
    return document


def table_document(table_result) -> Dict[str, Any]:
    """Serialize a TableResult (duck-typed: records of RunRecord + checks)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench_table",
        "table_id": table_result.table_id,
        "title": table_result.title,
        "environment": environment_info(),
        "records": {config: [record.as_dict() for record in records]
                    for config, records in table_result.records.items()},
        "checks": [check.as_dict() for check in table_result.checks],
        "all_passed": table_result.all_passed,
    }


def export_table(table_result, out_path: str) -> Dict[str, Any]:
    """Write one paper-table run as JSON; returns the document."""
    document = table_document(table_result)
    _write(document, out_path)
    return document


def _write(document: Dict[str, Any], out_path: str) -> None:
    with open(out_path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] != "micro" or len(argv) not in (2, 3):
        print("usage: python -m repro.obs.export micro "
              "PYTEST_BENCHMARK_JSON [OUT]", file=sys.stderr)
        return 2
    out = argv[2] if len(argv) == 3 else "BENCH_micro.json"
    document = export_micro(argv[1], out)
    print("wrote {} ({} benchmarks)".format(out, len(document["benchmarks"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
