"""Benchmark harness: run solver configurations on instances, collect rows.

Every experiment in the paper compares a set of *solver configurations*
(ZChaff; C-SAT; C-SAT-Jnode; + implicit learning; + explicit learning with
its knobs) over a set of *instances*.  This module provides the runners and
the table renderer; :mod:`repro.bench.tables` assembles them into the
paper's Tables I-X.

Wall-clock budgets mirror the paper's 7200-second timeout: a run that
exhausts its budget is reported as ``*`` (aborted), exactly like the paper's
``*`` rows for C6288.  The default per-run budget comes from the
``REPRO_BENCH_BUDGET`` environment variable (seconds, default 20) so CI and
laptops can trade fidelity for time.  Every run is in process and bounded
by its cooperative ``Limits(max_seconds=budget)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..circuit.cnf_convert import tseitin
from ..circuit.netlist import Circuit
from ..cnf.solver import CnfSolver
from ..core.solver import CircuitSolver
from ..csat.options import SolverOptions, preset
from ..result import Limits, SolverResult, UNKNOWN


def default_budget() -> float:
    """Per-run wall-clock budget in seconds (env ``REPRO_BENCH_BUDGET``)."""
    try:
        return float(os.environ.get("REPRO_BENCH_BUDGET", "20"))
    except ValueError:
        return 20.0


@dataclass
class RunRecord:
    """One (instance, configuration) measurement — one table cell."""

    instance: str
    config: str
    status: str
    seconds: float
    sim_seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    implications: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    subproblems_run: int = 0
    subproblems_unsat: int = 0

    @property
    def aborted(self) -> bool:
        return self.status == UNKNOWN

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready cell, used by the repro.obs.export table exporter."""
        record = asdict(self)
        record["aborted"] = self.aborted
        return record

    def time_cell(self) -> str:
        """The paper-style cell: seconds, or ``*`` for an aborted run."""
        if self.aborted:
            return "*"
        return "{:.2f}".format(self.seconds)

    def effort_cell(self) -> str:
        """Search-effort cell (conflicts), ``*`` when aborted."""
        if self.aborted:
            return "*"
        return str(self.conflicts)


def _record(instance: str, config: str, result: SolverResult,
            seconds: float, extra_sim: float = 0.0) -> RunRecord:
    return RunRecord(
        instance=instance, config=config, status=result.status,
        seconds=seconds, sim_seconds=result.sim_seconds + extra_sim,
        conflicts=result.stats.conflicts, decisions=result.stats.decisions,
        propagations=result.stats.propagations,
        implications=result.stats.implications,
        learned_clauses=result.stats.learned_clauses,
        restarts=result.stats.restarts,
        subproblems_run=result.stats.subproblems_solved,
        subproblems_unsat=result.stats.subproblems_unsat)


def run_zchaff_baseline(circuit: Circuit, budget: Optional[float] = None,
                        instance: str = "?") -> RunRecord:
    """The ZChaff column: Tseitin-encode the circuit, solve the CNF."""
    budget = default_budget() if budget is None else budget
    t0 = time.perf_counter()
    formula, _ = tseitin(circuit, objectives=list(circuit.outputs))
    solver = CnfSolver(formula)
    result = solver.solve(limits=Limits(max_seconds=budget))
    return _record(instance, "zchaff", result, time.perf_counter() - t0)


def run_csat(circuit: Circuit,
             config: Union[str, SolverOptions],
             budget: Optional[float] = None,
             instance: str = "?",
             config_name: Optional[str] = None) -> RunRecord:
    """Run the circuit solver under a preset name or explicit options."""
    budget = default_budget() if budget is None else budget
    name = config_name or (config if isinstance(config, str) else "custom")
    options = preset(config) if isinstance(config, str) else config
    solver = CircuitSolver(circuit, options)
    t0 = time.perf_counter()
    result = solver.solve(limits=Limits(max_seconds=budget))
    return _record(instance, name, result, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Table rendering
# ----------------------------------------------------------------------

def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[str]],
                 footnotes: Sequence[str] = ()) -> str:
    """Fixed-width text table in the style of the paper's tables."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt_row(cells):
        return " | ".join(str(c).rjust(w) if i else str(c).ljust(w)
                          for i, (c, w) in enumerate(zip(cells, widths)))

    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * max(len(title), len(sep))]
    lines.append(fmt_row(headers))
    lines.append(sep)
    for row in rows:
        lines.append(fmt_row(row))
    for note in footnotes:
        lines.append(note)
    return "\n".join(lines)


def total_row(label: str, records_by_col: Sequence[Sequence[RunRecord]],
              formatter: Callable[[RunRecord], str] = None) -> List[str]:
    """A "Total" row: per column, the sum of non-aborted seconds (``*`` if
    any run in the column aborted, following the paper's footnote style)."""
    cells = [label]
    for records in records_by_col:
        if any(r.aborted for r in records):
            cells.append("*")
        else:
            cells.append("{:.2f}".format(sum(r.seconds for r in records)))
    return cells


@dataclass
class ShapeCheck:
    """A relative claim from the paper, checked against our measurements."""

    description: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = "[{}] {}".format(mark, self.description)
        if self.detail:
            out += "  ({})".format(self.detail)
        return out


def speedup(baseline: Sequence[RunRecord],
            improved: Sequence[RunRecord]) -> Optional[float]:
    """Total-time speedup over pairs of runs, None if either side aborted.

    Aborted baseline runs are dropped from both sides (the paper's
    sub-totals exclude C6288 for the same reason).
    """
    base_total = 0.0
    new_total = 0.0
    for b, n in zip(baseline, improved):
        if b.aborted or n.aborted:
            continue
        base_total += b.seconds
        new_total += n.seconds
    if new_total <= 0.0 or base_total <= 0.0:
        return None
    return base_total / new_total
