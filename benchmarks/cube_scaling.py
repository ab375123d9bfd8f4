#!/usr/bin/env python3
"""Cube-and-conquer scaling record: mult7 at 1, 2 and 4 workers.

Usage::

    PYTHONPATH=src python benchmarks/cube_scaling.py [--instance mult7.arith]
        [--workers 1,2,4] [--budget SECONDS] [--json OUT.json]

Solves the instance once sequentially (one in-process kernel-preset
``CircuitSolver``, explicit phase included) and once per worker count
through ``solve_cubes`` (the cube default: one driver phase, warm kernel
workers), then splits each speedup ``T_seq / T_cubes`` into three
factors whose product it is:

* **search** — ``C_seq / C_cubes``: conflicts saved (total conflicts of
  the conquest, its driver phase included);
* **per-conflict** — ``c_seq / c_cubes``: sequential seconds per conflict
  against busy seconds per conflict in the conquest, where busy is the
  driver phase plus every cube's dispatch-to-answer time;
* **parallel** — busy seconds over wall seconds: the busy fraction times
  the worker count, i.e. how many CPUs the conquest kept working.

The table is labelled with ``cpu_count``.  A cube waiting for a CPU
counts as busy, so with more workers than CPUs the parallel factor
exceeds the CPU count and the per-conflict factor falls by the same
ratio.  mult7 takes minutes per configuration (about four in all on a
2-CPU VM), so this is a recorded measurement, not a CI job.
"""

import argparse
import json
import sys
import time

from repro.bench.instances import instance_by_name
from repro.core.solver import CircuitSolver
from repro.csat.options import preset
from repro.cube import solve_cubes
from repro.obs.export import environment_info


def sequential(circuit, budget):
    from repro.result import Limits
    started = time.perf_counter()
    result = CircuitSolver(circuit, preset("kernel")).solve(
        limits=Limits(max_seconds=budget))
    return {"status": result.status,
            "seconds": time.perf_counter() - started,
            "conflicts": result.stats.conflicts}


def conquest(circuit, workers, budget):
    started = time.perf_counter()
    report = solve_cubes(circuit, workers=workers, budget=budget)
    wall = time.perf_counter() - started
    busy = report.phase_seconds + sum(c.seconds for c in report.cubes)
    return {"workers": workers, "status": report.result.status,
            "seconds": wall, "conflicts": report.result.stats.conflicts,
            "busy_seconds": busy, "cubes": len(report.cubes),
            "phase_seconds": report.phase_seconds,
            "generation_seconds": report.generation_seconds}


def split(seq, run):
    """``speedup == search * per_conflict * parallel``."""
    search = seq["conflicts"] / max(1, run["conflicts"])
    per_conflict = ((seq["seconds"] / max(1, seq["conflicts"]))
                    / (run["busy_seconds"] / max(1, run["conflicts"])))
    parallel = run["busy_seconds"] / run["seconds"]
    return {"speedup": seq["seconds"] / run["seconds"], "search": search,
            "per_conflict": per_conflict, "parallel": parallel,
            "busy_frac": parallel / run["workers"]}


def render(doc):
    env = doc["environment"]
    seq = doc["sequential"]
    lines = ["{} on {} CPU(s) ({}), sequential kernel solve: {} in {:.1f} s, "
             "{} conflicts".format(doc["instance"], env["cpu_count"],
                                   env["cpu_model"], seq["status"],
                                   seq["seconds"], seq["conflicts"]),
             "| workers | wall s | conflicts | cubes | speedup | search "
             "| per-conflict | parallel (busy x workers) |",
             "|---|---|---|---|---|---|---|---|"]
    for run in doc["runs"]:
        f = run["split"]
        lines.append("| {} | {:.1f} | {} | {} | {:.2f}x | {:.2f}x | {:.2f}x "
                     "| {:.2f} ({:.0%} x {}) |".format(
                         run["workers"], run["seconds"], run["conflicts"],
                         run["cubes"], f["speedup"], f["search"],
                         f["per_conflict"], f["parallel"], f["busy_frac"],
                         run["workers"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--instance", default="mult7.arith")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts")
    parser.add_argument("--budget", type=float, default=1200.0,
                        help="wall budget per configuration (seconds)")
    parser.add_argument("--json", help="also write the record here")
    args = parser.parse_args(argv)
    circuit = instance_by_name(args.instance).build()
    seq = sequential(circuit, args.budget)
    runs = []
    for workers in (int(w) for w in args.workers.split(",")):
        run = conquest(circuit, workers, args.budget)
        run["split"] = split(seq, run)
        runs.append(run)
    doc = {"instance": args.instance, "environment": environment_info(),
           "sequential": seq, "runs": runs}
    print(render(doc))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
