"""Cube-and-conquer parallel solving.

The conquer driver (:mod:`repro.cube.conquer`) runs the explicit phase
once on the flat kernel; the cutter (:mod:`repro.cube.cutter`) then
splits the search space, on that engine, into a balanced tree of
*cubes* — conjunctions of decision literals chosen by a lookahead
heuristic that scores variables by J-frontier membership,
correlation-class membership, fanout, and measured BCP propagation
power.  The cube scheduler solves each cube under assumptions on
endpoints — warm :mod:`repro.runtime` workers here, serve nodes for
:mod:`repro.dist`, every one running the flat kernel — sharing the
phase's clauses and proven lemmas with them (:mod:`repro.cube.sharing`)
and pruning siblings with failed-assumption cores.  perfbench's
``conquer_mult`` workload measures the conquest end to end.
"""

from .conquer import (CubeOutcome, CubeReport, PRUNED, REFUTED, SKIPPED,
                      core_cube_literals, prunes, solve_cubes)
from .cutter import Cube, CubeSet, CutterOptions, generate_cubes
from .sharing import (MAX_SHARED_LEMMAS, SharedKnowledge,
                      collect_csat_lemmas, inject_csat_lemmas)

__all__ = [
    "Cube", "CubeOutcome", "CubeReport", "CubeSet", "CutterOptions",
    "MAX_SHARED_LEMMAS", "PRUNED", "REFUTED", "SKIPPED", "SharedKnowledge",
    "collect_csat_lemmas", "core_cube_literals", "generate_cubes",
    "inject_csat_lemmas", "prunes", "solve_cubes",
]
