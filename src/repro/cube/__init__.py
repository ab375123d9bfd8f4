"""Cube-and-conquer parallel solving.

The cutter (:mod:`repro.cube.cutter`) splits the search space into a
balanced tree of *cubes* — conjunctions of decision literals chosen by a
lookahead heuristic that scores variables by J-frontier membership,
correlation-class membership, fanout, and measured BCP propagation
power.  The cube scheduler (:mod:`repro.cube.conquer`) then solves each
cube under assumptions on endpoints — isolated :mod:`repro.runtime`
workers here, conquer nodes for :mod:`repro.dist` — sharing correlations
and proven lemmas between them (:mod:`repro.cube.sharing`) and pruning
siblings with failed-assumption cores.  Speedup measurement lives in
:mod:`repro.cube.bench`.
"""

from .conquer import (CubeOutcome, CubeReport, PRUNED, REFUTED, SKIPPED,
                      core_cube_literals, prunes, solve_cubes)
from .cutter import Cube, CubeSet, CutterOptions, generate_cubes
from .sharing import (MAX_SHARED_LEMMAS, SharedKnowledge,
                      collect_cnf_lemmas, collect_csat_lemmas,
                      deserialize_classes, inject_csat_lemmas,
                      serialize_classes)

__all__ = [
    "Cube", "CubeOutcome", "CubeReport", "CubeSet", "CutterOptions",
    "MAX_SHARED_LEMMAS", "PRUNED", "REFUTED", "SKIPPED", "SharedKnowledge",
    "collect_cnf_lemmas", "collect_csat_lemmas", "core_cube_literals",
    "deserialize_classes", "generate_cubes", "inject_csat_lemmas",
    "prunes", "serialize_classes", "solve_cubes",
]
