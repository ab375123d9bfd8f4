"""Flat-array CDCL kernel (the ``kernel`` preset and the CNF workers).

Layout and rationale are documented in ``docs/internals.md``; in short:
int32 arenas instead of per-clause objects, index-linked watch lists and
a preallocated trail ring.  :class:`KernelEngine` is the circuit engine
behind ``preset("kernel")``; :class:`FlatCnfSolver` is the CNF solver
every ``cnf`` worker runs (cube, dist, serve and portfolio alike).  The
legacy engines remain the differential oracle — see
``tests/test_kernel_differential.py``.

Importing the package loads no numpy: a freshly forked worker pays for
the solver only.  The optional numpy word-parallel simulator lives in
:mod:`repro.kernel.simd`, imported by name where it is wanted.
"""

from .circuit import KernelEngine
from .cnf import FlatCnfSolver
from .flat import FlatSolver

__all__ = [
    "FlatSolver",
    "FlatCnfSolver",
    "KernelEngine",
]
