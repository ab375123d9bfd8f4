"""Configuration for the circuit solver.

Every knob the paper describes (or ablates) is explicit here so that the
benchmark harness can express each table's solver configurations as option
presets — see :func:`preset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..errors import SolverError

ORDER_TOPOLOGICAL = "topological"
ORDER_REVERSE = "reverse"
ORDER_RANDOM = "random"

_ORDERINGS = (ORDER_TOPOLOGICAL, ORDER_REVERSE, ORDER_RANDOM)


@dataclass
class SolverOptions:
    """Options for :class:`~repro.core.solver.CircuitSolver`.

    Decision engine
    ---------------
    use_jnode
        Restrict decision candidates to inputs of justification-frontier
        gates (the paper's C-SAT-Jnode).  Off = plain VSIDS over all signals
        (the paper's C-SAT).
    jnode_learned
        Treat learned gates as J-nodes, i.e. variables of learned clauses
        stay decision candidates.  The paper: "if we did not treat the
        learned gates as J-nodes, the performance would degrade
        significantly."  Only meaningful with ``use_jnode``.

    Correlation learning
    --------------------
    implicit_learning
        Algorithm IV.1: group correlated signals in decision selection and
        pick conflict-inducing values.
    explicit_learning
        Section V: solve a sequence of likely-UNSAT sub-problems first.
    explicit_order
        ``topological`` (paper's default), ``reverse`` or ``random``
        (Table VI ablation).
    explicit_fraction
        Do only the first fraction of sub-problems by topological position
        (Tables VIII/IX; 1.0 = all).
    explicit_learn_limit
        Abort each sub-problem after accumulating this many learned gates
        (paper: 10).  ``None`` = solve each sub-problem completely.
    explicit_use_pairs / explicit_use_consts
        Which correlation types drive sub-problems ("Signal Pair" vs
        "Signal Vs. 0" columns of Table V).
    explicit_both_polarities
        Generate both conflicting value assignments per correlated pair.

    Correlation discovery
    ---------------------
    sim_seed / sim_width / sim_stall_rounds / sim_max_rounds / max_class_size
        Passed to :func:`repro.sim.correlation.find_correlations`.

    Restarts (paper Section IV-A)
    -----------------------------
    restart_window
        Number of backtracks over which the average back-jump length is
        computed (paper: 4096).
    restart_threshold
        Restart when the window average drops below this (paper: 1.2).

    Observability (repro.obs)
    -------------------------
    trace
        ``None`` (off, the zero-overhead default), a path, a writable
        file object, or a :class:`repro.obs.Tracer`: structured JSONL
        event tracing of the search.
    phase_timers
        Split wall time into bcp / analyze / clause_db / decision and
        report it as ``SolverResult.phase_seconds``.  Implied by
        ``trace``.
    progress_interval / progress
        Every ``progress_interval`` conflicts (0 = never) build a
        :class:`repro.obs.ProgressSnapshot` and pass it to the
        ``progress`` callback (also emitted to the trace when one is
        attached).
    """

    # Search backend: "legacy" is the object-graph CSatEngine; "kernel" is
    # the flat-array CDCL core (repro.kernel) — same verdicts, same
    # certification, several times faster per conflict.  The kernel runs
    # explicit learning; J-node decisions and implicit learning require
    # the legacy engine.
    backend: str = "legacy"
    # Decision engine.
    use_jnode: bool = True
    jnode_learned: bool = True
    # Correlation learning.
    implicit_learning: bool = False
    explicit_learning: bool = False
    explicit_order: str = ORDER_TOPOLOGICAL
    explicit_fraction: float = 1.0
    explicit_learn_limit: Optional[int] = 10
    explicit_use_pairs: bool = True
    explicit_use_consts: bool = True
    explicit_both_polarities: bool = True
    explicit_order_seed: int = 7
    # Correlation discovery.
    sim_seed: int = 1
    sim_width: int = 64
    sim_stall_rounds: int = 4
    sim_max_rounds: int = 256
    max_class_size: int = 3
    # VSIDS.
    var_decay: float = 0.95
    clause_decay: float = 0.999
    # Restarts.
    restart_enabled: bool = True
    restart_window: int = 4096
    restart_threshold: float = 1.2
    # Learned-clause deletion.
    learnt_limit_base: float = 2000.0
    learnt_limit_growth: float = 1.1
    # Certification (repro.verify): replay every SAT model through
    # independent simulation/CNF evaluation and every UNSAT answer through
    # the DRUP checker; raises CertificationError on mismatch.  A proof log
    # is attached automatically when none was supplied.
    certify: bool = False
    # Observability (repro.obs).
    trace: Optional[Any] = None
    phase_timers: bool = False
    progress_interval: int = 0
    progress: Optional[Callable] = None

    def validate(self) -> None:
        if self.backend not in ("legacy", "kernel"):
            raise SolverError("backend must be 'legacy' or 'kernel'")
        if self.backend == "kernel" and (self.use_jnode
                                         or self.implicit_learning):
            raise SolverError("the kernel backend runs explicit learning "
                              "only: J-node decisions and implicit "
                              "learning need backend='legacy'")
        if self.progress_interval < 0:
            raise SolverError("progress_interval must be >= 0")
        if self.explicit_order not in _ORDERINGS:
            raise SolverError("explicit_order must be one of {}"
                              .format(_ORDERINGS))
        if not 0.0 <= self.explicit_fraction <= 1.0:
            raise SolverError("explicit_fraction must be within [0, 1]")
        if self.restart_window <= 0:
            raise SolverError("restart_window must be positive")

    def replace(self, **kwargs) -> "SolverOptions":
        """A copy with the given fields changed."""
        return replace(self, **kwargs)


#: The preset a served solve runs when its request names none: the
#: serve scheduler, the ``/submit`` body and journal recovery default to
#: it, and the portfolio's default ladder starts with it.
DEFAULT_PRESET = "kernel"


def preset(name: str, **overrides) -> SolverOptions:
    """Named solver configurations matching the paper's table columns.

    ``csat``            plain VSIDS circuit solver (Table I "C-SAT")
    ``csat-jnode``      J-node decisions (Table I "C-SAT-Jnode")
    ``implicit``        + implicit correlation learning (Table III)
    ``explicit``        + explicit learning, both correlation types (Table V)
    ``explicit-pair``   explicit learning on signal pairs only
    ``explicit-const``  explicit learning on vs-constant correlations only
    ``kernel``          flat-array CDCL core (repro.kernel) + explicit
                        learning with the paper's defaults
    """
    presets = {
        "csat": SolverOptions(use_jnode=False),
        "kernel": SolverOptions(backend="kernel", use_jnode=False,
                                explicit_learning=True),
        "csat-jnode": SolverOptions(use_jnode=True),
        "implicit": SolverOptions(use_jnode=True, implicit_learning=True),
        "explicit": SolverOptions(use_jnode=True, implicit_learning=True,
                                  explicit_learning=True),
        "explicit-pair": SolverOptions(use_jnode=True, implicit_learning=True,
                                       explicit_learning=True,
                                       explicit_use_consts=False),
        "explicit-const": SolverOptions(use_jnode=True, implicit_learning=True,
                                        explicit_learning=True,
                                        explicit_use_pairs=False),
    }
    try:
        base = presets[name]
    except KeyError:
        raise SolverError("unknown preset {!r}; choose from {}".format(
            name, sorted(presets)))
    return base.replace(**overrides) if overrides else base
