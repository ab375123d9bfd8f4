"""Distributed conquer fabric: multi-node cube sharding.

``repro.dist`` scales cube-and-conquer past one machine:

* :class:`~repro.dist.node.ConquerNode` — a thin JSON-over-HTTP service
  wrapping the :mod:`repro.runtime` isolated worker pool.  It solves one
  cube per request (an assumption solve under hard limits), seeded with
  the lemmas the request carries.
* :func:`~repro.dist.coordinator.solve_distributed` — runs the
  :mod:`repro.cube` scheduler with each node as a remote endpoint: one
  cube tree sized by the *total* worker count across nodes, hardest-first
  dispatch, work stealing, cluster-wide failed-assumption core pruning,
  and one lemma pool that dispatches seed from and results feed.

The wire protocol reuses :mod:`repro.serve`'s conventions — structured
``{"error": {code, message}}`` envelopes, 400 versus 503 admission
mapping, idempotency keys (a 409 when one names another cube) — so
:class:`repro.serve.client.ServeClient` is the transport for both
fabrics.
"""

from .coordinator import DistReport, NodeInfo, solve_distributed
from .node import ConquerNode

__all__ = ["ConquerNode", "DistReport", "NodeInfo", "solve_distributed"]
