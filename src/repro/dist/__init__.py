"""Distributed conquer fabric: multi-node cube sharding.

``repro.dist`` scales cube-and-conquer past one machine.  A node is a
serve node (:class:`repro.serve.server.ReproServer`, ``repro serve``):
beside whole-circuit solves it takes a coordinator's registration
(``POST /circuit``) and solves one cube per request (``POST
/conquer``) as a job of its one scheduler, an assumption solve on a warm
worker under hard limits, seeded with the lemmas the request carries.

:func:`~repro.dist.coordinator.solve_distributed` runs the
:mod:`repro.cube` scheduler with each node as a remote endpoint: one
cube tree sized by the *total* worker count across nodes, hardest-first
dispatch, work stealing, cluster-wide failed-assumption core pruning,
and one lemma pool that dispatches seed from and results feed.
:func:`~repro.dist.bench.launch_local_nodes` starts a fleet of serve
nodes on localhost.

The wire protocol is :mod:`repro.serve`'s — structured ``{"error":
{code, message}}`` envelopes, 400/409/503 admission mapping, idempotency
keys (a 409 when one names another cube) — and
:class:`repro.serve.client.ServeClient` is its transport.
"""

from .coordinator import DistReport, NodeInfo, solve_distributed

__all__ = ["DistReport", "NodeInfo", "solve_distributed"]
