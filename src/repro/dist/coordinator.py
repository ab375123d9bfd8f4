"""Coordinator: shard one cube tree across remote conquer nodes.

:func:`solve_distributed` is the multi-node sibling of
:func:`repro.cube.solve_cubes`.  Both run :mod:`repro.cube`'s one cube
scheduler — one simulation pass, one lookahead cut, hardest-first
conquest with work stealing, lemma sharing, failed-assumption-core
pruning, retry with reseed, reassignment and checkpointing — but here
every endpoint is a :class:`~repro.dist.node.ConquerNode` HTTP service
whose slots are its workers.  The cube tree is sized by the **total**
worker count across nodes, so adding a node refines the partition
exactly as adding local workers would.

What a remote endpoint adds to the shared loop:

* **Fabric** — each node is probed for its role and worker count before
  the cut, and the circuit is registered on it after (exact-hash
  checked: cube literals must mean the same node numbering on both
  sides).
* **Dispatch** — a slot POSTs its cube with the scheduler's lemma
  snapshot and long-polls for the result, under an idempotency key that
  a work-stealing re-issue shares.  Every result carries the node's
  lemma pool back; a periodic ``/exchange`` heartbeat covers idle
  nodes.
* **Node death** — a transport failure after the client's retry budget
  marks the node dead, and the scheduler reassigns its in-flight cubes
  to the survivors; its salvaged lemmas — anything it pushed before
  dying — stay in the pool.  A restarted (amnesiac) node is registered
  again and the cube requeued.
* **Certification** — SAT models are certified on the node boundary
  *and* re-certified by the scheduler against the coordinator's own
  circuit, so answers are trusted end-to-end without trusting any node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence

from ..circuit.bench_io import write_bench
from ..circuit.netlist import Circuit
from ..csat.options import preset
from ..cube.conquer import (Conquest, CubeReport, EndpointDown, NodeInfo,
                            _conquer, validate_cube_args)
from ..cube.cutter import Cube, CutterOptions
from ..durable.checkpoint import exact_hash
from ..errors import SolverError
from ..obs.metrics import default_registry
from ..result import Limits, SolverResult, UNKNOWN
from ..runtime.supervisor import CERTIFY_SAT
from ..runtime.worker import KIND_CSAT
from ..serve.client import ServeClient, ServeError


@dataclass
class DistReport(CubeReport):
    """Everything one distributed conquest produced."""

    nodes: List[NodeInfo] = field(default_factory=list)
    total_workers: int = 0

    engine: ClassVar[str] = "dist"

    def summary(self) -> str:
        alive = sum(1 for n in self.nodes if n.alive)
        return ("{} [dist] {} cubes over {}/{} nodes ({} closed, "
                "{} pruned, {} stolen, {} reassigned), {} lemmas shared, "
                "{:.3f}s".format(
                    self.result.status, len(self.cubes), alive,
                    len(self.nodes), self.closed, self.pruned, self.steals,
                    self.reassigned, self.lemmas_shared, self.elapsed))

    def as_dict(self) -> Dict[str, Any]:
        return {"summary": self.summary(),
                "nodes": [n.as_dict() for n in self.nodes],
                "total_workers": self.total_workers,
                "cubes": [c.as_dict() for c in self.cubes],
                "generation_seconds": round(self.generation_seconds, 6),
                "lookaheads": self.lookaheads,
                "lemmas_shared": self.lemmas_shared,
                "pruned": self.pruned,
                "duplicates": self.duplicates,
                "steals": self.steals,
                "reassigned": self.reassigned,
                "certified": self.certified,
                "double_counted": self.double_counted,
                "lost": self.lost,
                "elapsed": round(self.elapsed, 6),
                "resumed": self.resumed,
                "result": self.result.as_dict()}

    def end_fields(self) -> Dict[str, Any]:
        fields = super().end_fields()
        fields.update(steals=self.steals, duplicates=self.duplicates,
                      reassigned=self.reassigned)
        return fields

    def record_metrics(self, registry) -> None:
        super().record_metrics(registry)
        registry.counter(
            "repro_dist_steals_total",
            "Cubes re-issued to an idle node").inc(self.steals)
        registry.counter(
            "repro_dist_duplicates_total",
            "Duplicate cube answers discarded").inc(self.duplicates)
        registry.counter(
            "repro_dist_reassigned_total",
            "In-flight cubes reassigned off a dead node").inc(
                self.reassigned)


class _RemoteEndpoint:
    """One conquer node: probe, register, dispatch, poll and exchange."""

    def __init__(self, client: ServeClient, *, kind: str, preset_name: str,
                 backend: str, share_lemmas: bool, exchange_every: float,
                 poll_seconds: float, label: str):
        self.info = NodeInfo(url=client.url)
        self.client = client
        self.kind = kind
        self.preset_name = preset_name
        self.backend = backend
        self.share_lemmas = share_lemmas
        self.exchange_every = exchange_every
        self.poll_seconds = poll_seconds
        self.label = label
        self.cursor = 0       # how much of the node pool we have pulled
        self.sent = 0         # how much of our pool we have pushed
        self.key = ""         # the circuit's exact hash, once open
        self.conquest: Optional[Conquest] = None
        self._heartbeat: Optional[threading.Thread] = None

    def probe(self) -> None:
        """Learn the node's name and worker count (or mark it dead)."""
        try:
            health = self.client.health()
        except ServeError as exc:
            self.info.alive = False
            self.info.detail = str(exc)
            return
        if health.get("role") != "conquer-node":
            self.info.alive = False
            self.info.detail = ("not a conquer node (role {!r})"
                                .format(health.get("role")))
            return
        self.info.name = str(health.get("name") or self.info.url)
        self.info.workers = max(1, int(health.get("workers") or 1))

    def open(self, conquest: Conquest) -> None:
        self.conquest = conquest
        self.key = exact_hash(conquest.circuit)
        if self.register():
            self._heartbeat = threading.Thread(
                target=self._exchange_loop, daemon=True,
                name="dist-exchange-{}".format(self.info.name))
            self._heartbeat.start()

    def register(self) -> bool:
        conquest = self.conquest
        try:
            reply = self.client.call("POST", "/circuit", body={
                "circuit": write_bench(conquest.circuit), "format": "bench",
                "objectives": conquest.objectives,
                "classes": conquest.knowledge.classes, "label": self.label})
        except ServeError as exc:
            self.info.alive = False
            self.info.detail = "register failed: {}".format(exc)
            return False
        if reply.get("key") != self.key:
            self.info.alive = False
            self.info.detail = ("circuit hash mismatch after transfer "
                                "({} != {})".format(reply.get("key"),
                                                    self.key))
            return False
        return True

    def solve(self, cube: Cube, attempt: int,
              lemmas: Optional[List[List[int]]],
              limits: Optional[Limits]) -> Optional[Dict[str, Any]]:
        """POST one cube and poll it to a terminal state; None when the
        poll was abandoned (run decided, budget spent) or the node lost
        the circuit and was registered again."""
        conquest = self.conquest
        tracer = conquest.tracer
        span = None
        if tracer is not None and conquest.span is not None:
            span = conquest.span.child()
            fields = span.as_fields()
            fields.update(name="dispatch", node=self.info.name,
                          cube=cube.index, attempt=attempt)
            tracer.emit("span_start", **fields)
        key = "cube-{}-{}-a{}".format(self.key[:12], cube.index, attempt)
        body: Dict[str, Any] = {
            "key": self.key, "cube": list(cube.literals), "attempt": attempt,
            "idempotency_key": key, "wait": self.poll_seconds,
            "kind": self.kind, "preset": self.preset_name,
            "backend": self.backend,
        }
        if limits is not None:
            body["limits"] = {"max_seconds": limits.max_seconds,
                              "max_conflicts": limits.max_conflicts,
                              "max_decisions": limits.max_decisions}
        if lemmas is not None:
            body["lemmas"] = lemmas
            with conquest.lock:
                self.info.lemmas_sent += len(lemmas)
        if span is not None:
            body["trace_id"] = span.trace_id
            body["parent_span"] = span.span_id
        registry = default_registry()
        if registry is not None:
            registry.counter(
                "repro_dist_dispatch_total",
                "Cube dispatches to conquer nodes",
                labelnames=("node",)).labels(self.info.name).inc()
        status = "error"
        try:
            snap = self.client.call(
                "POST", "/conquer", body=body,
                timeout=self.poll_seconds + self.client.timeout)
            if snap.get("deduped") and tracer is not None:
                tracer.emit("dist_dedup", node=self.info.name,
                            cube=cube.index, key=key)
            while snap.get("state") not in ("DONE", "CANCELLED"):
                left = conquest.remaining()
                if conquest.stop.is_set() or (left is not None
                                              and left <= 0):
                    break
                wait = self.poll_seconds if left is None \
                    else max(0.1, min(self.poll_seconds, left))
                snap = self.client.call(
                    "GET", "/result/{}?wait={:g}".format(snap["job"], wait),
                    timeout=wait + self.client.timeout)
            result = snap.get("result") if snap.get("state") == "DONE" \
                else None
            status = (result or {}).get("status") or "abandoned"
            return result
        except ServeError as exc:
            if exc.code == "unknown-circuit" and self.register():
                return None  # restarted (amnesiac) node: requeue the cube
            raise EndpointDown(str(exc)) from exc
        finally:
            if span is not None:
                tracer.emit("span_end", span=span.span_id, status=status)

    def _exchange_loop(self) -> None:
        """Heartbeat: push fresh pool entries, pull the node's."""
        conquest = self.conquest
        while not conquest.stop.wait(self.exchange_every):
            if not self.info.alive:
                return
            with conquest.lock:
                lemmas = conquest.knowledge.lemmas
                batch = ([list(c) for c in lemmas[self.sent:]]
                         if self.share_lemmas else [])
                sent_cursor = len(lemmas)
            try:
                reply = self.client.call(
                    "POST", "/exchange",
                    body={"key": self.key, "lemmas": batch,
                          "since": self.cursor},
                    retries=0, timeout=min(10.0, self.client.timeout))
            except ServeError:
                continue  # the dispatch path decides liveness
            self.sent = sent_cursor
            with conquest.lock:
                self.info.lemmas_sent += len(batch)
            self.cursor = int(reply.get("next") or self.cursor)
            conquest.absorb(reply.get("lemmas"), self.info)
            registry = default_registry()
            if registry is not None and batch:
                registry.counter(
                    "repro_dist_lemmas_exchanged_total",
                    "Lemmas sent to conquer nodes by the heartbeat",
                    labelnames=("direction",)).labels("sent").inc(
                        len(batch))

    def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.join(self.exchange_every + 1.0)


def solve_distributed(circuit: Circuit,
                      objectives: Optional[Sequence[int]] = None,
                      *,
                      nodes: Sequence[str],
                      kind: str = KIND_CSAT,
                      preset_name: str = "implicit",
                      backend: str = "legacy",
                      cutter: Optional[CutterOptions] = None,
                      budget: Optional[float] = None,
                      limits: Optional[Limits] = None,
                      certify: str = CERTIFY_SAT,
                      share_lemmas: bool = True,
                      exchange_every: float = 1.0,
                      steal_after: float = 1.0,
                      max_retries: int = 1,
                      sim_seed: Optional[int] = None,
                      trace=None,
                      checkpoint_path: Optional[str] = None,
                      checkpoint_every: int = 8,
                      resume_from: Optional[str] = None,
                      client_timeout: float = 30.0,
                      client_retries: int = 2,
                      poll_seconds: float = 5.0,
                      label: str = "dist") -> DistReport:
    """Cube-and-conquer ``circuit`` across remote conquer ``nodes``.

    Never raises for node or worker misbehaviour once the fabric is up —
    failed cubes and dead nodes degrade the answer to UNKNOWN at worst
    and are recorded in the report.  Raises :class:`SolverError` when no
    node is reachable at startup, and
    :class:`repro.durable.checkpoint.CheckpointError` for a checkpoint
    that does not belong to this instance.
    """
    validate_cube_args(kind, certify, budget, limits)
    options = preset(preset_name)
    if sim_seed is not None:
        options = options.replace(sim_seed=sim_seed)
    endpoints = [_RemoteEndpoint(
        ServeClient.from_url(url, timeout=client_timeout,
                             retries=client_retries),
        kind=kind, preset_name=preset_name, backend=backend,
        share_lemmas=share_lemmas, exchange_every=exchange_every,
        poll_seconds=poll_seconds, label=label) for url in nodes]
    if not endpoints:
        raise SolverError("distributed solve needs at least one node URL")
    report = DistReport(result=SolverResult(status=UNKNOWN),
                        nodes=[e.info for e in endpoints])

    def connect(tracer) -> List[_RemoteEndpoint]:
        for endpoint in endpoints:
            endpoint.probe()
        alive = [e for e in endpoints if e.info.alive]
        if not alive:
            raise SolverError("no conquer node reachable: {}".format(
                "; ".join("{} ({})".format(e.info.url, e.info.detail)
                          for e in endpoints)))
        report.total_workers = sum(e.info.workers for e in alive)
        if tracer is not None:
            tracer.emit("dist_fabric", nodes=len(alive),
                        total_workers=report.total_workers,
                        urls=[e.info.url for e in alive])
        return alive

    return _conquer(
        circuit, objectives, report, connect, trace=trace,
        span_fields={"nodes": len(nodes)}, options=options, cutter=cutter,
        budget=budget, limits=limits, certify=certify,
        share_lemmas=share_lemmas, max_retries=max_retries,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume_from=resume_from, steal_after=steal_after)
