"""A local conquer-node fleet, and the node-kill round that uses it.

:func:`launch_local_nodes` starts real ``repro conquer-node``
subprocesses on localhost and waits for each ``/health``; the fleet
backs ``repro dist --spawn-local``, the dist tests, the dist-smoke CI
job and perfbench's ``conquer_mult`` workload.  Process plumbing is
:mod:`repro.durable.chaos`'s, so a node is killed the way the chaos
harness kills: SIGKILL to its whole process group.

:func:`kill_round` SIGKILLs one of two nodes mid-conquest and asserts
the answer still lands: the dead node's in-flight cubes are reassigned,
no cube result is lost, and no answer is double-counted.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from ..bench.instances import instance_by_name
from ..durable.chaos import free_port, sigkill_group, spawn_repro
from ..serve.client import ServeClient, ServeError
from .coordinator import solve_distributed

DEFAULT_WORKERS_PER_NODE = 2
KILL_INSTANCE = "mult6.arith"


class LocalNode:
    """One ``repro conquer-node`` subprocess and its address."""

    def __init__(self, proc: subprocess.Popen, url: str, log_path: str):
        self.proc = proc
        self.url = url
        self.log_path = log_path

    def sigkill(self) -> None:
        """Kill the whole process group — node and in-flight workers."""
        sigkill_group(self.proc)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.sigkill()


def launch_local_nodes(count: int,
                       workers: int = DEFAULT_WORKERS_PER_NODE,
                       *,
                       preset: str = "implicit",
                       backend: str = "legacy",
                       workdir: Optional[str] = None,
                       startup_timeout: float = 30.0) -> List[LocalNode]:
    """Spawn ``count`` conquer-node subprocesses and wait for /health."""
    workdir = workdir or tempfile.mkdtemp(prefix="repro-dist-")
    nodes: List[LocalNode] = []
    try:
        for i in range(count):
            port = free_port()
            log_path = os.path.join(workdir, "node-{}.log".format(i))
            proc = spawn_repro(
                ["conquer-node", "--port", str(port),
                 "--workers", str(workers), "--preset", preset,
                 "--backend", backend, "--name", "bench-node-{}".format(i)],
                log_path)
            nodes.append(LocalNode(proc, "http://127.0.0.1:{}".format(port),
                                   log_path))
        deadline = time.monotonic() + startup_timeout
        for node in nodes:
            client = ServeClient.from_url(node.url, timeout=2.0)
            while True:
                try:
                    if client.health().get("role") == "conquer-node":
                        break
                except ServeError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "conquer node at {} did not come up within "
                        "{:g}s (log: {})".format(node.url, startup_timeout,
                                                 node.log_path))
                if node.proc.poll() is not None:
                    raise RuntimeError(
                        "conquer node at {} exited with {} (log: {})"
                        .format(node.url, node.proc.returncode,
                                node.log_path))
                time.sleep(0.2)
        return nodes
    except Exception:
        for node in nodes:
            node.stop()
        raise


def kill_round(instance: str = KILL_INSTANCE,
               *,
               workers_per_node: int = DEFAULT_WORKERS_PER_NODE,
               kill_after: float = 3.0,
               budget: Optional[float] = None,
               **solve_kwargs) -> Dict[str, Any]:
    """SIGKILL one of two nodes mid-run; the answer must still land.

    The report asserts the fabric's delivery contract after node loss:
    ``lost == 0`` (every cube reached a terminal outcome) and
    ``double_counted == 0`` (no cube result was applied twice).
    """
    inst = instance_by_name(instance)
    circuit = inst.build()
    fleet = launch_local_nodes(2, workers_per_node)
    killed: Dict[str, Any] = {}

    def assassin() -> None:
        victim = fleet[1]
        killed["url"] = victim.url
        killed["at_seconds"] = round(time.perf_counter() - t0, 3)
        victim.sigkill()

    timer = threading.Timer(kill_after, assassin)
    try:
        t0 = time.perf_counter()
        timer.start()
        report = solve_distributed(circuit,
                                   nodes=[n.url for n in fleet],
                                   budget=budget,
                                   # Fail fast on the dead node so the
                                   # round measures reassignment, not
                                   # client backoff.
                                   client_timeout=5.0, client_retries=1,
                                   poll_seconds=2.0,
                                   **solve_kwargs)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        for node in fleet:
            node.stop()
    survivors = [n for n in report.nodes if n.alive]
    return {
        "instance": instance,
        "expected": inst.expected,
        "status": report.result.status,
        "seconds": round(wall, 4),
        "killed_node": killed.get("url"),
        "killed_at_seconds": killed.get("at_seconds"),
        "nodes_lost": sum(1 for n in report.nodes if not n.alive),
        "survivors": len(survivors),
        "cubes": len(report.cubes),
        "reassigned": report.reassigned,
        "duplicates_discarded": report.duplicates,
        "double_counted": report.double_counted,
        "lost": report.lost,
        "ok": (report.result.status == inst.expected
               and report.lost == 0 and report.double_counted == 0),
    }
