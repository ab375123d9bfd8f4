"""Chaos harness: SIGKILL the process, restart it, prove nothing broke.

Two targets, both driven as real subprocesses of ``python -m repro`` so
the kill is the kill a deployment would actually suffer (no cooperative
cleanup, no atexit, no flushed buffers):

``chaos_serve``
    Loops kill → restart → recover against one serve node and its
    journal.  Every round submits the *same* workload under the *same*
    idempotency keys, then SIGKILLs the node at a seeded random point
    (:class:`repro.runtime.faults.KillPlan`).  A final round lets the
    node drain, then the invariants are checked:

    * **no certified answer lost** — every key has a finished record in
      the journal's live view (which keeps the node's last
      ``--cache-size`` finished jobs; the workload is smaller), and keys
      answered before a kill are served from the recovered cache
      (``cached``/``deduped``), never re-solved;
    * **answers agree** — all responses and journal records for one key
      report the same status (and the same answer digest where present);
    * **replay is deterministic** — folding the journal twice yields the
      same live view.

``chaos_conquer``
    Starts ``repro solve --workers N --checkpoint``, SIGKILLs the driver
    once the checkpoint holds at least one closed cube, reruns with
    ``--resume``, and asserts the resumed run skips the closed cubes and
    still proves the expected answer.

Nothing here is imported by the serving or solving layers — the harness
sits strictly above them (``repro chaos`` CLI and the chaos-smoke CI
job).  Its subprocess plumbing (:func:`free_port`, :func:`spawn_repro`,
:func:`sigkill_group`) also spawns the local serve-node fleet of
:mod:`repro.dist.bench`.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..runtime.faults import KillPlan
from .journal import KIND_FINISHED, read_journal, replay_journal

#: Default workload: three sub-second UNSAT instances plus one that
#: takes a couple of seconds — long enough to usually be in flight when
#: the kill lands.
DEFAULT_INSTANCES = ("c1355.equiv", "c1908.equiv", "c2670.equiv",
                     "mult5.arith")


class ChaosError(ReproError):
    """The harness itself failed (server never came up, etc.) —
    distinct from an invariant violation, which is reported, not
    raised."""


@dataclass
class ChaosReport:
    """What one chaos run did and every invariant it violated."""

    mode: str
    rounds: int = 0
    kills: int = 0
    submitted: int = 0
    answered: int = 0
    replayed: int = 0
    rehydrated: int = 0
    resumed: int = 0
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def as_dict(self) -> Dict[str, Any]:
        return {"mode": self.mode, "ok": self.ok, "rounds": self.rounds,
                "kills": self.kills, "submitted": self.submitted,
                "answered": self.answered, "replayed": self.replayed,
                "rehydrated": self.rehydrated, "resumed": self.resumed,
                "violations": list(self.violations),
                "notes": list(self.notes)}

    def summary(self) -> str:
        verdict = "OK" if self.ok else "{} VIOLATION(S)".format(
            len(self.violations))
        return ("chaos[{}]: {} — {} round(s), {} kill(s), "
                "{} submitted, {} answered".format(
                    self.mode, verdict, self.rounds, self.kills,
                    self.submitted, self.answered))


# ----------------------------------------------------------------------
# Subprocess plumbing
# ----------------------------------------------------------------------

def free_port() -> int:
    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
    finally:
        sock.close()


def _repro_env() -> Dict[str, str]:
    """Child env whose PYTHONPATH can import this very repro package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + current if current else "")
    return env


def spawn_repro(argv: List[str], log_path: str) -> subprocess.Popen:
    """``python -m repro <argv>`` in a new session, output to the log."""
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            stdout=log, stderr=subprocess.STDOUT, env=_repro_env(),
            start_new_session=True)
    finally:
        log.close()


def sigkill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the process group: the process and every child it forked."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        try:
            proc.kill()
        except OSError:
            pass
    proc.wait()


# ----------------------------------------------------------------------
# Serve chaos
# ----------------------------------------------------------------------

def chaos_serve(rounds: int = 2,
                seed: int = 0,
                instances: Optional[List[str]] = None,
                workers: int = 2,
                budget: float = 120.0,
                kill: Optional[KillPlan] = None,
                workdir: Optional[str] = None,
                log=None) -> ChaosReport:
    """Kill → restart → recover loop against one serve node.

    ``rounds`` counts the *killed* generations; one extra generation at
    the end is allowed to drain cleanly before the invariants run.
    ``budget`` bounds the whole final recovery pass.
    """
    from ..serve.client import ServeClient, ServeError

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    kill = kill or KillPlan(min_delay=0.3, max_delay=2.5, seed=seed)
    instances = list(instances or DEFAULT_INSTANCES)
    report = ChaosReport(mode="serve")
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    journal = os.path.join(workdir, "serve.journal")
    log_path = os.path.join(workdir, "serve.log")
    port = free_port()

    def say(message: str) -> None:
        report.notes.append(message)
        if log is not None:
            print(message, file=log)

    #: idempotency key -> instance name; identical across generations,
    #: so a key answered in round 0 must never be solved again.
    keys = {"chaos-{}-{}".format(seed, i): name
            for i, name in enumerate(instances)}
    #: key -> list of (round, status, cached-or-deduped) observations.
    seen: Dict[str, List[Any]] = {key: [] for key in keys}
    #: keys that reached a decisive answer in some earlier generation.
    finished_once: Dict[str, str] = {}

    def start_node() -> subprocess.Popen:
        proc = spawn_repro(["serve", "--host", "127.0.0.1",
                            "--port", str(port), "--workers", str(workers),
                            "--journal", journal], log_path)
        client = ServeClient("127.0.0.1", port, timeout=5.0,
                             retries=8, backoff=0.1, backoff_max=1.0,
                             jitter_seed=seed)
        try:
            client.health()
        except ServeError:
            sigkill_group(proc)
            raise ChaosError("serve node never became healthy "
                             "(see {})".format(log_path))
        return proc

    def observe(rnd: int, key: str, snap: Dict[str, Any]) -> None:
        if snap.get("state") != "DONE":
            return
        result = snap.get("result") or {}
        status = result.get("status")
        if status not in ("SAT", "UNSAT"):
            return
        warm = bool(result.get("cached")) or bool(snap.get("deduped"))
        seen[key].append((rnd, status, warm))
        if key in finished_once and not warm:
            report.violate(
                "key {} was solved again in round {} after finishing "
                "with {} earlier (exactly-once broken)".format(
                    key, rnd, finished_once[key]))
        finished_once.setdefault(key, status)
        report.answered += 1

    proc = None
    try:
        for rnd in range(rounds):
            report.rounds += 1
            proc = start_node()
            client = ServeClient("127.0.0.1", port, timeout=5.0,
                                 retries=4, backoff=0.1, backoff_max=1.0,
                                 jitter_seed=seed + rnd)
            for key, name in keys.items():
                try:
                    snap = client.submit(instance=name, wait=0,
                                         idempotency_key=key)
                    report.submitted += 1
                    observe(rnd, key, snap)
                except ServeError as exc:
                    say("round {}: submit {} failed: {}".format(
                        rnd, key, exc))
            delay = kill.delay_for(rnd)
            say("round {}: killing node after {:.2f}s".format(rnd, delay))
            time.sleep(delay)
            sigkill_group(proc)
            proc = None
            report.kills += 1

        # Final generation: recover, drain every key, shut down cleanly.
        report.rounds += 1
        proc = start_node()
        client = ServeClient("127.0.0.1", port, timeout=10.0,
                             retries=4, backoff=0.1, backoff_max=1.0,
                             jitter_seed=seed + rounds)
        status_doc = client.status()
        recovery = status_doc.get("recovery") or {}
        report.replayed = int(recovery.get("replayed", 0))
        report.rehydrated = int(recovery.get("rehydrated", 0))
        deadline = time.monotonic() + budget
        for key, name in keys.items():
            left = max(1.0, deadline - time.monotonic())
            try:
                snap = client.submit(instance=name, wait=min(left, 60.0),
                                     idempotency_key=key)
                report.submitted += 1
                if snap.get("state") != "DONE":
                    snap = client.wait_for(snap["job"], timeout=left)
                observe(rounds, key, snap)
            except ServeError as exc:
                report.violate("final round: {} never finished: {}".format(
                    key, exc))
        try:
            client.shutdown(drain=True)
        except ServeError:
            pass  # the node may close the socket before responding
        for _ in range(200):
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        else:
            sigkill_group(proc)
            say("final node ignored drain; killed")
        proc = None
    finally:
        if proc is not None:
            sigkill_group(proc)

    _verify_serve_invariants(report, journal, keys, seen)
    return report


def _verify_serve_invariants(report: ChaosReport, journal: str,
                             keys: Dict[str, str],
                             seen: Dict[str, List[Any]]) -> None:
    """Check the durability contract against the journal + observations."""
    # Replay determinism: two independent folds agree exactly.
    state_a = replay_journal(journal)
    state_b = replay_journal(journal)
    if state_a.live_records() != state_b.live_records():
        report.violate("journal replay is not deterministic")

    finished = state_a.finished
    for key in keys:
        record = finished.get(key)
        if record is None:
            report.violate("no certified answer survived for key "
                           "{} (journal has no finished record)".format(key))

    # Answer agreement: every observation and journal record for one key
    # reports the same status; journal digests agree with each other.
    digests: Dict[str, set] = {}
    statuses: Dict[str, set] = {key: set() for key in keys}
    for key, observations in seen.items():
        statuses[key].update(status for _, status, _ in observations)
    skipped: List[int] = []
    for record in read_journal(journal, skipped=skipped):
        if record.get("kind") != KIND_FINISHED:
            continue
        key = record.get("key")
        if key not in keys:
            continue
        if record.get("status") in ("SAT", "UNSAT"):
            statuses[key].add(record["status"])
        if record.get("answer"):
            digests.setdefault(key, set()).add(record["answer"])
    for key in keys:
        if len(statuses[key]) > 1:
            report.violate("key {} has conflicting answers: {}".format(
                key, sorted(statuses[key])))
        if len(digests.get(key, ())) > 1:
            report.violate("key {} has conflicting answer digests".format(
                key))
    if skipped:
        report.notes.append("journal carried {} torn line(s); "
                           "replay skipped them".format(len(skipped)))


# ----------------------------------------------------------------------
# Conquer chaos
# ----------------------------------------------------------------------

def chaos_conquer(instance: str = "mult6.arith",
                  seed: int = 0,
                  workers: int = 2,
                  expected: str = "UNSAT",
                  budget: float = 300.0,
                  workdir: Optional[str] = None,
                  log=None) -> ChaosReport:
    """Kill a checkpointing cube run, resume it, require the full proof.

    The driver is killed only once the checkpoint holds at least one
    closed cube, so the resumed run must both *skip work* (``resumed >
    0``) and still reach ``expected``.
    """
    report = ChaosReport(mode="conquer")
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    checkpoint = os.path.join(workdir, "cube.ckpt")
    log_path = os.path.join(workdir, "conquer.log")
    out_path = os.path.join(workdir, "resume.json")

    def say(message: str) -> None:
        report.notes.append(message)
        if log is not None:
            print(message, file=log)

    report.rounds = 1
    proc = spawn_repro(["solve", "--instance", instance,
                        "--workers", str(workers),
                        "--checkpoint", checkpoint, "--checkpoint-every", "1"],
                       log_path)
    deadline = time.monotonic() + budget / 2
    closed = 0
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            closed = _closed_cubes(checkpoint)
            if closed >= 1:
                break
            time.sleep(0.1)
        if proc.poll() is not None:
            # Finished before we could kill it: the resume leg below
            # still exercises checkpoint loading (all cubes closed).
            say("driver finished before the kill "
                "({} closed)".format(closed))
        else:
            say("killing driver with {} cube(s) closed".format(closed))
            sigkill_group(proc)
            report.kills += 1
            proc = None
    finally:
        if proc is not None and proc.poll() is None:
            sigkill_group(proc)

    if _closed_cubes(checkpoint) < 1:
        report.violate("no usable checkpoint survived the kill")
        return report

    report.rounds += 1
    resume = subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", "--instance", instance,
         "--workers", str(workers), "--resume", checkpoint, "--json"],
        stdout=open(out_path, "wb"), stderr=subprocess.DEVNULL,
        env=_repro_env())
    try:
        resume.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        sigkill_group(resume)
        report.violate("resumed run exceeded its {}s budget".format(budget))
        return report
    try:
        with open(out_path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        report.violate("resumed run produced no JSON report: {}".format(exc))
        return report
    status = (document.get("result") or {}).get("status")
    report.resumed = int(document.get("resumed", 0))
    report.answered = 1 if status in ("SAT", "UNSAT") else 0
    if status != expected:
        report.violate("resumed run answered {} (expected {})".format(
            status, expected))
    if report.kills and report.resumed < 1:
        report.violate("resumed run re-solved every cube "
                       "(checkpoint ignored)")
    say("resume: {} with {} cube(s) skipped".format(status, report.resumed))
    return report


def _closed_cubes(path: str) -> int:
    """Closed-cube count in a checkpoint file; 0 when absent/torn."""
    from .checkpoint import CheckpointError, load_checkpoint
    if not os.path.exists(path):
        return 0
    try:
        return load_checkpoint(path).completed
    except CheckpointError:
        return 0
