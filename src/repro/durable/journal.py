"""Crash-safe write-ahead journal for the serving layer.

The serve node records every job-lifecycle transition to an append-only
log *before* it becomes externally visible, so a ``kill -9`` can lose at
most work-in-progress — never a certified answer and never the
knowledge that a job was admitted.  The file is a
:class:`~repro.durable.log.DurableLog` of kind ``journal``: a
``{"kind": "journal", "v": 2}`` header (another version is refused,
never misread), then one checksummed record per line:

``{"kind": "admitted", "key": ..., "job": ..., "digest": ..., ...}``
    A request passed admission.  Carries everything needed to rebuild
    and re-admit the request after a crash: the circuit source text,
    engine, preset, limits, priority, label and the idempotency key.
``{"kind": "started", "key": ..., "job": ...}``
    The job reached a worker thread (diagnostic only — a started-but-
    unfinished job replays exactly like a queued one).
``{"kind": "finished", "key": ..., "status": ..., "answer": ...}``
    The job completed.  Decisive answers (SAT/UNSAT) carry the canonical
    model bits and provenance so boot replay can rehydrate the answer
    cache, plus an ``answer`` digest for cross-run consistency checks.
``{"kind": "cancelled", "key": ...}``
    The job was cancelled at shutdown; terminal, never re-admitted.

An ``admitted`` record after its key's terminal record (a client
re-submitting a finished or cancelled key to a restarted server) makes
the key pending again.

Durability contract: every append is fsynced, and ``finished`` records
are appended before the job's result is published to any client, so
every *served* answer survives a crash.  Replay (:func:`replay_journal`)
is a pure read keyed on the idempotency key — running it twice yields
the same state — and drops damaged lines with a count.

Compaction keeps the live view: every finished job's ``admitted`` and
``finished`` records, every ``cancelled`` one, then the pending
``admitted`` records, after the terminal ones so that a re-admitted key
stays pending.  That view grows with every job the server finishes,
so the journal is bounded by the jobs of the server's lifetime (at most
twice the live view plus ``COMPACT_FLOOR`` records), not by its working
set.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.metrics import default_registry
from .log import DurableLog, LogError

#: Journal schema version; bump on any incompatible record change.
JOURNAL_VERSION = 2

#: Record kinds.
KIND_HEADER = "journal"
KIND_ADMITTED = "admitted"
KIND_STARTED = "started"
KIND_FINISHED = "finished"
KIND_CANCELLED = "cancelled"

class JournalError(LogError):
    """A journal could not be read safely (version/format mismatch)."""


def answer_digest(status: str, model_bits: Optional[List[int]]) -> str:
    """Stable digest of a decisive answer (status + canonical bits).

    Used by the recovery invariants: two completions of the same job
    must agree on this digest, and a served answer's digest must still
    be present after a crash-restart cycle.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(status.encode("utf-8"))
    h.update(b"|")
    h.update(",".join(str(b) for b in (model_bits or [])).encode("utf-8"))
    return h.hexdigest()


class Journal:
    """The serve node's write-ahead log; every append is fsynced before
    it returns.  Thread-safe: admission and worker threads append
    concurrently, and compaction folds the file under the log's lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._log = _log(path)

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns it (with its timestamp)."""
        record = {"kind": kind, "t": round(time.time(), 3)}
        record.update(fields)
        self._log.append(record,
                         lambda: replay_journal(self.path).live_records())
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_journal_records_total",
                             "Journal records appended, by kind",
                             labelnames=("kind",)).labels(kind).inc()
        return record

    def compact(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the journal with ``records``.

        The caller supplies the live view (typically
        ``replay_journal(path).live_records()``); a crash during
        compaction leaves either the old or the new file, never a mix.
        """
        self._log.rewrite(records)

    def close(self) -> None:
        self._log.close()


# ----------------------------------------------------------------------
# Reading / replay
# ----------------------------------------------------------------------

def _log(path: str) -> DurableLog:
    return DurableLog(path, KIND_HEADER, JOURNAL_VERSION, JournalError,
                      durable=True)


def read_journal(path: str,
                 skipped: Optional[List[int]] = None) -> List[Dict[str, Any]]:
    """All intact records of a journal file, in order.

    The 1-based numbers of damaged lines go to ``skipped`` when given.
    A header of another version raises :class:`JournalError`.
    """
    return list(_log(path).scan(skipped))


@dataclass
class ReplayState:
    """The journal reduced to its live view, keyed on idempotency key."""

    #: key -> finished record (the latest one; re-finishes must agree).
    finished: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> cancelled record (terminal for that admission).
    cancelled: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> admitted record for jobs with no terminal record since
    #: their last admission — these are re-admitted on boot.
    pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> admitted record for *every* admitted job (terminal or not).
    admitted: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    skipped: int = 0

    def live_records(self) -> List[Dict[str, Any]]:
        """The compacted journal body equivalent to this state; terminal
        records come first, so a key admitted again stays pending."""
        live: List[Dict[str, Any]] = []
        for key, record in self.finished.items():
            admitted = self.admitted.get(key)
            if admitted is not None:
                live.append(admitted)
            live.append(record)
        live.extend(self.cancelled.values())
        live.extend(self.pending.values())
        return live


def replay_journal(path: str,
                   skipped: Optional[List[int]] = None) -> ReplayState:
    """Fold a journal into its live state (a pure, idempotent read)."""
    lines: List[int] = [] if skipped is None else skipped
    state = ReplayState()
    for record in _log(path).scan(lines):
        state.records += 1
        key = record.get("key")
        if not key:
            continue
        kind = record["kind"]
        if kind == KIND_ADMITTED:
            state.admitted[key] = record
            state.pending[key] = record
        elif kind == KIND_FINISHED:
            state.finished[key] = record
            state.pending.pop(key, None)
            state.cancelled.pop(key, None)
        elif kind == KIND_CANCELLED:
            if key not in state.finished:
                state.cancelled[key] = record
            state.pending.pop(key, None)
        # KIND_STARTED is diagnostic only: a started-but-unfinished job
        # replays exactly like a queued one.
    state.skipped = len(lines)
    return state
