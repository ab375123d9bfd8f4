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

The live view, what a compaction keeps, is every pending ``admitted``
record plus the most recent terminal records (each key's last
``finished`` record, or its ``cancelled`` one if it never finished),
and no ``admitted`` record of a terminated job.  The serve node keeps
as many terminal records as its answer cache keeps entries, so the
journal is bounded by the server's working set (at most twice the live
view plus ``COMPACT_FLOOR`` records), not by the jobs of its lifetime.
The journal folds its file into that view once, when it is opened, then
each record it appends, so a compaction writes the view without reading
the file.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
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
    concurrently, and each append folds its record into the live view,
    in file order, under the journal's lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._log = _log(path)
        self._lock = threading.Lock()
        #: The live view: the file folded once here, then every append.
        self._state = replay_journal(path)

    def recover(self, keep: Optional[int]) -> Optional[ReplayState]:
        """Boot: keep the ``keep`` most recent terminal records from now
        on, compact the file to that view, and return a copy of it (None
        when there is no file)."""
        with self._lock:
            self._state.bound(keep)
            if not os.path.exists(self.path):
                return None
            # Drop superseded records and any torn line a crash left.
            self._log.rewrite(self._state.live_records())
            return self._state.copy()

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns it (with its timestamp)."""
        record = {"kind": kind, "t": round(time.time(), 3)}
        record.update(fields)
        with self._lock:
            # Folded first, so a compaction this append triggers keeps
            # it; a failed write leaves the view ahead of the file, and
            # the next compaction writes the record.
            self._state.fold(record)
            self._log.append(record, self._state.live_records)
        registry = default_registry()
        if registry is not None:
            registry.counter("repro_journal_records_total",
                             "Journal records appended, by kind",
                             labelnames=("kind",)).labels(kind).inc()
        return record

    def live_records(self) -> List[Dict[str, Any]]:
        """The live view: what a compaction would write now."""
        with self._lock:
            return self._state.live_records()

    def live_count(self) -> int:
        """The number of records in the live view."""
        with self._lock:
            return len(self._state.terminal) + len(self._state.pending)

    def compact(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the journal with ``records``, which become
        its live view; a crash during compaction leaves either the old
        or the new file, never a mix."""
        with self._lock:
            state = ReplayState(keep=self._state.keep)
            for record in records:
                state.fold(record)
            self._log.rewrite(records)
            self._state = state

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

    #: Terminal records kept, the most recent ones (None: every one).
    keep: Optional[int] = None
    #: key -> the key's terminal record, oldest first: its latest
    #: finished record, or its cancelled one if it never finished
    #: (finished beats cancelled).
    terminal: "OrderedDict[str, Dict[str, Any]]" = field(
        default_factory=OrderedDict)
    #: key -> admitted record for jobs with no terminal record since
    #: their last admission — these are re-admitted on boot.
    pending: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    skipped: int = 0

    @property
    def finished(self) -> Dict[str, Dict[str, Any]]:
        """key -> finished record, for the kept terminal records."""
        return {key: record for key, record in self.terminal.items()
                if record["kind"] == KIND_FINISHED}

    @property
    def cancelled(self) -> Dict[str, Dict[str, Any]]:
        """key -> cancelled record, for the kept terminal records."""
        return {key: record for key, record in self.terminal.items()
                if record["kind"] == KIND_CANCELLED}

    def fold(self, record: Dict[str, Any]) -> None:
        """Apply one record, in file order."""
        self.records += 1
        key = record.get("key")
        if not key:
            return
        kind = record.get("kind")
        if kind == KIND_ADMITTED:
            self.pending[key] = record
        elif kind in (KIND_FINISHED, KIND_CANCELLED):
            self.pending.pop(key, None)
            held = self.terminal.get(key)
            if (kind == KIND_CANCELLED and held is not None
                    and held["kind"] == KIND_FINISHED):
                return
            self.terminal[key] = record
            self.terminal.move_to_end(key)
            self._trim()
        # KIND_STARTED is diagnostic only: a started-but-unfinished job
        # replays exactly like a queued one.

    def bound(self, keep: Optional[int]) -> None:
        """Keep the ``keep`` most recent terminal records (None: every
        one), now and after every later fold."""
        self.keep = keep
        self._trim()

    def _trim(self) -> None:
        while self.keep is not None and len(self.terminal) > self.keep:
            self.terminal.popitem(last=False)

    def copy(self) -> "ReplayState":
        """A snapshot that later folds into this state leave alone."""
        return replace(self, terminal=OrderedDict(self.terminal),
                       pending=dict(self.pending))

    def live_records(self) -> List[Dict[str, Any]]:
        """The compacted journal body equivalent to this state; terminal
        records come first, so a key admitted again stays pending."""
        return list(self.terminal.values()) + list(self.pending.values())


def replay_journal(path: str, skipped: Optional[List[int]] = None,
                   keep: Optional[int] = None) -> ReplayState:
    """Fold a journal into its live state (a pure, idempotent read),
    keeping the ``keep`` most recent terminal records (None: all)."""
    lines: List[int] = [] if skipped is None else skipped
    state = ReplayState(keep=keep)
    for record in _log(path).scan(lines):
        state.fold(record)
    state.skipped = len(lines)
    return state
