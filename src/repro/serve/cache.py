"""The answer cache: semantic result reuse with a re-certification gate.

Entries are keyed by ``(fingerprint digest, limits class, engine)`` —
see :func:`limits_class` — and hold *decisive* answers only (SAT with a
canonical-bit model, or UNSAT with engine/stats provenance); UNKNOWN is
never cached because it only describes one budget's worth of failure.

Soundness contract
------------------

The fingerprint is a hash, and a hash can collide (or a bug could let
two inequivalent circuits normalize together), so the cache **never
trusts itself for SAT**: before a cached SAT entry is served, its
canonical input bits are mapped onto the requesting circuit's inputs and
replayed through :func:`repro.verify.certify.certify_sat_model` (an
independent simulator + Tseitin evaluation).  An entry that fails the
replay is *evicted* — from memory and from the on-disk store — and the
request falls through to a real solve.  Tampering with the persisted
JSONL therefore degrades to a cache miss, never to a wrong answer.

UNSAT entries cannot be re-certified in O(model) time, so they rely on
the digest plus the provenance they record (engine, stats, solve time);
the serving layer's differential tests cover this path, and a paranoid
deployment can disable UNSAT caching entirely (``cache_unsat=False``).

Persistence is a checksummed :class:`~repro.durable.log.DurableLog`
(kind ``answer-cache``): a bit-rotted line, say an ``UNSAT`` that became
``UNSAU``, is dropped at load and counted in ``damaged``, never served.
Loads replay it (last write wins) through the check :meth:`restore`
applies; stores append unfsynced; growth and rejections rewrite it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..circuit.netlist import Circuit
from ..durable.log import DurableLog
from ..result import Limits, SAT, UNSAT
from .fingerprint import Fingerprint, bits_to_model, model_to_bits

#: Key part for "no cooperative budget attached".
UNLIMITED = "unlimited"

#: Cache file schema version; bump on any incompatible record change.
CACHE_VERSION = 1
KIND_HEADER = "answer-cache"


def limits_class(limits: Optional[Limits]) -> str:
    """Canonical string for a request's budget class.

    Decisive answers are budget-independent, but keying on the budget
    class keeps a small-budget deployment's hit-rate accounting honest
    (a 1-second and a 7200-second request are different service classes)
    and makes cache behaviour reproducible per request shape.
    """
    if limits is None:
        return UNLIMITED
    parts = []
    for tag, value in (("c", limits.max_conflicts),
                       ("d", limits.max_decisions),
                       ("s", limits.max_seconds)):
        if value is not None:
            parts.append("{}{:g}".format(tag, value))
    return "-".join(parts) or UNLIMITED


@dataclass
class CacheEntry:
    """One decisive answer, stored circuit-independently."""

    digest: str
    limits: str
    engine: str
    status: str
    model_bits: Optional[List[int]] = None   # SAT only: canonical input bits
    provenance: Dict[str, Any] = field(default_factory=dict)
    created: float = field(default_factory=time.time)
    hits: int = 0

    @property
    def key(self) -> str:
        return make_key(self.digest, self.limits, self.engine)

    def as_dict(self) -> Dict[str, Any]:
        return {"digest": self.digest, "limits": self.limits,
                "engine": self.engine, "status": self.status,
                "model_bits": self.model_bits,
                "provenance": self.provenance,
                "created": self.created, "hits": self.hits}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "CacheEntry":
        return cls(digest=record["digest"], limits=record["limits"],
                   engine=record["engine"], status=record["status"],
                   model_bits=record.get("model_bits"),
                   provenance=dict(record.get("provenance") or {}),
                   created=float(record.get("created", 0.0)),
                   hits=int(record.get("hits", 0)))


def make_key(digest: str, limits: str, engine: str) -> str:
    return "{}|{}|{}".format(digest, limits, engine)


class AnswerCache:
    """In-memory LRU of :class:`CacheEntry` with an optional JSONL store.

    Thread-safe: the scheduler's worker threads and the admission path
    hit it concurrently.
    """

    def __init__(self, max_entries: int = 512,
                 store_path: Optional[str] = None,
                 cache_unsat: bool = True):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.store_path = store_path
        self.cache_unsat = cache_unsat
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0   # entries evicted by failed re-certification
        self.damaged = 0    # file lines dropped at load (torn/bit-rotted)
        self._log = (DurableLog(store_path, KIND_HEADER, CACHE_VERSION)
                     if store_path else None)
        if self._log is not None:
            self._load()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def lookup(self, circuit: Circuit, fp: Fingerprint,
               limits: Optional[Limits], engine: str
               ) -> Optional[Dict[str, Any]]:
        """Certified cache lookup; None on miss or failed certification.

        Returns a result-shaped dict (``status``, ``model``, provenance,
        ``cached: True``); SAT models are in *request-circuit* node ids,
        already re-certified against ``circuit``.
        """
        key = make_key(fp.digest, limits_class(limits), engine)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            with self._lock:
                self.misses += 1
            return None
        model = None
        if entry.status == SAT:
            try:
                model = bits_to_model(fp, entry.model_bits or [])
            except ValueError:
                self._reject(key, "model width mismatch")
                return None
            from ..verify.certify import certify_sat_model
            certificate = certify_sat_model(circuit, model,
                                            list(circuit.outputs))
            if not certificate.ok:
                self._reject(key, certificate.detail)
                return None
        with self._lock:
            entry.hits += 1
            self.hits += 1
        return {"status": entry.status, "model": model,
                "engine": entry.provenance.get("engine", engine),
                "cached": True, "cache_hits": entry.hits,
                "provenance": dict(entry.provenance)}

    def store(self, fp: Fingerprint, limits: Optional[Limits], engine: str,
              status: str, model: Optional[Dict[int, bool]] = None,
              provenance: Optional[Dict[str, Any]] = None) -> bool:
        """Record a decisive answer; returns True if it was cached."""
        entry = CacheEntry(
            digest=fp.digest, limits=limits_class(limits), engine=engine,
            status=status,
            model_bits=model_to_bits(fp, model) if status == SAT else None,
            provenance=dict(provenance or {}))
        return self._put(entry, replace=True)

    def restore(self, digest: str, limits: str, engine: str, status: str,
                model_bits: Optional[List[int]] = None,
                provenance: Optional[Dict[str, Any]] = None) -> bool:
        """Rehydrate one decisive answer from durable state (boot replay).

        Unlike :meth:`store` this takes the raw journal fields — digest
        and canonical bits — because no circuit object exists at replay
        time.  Soundness is unchanged: SAT entries still pass through
        the :meth:`lookup` re-certification gate before being served.
        Existing entries win (they may carry fresher hit counts).
        """
        entry = CacheEntry(digest=digest, limits=limits, engine=engine,
                           status=status,
                           model_bits=(model_bits if status == SAT
                                       else None),
                           provenance=dict(provenance or {}))
        return self._put(entry, replace=False)

    def _decisive(self, entry: CacheEntry) -> bool:
        """The check every entry passes before it is cached: a decisive
        status this cache keeps, and canonical bits for SAT."""
        if entry.status == SAT:
            return isinstance(entry.model_bits, list)
        return entry.status == UNSAT and self.cache_unsat

    def _put(self, entry: CacheEntry, replace: bool) -> bool:
        if not self._decisive(entry):
            return False
        with self._lock:
            if not replace and entry.key in self._entries:
                return False
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            if self._log is not None:
                self._log.append(entry.as_dict(), self._live_records)
        return True

    def _reject(self, key: str, detail: str) -> None:
        """Evict an entry that failed re-certification (tampered/colliding)."""
        with self._lock:
            self._entries.pop(key, None)
            self.rejected += 1
            self.misses += 1
            if self._log is not None:
                self._log.rewrite(self._live_records())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _load(self) -> None:
        damaged: List[int] = []
        for record in self._log.scan(damaged):
            try:
                entry = CacheEntry.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
            if self._decisive(entry):
                self._entries[entry.key] = entry
                self._entries.move_to_end(entry.key)
        self.damaged = len(damaged)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _live_records(self) -> Iterable[Dict[str, Any]]:
        # Called with the lock held.
        return (entry.as_dict() for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions,
                    "rejected": self.rejected, "damaged": self.damaged}
