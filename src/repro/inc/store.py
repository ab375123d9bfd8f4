"""Durable cone-level knowledge store (checksummed JSONL + LRU).

Persists facts proven about *cones* — not circuits — so knowledge
transfers to queries never seen before.  The file is a
:class:`~repro.durable.log.DurableLog` (header ``{"kind": "inc-store",
"v": 2}``; another version is refused, not misread) of these records:

``{"kind": "const", "k": <digest>, "value": 0|1, "ck": <canon digest>}``
    The signal whose input-cone digest is ``k`` is provably constant.
    ``ck`` (optional) is the *canonical* cone fingerprint — invariant
    under input permutation — so a permuted twin can still match.
``{"kind": "equiv", "a": <digest>, "b": <digest>, "anti": 0|1}``
    Two cones compute the same (``anti=0``) or complementary (``anti=1``)
    function of the shared primary inputs.
``{"kind": "lemma", "lits": [[<digest>, neg], ...]}``
    A unit or binary clause over cone functions, proven on a *bare*
    circuit (sweep engines carry no objectives), portable to any circuit
    containing cones with those digests.
``{"kind": "seen", "ks": [<digest>, ...]}``
    Cone digests of circuits that have been swept into the store.  Not
    facts — they carry no claim — but they let the replay layer compute
    a query's *changed region* (cones never seen before) and re-sweep
    just that region, which is what re-aligns a locally edited circuit
    with the deep facts banked for its base.

Damaged lines are skipped and counted in ``torn``; intact records that
are not well-formed facts are counted in ``malformed``, never trusted.
Appends are not fsynced (a lost fact costs a re-sweep); compaction
writes the facts and seen digests in memory, on growth and on evict.

Soundness: every fact handed out by :meth:`KnowledgeStore.lookup` is a
**candidate** that the replay layer re-proves on the requesting circuit
before acting on it.  :meth:`evict` removes a fact that failed re-proof
(tampering or digest collision) and counts it — the same contract as
:meth:`repro.serve.cache.AnswerCache._reject`, and the reason a corrupt
store degrades to a slower solve, never to a wrong answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..durable.log import DurableLog, LogError
from ..obs.metrics import default_registry

#: Store schema version; bump on any incompatible record change.
STORE_VERSION = 2

KIND_HEADER = "inc-store"
KIND_CONST = "const"
KIND_EQUIV = "equiv"
KIND_LEMMA = "lemma"
KIND_SEEN = "seen"

#: Seen-digest records are chunked so one torn line loses little.
_SEEN_CHUNK = 256

#: Most seen digests kept (the changed-region baseline is a hint).
MAX_SEEN = 500_000

#: A fact's identity: ("const", k) / ("equiv", a, b, anti) /
#: ("lemma", ((digest, neg), ...)).
FactKey = Tuple


class StoreError(LogError):
    """A knowledge store could not be read safely (version mismatch)."""


def _fact_key(record: Dict[str, Any]) -> Optional[FactKey]:
    """Canonical identity of one fact record; None if malformed."""
    kind = record.get("kind")
    try:
        if kind == KIND_CONST:
            k, value = record["k"], int(record["value"])
            if not isinstance(k, str) or value not in (0, 1):
                return None
            return (KIND_CONST, k)
        if kind == KIND_EQUIV:
            a, b = record["a"], record["b"]
            anti = int(record["anti"])
            if not (isinstance(a, str) and isinstance(b, str)) \
                    or anti not in (0, 1) or a == b:
                return None
            if a > b:
                a, b = b, a
            return (KIND_EQUIV, a, b, anti)
        if kind == KIND_LEMMA:
            lits = tuple(sorted((str(d), int(neg))
                                for d, neg in record["lits"]))
            if not 1 <= len(lits) <= 2 \
                    or any(neg not in (0, 1) for _, neg in lits):
                return None
            return (KIND_LEMMA, lits)
    except (KeyError, TypeError, ValueError):
        return None
    return None


def _digests_of(key: FactKey) -> Tuple[str, ...]:
    """Positional cone digests a fact is indexed under."""
    if key[0] == KIND_CONST:
        return (key[1],)
    if key[0] == KIND_EQUIV:
        return (key[1], key[2])
    return tuple(d for d, _ in key[1])


class KnowledgeStore:
    """Thread-safe LRU of proven cone facts with an optional JSONL file.

    ``max_facts`` bounds memory; capacity evictions drop the oldest fact
    (plain LRU, counted in ``evictions``).  :meth:`evict` is different:
    it removes a fact that *failed re-proof* and counts it in
    ``rejected`` — the corruption signal CI asserts stays zero.
    """

    def __init__(self, path: Optional[str] = None, max_facts: int = 100_000):
        if max_facts < 1:
            raise ValueError("max_facts must be >= 1")
        self.path = path
        self.max_facts = max_facts
        self._lock = threading.Lock()
        self._log = (DurableLog(path, KIND_HEADER, STORE_VERSION, StoreError)
                     if path else None)
        #: FactKey -> record dict, LRU order (oldest first).
        self._facts: "OrderedDict[FactKey, Dict[str, Any]]" = OrderedDict()
        #: positional digest -> set of fact keys mentioning it.
        self._by_digest: Dict[str, set] = {}
        #: canonical cone digest -> const fact key (permutation-invariant
        #: second-chance index; const facts only — a constant's value
        #: does not depend on how the inputs are permuted).
        self._by_canon: Dict[str, FactKey] = {}
        #: every cone digest some swept circuit has exhibited — the
        #: changed-region baseline, not a fact.
        self._seen: set = set()
        self.evictions = 0
        self.rejected = 0
        self.torn = 0
        self.malformed = 0
        if self._log is not None:
            self._load()

    # ------------------------------------------------------------------
    # Adding facts
    # ------------------------------------------------------------------

    def add_const(self, digest: str, value: int,
                  canon: Optional[str] = None) -> bool:
        """Record "cone ``digest`` is constant ``value``"; True if new."""
        record = {"kind": KIND_CONST, "k": digest, "value": int(value)}
        if canon:
            record["ck"] = canon
        return self._add(record)

    def add_equiv(self, a: str, b: str, anti: bool) -> bool:
        """Record "cone ``a`` == cone ``b`` (xor ``anti``)"; True if new."""
        record = {"kind": KIND_EQUIV, "a": a, "b": b,
                  "anti": 1 if anti else 0}
        return self._add(record)

    def add_lemma(self, lits: Sequence[Tuple[str, int]]) -> bool:
        """Record a portable unit/binary clause over cone functions."""
        record = {"kind": KIND_LEMMA,
                  "lits": [[d, int(neg)] for d, neg in lits]}
        return self._add(record)

    def _add(self, record: Dict[str, Any]) -> bool:
        key = _fact_key(record)
        if key is None:
            return False
        with self._lock:
            if key in self._facts:
                self._facts.move_to_end(key)
                return False
            self._facts[key] = record
            self._index(key, record)
            while len(self._facts) > self.max_facts:
                old_key, old_record = self._facts.popitem(last=False)
                self._unindex(old_key, old_record)
                self.evictions += 1
            self._append(record)
        return True

    def _index(self, key: FactKey, record: Dict[str, Any]) -> None:
        for digest in _digests_of(key):
            self._by_digest.setdefault(digest, set()).add(key)
        if key[0] == KIND_CONST and record.get("ck"):
            self._by_canon[record["ck"]] = key

    def _unindex(self, key: FactKey, record: Dict[str, Any]) -> None:
        for digest in _digests_of(key):
            keys = self._by_digest.get(digest)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_digest[digest]
        if key[0] == KIND_CONST and record.get("ck"):
            self._by_canon.pop(record["ck"], None)

    # ------------------------------------------------------------------
    # Lookup (candidates only — the caller must re-prove every fact)
    # ------------------------------------------------------------------

    def lookup(self, digests: Iterable[str]
               ) -> Dict[FactKey, Dict[str, Any]]:
        """Facts mentioning any of ``digests`` (LRU-touched, most-recent
        last).  Every returned fact is a *candidate*: act on it only
        after re-proving it on the circuit at hand."""
        out: "OrderedDict[FactKey, Dict[str, Any]]" = OrderedDict()
        with self._lock:
            for digest in digests:
                for key in sorted(self._by_digest.get(digest, ()),
                                  key=repr):
                    record = self._facts.get(key)
                    if record is not None and key not in out:
                        out[key] = record
                        self._facts.move_to_end(key)
        return out

    def canon_const(self, canon: str
                    ) -> Optional[Tuple[FactKey, Dict[str, Any]]]:
        """Constant fact matched by *canonical* cone digest, if any."""
        with self._lock:
            key = self._by_canon.get(canon)
            if key is None:
                return None
            record = self._facts.get(key)
            if record is None:
                return None
            self._facts.move_to_end(key)
            return key, record

    # ------------------------------------------------------------------
    # Seen digests (the changed-region baseline)
    # ------------------------------------------------------------------

    def note_seen(self, digests: Iterable[str]) -> int:
        """Record cone digests a swept circuit exhibited; returns #new."""
        with self._lock:
            fresh = [d for d in digests
                     if isinstance(d, str) and d not in self._seen]
            room = MAX_SEEN - len(self._seen)
            fresh = fresh[:max(0, room)]
            self._seen.update(fresh)
            for i in range(0, len(fresh), _SEEN_CHUNK):
                self._append({"kind": KIND_SEEN,
                              "ks": fresh[i:i + _SEEN_CHUNK]})
        return len(fresh)

    def seen(self, digest: str) -> bool:
        with self._lock:
            return digest in self._seen

    @property
    def num_seen(self) -> int:
        with self._lock:
            return len(self._seen)

    # ------------------------------------------------------------------
    # Eviction for cause
    # ------------------------------------------------------------------

    def evict(self, key: FactKey, detail: str = "") -> bool:
        """Remove a fact that failed re-proof; compact the file.

        Returns True if the fact was present.  Counted in ``rejected``
        and in ``repro_inc_store_rejected_total`` — this only fires on
        corruption or a digest collision, never in healthy operation.
        """
        with self._lock:
            record = self._facts.pop(key, None)
            if record is None:
                return False
            self._unindex(key, record)
            self.rejected += 1
        registry = default_registry()
        if registry is not None:
            registry.counter(
                "repro_inc_store_rejected_total",
                "Store facts evicted after failing re-proof").inc()
        self.compact()
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _load(self) -> None:
        damaged: List[int] = []
        for record in self._log.scan(damaged):
            if record.get("kind") == KIND_SEEN:
                ks = record.get("ks")
                if isinstance(ks, list):
                    self._seen.update(d for d in ks if isinstance(d, str))
                    if len(self._seen) > MAX_SEEN:
                        self._seen = set(list(self._seen)[:MAX_SEEN])
                else:
                    self.malformed += 1
                continue
            key = _fact_key(record)
            if key is None:
                self.malformed += 1
                continue
            if key in self._facts:
                self._facts.move_to_end(key)
                continue
            self._facts[key] = record
            self._index(key, record)
        self.torn = len(damaged)
        while len(self._facts) > self.max_facts:
            old_key, old_record = self._facts.popitem(last=False)
            self._unindex(old_key, old_record)
            self.evictions += 1

    def _live_records(self) -> Iterable[Dict[str, Any]]:
        # Called with the lock held.
        seen = sorted(self._seen)
        for i in range(0, len(seen), _SEEN_CHUNK):
            yield {"kind": KIND_SEEN, "ks": seen[i:i + _SEEN_CHUNK]}
        yield from self._facts.values()

    def _append(self, record: Dict[str, Any]) -> None:
        # Called with the lock held.
        if self._log is not None:
            self._log.append(record, self._live_records)

    def compact(self) -> None:
        """Atomically rewrite the file to the live fact set."""
        if self._log is not None:
            with self._lock:
                self._log.rewrite(self._live_records())

    def close(self) -> None:
        if self._log is not None:
            self._log.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._facts)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_kind: Dict[str, int] = {}
            for key in self._facts:
                by_kind[key[0]] = by_kind.get(key[0], 0) + 1
        return by_kind

    def stats(self) -> Dict[str, int]:
        with self._lock:
            facts = len(self._facts)
            seen = len(self._seen)
        out = {"facts": facts, "seen": seen, "evictions": self.evictions,
               "rejected": self.rejected, "torn": self.torn,
               "malformed": self.malformed}
        out.update(self.counts())
        return out
