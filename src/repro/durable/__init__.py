"""Durability and crash recovery: journal, checkpoints, chaos harness.

This package makes the layers above the runtime survive process death:

* :mod:`repro.durable.log` — the one durable-log primitive (checksummed
  JSONL, counted scan, locked appends, atomic compaction) that the
  journal, the knowledge store and the answer cache are folds over.
* :mod:`repro.durable.journal` — the serve node's write-ahead log.
  Finished jobs rehydrate the answer cache on boot; queued/in-flight
  jobs are re-admitted under their idempotency keys.
* :mod:`repro.durable.checkpoint` — atomic, fingerprint-stamped
  checkpoints for resumable cube-and-conquer (``repro solve --workers N
  --resume``).
* :mod:`repro.durable.chaos` — the kill → restart → recover harness
  behind ``repro chaos`` (imported lazily; it drives subprocesses).
"""

from .checkpoint import (CHECKPOINT_VERSION, CheckpointError, CubeCheckpoint,
                         exact_hash, load_checkpoint, save_checkpoint)
from .journal import (JOURNAL_VERSION, Journal, JournalError, ReplayState,
                      answer_digest, read_journal, replay_journal)
from .log import LogError

__all__ = [
    "CHECKPOINT_VERSION", "CheckpointError", "CubeCheckpoint",
    "exact_hash", "load_checkpoint", "save_checkpoint",
    "JOURNAL_VERSION", "Journal", "JournalError", "ReplayState",
    "answer_digest", "read_journal", "replay_journal", "LogError",
]
