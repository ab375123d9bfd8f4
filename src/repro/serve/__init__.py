"""repro.serve — solver-as-a-service: long-lived serving of solve traffic.

The paper's deployment setting (equivalence checking inside a synthesis
flow) fires *streams* of structurally similar queries at a solver; this
package turns the repo's one-shot machinery into that long-lived service:

* :mod:`repro.serve.fingerprint` — canonical structural fingerprints of
  the strashed AIG (name-independent, inverter-aware) used as cache keys;
* :mod:`repro.serve.cache` — the answer cache (in-memory LRU + optional
  JSONL store) whose SAT entries are re-certified before being served;
* :mod:`repro.serve.scheduler` — the one job table and queue over the
  isolated runtime workers, for solve jobs and for the cubes of a
  distributed conquest: admission control, idempotency, in-flight
  dedup, priorities, warm cube workers, graceful drain;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  JSON-over-HTTP protocol behind ``repro serve``, ``repro submit`` and
  ``repro solve --nodes``;
* :mod:`repro.serve.loadgen` — seeded mixed-traffic load generation
  with differentially checked answers.

See ``docs/serving.md`` for the protocol, the fingerprint definition,
and the cache soundness contract.
"""

from .cache import AnswerCache, CacheEntry, limits_class
from .client import ServeClient, ServeError
from .fingerprint import (Fingerprint, bits_to_model, fingerprint,
                          model_to_bits)
from .scheduler import (AdmissionError, Job, JobRequest, SERVE_ENGINES,
                        SolveScheduler, input_assignment)
from .server import ReproServer

__all__ = [
    "AdmissionError", "AnswerCache", "CacheEntry", "Fingerprint", "Job",
    "JobRequest", "ReproServer", "SERVE_ENGINES", "ServeClient",
    "ServeError", "SolveScheduler", "bits_to_model", "fingerprint",
    "input_assignment", "limits_class", "model_to_bits",
]
