"""Resumable cube-and-conquer: atomic checkpoints of a conquest in flight.

:func:`repro.cube.solve_cubes` can persist its whole working state —
the cube tree, per-cube outcomes, and the deduped shared-lemma pool —
to a single JSON document, atomically replaced (``atomic_write``) every
N cube completions.  ``repro cube --resume PATH`` reloads it, skips
every cube that is already closed (UNSAT / REFUTED / PRUNED), and
re-injects the lemma pool so the surviving cubes start warm.

Soundness: the lemma pool obeys PR 4's sharing contract — every lemma
is a consequence of ``circuit AND objectives``, valid only for *that*
circuit under *those* objectives, expressed in *that* node numbering.
A checkpoint therefore records three identities and refuses to resume
unless all match:

* the schema ``version`` (a future format is refused, not misread),
  then a ``crc`` of the document (a flipped lemma still parses);
* the canonical fingerprint ``digest`` (semantic identity up to input
  permutation — catches "wrong instance entirely");
* an ``exact`` structural hash over the literal node numbering (the
  canonical digest is isomorphism-invariant, but lemma literals are
  raw node ids, so an isomorphic-but-renumbered circuit must still be
  refused) plus the exact objectives list.

The record's own literals are checked too: every pooled lemma must be a
non-empty clause, and every cube a list, of the circuit's literals
(:func:`repro.cube.sharing.literals_ok`, the rule a conquer node applies
to its wire input), and every objective an int.  A record written
through :func:`save_checkpoint` passes its checksum whatever it holds,
and one out-of-range literal in the pool would crash every resumed
worker.  The load keeps the literals as read, so a ``"5"`` or ``5.7`` is
refused rather than read as the literal 5.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..circuit.netlist import Circuit
from ..errors import ReproError
from .log import atomic_write, decode, encode

#: Checkpoint schema version; bump on any incompatible change.
CHECKPOINT_VERSION = 2


class CheckpointError(ReproError):
    """A checkpoint could not be loaded or does not match this run."""


def exact_hash(circuit: Circuit) -> str:
    """Node-numbering-sensitive structural hash of a circuit.

    Two circuits get the same hash iff they have identical node ids,
    fanin literals, inputs and outputs — exactly the condition under
    which raw node-literal lemmas transfer between them.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(circuit.num_nodes).encode())
    h.update(b"|i")
    h.update(",".join(str(n) for n in circuit.inputs).encode())
    h.update(b"|o")
    h.update(",".join(str(l) for l in circuit.outputs).encode())
    for node in circuit.and_nodes():
        a, b = circuit.fanins(node)
        h.update("|{}:{}:{}".format(node, a, b).encode())
    return h.hexdigest()


@dataclass
class CubeCheckpoint:
    """One conquest's resumable state."""

    digest: str                 # canonical fingerprint digest
    exact: str                  # exact_hash of the circuit
    objectives: List[int]
    #: per-cube state dicts (CubeOutcome.as_dict shape, plus "depth").
    cubes: List[Dict[str, Any]] = field(default_factory=list)
    #: the deduped shared-lemma pool at checkpoint time.
    lemmas: List[List[int]] = field(default_factory=list)
    completed: int = 0          # cubes closed when the checkpoint was cut
    created: float = 0.0
    version: int = CHECKPOINT_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return {"v": self.version, "digest": self.digest,
                "exact": self.exact,
                "objectives": list(self.objectives),
                "cubes": self.cubes,
                "lemmas": [list(c) for c in self.lemmas],
                "completed": self.completed, "created": self.created}

    def validate_for(self, circuit: Circuit,
                     objectives: Sequence[int]) -> None:
        """Refuse to resume against the wrong circuit or objectives, or
        a record holding a literal that circuit does not have."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                "checkpoint has version {}; this build reads version {} — "
                "refusing to misread it".format(self.version,
                                                CHECKPOINT_VERSION))
        from ..serve.fingerprint import fingerprint
        fp = fingerprint(circuit)
        if fp.digest != self.digest:
            raise CheckpointError(
                "checkpoint belongs to a different instance "
                "(fingerprint {}… vs this circuit's {}…); its lemmas and "
                "cube statuses do not transfer".format(
                    self.digest[:12], fp.digest[:12]))
        if exact_hash(circuit) != self.exact:
            raise CheckpointError(
                "checkpoint circuit is isomorphic but differently "
                "numbered; lemma literals do not transfer — regenerate "
                "the circuit from the same source or start fresh")
        if (list(objectives) != list(self.objectives)
                or any(type(lit) is not int for lit in self.objectives)):
            raise CheckpointError(
                "checkpoint was cut under different objectives "
                "({} vs {}); shared lemmas are only valid for "
                "circuit AND objectives".format(
                    list(self.objectives), list(objectives)))
        from ..cube.sharing import literals_ok
        bound = 2 * circuit.num_nodes
        for clause in self.lemmas:
            if not clause or not literals_ok(clause, circuit.num_nodes):
                raise CheckpointError(
                    "checkpoint lemma {!r} is not a non-empty clause of "
                    "this circuit's literals (ints in [2, {})); refusing "
                    "to inject it into resumed cubes".format(clause, bound))
        for raw in self.cubes:
            literals = raw.get("literals") if isinstance(raw, dict) \
                else raw
            if not literals_ok(literals, circuit.num_nodes):
                raise CheckpointError(
                    "checkpoint cube literals {!r} are not a list of this "
                    "circuit's literals (ints in [2, {}))".format(
                        literals, bound))


def save_checkpoint(path: str, checkpoint: CubeCheckpoint) -> None:
    """Atomically write a checkpoint, checksummed like a log record."""
    checkpoint.created = time.time()
    with atomic_write(path) as fh:
        fh.write(encode(checkpoint.as_dict()))


def load_checkpoint(path: str) -> CubeCheckpoint:
    """Load a checkpoint; raises :class:`CheckpointError` on any defect.

    Unlike the journal there is no torn-line tolerance to need: the file
    is replaced atomically, so it is either a complete JSON document or
    absent — and any damage after the write fails its checksum.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError("cannot read checkpoint {}: {}".format(
            path, exc))
    try:
        raw = json.loads(data)
    except ValueError as exc:
        raise CheckpointError(
            "checkpoint {} is not valid JSON ({}); it was not written by "
            "this tool or the filesystem lost the atomic replace".format(
                path, exc))
    if not isinstance(raw, dict):
        raise CheckpointError("checkpoint {} is not a JSON object".format(
            path))
    version = raw.get("v")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            "checkpoint {} has version {!r}; this build reads version {} — "
            "refusing to misread it".format(path, version,
                                            CHECKPOINT_VERSION))
    if decode(data) is None:
        raise CheckpointError(
            "checkpoint {} fails its checksum; it was damaged after it was "
            "written".format(path))
    try:
        return CubeCheckpoint(
            digest=raw["digest"], exact=raw["exact"],
            objectives=list(raw["objectives"]),
            cubes=list(raw.get("cubes") or []),
            lemmas=list(raw.get("lemmas") or []),
            completed=int(raw.get("completed", 0)),
            created=float(raw.get("created", 0.0)),
            version=int(version))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError("checkpoint {} is malformed: {}".format(
            path, exc))
