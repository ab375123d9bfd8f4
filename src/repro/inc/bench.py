"""The ``BENCH_inc.json`` producer: what the knowledge store buys.

The workload is the one the incremental subsystem exists for: a
**stream of revisions** of one design — here, function-preserving
mutations of an array-vs-CSA multiplier miter (see
:mod:`repro.inc.mutate`) — where each revision is a structurally *new*
circuit (fresh fingerprint, answer-cache miss) whose deep structure is
nevertheless 99% shared with everything solved before.

Two passes run the **same pipeline** (incremental pre-pass + seeded
solve) over equal-sized, seed-disjoint mutant sets:

``cold``
    The store starts empty: the pre-pass finds nothing to replay and
    every query pays the full CDCL price.
``warm``
    The base circuit was first swept into the store (the
    sweep-as-a-service path); each query then realigns against the
    banked cones, replays the proven equivalences/constants, seeds the
    re-proved lemmas, and solves the residue.

The headline is the per-query p50 ratio and the end-to-end ratio (the
warm side is charged the sweep that seeded the store).  Honesty rules:

- the warm mutants are *never-before-seen* (their seeds are disjoint
  from the cold set's, and none of them was swept);
- every answer is differentially checked against an **exhaustive**
  oracle — the base miter is proven constant-false over all ``2^k``
  input patterns and every mutant is proven exhaustively equivalent to
  the base, so the expected UNSAT is a fact, not an assumption;
- a third pass re-runs fresh queries against a **tampered** copy of the
  store (every fact's payload flipped) and asserts zero answer changes:
  corruption may cost rejections and time, never correctness.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.miter import miter
from ..circuit.netlist import Circuit
from ..core.sweep import sat_sweep
from ..durable.log import decode, encode
from ..kernel.circuit import KernelEngine
from ..obs.export import SCHEMA_VERSION, environment_info
from ..result import UNSAT
from ..sim.bitsim import circuits_equivalent_exhaustive, \
    exhaustive_input_words, simulate_words
from .mutate import mutate_circuit
from .replay import absorb_sweep, incremental_prepass
from .store import KIND_CONST, KIND_EQUIV, KIND_LEMMA, KnowledgeStore


def _base_miter(width: int) -> Circuit:
    from ..bench.instances import array_multiplier, csa_multiplier
    return miter(array_multiplier(width), csa_multiplier(width))


def _prove_unsat_exhaustively(circuit: Circuit) -> bool:
    """Exact oracle: no input pattern raises any output (so asserting an
    output true is UNSAT).  Only callable on small-input circuits."""
    k = circuit.num_inputs
    width = 1 << k
    vals = simulate_words(circuit, exhaustive_input_words(k), width)
    return all(vals[lit >> 1] ^ ((1 << width) - 1 if lit & 1 else 0) == 0
               for lit in circuit.outputs)


def _solve_query(circuit: Circuit,
                 store: KnowledgeStore) -> Tuple[str, float, float]:
    """One stream query through the full pipeline: pre-pass, seeded
    solve on the flat kernel.  Returns (status, seconds,
    prepass_seconds)."""
    started = time.perf_counter()
    outcome = incremental_prepass(circuit, store)
    engine = KernelEngine(outcome.circuit)
    for clause in outcome.seed_lemmas:
        engine.add_learned_clause(list(clause))
    result = engine.solve(assumptions=[outcome.circuit.outputs[0]])
    return (result.status, time.perf_counter() - started,
            outcome.seconds)


def _run_stream(mutants: List[Circuit],
                store: KnowledgeStore) -> Dict[str, Any]:
    per_query: List[float] = []
    prepass: List[float] = []
    statuses: List[str] = []
    for mutant in mutants:
        status, seconds, pre = _solve_query(mutant, store)
        statuses.append(status)
        per_query.append(seconds)
        prepass.append(pre)
    return {
        "statuses": statuses,
        "per_query_s": [round(s, 6) for s in per_query],
        "p50_s": round(statistics.median(per_query), 6),
        "total_s": round(sum(per_query), 6),
        "prepass_p50_s": round(statistics.median(prepass), 6),
    }


def tamper_store_file(path: str) -> int:
    """Flip the payload of every fact record in a store file, in place.

    Constants flip their value, equivalences flip their polarity,
    lemmas flip their first literal — each fact is re-encoded with a
    valid checksum, so it stays well-formed (it will load and match) but
    now claims the *opposite* of what was proven.  Returns the number of
    records tampered.  This models the worst corruption short of a
    digest collision: an attacker rewriting the knowledge itself, which
    no checksum can catch — only re-proof does.
    """
    tampered = 0
    lines_out: List[bytes] = []
    with open(path, "rb") as fh:
        for line in fh:
            record = decode(line)
            if record is None:      # the header: kept verbatim
                lines_out.append(line)
                continue
            kind = record.get("kind")
            if kind == KIND_CONST:
                record["value"] = 1 - int(record.get("value", 0))
                tampered += 1
            elif kind == KIND_EQUIV:
                record["anti"] = 1 - int(record.get("anti", 0))
                tampered += 1
            elif kind == KIND_LEMMA and record.get("lits"):
                digest, neg = record["lits"][0]
                record["lits"][0] = [digest, 1 - int(neg)]
                tampered += 1
            lines_out.append(encode(record))
    with open(path, "wb") as fh:
        fh.write(b"".join(lines_out))
    return tampered


def _mutants(base: Circuit, seeds: List[int], edits: int) -> List[Circuit]:
    return [mutate_circuit(base, seed=seed, edits=edits,
                           name="mut{}".format(seed))
            for seed in seeds]


def inc_bench_document(seed: int = 0, width: int = 5, queries: int = 8,
                       edits: int = 3,
                       differential: bool = True) -> Dict[str, Any]:
    """Run the cold/warm/tampered campaign and build the document.

    The stores live in a temporary directory, removed on every exit."""
    base = _base_miter(width)
    cold_seeds = [seed + 100 + i for i in range(queries)]
    warm_seeds = [seed + 500 + i for i in range(queries)]
    tamper_seeds = [seed + 900 + i for i in range(max(2, queries // 2))]
    ok = True
    checks = {"exhaustive_base_unsat": False, "mutants_equivalent": 0,
              "answers_checked": 0, "answers_wrong": 0}
    if differential:
        # The expected answer is *proved*, not assumed: the base miter
        # never raises its output on any of the 2^k input patterns, and
        # every mutant is exhaustively equivalent to the base.
        checks["exhaustive_base_unsat"] = _prove_unsat_exhaustively(base)
        ok = ok and checks["exhaustive_base_unsat"]

    def check_answers(run: Dict[str, Any], mutants: List[Circuit]) -> None:
        nonlocal ok
        for mutant, status in zip(mutants, run["statuses"]):
            if differential:
                if not circuits_equivalent_exhaustive(mutant, base):
                    ok = False
                    continue
                checks["mutants_equivalent"] += 1
            checks["answers_checked"] += 1
            if status != UNSAT:
                checks["answers_wrong"] += 1
                ok = False

    with tempfile.TemporaryDirectory(prefix="repro-inc-bench-") as tmp:
        store_path = os.path.join(tmp, "store.jsonl")

        # Cold: same pipeline, empty store.
        cold_store = KnowledgeStore(os.path.join(tmp, "cold.jsonl"))
        cold_mutants = _mutants(base, cold_seeds, edits)
        try:
            cold = _run_stream(cold_mutants, cold_store)
        finally:
            cold_store.close()
        check_answers(cold, cold_mutants)

        # Warm: sweep the base into the store first (the service path),
        # then solve a disjoint, never-before-seen mutant set.
        store = KnowledgeStore(store_path)
        try:
            sweep_started = time.perf_counter()
            sweep = sat_sweep(base, export_lemmas=True)
            absorb_sweep(store, base, sweep)
            sweep_seconds = time.perf_counter() - sweep_started
            warm_mutants = _mutants(base, warm_seeds, edits)
            warm = _run_stream(warm_mutants, store)
        finally:
            store.close()
        warm["sweep_seconds"] = round(sweep_seconds, 6)
        check_answers(warm, warm_mutants)
        healthy_rejected = store.rejected

        # Tampered: every stored fact now claims the opposite of what was
        # proven.  The replay layer must reject them (slower is fine) and
        # the answers must not move.
        tampered_facts = tamper_store_file(store_path)
        tampered_store = KnowledgeStore(store_path)
        tamper_mutants = _mutants(base, tamper_seeds, edits)
        try:
            tampered = _run_stream(tamper_mutants, tampered_store)
        finally:
            tampered_store.close()
    check_answers(tampered, tamper_mutants)
    answers_changed = sum(1 for status in tampered["statuses"]
                          if status != UNSAT)
    tamper = {
        "tampered_facts": tampered_facts,
        "answers_changed": answers_changed,
        "rejected": tampered_store.rejected,
        "p50_s": tampered["p50_s"],
        "ok": answers_changed == 0,
    }
    ok = ok and tamper["ok"]

    speedup_p50 = (round(cold["p50_s"] / warm["p50_s"], 2)
                   if warm["p50_s"] else None)
    end_to_end = (round(cold["total_s"]
                        / (warm["total_s"] + sweep_seconds), 2)
                  if warm["total_s"] + sweep_seconds > 0 else None)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench_inc",
        "seed": seed,
        "width": width,
        "queries": queries,
        "edits": edits,
        "gates": base.num_ands,
        "environment": environment_info(),
        "differential": differential,
        "ok": ok,
        "checks": checks,
        "cold": cold,
        "warm": warm,
        "tamper": tamper,
        "store": {"facts_banked": len(tampered_store),
                  "healthy_rejected": healthy_rejected},
        "speedup_p50": speedup_p50,
        "speedup_end_to_end": end_to_end,
        # The shape benchmarks/check_regression.py gates on: the same
        # scale-invariant >10%-median rule as BENCH_micro.json.
        "benchmarks": [
            {"name": "inc_cold_query", "median": cold["p50_s"]},
            {"name": "inc_warm_query", "median": warm["p50_s"]},
            {"name": "inc_warm_prepass", "median": warm["prepass_p50_s"]},
            {"name": "inc_seed_sweep", "median": round(sweep_seconds, 6)},
        ],
    }


def export_inc_bench(document: Dict[str, Any],
                     out_path: str = "BENCH_inc.json") -> None:
    with open(out_path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="cold vs warm knowledge-store bench (BENCH_inc.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--width", type=int, default=5,
                        help="multiplier width of the base miter")
    parser.add_argument("--queries", type=int, default=8,
                        help="mutated revisions per pass")
    parser.add_argument("--edits", type=int, default=3)
    parser.add_argument("--no-differential", action="store_true")
    parser.add_argument("-o", "--output", default="BENCH_inc.json")
    args = parser.parse_args(argv)
    document = inc_bench_document(
        seed=args.seed, width=args.width, queries=args.queries,
        edits=args.edits, differential=not args.no_differential)
    export_inc_bench(document, args.output)
    print("cold p50 {:.3f}s -> warm p50 {:.3f}s ({}x p50, {}x end-to-end "
          "incl. sweep); tampered: {} facts, {} answer changes, "
          "{} rejected; ok={}".format(
              document["cold"]["p50_s"], document["warm"]["p50_s"],
              document["speedup_p50"], document["speedup_end_to_end"],
              document["tamper"]["tampered_facts"],
              document["tamper"]["answers_changed"],
              document["tamper"]["rejected"], document["ok"]))
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    import sys
    sys.exit(main())
