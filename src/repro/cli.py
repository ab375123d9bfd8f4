"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``solve``      solve a ``.bench`` circuit (objective: every output = 1);
               ``--portfolio`` runs it fault-tolerantly in isolated worker
               subprocesses with hard wall/memory limits
``portfolio``  the full portfolio runner: race/sequence engine configs
               with failover, retry and graceful degradation
``cube``       cube-and-conquer: split the search space with a lookahead
               cutter, conquer the cubes in parallel on isolated workers
               (``solve --cubes N`` is the shortcut form)
``solve-cnf``  solve a DIMACS file with the CNF baseline or via the circuit
               solver (CNF-to-circuit conversion, as the paper does)
``equiv``      SAT equivalence check of two ``.bench`` circuits
``sweep``      SAT-sweep a circuit and write the reduced ``.bench``
``stats``      structural statistics of a circuit
``bmc``        bounded model check a sequential ``.bench`` (DFFs kept)
``atpg``       generate stuck-at test patterns for a ``.bench`` circuit
``check-proof``verify a DRUP proof produced by ``solve --proof``
``gen``        emit one of the built-in benchmark circuits as ``.bench``
``bench``      regenerate one of the paper's tables
``fuzz``       differential fuzzing: random circuits through every engine,
               cross-checked and certified; failures shrunk into a corpus
``oracle``     run one circuit through every engine and compare answers
``trace``      summarize a JSONL event trace written by ``solve --trace``
``fingerprint``canonical structural fingerprint of a circuit (the serve
               cache key: name-independent, inverter-aware)
``serve``      run the solver as a long-lived JSON-over-HTTP service with
               an answer cache and isolated solve workers
``submit``     submit an instance to a running ``repro serve`` and wait
               for (or poll) the answer
``status``     render a running node's ``/status`` (serve server or
               conquer node)
``conquer-node``
               serve cube solves for a distributed conquest
``dist``       distributed cube-and-conquer across conquer nodes, with work
               stealing and lemma exchange (``--spawn-local N`` starts a
               localhost fleet)
``chaos``      kill -9 a serve node or conquer driver at random points,
               restart it, and check that no answer was lost or solved twice
``metrics``    scrape a running node's ``/metrics`` and pretty-print it

``solve``, ``solve-cnf``, ``cube`` and ``submit`` accept ``-`` as the
file argument to read the instance from stdin (format is sniffed).

``solve`` and ``solve-cnf`` accept the observability flags ``--trace FILE``
(structured event tracing), ``--progress [N]`` (a progress line every N
conflicts) and ``--json`` (machine-readable result on stdout).

Exit codes: 10 = SAT, 20 = UNSAT, 0 = success/UNKNOWN, 1 = check failed,
2 = bad input (malformed file, unknown name, invalid circuit),
130 = interrupted (Ctrl-C).  Malformed input never produces a traceback.
``submit`` additionally maps an UNKNOWN answer caused by worker failures
onto the failure taxonomy: 3 = TIMEOUT, 4 = MEMOUT, 5 = CRASHED,
6 = CORRUPT_ANSWER, 7 = LOST.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .circuit.bench_io import write_bench
from .circuit.sequential import bounded_model_check, read_bench_sequential
from .circuit.validate import statistics, validate
from .cnf.solver import CnfSolver
from .circuit.cnf_convert import cnf_to_circuit
from .core.solver import CircuitSolver, check_equivalence
from .core.sweep import sat_sweep
from .csat.options import preset
from .cube.conquer import CUBE_PRESET
from .errors import CircuitError, ParseError, ReproError, SolverError
from .result import Limits

_PRESETS = ("csat", "csat-jnode", "implicit", "explicit", "explicit-pair",
            "explicit-const", "kernel")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=_PRESETS, default="explicit",
                        help="solver configuration (default: %(default)s)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSONL event trace here "
                             "(summarize with `repro trace FILE`)")
    parser.add_argument("--progress", type=int, nargs="?", const=1000,
                        default=0, metavar="N",
                        help="print a progress line every N conflicts "
                             "(default 1000) to stderr")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON on stdout")


def _limits(args) -> Optional[Limits]:
    if args.budget is None:
        return None
    return Limits(max_seconds=args.budget)


def _observability(args):
    """(tracer, solver kwargs) from the --trace/--progress flags.

    The tracer is created here — not inside the solver — so the CLI owns
    its lifetime and can close/report it after the solve.
    """
    from .obs import JsonlTracer, ProgressPrinter
    tracer = JsonlTracer(args.trace) if args.trace else None
    kwargs = {"trace": tracer,
              "phase_timers": tracer is not None or args.json,
              "progress_interval": args.progress,
              "progress": ProgressPrinter() if args.progress else None}
    return tracer, kwargs


def _finish_trace(tracer) -> None:
    if tracer is not None:
        tracer.close()
        print("wrote trace to {} ({} events)".format(tracer.path,
                                                     tracer.events_written),
              file=sys.stderr)


def _read_circuit(path: str):
    """Read a combinational circuit from a file or stdin (``-``).

    Extension picks the format for real files (.aag = ASCII AIGER,
    .cnf/.dimacs = DIMACS via circuit conversion, anything else =
    .bench); stdin is content-sniffed.  Shared with ``repro submit``
    and the server's /submit endpoint (repro.circuit.source).
    """
    from .circuit.source import load_circuit
    return load_circuit(path)


def _print_result(result, label: str = "result", as_json: bool = False) -> int:
    if as_json:
        import json
        print(json.dumps(dict(result.as_dict(), instance=label), indent=2))
    else:
        print("{}: {}".format(label, result.status))
        # The paper's tables report solve and simulation time separately;
        # so do we (time_seconds is the whole call, simulation included).
        print("time: {:.3f}s (solve {:.3f}s, simulation {:.3f}s)".format(
            result.time_seconds, result.solve_seconds, result.sim_seconds))
        if result.phase_seconds:
            print("phases: " + " ".join(
                "{}={:.3f}s".format(phase, seconds)
                for phase, seconds in result.phase_seconds.items()))
        stats = result.stats
        print("decisions={} conflicts={} propagations={} learned={}".format(
            stats.decisions, stats.conflicts, stats.propagations,
            stats.learned_clauses))
        if result.interrupted:
            print("interrupted: partial statistics only", file=sys.stderr)
        for failure in result.failures:
            print("worker failure: {} [{}] {}".format(
                failure.get("engine", "?"), failure.get("kind", "?"),
                failure.get("detail", "")), file=sys.stderr)
    # SAT-competition-style exit codes (10/20), 130 for Ctrl-C.
    return _status_code(result)


def _add_runtime(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``solve --portfolio`` and the portfolio command."""
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="concurrent isolated workers; 1 walks the "
                             "ladder sequentially (default 1)")
    parser.add_argument("--mem-limit", type=int, default=None, metavar="MB",
                        help="hard per-worker address-space cap in MB")
    parser.add_argument("--grace", type=float, default=1.0, metavar="SEC",
                        help="seconds between SIGTERM and SIGKILL when a "
                             "worker overruns its budget (default 1.0)")
    parser.add_argument("--retries", type=int, default=1,
                        help="reseeded retries per config after a crash/"
                             "corrupt/lost failure (default 1)")
    parser.add_argument("--certify", choices=("off", "sat", "full"),
                        default="sat",
                        help="boundary re-certification of worker answers "
                             "(default: sat models only)")
    parser.add_argument("--inject-faults", metavar="SPEC", default=None,
                        help="deterministic fault injection for testing, "
                             "e.g. 'crash@0,hang-hard@2' or 'hang@*' "
                             "(kinds: crash segv hang hang-hard membomb "
                             "corrupt wrong-answer lost)")


def _run_portfolio(args, circuit, tracer=None) -> int:
    """Shared implementation of ``solve --portfolio`` and ``portfolio``."""
    from .runtime import FaultPlan, ladder_from_names, solve_portfolio
    try:
        faults = FaultPlan.parse(getattr(args, "inject_faults", None))
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    ladder = None
    if getattr(args, "ladder", None):
        ladder = ladder_from_names(args.ladder.split(","))
    report = solve_portfolio(
        circuit, budget=args.budget, workers=args.workers,
        mem_limit_mb=args.mem_limit, grace_seconds=args.grace,
        ladder=ladder, max_retries=args.retries, certify=args.certify,
        faults=faults, tracer=tracer)
    if args.json:
        import json
        print(json.dumps(dict(report.as_dict(), instance=args.file),
                         indent=2))
        return _status_code(report.result)
    print("portfolio: " + report.summary())
    for attempt in report.attempts:
        line = "  {:12s} try {}  {:14s} {:8.3f}s".format(
            attempt.engine, attempt.attempt + 1, attempt.outcome,
            attempt.seconds)
        if attempt.detail:
            line += "  " + attempt.detail
        print(line)
    if report.skipped:
        reason = "winner found" if report.winner else "budget exhausted"
        print("  not attempted ({}): {}".format(reason,
                                                ", ".join(report.skipped)))
    return _print_result(report.result, args.file)


def _run_cubes(args, circuit, label: str, workers: int, tracer=None) -> int:
    """Shared implementation of ``cube`` and ``solve --cubes N``."""
    from .cube import CutterOptions, solve_cubes
    from .runtime import FaultPlan
    try:
        faults = FaultPlan.parse(getattr(args, "inject_faults", None))
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    cutter = CutterOptions(
        max_cubes=getattr(args, "max_cubes", None),
        cubes_per_worker=getattr(args, "cubes_per_worker", 8),
        max_depth=getattr(args, "max_depth", 12))
    from .durable.checkpoint import CheckpointError
    try:
        report = solve_cubes(
            circuit, workers=workers, cutter=cutter,
            kind=getattr(args, "engine", "csat"), preset_name=args.preset,
            budget=args.budget, mem_limit_mb=args.mem_limit,
            grace_seconds=args.grace, max_retries=args.retries,
            certify=args.certify, faults=faults, trace=tracer,
            checkpoint_path=getattr(args, "checkpoint", None),
            checkpoint_every=getattr(args, "checkpoint_every", 8),
            resume_from=getattr(args, "resume", None))
    except CheckpointError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. --certify full, which cube mode structurally cannot honour
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(dict(report.as_dict(), instance=label), indent=2))
        return _status_code(report.result)
    print("cube: " + report.summary())
    if report.resumed:
        print("  resumed: {} cube(s) already closed by the "
              "checkpoint".format(report.resumed))
    for outcome in report.cubes:
        line = "  cube {:3d}  {:14s} {:8.3f}s  {} literals".format(
            outcome.index, outcome.status, outcome.seconds,
            len(outcome.literals))
        if outcome.pruned_by is not None:
            line += "  (core of cube {})".format(outcome.pruned_by)
        elif outcome.attempts > 1:
            line += "  ({} attempts)".format(outcome.attempts)
        print(line)
    return _print_result(report.result, label)


def _status_code(result) -> int:
    if result.interrupted:
        return 130
    if result.status == "SAT":
        return 10
    if result.status == "UNSAT":
        return 20
    return 0


def cmd_solve(args) -> int:
    from .proof import ProofLog
    circuit = _read_circuit(args.file)
    if args.portfolio:
        tracer, _ = _observability(args)
        code = _run_portfolio(args, circuit, tracer=tracer)
        _finish_trace(tracer)
        return code
    if args.cubes:
        tracer, _ = _observability(args)
        code = _run_cubes(args, circuit, args.file, workers=args.cubes,
                          tracer=tracer)
        _finish_trace(tracer)
        return code
    proof = ProofLog() if args.proof else None
    tracer, obs_kwargs = _observability(args)
    options = preset(args.preset, **obs_kwargs)
    solver = CircuitSolver(circuit, options, proof=proof)
    result = solver.solve(limits=_limits(args))
    _finish_trace(tracer)
    code = _print_result(result, args.file, as_json=args.json)
    if args.proof and result.is_unsat:
        with open(args.proof, "w") as fh:
            fh.write(proof.to_text())
        print("wrote DRUP proof to {} ({} steps)".format(args.proof,
                                                         len(proof)))
    if result.is_sat and args.model:
        for pi in circuit.inputs:
            print("{} = {}".format(circuit.name_of(pi) or pi,
                                   int(result.model.get(pi, False))))
    return code


def cmd_solve_cnf(args) -> int:
    from .circuit.source import load_dimacs
    formula = load_dimacs(args.file)
    tracer, obs_kwargs = _observability(args)
    if args.via_circuit:
        circuit, _ = cnf_to_circuit(formula)
        result = CircuitSolver(circuit, preset(args.preset, **obs_kwargs)) \
            .solve(limits=_limits(args))
    else:
        from .cnf.solver import make_solver
        result = make_solver(formula, backend=args.backend,
                             **obs_kwargs).solve(limits=_limits(args))
    _finish_trace(tracer)
    return _print_result(result, args.file, as_json=args.json)


def cmd_equiv(args) -> int:
    left = _read_circuit(args.left)
    right = _read_circuit(args.right)
    result = check_equivalence(left, right, preset(args.preset),
                               limits=_limits(args))
    if result.is_unsat:
        print("EQUIVALENT ({:.3f}s, {} conflicts)".format(
            result.time_seconds, result.stats.conflicts))
        return 0
    if result.is_sat:
        print("NOT EQUIVALENT ({:.3f}s) — counterexample exists".format(
            result.time_seconds))
        return 1
    print("UNDECIDED (budget exhausted)")
    return 2


def cmd_sweep(args) -> int:
    circuit = _read_circuit(args.file)
    result = sat_sweep(circuit,
                       per_candidate_conflicts=args.candidate_conflicts)
    if args.json:
        import json
        print(json.dumps(dict(result.as_dict(), instance=args.file),
                         indent=2))
    else:
        print("gates: {} -> {} (merged {} pairs, {} constants; "
              "{} refuted, {} undecided) in {:.3f}s".format(
                  result.gates_before, result.gates_after,
                  result.merged_pairs, result.merged_constants,
                  result.refuted, result.undecided, result.seconds))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(write_bench(result.circuit))
        print("wrote {}".format(args.output), file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    circuit = _read_circuit(args.file)
    report = validate(circuit)
    print(statistics(circuit).summary())
    for warning in report.warnings:
        print("warning: {}".format(warning))
    for error in report.errors:
        print("ERROR: {}".format(error))
    return 0 if report.ok else 1


def cmd_bmc(args) -> int:
    with open(args.file) as fh:
        seq = read_bench_sequential(fh, name=args.file)
    print(seq)
    frame, result = bounded_model_check(seq, bad_output=args.output_index,
                                        max_frames=args.frames,
                                        options=preset(args.preset),
                                        limits=_limits(args))
    if frame is not None:
        print("property FAILS at frame {} ({})".format(frame, result.status))
        return 1
    print("no counterexample within {} frames ({})".format(args.frames,
                                                           result.status))
    return 0


def cmd_atpg(args) -> int:
    from .atpg import full_fault_list, generate_tests
    circuit = _read_circuit(args.file)
    faults = full_fault_list(circuit)
    result = generate_tests(circuit, faults, options=preset(args.preset),
                            per_fault_limits=_limits(args),
                            random_patterns=args.random_patterns)
    print(result.summary())
    if args.vectors:
        for pattern in result.patterns:
            print("{} # detects {}".format(pattern.as_bits(circuit),
                                           len(pattern.detects)))
    return 0


def cmd_gen(args) -> int:
    from .gen.iscas import catalog_names, circuit_by_name
    from .gen.scan import scan_catalog_names, scan_circuit_by_name
    from .gen.velev import vliw_like
    name = args.name.lower()
    if name in catalog_names():
        circuit = circuit_by_name(name)
    elif name.split(".")[0] in scan_catalog_names():
        circuit = scan_circuit_by_name(name)
    elif name.startswith("9vliw"):
        circuit = vliw_like(int(name[5:]))
    else:
        print("unknown circuit {!r}; known: {} / {} / 9vliwNNN".format(
            args.name, ", ".join(catalog_names()),
            ", ".join(scan_catalog_names())), file=sys.stderr)
        return 2
    text = write_bench(circuit)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print("wrote {} ({} gates)".format(args.output, circuit.num_ands))
    else:
        sys.stdout.write(text)
    return 0


def cmd_check_proof(args) -> int:
    from .circuit.cnf_convert import tseitin
    from .proof import ProofLog, check_drup
    circuit = _read_circuit(args.file)
    log = ProofLog()
    with open(args.proof) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            delete = tokens[0] == "d"
            if delete:
                tokens = tokens[1:]
            lits = [int(t) for t in tokens]
            if lits and lits[-1] == 0:
                lits = lits[:-1]
            if delete:
                log.delete(lits)
            else:
                log.add(lits)
    formula, _ = tseitin(circuit, objectives=list(circuit.outputs))
    verdict = check_drup(formula, log)
    if verdict.ok:
        print("proof VERIFIED ({} steps)".format(verdict.steps_checked))
        return 0
    print("proof REJECTED: {}".format(verdict.reason))
    return 1


def cmd_fuzz(args) -> int:
    from .result import Limits as _Limits
    from .verify.fuzz import DEFAULT_CASE_LIMITS, run_fuzz

    limits = DEFAULT_CASE_LIMITS
    if args.budget is not None:
        limits = _Limits(max_conflicts=limits.max_conflicts,
                         max_seconds=args.budget)

    def progress(index, oracle):
        if args.verbose:
            print("case {:5d}: {}".format(index, oracle.summary()))
        elif index and index % 50 == 0:
            print("... {} cases".format(index))

    report = run_fuzz(cases=args.cases, seed=args.seed,
                      corpus_dir=args.corpus, max_gates=args.max_gates,
                      limits=limits, shrink=not args.no_shrink,
                      progress=progress)
    print(report.summary())
    for failure in report.failures:
        print("FAILURE case {}: {} ({}); {} -> {} gates".format(
            failure.case_index, failure.kind, failure.detail,
            failure.original_gates, failure.shrunk_gates))
        if failure.shrunk_path:
            print("  reproducer: {}".format(failure.shrunk_path))
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    from .verify.oracle import differential_check
    circuit = _read_circuit(args.file)
    report = differential_check(circuit, limits=_limits(args))
    print(report.summary())
    for answer in report.answers:
        cert = ""
        if answer.certificate is not None:
            cert = " [certified]" if answer.certificate.ok \
                else " [CERTIFICATION FAILED: {}]".format(
                    answer.certificate.detail)
        note = " ({})".format(answer.note) if answer.note else ""
        print("  {:12s} {:8s} {:.3f}s{}{}".format(
            answer.name, answer.status, answer.time_seconds, cert, note))
    return 0 if report.ok else 1


def cmd_portfolio(args) -> int:
    circuit = _read_circuit(args.file)
    from .obs import JsonlTracer
    tracer = JsonlTracer(args.trace) if args.trace else None
    code = _run_portfolio(args, circuit, tracer=tracer)
    _finish_trace(tracer)
    return code


def cmd_cube(args) -> int:
    if bool(args.file) == bool(args.instance):
        print("error: give a circuit file OR --instance NAME",
              file=sys.stderr)
        return 2
    if args.instance:
        from .bench.instances import instance_by_name
        circuit = instance_by_name(args.instance).build()
        label = args.instance
    else:
        circuit = _read_circuit(args.file)
        label = args.file

    from .obs import JsonlTracer
    tracer = JsonlTracer(args.trace) if args.trace else None
    code = _run_cubes(args, circuit, label, workers=args.workers,
                      tracer=tracer)
    _finish_trace(tracer)
    return code


def cmd_bench(args) -> int:
    from .bench.tables import ALL_TABLES
    if args.table not in ALL_TABLES:
        print("unknown table {!r}; known: {}".format(
            args.table, ", ".join(ALL_TABLES)), file=sys.stderr)
        return 2
    result = ALL_TABLES[args.table](args.budget)
    print(result)
    if args.json:
        from .obs.export import export_table
        export_table(result, args.json)
        print("wrote {}".format(args.json))
    return 0 if result.all_passed else 1


def cmd_trace(args) -> int:
    import json
    from .obs.summary import build_span_tree, read_trace, summarize_events
    skipped: List[int] = []
    try:
        events = list(read_trace(args.file, skipped=skipped))
        summary = summarize_events(events, path=args.file,
                                   bins=args.bins, top=args.top)
    except (OSError, ValueError) as exc:
        print("cannot summarize {}: {}".format(args.file, exc),
              file=sys.stderr)
        return 2
    if skipped:
        print("warning: skipped {} malformed line(s) "
              "(first at line {})".format(len(skipped), skipped[0]),
              file=sys.stderr)
    if summary.events == 0:
        print("empty trace: {}".format(args.file), file=sys.stderr)
        return 2
    tree = build_span_tree(events)
    if args.json:
        doc = summary.as_dict()
        if tree.spans:
            doc["spans"] = tree.as_dict()
        if skipped:
            doc["skipped_lines"] = len(skipped)
        print(json.dumps(doc, indent=2))
    else:
        print(summary.format())
        if tree.spans:
            print()
            print(tree.format())
    return 0


def cmd_fingerprint(args) -> int:
    from .serve.fingerprint import fingerprint
    if bool(args.file) == bool(args.instance):
        print("error: give a circuit file OR --instance NAME",
              file=sys.stderr)
        return 2
    if args.instance:
        from .bench.instances import instance_by_name
        circuit = instance_by_name(args.instance).build()
        label = args.instance
    else:
        circuit = _read_circuit(args.file)
        label = args.file
    fp = fingerprint(circuit)
    if args.json:
        import json
        print(json.dumps(dict(fp.as_dict(), instance=label), indent=2))
    else:
        print("{}  {}".format(fp.digest, label))
        print("inputs={} ands={} outputs={} (canonical cone)".format(
            fp.num_inputs, fp.num_ands, fp.num_outputs))
    return 0


def cmd_serve(args) -> int:
    import signal as _signal
    from .obs import JsonlTracer
    from .serve.cache import AnswerCache
    from .serve.server import ReproServer
    tracer = JsonlTracer(args.trace) if args.trace else None
    cache = AnswerCache(max_entries=args.cache_size,
                        store_path=args.cache_file,
                        cache_unsat=not args.no_cache_unsat)
    server = ReproServer(
        host=args.host, port=args.port, workers=args.workers,
        cache=cache, max_queue=args.max_queue,
        mem_limit_mb=args.mem_limit, grace_seconds=args.grace,
        certify=args.certify, max_wall_seconds=args.job_timeout,
        tracer=tracer, journal_path=args.journal,
        store_path=args.store, incremental=not args.no_incremental)
    print("repro serve: listening on {} ({} workers, cache {} "
          "entries{}{}{})"
          .format(server.address, args.workers, args.cache_size,
                  ", cache file " + args.cache_file if args.cache_file
                  else "",
                  ", journal " + args.journal if args.journal else "",
                  ", knowledge store " + args.store if args.store else ""),
          file=sys.stderr)
    if server.recovery:
        print("repro serve: recovered from journal — {} record(s), "
              "{} answer(s) rehydrated, {} job(s) re-admitted"
              .format(server.recovery["records"],
                      server.recovery["rehydrated"],
                      server.recovery["replayed"]), file=sys.stderr)

    # Graceful termination: SIGTERM/SIGINT drain the scheduler and close
    # (fsync) the journal before the listener goes away, so an operator
    # `kill` or Ctrl-C never loses an admitted job.
    def _graceful(signum, frame):
        print("repro serve: caught signal {}, draining...".format(signum),
              file=sys.stderr)
        server.request_shutdown(drain=True)

    previous = {}
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[sig] = _signal.signal(sig, _graceful)
        except (ValueError, OSError):
            pass
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _finish_trace(tracer)
    return 0


#: Exit codes surfacing the worker-failure taxonomy through ``submit``:
#: a scripted caller can tell a budget kill from a crash without parsing
#: stderr.  SAT/UNSAT keep their 10/20 codes; these only apply when the
#: job came back UNKNOWN *because* workers failed.
_FAILURE_EXIT_CODES = {"TIMEOUT": 3, "MEMOUT": 4, "CRASHED": 5,
                       "CORRUPT_ANSWER": 6, "LOST": 7}


def _failure_exit(result) -> int:
    """UNKNOWN-with-failures exit code: the dominant failure kind.

    The kind every failed worker agrees on wins; mixed kinds fall back
    to the first one reported (the earliest, usually the root cause).
    """
    failures = result.get("failures") or []
    kinds = [f.get("kind") for f in failures
             if f.get("kind") in _FAILURE_EXIT_CODES]
    if not kinds:
        return 0
    return _FAILURE_EXIT_CODES[kinds[0]]


def cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError
    client = ServeClient(args.host, args.port, timeout=args.timeout,
                         retries=args.retries)
    limits = {"max_seconds": args.budget} if args.budget else None
    try:
        if args.instance:
            snap = client.submit(instance=args.instance, engine=args.engine,
                                 preset=args.preset, limits=limits,
                                 priority=args.priority, fault=args.fault,
                                 cube_workers=args.cube_workers,
                                 wait=0 if args.no_wait else args.wait,
                                 idempotency_key=args.idempotency_key,
                                 incremental=not args.no_incremental)
        else:
            from .circuit.source import read_source_text
            text = read_source_text(args.file)
            snap = client.submit(circuit_text=text, engine=args.engine,
                                 preset=args.preset, limits=limits,
                                 priority=args.priority, fault=args.fault,
                                 label=args.file,
                                 cube_workers=args.cube_workers,
                                 wait=0 if args.no_wait else args.wait,
                                 idempotency_key=args.idempotency_key,
                                 incremental=not args.no_incremental)
        if not args.no_wait and snap.get("state") not in ("DONE",
                                                          "CANCELLED"):
            snap = client.wait_for(snap["job"], timeout=args.wait)
    except ServeError as exc:
        # exc carries the server's structured code/message verbatim;
        # attempts > 1 means the client's retry budget was spent first.
        suffix = (" (after {} attempts)".format(exc.attempts)
                  if exc.attempts > 1 else "")
        print("error: {}{}".format(exc, suffix), file=sys.stderr)
        return 2
    result = snap.get("result") or {}
    failures = result.get("failures") or []
    kinds = sorted({f.get("kind", "?") for f in failures})
    if args.json:
        import json
        print(json.dumps(snap, indent=2))
    else:
        status = result.get("status", snap.get("state"))
        flags = []
        if result.get("cached"):
            flags.append("cached")
        if snap.get("deduped"):
            flags.append("deduped")
        # Surface the failure taxonomy in the answer line itself, e.g.
        # "job 3: UNKNOWN (TIMEOUT)" — the kinds arrive verbatim from
        # the server's structured payload.
        if status == "UNKNOWN" and kinds:
            status = "{} ({})".format(status, ", ".join(kinds))
        print("job {}: {}{}".format(
            snap.get("job"), status,
            " [{}]".format(", ".join(flags)) if flags else ""))
        if result.get("model_inputs"):
            for name, value in sorted(result["model_inputs"].items()):
                print("{} = {}".format(name, value))
        if result.get("sweep"):
            sweep = result["sweep"]
            absorbed = result.get("absorbed") or {}
            print("sweep: gates {} -> {} (merged {} pairs, {} constants); "
                  "absorbed {} consts, {} equivs, {} lemmas".format(
                      sweep.get("gates_before"), sweep.get("gates_after"),
                      sweep.get("merged_pairs"),
                      sweep.get("merged_constants"),
                      absorbed.get("consts", 0), absorbed.get("equivs", 0),
                      absorbed.get("lemmas", 0)))
        for failure in failures:
            print("worker failure: {} [{}] {}".format(
                failure.get("engine", "?"), failure.get("kind", "?"),
                failure.get("detail", "")), file=sys.stderr)
    if result.get("status") == "SAT":
        return 10
    if result.get("status") == "UNSAT":
        return 20
    return _failure_exit(result)


def cmd_status(args) -> int:
    """Render a node's /status for humans (or --json for scripts)."""
    from .serve.client import ServeClient, ServeError
    try:
        client = ServeClient.from_url(args.url, timeout=args.timeout,
                                      retries=args.retries)
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    try:
        payload = client.status()
    except ServeError as exc:
        suffix = (" (after {} attempts)".format(exc.attempts)
                  if exc.attempts > 1 else "")
        print("error: {}{}".format(exc, suffix), file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(payload, indent=2))
        return 0
    if "node" in payload:  # a conquer node
        node = payload["node"]
        print("{} at {}  [conquer-node]".format(node.get("name", "?"),
                                                client.url))
        print("  workers: {}".format(node.get("workers")))
        print("  queue: {} queued, {} running, {} done of {} jobs{}".format(
            node.get("queued"), node.get("running"), node.get("done"),
            node.get("jobs"), "  (draining)" if node.get("draining")
            else ""))
        pools = node.get("lemma_pools") or {}
        for key, size in sorted(pools.items()):
            print("  circuit {}...: {} pooled lemmas".format(key[:12], size))
        counts = node.get("counts") or {}
        if counts:
            print("  counts: " + ", ".join(
                "{}={}".format(k, counts[k]) for k in sorted(counts)))
        return 0
    if "scheduler" in payload:  # a serve server
        sched = payload["scheduler"]
        print("serve at {}".format(client.url))
        for key in sorted(sched):
            print("  {}: {}".format(key, sched[key]))
        if payload.get("journal"):
            print("  journal: {}".format(payload["journal"]))
        if payload.get("recovery"):
            print("  recovery: {}".format(payload["recovery"]))
        return 0
    for key in sorted(payload):
        print("{}: {}".format(key, payload[key]))
    return 0


def cmd_conquer_node(args) -> int:
    import signal as _signal
    from .dist import ConquerNode
    from .obs import JsonlTracer
    tracer = JsonlTracer(args.trace) if args.trace else None
    try:
        node = ConquerNode(
            host=args.host, port=args.port, workers=args.workers,
            mem_limit_mb=args.mem_limit, grace_seconds=args.grace,
            certify=args.certify, max_queue=args.max_queue, name=args.name,
            tracer=tracer)
    except SolverError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    print("repro conquer-node: {} listening on {} ({} workers)".format(
        node.name, node.address, node.workers), file=sys.stderr)

    def _graceful(signum, frame):
        print("repro conquer-node: caught signal {}, draining..."
              .format(signum), file=sys.stderr)
        node.request_shutdown(drain=True)

    previous = {}
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[sig] = _signal.signal(sig, _graceful)
        except (ValueError, OSError):
            pass
    try:
        node.serve_forever()
    finally:
        for sig, handler in previous.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _finish_trace(tracer)
    return 0


def cmd_dist(args) -> int:
    if bool(args.file) == bool(args.instance):
        print("error: give a circuit file OR --instance NAME",
              file=sys.stderr)
        return 2
    if bool(args.nodes) == bool(args.spawn_local):
        print("error: give --nodes URL,URL OR --spawn-local N",
              file=sys.stderr)
        return 2
    if args.instance:
        from .bench.instances import instance_by_name
        circuit = instance_by_name(args.instance).build()
        label = args.instance
    else:
        circuit = _read_circuit(args.file)
        label = args.file
    from .cube import CutterOptions
    from .dist import solve_distributed
    from .durable.checkpoint import CheckpointError
    cutter = CutterOptions(max_cubes=args.max_cubes,
                           cubes_per_worker=args.cubes_per_worker,
                           max_depth=args.max_depth)
    fleet = []
    if args.spawn_local:
        from .dist.bench import launch_local_nodes
        fleet = launch_local_nodes(args.spawn_local,
                                   workers=args.node_workers)
        urls = [n.url for n in fleet]
        print("spawned {} local conquer node(s): {}".format(
            len(urls), ", ".join(urls)), file=sys.stderr)
    else:
        urls = [u.strip() for u in args.nodes.split(",") if u.strip()]
    try:
        report = solve_distributed(
            circuit, nodes=urls, kind=args.engine, preset_name=args.preset,
            cutter=cutter, budget=args.budget, certify=args.certify,
            steal_after=args.steal_after,
            exchange_every=args.exchange_every,
            max_retries=args.retries, trace=args.trace,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume, label=label)
    except (CheckpointError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    finally:
        for node in fleet:
            node.stop()
    if args.json:
        import json
        print(json.dumps(dict(report.as_dict(), instance=label), indent=2))
        return _status_code(report.result)
    print("dist: " + report.summary())
    if report.resumed:
        print("  resumed: {} cube(s) already closed by the "
              "checkpoint".format(report.resumed))
    for info in report.nodes:
        line = "  node {:20s} {}  {} dispatched, {} completed".format(
            info.name or "?", "up  " if info.alive else "DEAD",
            info.dispatched, info.completed)
        if info.steals:
            line += ", {} stolen".format(info.steals)
        if info.duplicates:
            line += ", {} duplicate(s) discarded".format(info.duplicates)
        if not info.alive and info.detail:
            line += "  ({})".format(info.detail)
        print(line)
    return _print_result(report.result, label)


def cmd_chaos(args) -> int:
    """Kill → restart → recover loops asserting the durability contract."""
    import json
    from .durable.chaos import ChaosError, chaos_conquer, chaos_serve
    from .runtime.faults import KillPlan
    reports = []
    log = sys.stderr if args.verbose else None
    try:
        if args.mode in ("serve", "both"):
            kill = KillPlan(min_delay=args.kill_min, max_delay=args.kill_max,
                            seed=args.seed)
            reports.append(chaos_serve(
                rounds=args.rounds, seed=args.seed, workers=args.workers,
                instances=(args.instances.split(",") if args.instances
                           else None),
                budget=args.budget, kill=kill, log=log))
        if args.mode in ("conquer", "both"):
            reports.append(chaos_conquer(
                instance=args.instance, seed=args.seed,
                workers=args.workers, budget=args.budget, log=log))
    except ChaosError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.summary())
            for violation in report.violations:
                print("  VIOLATION: {}".format(violation))
    return 0 if all(r.ok for r in reports) else 1


def cmd_metrics(args) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen
    from .obs.metrics import parse_exposition
    url = "http://{}:{}{}".format(args.host, args.port, args.path)
    try:
        with urlopen(url, timeout=args.timeout) as resp:
            text = resp.read().decode("utf-8")
    except (URLError, OSError) as exc:
        print("error: cannot scrape {}: {}".format(url, exc),
              file=sys.stderr)
        return 2
    if args.raw:
        sys.stdout.write(text)
        return 0
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        print("invalid exposition from {}: {}".format(url, exc),
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(families, indent=2, sort_keys=True))
        return 0
    for name in sorted(families):
        family = families[name]
        print("{} ({})".format(name, family["type"]))
        for sample_name, labels, value in family["samples"]:
            label_text = ",".join(
                "{}={}".format(k, v) for k, v in sorted(labels.items()))
            print("  {}{}{}{}  {}".format(
                sample_name, "{" if label_text else "", label_text,
                "}" if label_text else "", value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a .bench/.aag circuit")
    p.add_argument("file")
    p.add_argument("--model", action="store_true",
                   help="print the input assignment on SAT")
    p.add_argument("--proof", metavar="FILE",
                   help="write a DRUP proof here on UNSAT")
    p.add_argument("--portfolio", action="store_true",
                   help="solve fault-tolerantly: isolated worker "
                        "subprocesses, hard limits, engine failover")
    p.add_argument("--cubes", type=int, default=0, metavar="N",
                   help="cube-and-conquer across N isolated workers "
                        "(see the `cube` command for full control)")
    _add_common(p)
    _add_observability(p)
    _add_runtime(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("portfolio",
                       help="fault-tolerant portfolio solve of a circuit")
    p.add_argument("file")
    p.add_argument("--budget", type=float, default=None,
                   help="shared wall-clock budget in seconds; the run "
                        "finishes within budget + grace even if every "
                        "worker hangs")
    p.add_argument("--ladder", metavar="NAMES", default=None,
                   help="comma-separated configs to try, e.g. "
                        "'explicit,cnf,brute' (default: auto ladder)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write worker lifecycle events here (JSONL)")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON on stdout")
    _add_runtime(p)
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("cube",
                       help="cube-and-conquer: split the search space "
                            "with a lookahead cutter, conquer the cubes "
                            "on isolated workers")
    p.add_argument("file", nargs="?", default=None,
                   help=".bench/.aag circuit (or use --instance)")
    p.add_argument("--instance", metavar="NAME", default=None,
                   help="built-in benchmark instance, e.g. mult6.arith")
    p.add_argument("--engine", choices=("csat", "cnf"), default="csat",
                   help="per-cube engine: csat runs --preset, cnf runs "
                        "the flat kernel on the CNF encoding "
                        "(default: csat)")
    p.add_argument("--max-cubes", type=int, default=None, metavar="N",
                   help="hard cap on open cubes (default: scale with "
                        "workers)")
    p.add_argument("--cubes-per-worker", type=int, default=8, metavar="N",
                   help="cubes generated per worker when --max-cubes is "
                        "unset (default 8)")
    p.add_argument("--max-depth", type=int, default=12, metavar="D",
                   help="cube tree depth cutoff (default 12)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write cube/worker lifecycle events here (JSONL)")
    p.add_argument("--json", action="store_true",
                   help="print the full cube report as JSON on stdout")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="persist cube outcomes + the lemma pool here "
                        "(atomically) so a killed run can be resumed")
    p.add_argument("--checkpoint-every", type=int, default=8, metavar="N",
                   help="checkpoint cadence in completed cubes (default 8)")
    p.add_argument("--resume", metavar="FILE", default=None,
                   help="resume from a checkpoint: skip closed cubes, "
                        "re-inject the lemma pool (refuses a checkpoint "
                        "from a different circuit/objectives)")
    _add_common(p)
    _add_runtime(p)
    p.set_defaults(func=cmd_cube, preset=CUBE_PRESET, workers=4)

    p = sub.add_parser("solve-cnf", help="solve a DIMACS CNF file")
    p.add_argument("file")
    p.add_argument("--via-circuit", action="store_true",
                   help="convert to a 2-level circuit and use the circuit "
                        "solver (the paper's CNF path)")
    p.add_argument("--backend", choices=("legacy", "kernel"),
                   default="legacy",
                   help="CDCL implementation: the legacy object-graph "
                        "solver or the flat-array kernel")
    _add_common(p)
    _add_observability(p)
    p.set_defaults(func=cmd_solve_cnf)

    p = sub.add_parser("equiv", help="equivalence-check two .bench circuits")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("sweep", help="SAT-sweep a circuit")
    p.add_argument("file", help=".bench/.aag/.cnf circuit, or - for stdin")
    p.add_argument("-o", "--output", help="write reduced .bench here")
    p.add_argument("--candidate-conflicts", type=int, default=2000)
    p.add_argument("--json", action="store_true",
                   help="print the sweep summary as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="structural statistics / validation")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bmc", help="bounded model check a sequential .bench")
    p.add_argument("file")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--output-index", type=int, default=0,
                   help="which primary output is the property (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_bmc)

    p = sub.add_parser("atpg", help="stuck-at test generation")
    p.add_argument("file")
    p.add_argument("--random-patterns", type=int, default=64)
    p.add_argument("--vectors", action="store_true",
                   help="print the generated test vectors")
    _add_common(p)
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser("gen", help="emit a built-in benchmark circuit")
    p.add_argument("name", help="e.g. c6288, s13207, 9vliw004")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-proof",
                       help="verify a DRUP proof against a circuit")
    p.add_argument("file", help="the circuit the proof refutes")
    p.add_argument("proof", help="DRUP proof file from solve --proof")
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("bench", help="regenerate one paper table")
    p.add_argument("table", help="table1 .. table10")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the table's records/checks as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace",
                       help="summarize a JSONL trace from solve --trace")
    p.add_argument("file", help="trace file (JSONL events)")
    p.add_argument("--bins", type=int, default=10,
                   help="conflict-rate timeline buckets (default 10)")
    p.add_argument("--top", type=int, default=10,
                   help="how many top decision signals to show (default 10)")
    p.add_argument("--json", action="store_true",
                   help="print the summary as JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("fuzz", help="differential fuzzing of all engines")
    p.add_argument("--cases", type=int, default=200,
                   help="number of random instances (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; everything is deterministic in it")
    p.add_argument("--corpus", default="corpus",
                   help="directory for failing-case artifacts "
                        "(default: corpus/; only written on failure)")
    p.add_argument("--max-gates", type=int, default=60,
                   help="largest random circuit to generate (default 60)")
    p.add_argument("--budget", type=float, default=None,
                   help="per-case wall-clock budget in seconds")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of failing cases")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every case's oracle summary")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("oracle",
                       help="cross-check one circuit across every engine")
    p.add_argument("file")
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fingerprint",
                       help="canonical structural fingerprint of a circuit "
                            "(the serve cache key)")
    p.add_argument("file", nargs="?", default=None,
                   help=".bench/.aag/.cnf circuit, or - for stdin")
    p.add_argument("--instance", metavar="NAME", default=None,
                   help="built-in benchmark instance instead of a file")
    p.add_argument("--json", action="store_true",
                   help="print the fingerprint as JSON")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("serve",
                       help="serve solves over JSON-over-HTTP with an "
                            "answer cache and isolated workers")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8587)
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent solve worker threads (each runs its "
                        "job in an isolated subprocess; default 2)")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="admission control: reject past this queue depth "
                        "(default 64)")
    p.add_argument("--cache-size", type=int, default=512, metavar="N",
                   help="answer cache capacity in entries (default 512)")
    p.add_argument("--cache-file", metavar="FILE", default=None,
                   help="persist the answer cache to this JSONL file")
    p.add_argument("--no-cache-unsat", action="store_true",
                   help="cache SAT answers only (paranoid mode: UNSAT "
                        "entries cannot be re-certified per request)")
    p.add_argument("--job-timeout", type=float, default=None, metavar="SEC",
                   help="hard wall-clock cap applied to every job")
    p.add_argument("--mem-limit", type=int, default=None, metavar="MB",
                   help="hard per-worker address-space cap in MB")
    p.add_argument("--grace", type=float, default=1.0, metavar="SEC",
                   help="SIGTERM-to-SIGKILL grace for overrunning workers")
    p.add_argument("--certify", choices=("off", "sat", "full"),
                   default="sat",
                   help="boundary re-certification of worker answers")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write serve/job/worker lifecycle events (JSONL)")
    p.add_argument("--journal", metavar="FILE", default=None,
                   help="append-only job journal (WAL): on restart, "
                        "finished jobs rehydrate the answer cache and "
                        "unfinished ones are re-admitted")
    p.add_argument("--store", metavar="FILE", default=None,
                   help="durable knowledge store (JSONL): sweep jobs "
                        "bank proven cone facts here and solve jobs "
                        "replay them as a pre-pass")
    p.add_argument("--no-incremental", action="store_true",
                   help="keep the store for sweep jobs but disable the "
                        "solve-time pre-pass")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit an instance to a running repro serve")
    p.add_argument("file", nargs="?", default=None,
                   help=".bench/.aag/.cnf circuit, or - for stdin")
    p.add_argument("--instance", metavar="NAME", default=None,
                   help="built-in benchmark instance instead of a file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8587)
    p.add_argument("--engine", "--job",
                   choices=("csat", "cnf", "brute", "bdd", "cube",
                            "sweep"), default="csat",
                   help="engine, or 'sweep' to reduce the circuit into "
                        "the server's knowledge store instead of "
                        "solving it")
    p.add_argument("--preset", choices=_PRESETS, default="explicit")
    p.add_argument("--budget", type=float, default=None,
                   help="per-request wall-clock budget in seconds")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier (default 0)")
    p.add_argument("--cube-workers", type=int, default=2, metavar="N",
                   help="cube fan-out when --engine cube (default 2)")
    p.add_argument("--wait", type=float, default=300.0, metavar="SEC",
                   help="seconds to wait for the answer (default 300)")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and print the job id without waiting")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="HTTP timeout per request (default 30)")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts on connection errors / 503 "
                        "back-pressure, with exponential backoff "
                        "(default 2; 0 fails fast)")
    p.add_argument("--idempotency-key", metavar="KEY", default=None,
                   help="client-chosen dedup key; retried/re-run submits "
                        "with the same key map onto one server-side job "
                        "(auto-minted when --retries > 0)")
    p.add_argument("--fault", metavar="KIND", default=None,
                   help="test-only worker fault injection (crash, hang, "
                        "membomb, ...)")
    p.add_argument("--no-incremental", action="store_true",
                   help="opt this job out of the knowledge-store "
                        "pre-pass (answers are identical either way)")
    p.add_argument("--json", action="store_true",
                   help="print the job snapshot as JSON")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status",
                       help="render a running node's /status "
                            "(serve server or conquer node)")
    p.add_argument("url", help="node URL, e.g. http://127.0.0.1:8587")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts on connection errors (default 0)")
    p.add_argument("--json", action="store_true",
                   help="print the raw /status payload as JSON")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("conquer-node",
                       help="serve cube solves for a distributed "
                            "conquest (see `repro dist`)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8590)
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent cube workers, each an isolated "
                        "subprocess (default 2)")
    p.add_argument("--mem-limit", type=int, default=None, metavar="MB",
                   help="hard per-worker address-space cap in MB")
    p.add_argument("--grace", type=float, default=1.0, metavar="SEC",
                   help="SIGTERM-to-SIGKILL grace for overrunning workers")
    p.add_argument("--certify", choices=("off", "sat"), default="sat",
                   help="boundary re-certification of cube answers "
                        "(default: sat models)")
    p.add_argument("--max-queue", type=int, default=256, metavar="N",
                   help="admission control: reject past this queue depth")
    p.add_argument("--name", default=None,
                   help="node name in traces and reports "
                        "(default: node-<port>)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write node/worker lifecycle events here (JSONL)")
    p.set_defaults(func=cmd_conquer_node)

    p = sub.add_parser("dist",
                       help="distributed cube-and-conquer across remote "
                            "conquer nodes with work stealing and lemma "
                            "exchange")
    p.add_argument("file", nargs="?", default=None,
                   help=".bench/.aag circuit (or use --instance)")
    p.add_argument("--instance", metavar="NAME", default=None,
                   help="built-in benchmark instance, e.g. mult6.arith")
    p.add_argument("--nodes", metavar="URLS", default=None,
                   help="comma-separated conquer-node URLs, e.g. "
                        "http://10.0.0.2:8590,http://10.0.0.3:8590")
    p.add_argument("--spawn-local", type=int, default=0, metavar="N",
                   help="convenience: spawn N localhost conquer nodes "
                        "for this run instead of --nodes")
    p.add_argument("--node-workers", type=int, default=2, metavar="N",
                   help="workers per node with --spawn-local (default 2)")
    p.add_argument("--engine", choices=("csat", "cnf"), default="csat",
                   help="per-cube engine on every node: csat runs "
                        "--preset, cnf runs the flat kernel on the CNF "
                        "encoding (default: csat)")
    p.add_argument("--certify", choices=("off", "sat"), default="sat",
                   help="coordinator-side re-certification of node "
                        "answers (default: sat models)")
    p.add_argument("--max-cubes", type=int, default=None, metavar="N",
                   help="hard cap on open cubes (default: scale with the "
                        "fabric's total worker count)")
    p.add_argument("--cubes-per-worker", type=int, default=8, metavar="N",
                   help="cubes generated per worker when --max-cubes is "
                        "unset (default 8)")
    p.add_argument("--max-depth", type=int, default=12, metavar="D",
                   help="cube tree depth cutoff (default 12)")
    p.add_argument("--retries", type=int, default=1,
                   help="re-dispatches per cube after a retryable "
                        "(CRASHED/CORRUPT/LOST) failure (default 1)")
    p.add_argument("--steal-after", type=float, default=1.0, metavar="SEC",
                   help="idle nodes re-issue another node's cube once it "
                        "has been in flight this long (default 1.0)")
    p.add_argument("--exchange-every", type=float, default=1.0,
                   metavar="SEC",
                   help="lemma-exchange heartbeat period (default 1.0)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="persist cube outcomes + the lemma pool here so "
                        "a killed coordinator can be resumed")
    p.add_argument("--checkpoint-every", type=int, default=8, metavar="N",
                   help="checkpoint cadence in completed cubes (default 8)")
    p.add_argument("--resume", metavar="FILE", default=None,
                   help="resume from a checkpoint: skip closed cubes, "
                        "re-inject the lemma pool")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write coordinator/dispatch events here (JSONL); "
                        "nodes add their own spans under the same trace")
    p.add_argument("--json", action="store_true",
                   help="print the full dist report as JSON on stdout")
    _add_common(p)
    p.set_defaults(func=cmd_dist, preset=CUBE_PRESET)

    p = sub.add_parser("chaos",
                       help="kill -9 a serve node / conquer driver at "
                            "random points, restart, and assert no "
                            "answer was lost or solved twice")
    p.add_argument("--mode", choices=("serve", "conquer", "both"),
                   default="serve")
    p.add_argument("--rounds", type=int, default=2,
                   help="killed server generations before the final "
                        "drain (default 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the kill-point schedule (default 0)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--budget", type=float, default=120.0,
                   help="wall budget for the final recovery pass "
                        "(default 120)")
    p.add_argument("--kill-min", type=float, default=0.3,
                   help="earliest kill point in seconds (default 0.3)")
    p.add_argument("--kill-max", type=float, default=2.5,
                   help="latest kill point in seconds (default 2.5)")
    p.add_argument("--instances", metavar="LIST", default=None,
                   help="comma-separated serve workload (default: a "
                        "small mixed set)")
    p.add_argument("--instance", metavar="NAME", default="mult6.arith",
                   help="conquer-mode instance (default mult6.arith)")
    p.add_argument("--verbose", action="store_true",
                   help="narrate kills/restarts on stderr")
    p.add_argument("--json", action="store_true",
                   help="print the chaos reports as JSON")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("metrics",
                       help="scrape a running node's /metrics endpoint "
                            "and pretty-print it")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--path", default="/metrics",
                   help="endpoint path (default /metrics)")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--raw", action="store_true",
                   help="print the text exposition verbatim")
    p.add_argument("--json", action="store_true",
                   help="print the parsed families as JSON")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except KeyboardInterrupt:
        # Engines convert mid-solve Ctrl-C into UNKNOWN results themselves;
        # this catches interrupts outside a solve (parsing, preprocessing).
        print("interrupted", file=sys.stderr)
        return 130
    except (ParseError, CircuitError, ReproError, UnicodeDecodeError,
            OSError) as exc:
        # Bad user input (malformed .bench/AIGER/DIMACS, invalid circuit,
        # missing file): one line on stderr, exit 2, never a traceback.
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
