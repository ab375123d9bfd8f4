"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``solve``      solve a circuit (objective: every output = 1): a file, two
               files (their equivalence miter) or ``--instance NAME``, in
               process, as a fault-tolerant portfolio, as cube-and-conquer
               on local workers or across serve nodes (see below)
``solve-cnf``  solve a DIMACS file with the CNF baseline
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
               an answer cache and isolated solve workers; it also solves
               the cubes of ``solve --nodes``
``submit``     submit an instance to a running ``repro serve`` and wait
               for (or poll) the answer
``status``     render a running serve node's ``/status``; ``--metrics``
               scrapes its ``/metrics``
``chaos``      kill -9 a serve node or conquer driver at random points,
               restart it, and check that no answer was lost or solved twice

``solve`` takes one circuit file, two files (it solves their miter and
then prints ``EQUIVALENT``, ``NOT EQUIVALENT`` or ``UNDECIDED``) or
``--instance NAME``.  Its flags pick one mode:

* in process (the default), reading ``--preset``, ``--model``,
  ``--proof`` and ``--progress``;
* ``--portfolio``: isolated workers with hard limits and engine
  failover; ``--ladder`` picks the configs, ``--workers`` races that
  many at once;
* ``--workers N``: cube-and-conquer on N isolated local workers (0 runs
  the cubes in process);
* ``--nodes URL,...`` or ``--spawn-local N``: cube-and-conquer across
  serve nodes, with work stealing and lemma sharing.

Every mode reads ``--budget``, ``--trace`` and ``--json``; a flag the
picked mode does not read exits 2.

``solve``, ``solve-cnf`` and ``submit`` accept ``-`` as the file
argument to read the instance from stdin (format is sniffed).

Exit codes: 10 = SAT, 20 = UNSAT, 0 = success/UNKNOWN, 1 = check failed,
2 = bad input (malformed file, unknown name, invalid circuit, flags that
do not fit together), 130 = interrupted (Ctrl-C).  Malformed input never
produces a traceback.  ``submit`` additionally maps an UNKNOWN answer
caused by worker failures onto the failure taxonomy: 3 = TIMEOUT,
4 = MEMOUT, 5 = CRASHED, 6 = CORRUPT_ANSWER, 7 = LOST.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from . import __version__
from .circuit.bench_io import write_bench
from .circuit.sequential import bounded_model_check, read_bench_sequential
from .circuit.validate import statistics, validate
from .core.solver import CircuitSolver
from .core.sweep import sat_sweep
from .csat.options import DEFAULT_PRESET, preset
from .errors import CircuitError, ParseError, ReproError
from .result import Limits

_PRESETS = ("csat", "csat-jnode", "implicit", "explicit", "explicit-pair",
            "explicit-const", "kernel")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=_PRESETS, default="explicit",
                        help="solver configuration (default: %(default)s)")
    _add_budget(parser)


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSONL event trace here "
                             "(summarize with `repro trace FILE`)")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON on stdout")


def _add_progress(parser) -> None:
    parser.add_argument("--progress", type=int, nargs="?", const=1000,
                        default=None, metavar="N",
                        help="print a progress line every N conflicts "
                             "(default 1000) to stderr")


def _limits(args) -> Optional[Limits]:
    if args.budget is None:
        return None
    return Limits(max_seconds=args.budget)


def _observability(args, tracer):
    """Solver kwargs from the --trace/--progress/--json flags.

    The tracer is created by the caller — not inside the solver — so the
    CLI owns its lifetime and can close/report it after the solve.
    """
    from .obs import ProgressPrinter
    progress = args.progress or 0
    return {"trace": tracer,
            "phase_timers": tracer is not None or args.json,
            "progress_interval": progress,
            "progress": ProgressPrinter() if progress else None}


def _open_trace(args):
    from .obs import JsonlTracer
    return JsonlTracer(args.trace) if args.trace else None


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


def _check_input(files: List[str], instance: Optional[str]) -> None:
    """Refuse anything but exactly one of circuit files or --instance."""
    if bool(files) == bool(instance):
        raise ReproError("give a circuit file OR --instance NAME")


def _input_circuit(files: List[str], instance: Optional[str]):
    """``(circuit, label)`` from circuit files or ``--instance NAME``.

    Two files stand for their miter, the one
    :func:`repro.core.solver.check_equivalence` solves: UNSAT exactly
    when the circuits are equivalent.
    """
    _check_input(files, instance)
    if len(files) > 2:
        raise ReproError("give one circuit file, or two to check their "
                         "equivalence")
    if instance:
        from .bench.instances import instance_by_name
        return instance_by_name(instance).build(), instance
    circuits = [_read_circuit(path) for path in files]
    if len(circuits) == 1:
        return circuits[0], files[0]
    from .circuit.miter import miter
    return miter(*circuits), " vs ".join(files)


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


def _print_report(name: str, report, rows, label: str,
                  as_json: bool) -> int:
    """Print a portfolio, cube or dist report: its summary line and
    ``rows``, then the result (or all of it as JSON)."""
    if as_json:
        import json
        print(json.dumps(dict(report.as_dict(), instance=label), indent=2))
        return _status_code(report.result)
    print("{}: {}".format(name, report.summary()))
    for row in rows:
        print(row)
    return _print_result(report.result, label)


def _portfolio_rows(report):
    for attempt in report.attempts:
        line = "  {:12s} try {}  {:14s} {:8.3f}s".format(
            attempt.engine, attempt.attempt + 1, attempt.outcome,
            attempt.seconds)
        if attempt.detail:
            line += "  " + attempt.detail
        yield line
    if report.skipped:
        reason = "winner found" if report.winner else "budget exhausted"
        yield "  not attempted ({}): {}".format(reason,
                                               ", ".join(report.skipped))


def _conquest_rows(report):
    """A cube report's rows (one per cube) or a dist report's (one per
    node)."""
    yield ("  explicit phase: {:.3f}s, {} lemmas for every "
           "worker".format(report.phase_seconds, report.phase_lemmas))
    if report.resumed:
        yield ("  resumed: {} cube(s) already closed by the "
               "checkpoint".format(report.resumed))
    if report.engine == "dist":
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
            yield line
        return
    for outcome in report.cubes:
        line = "  cube {:3d}  {:14s} {:8.3f}s  {} literals".format(
            outcome.index, outcome.status, outcome.seconds,
            len(outcome.literals))
        if outcome.pruned_by is not None:
            line += "  (core of cube {})".format(outcome.pruned_by)
        elif outcome.attempts > 1:
            line += "  ({} attempts)".format(outcome.attempts)
        yield line


def _status_code(result) -> int:
    if result.interrupted:
        return 130
    if result.status == "SAT":
        return 10
    if result.status == "UNSAT":
        return 20
    return 0


# ----------------------------------------------------------------------
# solve: one command, four modes
# ----------------------------------------------------------------------

_RUNTIME_FLAGS = ("mem_limit", "grace", "retries", "certify",
                  "inject_faults")
_CUBE_FLAGS = ("max_cubes", "max_depth", "checkpoint", "checkpoint_every",
               "resume")

#: The flags each ``solve`` mode reads besides --budget, --trace and
#: --json.  They all default to None, so a flag given outside its mode's
#: row is refused instead of silently ignored.  ``--workers 0`` runs its
#: cubes in process: no worker to cap, kill or fault, but a SAT model
#: that fails certification is still retried.
_MODE_FLAGS = {
    "in-process": ("preset", "model", "proof", "progress"),
    "portfolio": ("portfolio", "ladder", "workers") + _RUNTIME_FLAGS,
    "cubes": ("workers",) + _RUNTIME_FLAGS + _CUBE_FLAGS,
    "in-process cubes": ("workers", "retries", "certify") + _CUBE_FLAGS,
    "nodes": ("nodes", "retries", "certify") + _CUBE_FLAGS,
    "spawn-local": ("spawn_local", "workers", "retries",
                    "certify") + _CUBE_FLAGS,
}


def _solve_mode(args) -> str:
    """The mode ``solve``'s flags pick; raises on flags that do not fit."""
    picked = [mode for mode in ("portfolio", "nodes", "spawn-local")
              if getattr(args, mode.replace("-", "_")) is not None]
    if len(picked) > 1:
        raise ReproError("pick one solve mode, not --{}".format(
            " and --".join(picked)))
    if picked:
        mode = picked[0]
    elif args.workers is None:
        mode = "in-process"
    else:
        mode = "in-process cubes" if args.workers == 0 else "cubes"
    every = {dest for flags in _MODE_FLAGS.values() for dest in flags}
    for dest in sorted(every - set(_MODE_FLAGS[mode])):
        if getattr(args, dest) is not None:
            raise ReproError("--{} is not read in {} mode".format(
                dest.replace("_", "-"), mode))
    return mode


def _given(**kwargs):
    """The keyword arguments whose flag was given; the library's own
    defaults fill in the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _fault_plan(args):
    from .runtime import FaultPlan
    return FaultPlan.parse(args.inject_faults)


def _solve_in_process(args, circuit, label: str, tracer) -> int:
    from .proof import ProofLog
    proof = ProofLog() if args.proof else None
    options = preset(args.preset or "explicit",
                     **_observability(args, tracer))
    result = CircuitSolver(circuit, options, proof=proof).solve(
        limits=_limits(args))
    code = _print_result(result, label, as_json=args.json)
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


def _solve_portfolio(args, circuit, label: str, tracer) -> int:
    from .runtime import ladder_from_names, solve_portfolio
    ladder = ladder_from_names(args.ladder.split(",")) if args.ladder \
        else None
    report = solve_portfolio(
        circuit, budget=args.budget, ladder=ladder,
        faults=_fault_plan(args), tracer=tracer, **_given(
            workers=args.workers, mem_limit_mb=args.mem_limit,
            grace_seconds=args.grace, max_retries=args.retries,
            certify=args.certify))
    return _print_report("portfolio", report, _portfolio_rows(report),
                         label, args.json)


def _conquest_kwargs(args, tracer):
    """What local and distributed cube-and-conquer read alike."""
    from .cube import CutterOptions
    return dict(
        budget=args.budget, trace=tracer, checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        cutter=CutterOptions(**_given(max_cubes=args.max_cubes,
                                      max_depth=args.max_depth)),
        **_given(max_retries=args.retries, certify=args.certify,
                 checkpoint_every=args.checkpoint_every))


def _solve_cubes(args, circuit, label: str, tracer) -> int:
    from .cube import solve_cubes
    report = solve_cubes(
        circuit, workers=args.workers, faults=_fault_plan(args),
        **_given(mem_limit_mb=args.mem_limit, grace_seconds=args.grace),
        **_conquest_kwargs(args, tracer))
    return _print_report(report.engine, report, _conquest_rows(report),
                         label, args.json)


def _solve_on_nodes(args, circuit, label: str, tracer) -> int:
    from .dist import solve_distributed
    fleet = []
    if args.spawn_local is not None:
        from .dist.bench import launch_local_nodes
        fleet = launch_local_nodes(args.spawn_local,
                                   **_given(workers=args.workers))
        urls = [node.url for node in fleet]
        print("spawned {} local serve node(s): {}".format(
            len(urls), ", ".join(urls)), file=sys.stderr)
    else:
        urls = [url.strip() for url in args.nodes.split(",") if url.strip()]
    try:
        report = solve_distributed(circuit, nodes=urls, label=label,
                                   **_conquest_kwargs(args, tracer))
    finally:
        for node in fleet:
            node.stop()
    return _print_report(report.engine, report, _conquest_rows(report),
                         label, args.json)


_SOLVERS = {"in-process": _solve_in_process, "portfolio": _solve_portfolio,
            "cubes": _solve_cubes, "in-process cubes": _solve_cubes,
            "nodes": _solve_on_nodes, "spawn-local": _solve_on_nodes}

#: What the two-file form prints after the result, by exit code.
_VERDICTS = {20: "EQUIVALENT", 10: "NOT EQUIVALENT"}


def cmd_solve(args) -> int:
    solver = _SOLVERS[_solve_mode(args)]
    circuit, label = _input_circuit(args.files, args.instance)
    tracer = _open_trace(args)
    try:
        code = solver(args, circuit, label, tracer)
    except ValueError as exc:
        # Argument values the library refuses: a bad --inject-faults
        # spec, --certify full in a cube mode, --workers 0 in a portfolio.
        raise ReproError(str(exc))
    finally:
        _finish_trace(tracer)
    if len(args.files) == 2 and not args.json:
        print(_VERDICTS.get(code, "UNDECIDED"))
    return code


def cmd_solve_cnf(args) -> int:
    from .circuit.source import load_dimacs
    from .cnf.solver import make_solver
    formula = load_dimacs(args.file)
    tracer = _open_trace(args)
    try:
        result = make_solver(formula, backend=args.backend,
                             **_observability(args, tracer)).solve(
                                 limits=_limits(args))
    finally:
        _finish_trace(tracer)
    return _print_result(result, args.file, as_json=args.json)


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
    circuit, label = _input_circuit([args.file] if args.file else [],
                                    args.instance)
    fp = fingerprint(circuit)
    if args.json:
        import json
        print(json.dumps(dict(fp.as_dict(), instance=label), indent=2))
    else:
        print("{}  {}".format(fp.digest, label))
        print("inputs={} ands={} outputs={} (canonical cone)".format(
            fp.num_inputs, fp.num_ands, fp.num_outputs))
    return 0


def _serve_until_signalled(service, tracer) -> int:
    """Run ``service.serve_forever()`` until it shuts down.

    SIGTERM/SIGINT drain it first: a serve node finishes its admitted
    jobs, queued cubes included, and closes (fsyncs) its journal before
    the listener goes away — so an operator `kill` or Ctrl-C never loses
    admitted work.
    """
    import signal as _signal

    def _graceful(signum, frame):
        print("repro serve: caught signal {}, draining...".format(signum),
              file=sys.stderr)
        service.request_shutdown(drain=True)

    previous = {}
    for sig in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[sig] = _signal.signal(sig, _graceful)
        except (ValueError, OSError):
            pass
    try:
        service.serve_forever()
    finally:
        for sig, handler in previous.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _finish_trace(tracer)
    return 0


def cmd_serve(args) -> int:
    from .serve.cache import AnswerCache
    from .serve.server import ReproServer
    tracer = _open_trace(args)
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
    return _serve_until_signalled(server, tracer)


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
    _check_input([args.file] if args.file else [], args.instance)
    client = ServeClient(args.host, args.port, timeout=args.timeout,
                         retries=args.retries)
    limits = {"max_seconds": args.budget} if args.budget else None
    try:
        if args.instance:
            snap = client.submit(instance=args.instance, engine=args.engine,
                                 preset=args.preset, limits=limits,
                                 priority=args.priority, fault=args.fault,
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


def _scrape(url: str, timeout: float, retries: int) -> str:
    """GET ``url`` as text, with ``retries`` extra attempts on errors."""
    import time
    from urllib.error import URLError
    from urllib.request import urlopen
    for attempt in range(retries + 1):
        try:
            with urlopen(url, timeout=timeout) as resp:
                return resp.read().decode("utf-8")
        except (URLError, OSError) as exc:
            if attempt == retries:
                raise ReproError("cannot scrape {}: {}".format(url, exc))
            time.sleep(0.25 * 2 ** attempt)


def _print_metrics(args, url: str) -> int:
    """Scrape a node's /metrics and pretty-print it (or --raw/--json)."""
    import json
    from .obs.metrics import parse_exposition
    text = _scrape(url, args.timeout, args.retries)
    if args.raw:
        sys.stdout.write(text)
        return 0
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        raise ReproError("invalid exposition from {}: {}".format(url, exc))
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


def cmd_status(args) -> int:
    """Render a node's /status (or, with --metrics, its /metrics) for
    humans, or --json for scripts."""
    from .serve.client import ServeClient, ServeError
    if args.raw and not args.metrics:
        raise ReproError("--raw is read with --metrics only")
    try:
        client = ServeClient.from_url(args.url, timeout=args.timeout,
                                      retries=args.retries)
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    if args.metrics:
        return _print_metrics(args, client.url + "/metrics")
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
    if "scheduler" in payload:
        sched = payload["scheduler"]
        print("serve at {}".format(client.url))
        for key in sorted(sched):
            print("  {}: {}".format(key, sched[key]))
        if payload.get("journal"):
            print("  journal: {} ({} live records)".format(
                payload["journal"], payload.get("journal_records")))
        if payload.get("recovery"):
            print("  recovery: {}".format(payload["recovery"]))
        return 0
    for key in sorted(payload):
        print("{}: {}".format(key, payload[key]))
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve",
                       help="solve a circuit, or check two for "
                            "equivalence, in process, as a portfolio or "
                            "by cube-and-conquer")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help=".bench/.aag/.cnf circuit, or - for stdin; two "
                        "files solve their equivalence miter")
    p.add_argument("--instance", metavar="NAME", default=None,
                   help="built-in benchmark instance, e.g. mult6.arith")
    _add_budget(p)
    _add_observability(p)
    g = p.add_argument_group("in process (the default)")
    g.add_argument("--preset", choices=_PRESETS, default=None,
                   help="solver configuration (default: explicit)")
    g.add_argument("--model", action="store_true", default=None,
                   help="print the input assignment on SAT")
    g.add_argument("--proof", metavar="FILE",
                   help="write a DRUP proof here on UNSAT")
    _add_progress(g)
    g = p.add_argument_group(
        "modes", "each picks a mode; --workers alone picks local cubes")
    g.add_argument("--portfolio", action="store_true", default=None,
                   help="isolated worker subprocesses with hard limits, "
                        "engine failover, retry and degradation")
    g.add_argument("--workers", type=int, default=None, metavar="N",
                   help="local cube workers (0 solves the cubes in "
                        "process); portfolio: concurrent workers "
                        "(default 1); --spawn-local: workers per node "
                        "(default 2)")
    g.add_argument("--nodes", metavar="URLS", default=None,
                   help="cube-and-conquer across these comma-separated "
                        "serve-node URLs, e.g. "
                        "http://10.0.0.2:8587,http://10.0.0.3:8587")
    g.add_argument("--spawn-local", type=int, default=None, metavar="N",
                   help="cube-and-conquer across N serve nodes spawned "
                        "on localhost for this run")
    g.add_argument("--ladder", metavar="NAMES", default=None,
                   help="portfolio: comma-separated configs to try, e.g. "
                        "'explicit,cnf,brute' (default: auto ladder)")
    g = p.add_argument_group("workers (portfolio and local cubes; nodes "
                             "and --workers 0 read --retries and "
                             "--certify)")
    g.add_argument("--mem-limit", type=int, default=None, metavar="MB",
                   help="hard per-worker address-space cap in MB")
    g.add_argument("--grace", type=float, default=None, metavar="SEC",
                   help="seconds between SIGTERM and SIGKILL when a "
                        "worker overruns its budget (default 1.0)")
    g.add_argument("--retries", type=int, default=None,
                   help="retries after a crash/corrupt/lost failure, per "
                        "config or per cube (default 1)")
    g.add_argument("--certify", choices=("off", "sat", "full"),
                   default=None,
                   help="boundary re-certification of worker answers "
                        "(default: sat models only; cubes cannot do full)")
    g.add_argument("--inject-faults", metavar="SPEC", default=None,
                   help="deterministic fault injection for testing, "
                        "e.g. 'crash@0,hang-hard@2' or 'hang@*' "
                        "(kinds: crash segv hang hang-hard membomb "
                        "corrupt wrong-answer lost)")
    g = p.add_argument_group("cube-and-conquer (local cubes, nodes)")
    g.add_argument("--max-cubes", type=int, default=None, metavar="N",
                   help="hard cap on open cubes (default: scale with "
                        "the worker count)")
    g.add_argument("--max-depth", type=int, default=None, metavar="D",
                   help="cube tree depth cutoff (default 12)")
    g.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="persist cube outcomes + the lemma pool here "
                        "(atomically) so a killed run can be resumed")
    g.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="checkpoint cadence in completed cubes (default 8)")
    g.add_argument("--resume", metavar="FILE", default=None,
                   help="resume from a checkpoint: skip closed cubes, "
                        "re-inject the lemma pool (refuses a checkpoint "
                        "from a different circuit/objectives)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-cnf", help="solve a DIMACS CNF file")
    p.add_argument("file")
    p.add_argument("--backend", choices=("legacy", "kernel"),
                   default="legacy",
                   help="CDCL implementation: the legacy object-graph "
                        "solver or the flat-array kernel")
    _add_budget(p)
    _add_observability(p)
    _add_progress(p)
    p.set_defaults(func=cmd_solve_cnf)

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
                        "job in an isolated subprocess, and keeps one warm "
                        "cube worker; default 2)")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="admission control: reject past this queue depth "
                        "(default 64)")
    p.add_argument("--cache-size", type=int, default=512, metavar="N",
                   help="answer cache capacity in entries; the job table "
                        "and the journal's live view also keep only the "
                        "last N finished jobs (default 512)")
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
    p.add_argument("--preset", choices=_PRESETS, default=None,
                   help="solver configuration of a csat job (default: "
                        "the server's, {}; a sweep job ignores it)"
                        .format(DEFAULT_PRESET))
    p.add_argument("--budget", type=float, default=None,
                   help="per-request wall-clock budget in seconds")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier (default 0)")
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
                       help="render a running serve node's /status, or "
                            "its /metrics")
    p.add_argument("url", help="node URL, e.g. http://127.0.0.1:8587")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts on connection errors (default 0)")
    p.add_argument("--metrics", action="store_true",
                   help="scrape the node's /metrics and pretty-print it")
    p.add_argument("--raw", action="store_true",
                   help="with --metrics: print the text exposition "
                        "verbatim")
    p.add_argument("--json", action="store_true",
                   help="print the raw /status payload (with --metrics: "
                        "the parsed families) as JSON")
    p.set_defaults(func=cmd_status)

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

    return parser


def _interrupt_on_sigterm(signum, frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM ends a run the way Ctrl-C does: a solve in progress stops
    # with an UNKNOWN answer, and its trace is closed on the way out.
    try:
        previous = signal.signal(signal.SIGTERM, _interrupt_on_sigterm)
    except ValueError:
        previous = None  # not the main thread: leave signals alone
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
        # Engines convert mid-solve Ctrl-C (and SIGTERM) into UNKNOWN
        # results themselves; this catches interrupts outside a solve
        # (parsing, preprocessing, a multi-worker conquest's wait).
        print("interrupted", file=sys.stderr)
        return 130
    except (ParseError, CircuitError, ReproError, UnicodeDecodeError,
            OSError) as exc:
        # Bad user input (malformed .bench/AIGER/DIMACS, invalid circuit,
        # missing file): one line on stderr, exit 2, never a traceback.
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
