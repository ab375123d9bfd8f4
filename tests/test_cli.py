"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.circuit.bench_io import write_bench
from repro.cnf.formula import CnfFormula, write_dimacs
from conftest import build_full_adder

FA_BENCH = write_bench(build_full_adder())

SEQ_BENCH = """
INPUT(x)
OUTPUT(bad)
q0 = DFF(d0)
q1 = DFF(d1)
d0 = XOR(q0, x)
d1 = AND(q0, x)
bad = BUF(q1)
"""


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "fa.bench"
    path.write_text(FA_BENCH)
    return str(path)


class TestSolve:
    def test_solve_sat_exit_code(self, bench_file, capsys):
        assert main(["solve", bench_file, "--preset", "implicit"]) == 10
        out = capsys.readouterr().out
        assert "SAT" in out

    def test_solve_prints_model(self, bench_file, capsys):
        main(["solve", bench_file, "--model"])
        out = capsys.readouterr().out
        assert "a = " in out

    def test_budget_flag(self, bench_file):
        assert main(["solve", bench_file, "--budget", "30"]) == 10


class TestSolveModes:
    """Which library entry point each flag set reaches, and with what.

    Spies stand in for the portfolio, cube and dist entry points, so no
    worker process starts."""

    @staticmethod
    def _spy(monkeypatch, target, report):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return report

        monkeypatch.setattr(target, spy)
        return seen

    @staticmethod
    def _unknown():
        from repro.result import SolverResult
        return SolverResult(status="UNKNOWN")

    def test_in_process_runs_the_explicit_preset(self, bench_file,
                                                 monkeypatch):
        import repro.cli as cli
        from repro.csat.options import preset
        seen = []
        real = cli.CircuitSolver

        def spy(circuit, options, **kwargs):
            seen.append(options)
            return real(circuit, options, **kwargs)

        monkeypatch.setattr(cli, "CircuitSolver", spy)
        assert main(["solve", bench_file]) == 10
        assert seen == [preset("explicit")]

    def test_portfolio_reads_workers_and_ladder(self, bench_file,
                                                monkeypatch, capsys):
        from repro.runtime import PortfolioReport
        seen = self._spy(monkeypatch, "repro.runtime.solve_portfolio",
                         PortfolioReport(result=self._unknown()))
        assert main(["solve", bench_file, "--portfolio", "--workers", "3",
                     "--ladder", "explicit,cnf"]) == 0
        assert seen[0]["workers"] == 3
        assert [spec.name for spec in seen[0]["ladder"]] == ["explicit",
                                                             "cnf"]
        assert "portfolio: UNKNOWN" in capsys.readouterr().out

    def test_local_cubes_run_the_cube_preset(self, bench_file,
                                             monkeypatch):
        # The cube preset is the library's: the CLI names no engine.
        from repro.cube.conquer import CubeReport
        seen = self._spy(monkeypatch, "repro.cube.solve_cubes",
                         CubeReport(result=self._unknown()))
        assert main(["solve", bench_file, "--workers", "3"]) == 0
        assert seen[0]["workers"] == 3
        assert not {"kind", "preset_name", "options"} & set(seen[0])

    def test_nodes_run_the_cube_preset(self, bench_file, monkeypatch):
        from repro.dist.coordinator import DistReport
        seen = self._spy(monkeypatch, "repro.dist.solve_distributed",
                         DistReport(result=self._unknown()))
        assert main(["solve", bench_file, "--nodes",
                     "http://a:8590, http://b:8590"]) == 0
        assert seen[0]["nodes"] == ["http://a:8590", "http://b:8590"]
        assert not {"kind", "preset_name"} & set(seen[0])

    def test_spawn_local_workers_are_per_node(self, bench_file,
                                              monkeypatch):
        from repro.dist.coordinator import DistReport

        class FakeNode:
            url = "http://127.0.0.1:1"
            stopped = False

            def stop(self):
                FakeNode.stopped = True

        launched = []
        monkeypatch.setattr(
            "repro.dist.bench.launch_local_nodes",
            lambda count, **kwargs: launched.append((count, kwargs))
            or [FakeNode()])
        seen = self._spy(monkeypatch, "repro.dist.solve_distributed",
                         DistReport(result=self._unknown()))
        assert main(["solve", bench_file, "--spawn-local", "2",
                     "--workers", "3"]) == 0
        assert launched == [(2, {"workers": 3})]
        assert seen[0]["nodes"] == [FakeNode.url]
        assert FakeNode.stopped

    @pytest.mark.parametrize("flags", [
        ["--portfolio", "--nodes", "http://a:1"],
        ["--portfolio", "--spawn-local", "1"],
        ["--nodes", "http://a:1", "--spawn-local", "1"]])
    def test_two_modes_exit_2(self, bench_file, flags, capsys):
        assert main(["solve", bench_file] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pick one solve mode") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--grace", "2"], ["--ladder", "cnf"], ["--max-cubes", "4"],
        ["--workers", "2", "--model"], ["--workers", "2", "--proof", "p"],
        ["--portfolio", "--preset", "kernel"], ["--portfolio", "--progress"],
        ["--nodes", "http://a:1", "--workers", "2"],
        ["--nodes", "http://a:1", "--mem-limit", "64"],
        ["--spawn-local", "1", "--inject-faults", "crash@0"],
        # Every cube worker runs the flat kernel: no preset to pick.
        ["--workers", "2", "--preset", "kernel"],
        ["--nodes", "http://a:1", "--preset", "implicit"],
        # --workers 0 solves its cubes in process: no worker to cap,
        # give a grace period or fault.
        ["--workers", "0", "--mem-limit", "1"],
        ["--workers", "0", "--grace", "0.1"],
        ["--workers", "0", "--inject-faults", "crash@*"]])
    def test_flag_outside_its_mode_exits_2(self, bench_file, flags,
                                           capsys):
        assert main(["solve", bench_file] + flags) == 2
        err = capsys.readouterr().err
        assert "is not read in" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["solve"], ["solve", "a.bench", "b.bench", "c.bench"],
        ["solve", "a.bench", "--instance", "mult5.arith"],
        ["fingerprint"], ["submit"],
        ["submit", "a.bench", "--instance", "mult5.arith"]])
    def test_one_input_form(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: give ")


class TestStatusMetrics:
    def test_raw_is_read_with_metrics_only(self, capsys):
        assert main(["status", "http://127.0.0.1:9", "--raw"]) == 2
        assert "--metrics" in capsys.readouterr().err

    def test_unreachable_scrape_is_one_error_line(self, capsys):
        assert main(["status", "http://127.0.0.1:9", "--metrics",
                     "--timeout", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot scrape") \
            and err.count("\n") == 1


class TestSolveCnf:
    def test_direct(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(CnfFormula(clauses=[[1, 2], [-1]])))
        assert main(["solve-cnf", str(path)]) == 10
        assert "SAT" in capsys.readouterr().out

    def test_via_circuit(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(CnfFormula(clauses=[[1], [-1]])))
        assert main(["solve", str(path)]) == 20
        assert "UNSAT" in capsys.readouterr().out


class TestEquiv:
    def test_equivalent(self, bench_file, capsys):
        assert main(["solve", bench_file, bench_file]) == 20
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, bench_file, tmp_path, capsys):
        other = tmp_path / "other.bench"
        other.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(c)\n"
            "s = AND(a, b)\nc = OR(a, cin)\n")
        assert main(["solve", bench_file, str(other)]) == 10
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestSweepStatsGen:
    def test_sweep_writes_output(self, tmp_path, capsys):
        src = tmp_path / "dup.bench"
        src.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
                       "g1 = AND(a, b)\ng2 = AND(a, b)\n"
                       "y = BUF(g1)\nz = BUF(g2)\n")
        out = tmp_path / "swept.bench"
        assert main(["sweep", str(src), "-o", str(out)]) == 0
        assert out.exists()
        assert "gates:" in capsys.readouterr().out

    def test_stats(self, bench_file, capsys):
        assert main(["stats", bench_file]) == 0
        assert "nodes=" in capsys.readouterr().out

    def test_gen_known_circuit(self, tmp_path):
        out = tmp_path / "c.bench"
        assert main(["gen", "c5315", "-o", str(out)]) == 0
        assert out.read_text().startswith("#")

    def test_gen_scan_and_vliw(self, tmp_path):
        assert main(["gen", "s13207", "-o", str(tmp_path / "s.bench")]) == 0

    def test_gen_unknown(self, capsys):
        assert main(["gen", "c9999"]) == 2


class TestBmc:
    def test_counterexample_found(self, tmp_path, capsys):
        path = tmp_path / "seq.bench"
        path.write_text(SEQ_BENCH)
        assert main(["bmc", str(path), "--frames", "6"]) == 1
        assert "FAILS at frame 3" in capsys.readouterr().out

    def test_bounded_safe(self, tmp_path, capsys):
        path = tmp_path / "seq.bench"
        path.write_text(SEQ_BENCH)
        assert main(["bmc", str(path), "--frames", "2"]) == 0
        assert "no counterexample" in capsys.readouterr().out


class TestBench:
    def test_unknown_table(self, capsys):
        assert main(["bench", "table99"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestHelp:
    def test_docstring_lists_every_subcommand(self):
        import argparse
        from repro import cli
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        # The "Commands" block: one "``name``" entry per subcommand.
        block = cli.__doc__.split("--------\n\n", 1)[1].split("\n\n")[0]
        listed = {line.split("``")[1] for line in block.splitlines()
                  if line.startswith("``")}
        assert set(sub.choices) - listed == set(), "missing from docstring"
        assert listed - set(sub.choices) == set(), "not a subcommand"


class TestProofWorkflow:
    def test_solve_proof_then_check(self, tmp_path, capsys):
        from repro.gen.iscas import equiv_miter
        from repro.circuit.bench_io import write_bench
        bench = tmp_path / "m.bench"
        bench.write_text(write_bench(equiv_miter("c5315")))
        drup = tmp_path / "m.drup"
        rc = main(["solve", str(bench), "--preset", "explicit",
                   "--proof", str(drup)])
        assert rc == 20  # UNSAT exit code
        assert drup.exists()
        rc = main(["check-proof", str(bench), str(drup)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VERIFIED" in out

    def test_check_proof_rejects_garbage(self, tmp_path, capsys):
        from repro.circuit.bench_io import write_bench
        from conftest import build_full_adder
        bench = tmp_path / "fa.bench"
        bench.write_text(write_bench(build_full_adder()))
        drup = tmp_path / "bogus.drup"
        drup.write_text("5 0\n0\n")
        rc = main(["check-proof", str(bench), str(drup)])
        assert rc == 1
        assert "REJECTED" in capsys.readouterr().out


class TestAigerCli:
    def test_solve_aag_file(self, tmp_path):
        from repro.circuit.aiger import write_aiger
        from conftest import build_full_adder
        path = tmp_path / "fa.aag"
        path.write_text(write_aiger(build_full_adder()))
        assert main(["solve", str(path), "--preset", "implicit"]) == 10

    def test_equiv_mixed_formats(self, tmp_path):
        from repro.circuit.aiger import write_aiger
        from repro.circuit.bench_io import write_bench
        from conftest import build_full_adder
        aag = tmp_path / "fa.aag"
        aag.write_text(write_aiger(build_full_adder()))
        bench = tmp_path / "fa.bench"
        bench.write_text(write_bench(build_full_adder()))
        assert main(["solve", str(aag), str(bench)]) == 20


class TestAtpgCli:
    def test_atpg_command(self, tmp_path, capsys):
        from repro.circuit.bench_io import write_bench
        from conftest import build_full_adder
        path = tmp_path / "fa.bench"
        path.write_text(write_bench(build_full_adder()))
        assert main(["atpg", str(path), "--vectors"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "# detects" in out


class TestObservabilityCli:
    def test_solve_json_output(self, bench_file, capsys):
        import json
        assert main(["solve", bench_file, "--json"]) == 10
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "SAT"
        assert doc["instance"].endswith("fa.bench")
        assert doc["stats"]["decisions"] >= 0
        # --json implies phase timers.
        assert set(doc["phase_seconds"]) >= {"bcp", "other"}

    def test_solve_cnf_json_output(self, tmp_path, capsys):
        import json
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(CnfFormula(clauses=[[1], [-1]])))
        assert main(["solve-cnf", str(path), "--json"]) == 20
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "UNSAT"
        assert doc["model_size"] == 0

    def test_solve_reports_sim_seconds_separately(self, bench_file, capsys):
        main(["solve", bench_file, "--preset", "explicit"])
        out = capsys.readouterr().out
        assert "simulation" in out
        assert "solve" in out

    def test_trace_round_trip(self, bench_file, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["solve", bench_file, "--trace", trace]) == 10
        err = capsys.readouterr().err
        assert "wrote trace to" in err
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "decisions=" in out

    def test_trace_json_summary(self, bench_file, tmp_path, capsys):
        import json
        trace = str(tmp_path / "t.jsonl")
        main(["solve", bench_file, "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stat_counts"]["decisions"] > 0

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "trace" in capsys.readouterr().err

    def test_trace_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("this is not a trace\n")
        assert main(["trace", str(path)]) == 2

    def test_progress_flag(self, bench_file, capsys):
        # The full adder solves in under one progress interval; the flag
        # must still parse and run clean.
        assert main(["solve", bench_file, "--progress", "1"]) == 10

    @pytest.mark.slow
    def test_bench_json_export(self, tmp_path, capsys):
        import json
        out_path = str(tmp_path / "table.json")
        # A sub-second budget aborts most runs but exercises the whole
        # table pipeline plus the JSON exporter; exit code may be 0 or 1
        # depending on which shape checks survive the tiny budget.
        rc = main(["bench", "table1", "--budget", "0.5",
                   "--json", out_path])
        assert rc in (0, 1)
        doc = json.loads(open(out_path).read())
        assert doc["kind"] == "bench_table"
        assert doc["table_id"] == "table1"
        assert doc["records"]
        for records in doc["records"].values():
            for cell in records:
                assert "aborted" in cell and "seconds" in cell
