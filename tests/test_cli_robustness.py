"""CLI robustness: malformed input, interrupts, portfolio, exit codes.

The contract under test (see the ``repro.cli`` module docstring and
docs/robustness.md): malformed input exits 2 with one ``error:`` line on
stderr and never a traceback; Ctrl-C exits 130; the portfolio commands
keep the SAT-competition codes (10/20/0) and never overrun their budget
by more than the grace period.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.circuit.bench_io import write_bench
from conftest import build_full_adder

FA_BENCH = write_bench(build_full_adder())


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "fa.bench"
    path.write_text(FA_BENCH)
    return str(path)


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_clean_error(capsys, code):
    """Exit 2, a single `error:` line on stderr, no traceback anywhere."""
    assert code == 2
    captured = capsys.readouterr()
    errlines = [ln for ln in captured.err.splitlines() if ln.strip()]
    assert len(errlines) == 1
    assert errlines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out


# ----------------------------------------------------------------------
# Malformed input -> exit 2, one line, no traceback
# ----------------------------------------------------------------------

class TestMalformedInput:
    def test_malformed_bench(self, tmp_path, capsys):
        path = write_file(tmp_path, "bad.bench",
                          "INPUT(a)\nz = FROB(a, b)\nOUTPUT(z)\n")
        assert_clean_error(capsys, main(["solve", path]))

    def test_malformed_bench_portfolio(self, tmp_path, capsys):
        path = write_file(tmp_path, "bad.bench", "OUTPUT(\n")
        assert_clean_error(capsys, main(["solve", path, "--portfolio"]))

    def test_malformed_aiger(self, tmp_path, capsys):
        path = write_file(tmp_path, "bad.aag", "aag nonsense header\n")
        assert_clean_error(capsys, main(["solve", path]))

    def test_malformed_dimacs(self, tmp_path, capsys):
        path = write_file(tmp_path, "bad.cnf", "p cnf oops\n1 0\n")
        assert_clean_error(capsys, main(["solve-cnf", path]))

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.bench")
        for argv in (["solve", missing],
                     ["solve", missing, "--portfolio"],
                     ["solve-cnf", missing],
                     ["stats", missing],
                     ["sweep", missing],
                     ["oracle", missing]):
            assert_clean_error(capsys, main(argv))

    def test_binary_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.bench"
        path.write_bytes(bytes(range(256)))
        assert_clean_error(capsys, main(["solve", str(path)]))

    def test_equiv_malformed_side(self, bench_file, tmp_path, capsys):
        bad = write_file(tmp_path, "bad.bench", "x = AND(\n")
        assert_clean_error(capsys, main(["solve", bench_file, bad]))

    def test_invalid_circuit_semantics(self, tmp_path, capsys):
        # Structurally parseable, semantically invalid: undefined signal.
        path = write_file(tmp_path, "undef.bench",
                          "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")
        assert_clean_error(capsys, main(["solve", path]))

    def test_bad_fault_spec(self, bench_file, capsys):
        assert_clean_error(capsys, main(
            ["solve", bench_file, "--portfolio", "--inject-faults", "explode@0"]))


# ----------------------------------------------------------------------
# KeyboardInterrupt -> exit 130, no traceback
# ----------------------------------------------------------------------

class TestInterrupt:
    def test_interrupt_outside_solve(self, bench_file, capsys, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_solve", boom)
        assert main(["solve", bench_file]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_interrupt_mid_search_reports_partial(self, bench_file, capsys,
                                                  monkeypatch):
        from repro.csat.engine import CSatEngine

        def boom(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CSatEngine, "_search", boom)
        assert main(["solve", bench_file]) == 130
        captured = capsys.readouterr()
        assert "UNKNOWN" in captured.out
        assert "partial statistics" in captured.err
        assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# Portfolio CLI
# ----------------------------------------------------------------------

class TestPortfolioCli:
    def test_solve_portfolio_sat(self, bench_file, capsys):
        assert main(["solve", bench_file, "--portfolio",
                     "--budget", "30"]) == 10
        out = capsys.readouterr().out
        assert "portfolio:" in out and "winner=" in out

    def test_portfolio_command_sat(self, bench_file, capsys):
        assert main(["solve", bench_file, "--portfolio", "--budget", "30",
                     "--ladder", "explicit,cnf"]) == 10
        assert "winner=" in capsys.readouterr().out

    def test_portfolio_json(self, bench_file, capsys):
        import json
        assert main(["solve", bench_file, "--portfolio", "--budget", "30",
                     "--json"]) == 10
        data = json.loads(capsys.readouterr().out)
        assert data["result"]["status"] == "SAT"
        assert data["winner"]

    def test_injected_hang_finishes_within_budget(self, bench_file, capsys):
        budget, grace = 1.0, 0.3
        t0 = time.perf_counter()
        code = main(["solve", bench_file, "--portfolio",
                     "--budget", str(budget), "--grace", str(grace),
                     "--ladder", "explicit",
                     "--inject-faults", "hang-hard@*"])
        elapsed = time.perf_counter() - t0
        assert code == 0  # degraded UNKNOWN, not a crash
        assert elapsed <= budget + grace + 1.5
        captured = capsys.readouterr()
        assert "degraded" in captured.out
        assert "worker failure" in captured.err

    def test_injected_crash_retries_to_win(self, bench_file, capsys):
        assert main(["solve", bench_file, "--portfolio", "--budget", "30",
                     "--ladder", "explicit",
                     "--inject-faults", "crash@0"]) == 10
        out = capsys.readouterr().out
        assert "CRASHED" in out  # the failed attempt stays on the report

    def test_trace_records_worker_lifecycle(self, bench_file, tmp_path,
                                            capsys):
        import json
        trace = str(tmp_path / "events.jsonl")
        assert main(["solve", bench_file, "--portfolio", "--budget", "30",
                     "--trace", trace]) == 10
        kinds = {json.loads(line)["kind"]
                 for line in open(trace) if line.strip()}
        assert {"portfolio_start", "worker_spawn",
                "worker_result", "portfolio_end"} <= kinds
