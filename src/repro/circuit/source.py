"""Loading circuits and CNF from files, stdin, or raw text.

The CLI historically chose the parser from the file extension
(``.aag`` = ASCII AIGER, anything else = ``.bench``).  Serving clients
pipe instances over stdin or over HTTP, where there is no filename, so
this module adds *content sniffing*: the format is recognized from the
first meaningful line of the text.  The same helpers back ``repro solve -``,
``repro solve-cnf -``, ``repro submit`` and the server's
``/submit`` endpoint, so every entry point accepts the same inputs.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..errors import ParseError
from .netlist import Circuit

#: Recognized circuit text formats.
FORMAT_BENCH = "bench"
FORMAT_AIGER = "aiger"
FORMAT_DIMACS = "dimacs"
CIRCUIT_FORMATS = (FORMAT_BENCH, FORMAT_AIGER, FORMAT_DIMACS)


def sniff_format(text: str) -> str:
    """Guess the format of instance text.

    ASCII AIGER starts with an ``aag`` header; DIMACS has a ``p cnf``
    problem line (possibly after ``c`` comment lines); everything else is
    treated as ``.bench`` (whose parser produces precise errors anyway).
    """
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("aag ") or stripped == "aag":
            return FORMAT_AIGER
        if stripped.startswith("p ") or stripped.startswith("p\t"):
            return FORMAT_DIMACS
        if stripped.startswith("c ") or stripped == "c":
            # DIMACS comment; keep scanning for the problem line.
            continue
        return FORMAT_BENCH
    return FORMAT_BENCH


def read_circuit_text(text: str, name: str = "stdin",
                      fmt: Optional[str] = None) -> Circuit:
    """Parse circuit text in any supported format into a :class:`Circuit`.

    DIMACS input is converted through the package's CNF-to-circuit path
    (two-level circuit, clause outputs ANDed), so a CNF submitted to a
    circuit endpoint still solves — exactly what the paper does with CNF
    benchmarks.
    """
    fmt = fmt or sniff_format(text)
    if fmt == FORMAT_AIGER:
        from .aiger import read_aiger
        return read_aiger(text, name=name, as_sequential=False)
    if fmt == FORMAT_DIMACS:
        from ..cnf.formula import read_dimacs
        from .cnf_convert import cnf_to_circuit
        circuit, _ = cnf_to_circuit(read_dimacs(text, name=name))
        circuit.name = name
        return circuit
    if fmt == FORMAT_BENCH:
        from .bench_io import read_bench
        return read_bench(text, name=name)
    raise ParseError("unknown circuit format {!r}".format(fmt))


def read_source_text(path: str) -> str:
    """Raw text of a file path or stdin (``-``)."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def load_circuit(path: str, fmt: Optional[str] = None) -> Circuit:
    """Read a circuit from a file path or from stdin (``-``).

    For real files the extension still decides first (``.aag`` = AIGER,
    ``.cnf``/``.dimacs`` = DIMACS, ``.bench`` = bench); anything
    ambiguous — including stdin — falls back to content sniffing.
    """
    text = read_source_text(path)
    if fmt is None and path != "-":
        if path.endswith(".aag"):
            fmt = FORMAT_AIGER
        elif path.endswith((".cnf", ".dimacs")):
            fmt = FORMAT_DIMACS
        elif path.endswith(".bench"):
            fmt = FORMAT_BENCH
    name = "stdin" if path == "-" else path
    return read_circuit_text(text, name=name, fmt=fmt)


def load_dimacs(path: str):
    """Read a DIMACS formula from a file path or stdin (``-``)."""
    from ..cnf.formula import read_dimacs
    return read_dimacs(read_source_text(path),
                       name="stdin" if path == "-" else path)
