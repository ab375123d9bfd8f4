"""Every ``repro`` command shown in README.md and docs/*.md still parses.

The fenced blocks of the docs spell commands the CLI must accept: a
renamed subcommand or flag that a doc example still uses fails here.
Nothing is run; each command only goes through ``build_parser``, and a
``solve`` line also through the mode check that picks what it runs.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from repro.cli import _solve_mode, build_parser, cmd_solve

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
#: Optional ``VAR=value`` prefixes, then ``repro`` or ``python -m repro``.
COMMAND = re.compile(r"^(?:\S+=\S+\s+)*(?:python3? -m )?repro(?:\s|$)")


def _fenced_lines(text):
    """(language, logical line) for each line of each fenced block, with
    backslash continuations joined."""
    lang, pending = None, ""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            lang = None if lang is not None else (stripped[3:] or "text")
            pending = ""
            continue
        if lang is None:
            continue
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        yield lang, pending + stripped
        pending = ""


def doc_commands():
    """(doc name, command) for every repro command in a fenced block."""
    found = []
    for path in DOCS:
        for lang, line in _fenced_lines(path.read_text()):
            if lang == "console":
                if not line.startswith("$ "):
                    continue
                line = line[2:]
            command = re.split(r"[|>&#]", line, 1)[0].strip()
            if COMMAND.match(command):
                found.append((path.name, command))
    return found


def _argv(command):
    words = shlex.split(command)
    while "=" in words[0]:
        words.pop(0)
    return words[3:] if words[0].startswith("python") else words[1:]


def test_docs_show_commands():
    assert len(doc_commands()) >= 20


@pytest.mark.parametrize("doc, command", doc_commands(),
                         ids=lambda value: value.replace(" ", "_"))
def test_doc_command_parses(doc, command):
    try:
        args = build_parser().parse_args(_argv(command))
    except SystemExit as exc:
        pytest.fail("{}: `{}` does not parse (exit {})".format(
            doc, command, exc.code))
    assert isinstance(args, argparse.Namespace)
    if args.func is cmd_solve:
        _solve_mode(args)
