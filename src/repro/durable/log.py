"""One append-only, checksummed JSONL log: the durable-state primitive.

The serve journal, the knowledge store and the answer cache are folds
over a :class:`DurableLog`; the cube checkpoint is written through
:func:`atomic_write`.  No other module checks a log header, scans
durable JSONL state or replaces a file.  The durability model in
``docs/robustness.md`` covers the fsync policies and what damage costs.

The first line is a plain-JSON header ``{"kind": ..., "v": ...}``,
written with the first record, so a log with no records is an empty
file.  Every other line is a record's compact JSON with ``"crc"``, the
``zlib.crc32`` of that JSON text, spliced in as its last field: a
flipped digit still parses as JSON, but it cannot still match its crc.
When the appends since the last rewrite reach ``max(COMPACT_FLOOR,
records kept by that rewrite)``, the append that crossed the threshold
rewrites the file to the owner's live view under the log's lock.  A
file thus never holds more than twice its largest live set plus
``COMPACT_FLOOR`` records, and total rewrite work is linear in appends.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import zlib
from typing import (Any, BinaryIO, Callable, Dict, Iterable, Iterator, List,
                    Optional, Type)

from ..errors import ReproError

#: Fewest appends between two rewrites of one log.
COMPACT_FLOOR = 4096

Record = Dict[str, Any]

_CRC = b',"crc":'


class LogError(ReproError):
    """A durable log names another kind or version than this build reads."""


def encode(record: Record) -> bytes:
    """One log line: ``record``'s JSON with its checksum as the last field."""
    text = json.dumps(record, separators=(",", ":")).encode("ascii")
    return b"%s%s%d}\n" % (text[:-1], _CRC, zlib.crc32(text))


def decode(line: bytes) -> Optional[Record]:
    """The record on one log line, or None if the line is damaged."""
    line = line.rstrip(b"\n")
    cut = line.rfind(_CRC)
    if cut < 0 or not line.endswith(b"}"):
        return None
    body = line[:cut] + b"}"
    try:
        if int(line[cut + len(_CRC):-1]) != zlib.crc32(body):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Write ``path`` whole or not at all: yields a temp file that is
    fsynced, renamed over ``path``, and made durable with its directory."""
    tmp = "{}.tmp.{}".format(path, os.getpid())
    with open(tmp, "wb") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableLog:
    """An append-only, checksummed JSONL file with atomic compaction.

    A header naming another kind or version raises ``error``.  With
    ``durable`` every append is fsynced and every write error raises
    (the journal's barrier); otherwise writes are best effort, and a
    failed one costs durability, never availability.
    """

    def __init__(self, path: str, kind: str, version: int,
                 error: Type[LogError] = LogError, durable: bool = False):
        self.path = path
        self.header = {"kind": kind, "v": version}
        self._header_line = json.dumps(
            self.header, separators=(",", ":")).encode("ascii") + b"\n"
        self.error = error
        self.durable = durable
        self._lock = threading.Lock()
        self._fh = None
        #: Records appended since the last rewrite (None: not yet counted).
        self._since: Optional[int] = None
        self._kept = 0

    def _is_header(self, line: bytes) -> bool:
        """True if ``line`` is this log's header; raises on another's."""
        try:
            header = json.loads(line)
        except ValueError:
            return False
        if not isinstance(header, dict) or "v" not in header:
            return False
        if header != self.header:
            raise self.error(
                "{} is a {!r} log of version {!r}; this build reads {!r} "
                "logs of version {} — refusing to misread it".format(
                    self.path, header.get("kind"), header["v"],
                    self.header["kind"], self.header["v"]))
        return True

    def scan(self, damaged: Optional[List[int]] = None) -> Iterator[Record]:
        """Yield the intact records in file order, one line at a time.

        The 1-based numbers of lines that are torn, not UTF-8, not a
        JSON object or fail their checksum go to ``damaged``.
        """
        with contextlib.suppress(FileNotFoundError), \
                open(self.path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if number == 1 and self._is_header(line):
                    continue
                record = decode(line)
                if record is not None:
                    yield record
                elif damaged is not None:
                    damaged.append(number)

    @contextlib.contextmanager
    def _writing(self) -> Iterator[None]:
        with self._lock:
            try:
                yield
            except OSError:
                if self.durable:
                    raise

    def append(self, record: Record,
               live: Callable[[], Iterable[Record]]) -> None:
        """Write one record; compact to ``live()`` when the rule says so.

        ``live`` returns the owner's live view.  It runs under the log's
        lock, so no append lands between reading it and the replace.
        """
        line = encode(record)
        with self._writing():
            if self._fh is None:
                line = self._open() + line
            self._fh.write(line)
            if self.durable:
                os.fsync(self._fh.fileno())
            self._since += 1
            if self._since >= max(COMPACT_FLOOR, self._kept):
                self._rewrite(live())

    def _open(self) -> bytes:
        """Open for appending; returns what must precede the next line:
        the header of an empty file, or a newline ending a torn one."""
        tail = b"\n"
        if self._since is None:
            self._since = 0
            with contextlib.suppress(FileNotFoundError), \
                    open(self.path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    self._since += chunk.count(b"\n")
                    tail = chunk[-1:]
        self._fh = open(self.path, "ab", buffering=0)
        if self._fh.tell() == 0:
            return self._header_line
        return b"" if tail == b"\n" else b"\n"

    def rewrite(self, records: Iterable[Record]) -> None:
        """Atomically replace the file with ``records`` (compaction)."""
        with self._writing():
            self._rewrite(records)

    def _rewrite(self, records: Iterable[Record]) -> None:
        self._close()
        kept = 0
        with atomic_write(self.path) as fh:
            for record in records:
                fh.write(encode(record) if kept
                         else self._header_line + encode(record))
                kept += 1
        self._since, self._kept = 0, kept

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._fh is not None:
            with contextlib.suppress(OSError):
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
