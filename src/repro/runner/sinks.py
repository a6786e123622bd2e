"""Pluggable result sinks — where streamed grid rows land.

The streaming engine (:func:`repro.runner.run_grid`) no longer has to
accumulate every result row in parent memory: finished rows flow, batch
by batch and in job order, into a *result sink*.  Three sinks implement
the same ``open``/``write``/``close`` contract:

* :class:`ListSink` — the in-memory list of the historical API;
  ``run_grid`` uses it by default, so existing callers still get a
  plain ``list[dict]`` back.
* :class:`JsonlSink` — one JSON object per line appended to a file.
  A 1M-job grid costs O(batch) parent memory; the table is re-read with
  :func:`read_jsonl_rows` (or any ``jq``-shaped tool).
* :class:`SqliteSink` — rows in a single WAL-mode SQLite database,
  sharing the cache's WAL machinery
  (:func:`repro.runner.jobcache.connect_wal`): one inode, safe
  concurrent readers, re-read with :func:`read_sqlite_rows`.

File-backed sinks truncate on ``open`` by default (``append=False``):
re-running a killed grid replays the cached rows cheaply and rewrites
the complete table, so the file never holds a torn or duplicated
stream.  Rows pass through :func:`~repro.runner.jobcache.jsonify`, so a
row read back from any sink is bit-identical to the row a
:class:`ListSink` collected from the same grid.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3

from . import faults
from .jobcache import connect_wal, jsonify

__all__ = [
    "MergeError",
    "ResultSink",
    "ListSink",
    "JsonlSink",
    "SqliteSink",
    "make_sink",
    "read_jsonl_rows",
    "read_sqlite_rows",
]

#: CLI names of the registered sink kinds
SINK_KINDS = ("list", "jsonl", "sqlite")


class MergeError(ValueError):
    """A worker's result stream is unusably corrupt.

    Raised when the lease-queue merge finds damage it must *not*
    paper over: JSON corruption in the **middle** of a worker's log (a
    torn *final* line is the expected SIGKILL artifact and stays
    tolerated) or two workers claiming the same sequence number with
    different rows.  Subclasses :class:`ValueError` so
    existing ``except ValueError`` callers keep working.
    """


class ResultSink:
    """Base sink: the streaming engine's output contract.

    ``open`` is called once before the first row; the engine then
    flushes each completed batch through :meth:`write_many` (whose
    default calls :meth:`write` once per result row, *in job order*);
    ``close`` runs exactly once afterwards (also on error).
    ``result()`` is what :func:`~repro.runner.run_grid` returns to its
    caller.
    """

    def open(self, meta: dict | None = None) -> None:
        """Prepare for a new row stream; ``meta`` describes the grid."""

    def write(self, row: dict) -> None:
        """Persist one finished result row (subclasses must override)."""
        raise NotImplementedError

    def write_many(self, rows) -> None:
        """Write a completed batch's rows, in order.

        The default delegates to :meth:`write` row by row, so sinks
        (and test doubles) that only override ``write`` keep their
        behavior; backends with a cheaper bulk path (SQLite
        ``executemany``) override this instead.

        Sink failures are deliberately *fatal* to the run: the engine
        aborts the drain on the first failed flush so a file-backed
        table always holds a clean row prefix (kill+resume semantics) —
        which is why the fault harness instruments this seam.
        """
        faults.fire("sink_write", type(self).__name__)
        for row in rows:
            self.write(row)

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def result(self):
        """What ``run_grid`` hands back once the stream is closed."""
        return None


class ListSink(ResultSink):
    """Accumulate rows in memory — the historical ``list[dict]`` API."""

    def __init__(self):
        """Start with an empty row list."""
        self.rows: list[dict] = []

    def open(self, meta: dict | None = None) -> None:
        """Reset the accumulated rows for a fresh stream."""
        self.rows = []

    def write(self, row: dict) -> None:
        """Append ``row`` to the in-memory list."""
        self.rows.append(row)

    def result(self) -> list[dict]:
        """Return the accumulated rows (the historical API)."""
        return self.rows


class JsonlSink(ResultSink):
    """Append each row as one canonical-JSON line to ``path``."""

    def __init__(self, path, append: bool = False):
        """Write to ``path``; ``append=True`` keeps existing lines."""
        self.path = pathlib.Path(path)
        self.append = append
        self._fh = None
        self.rows_written = 0

    def open(self, meta: dict | None = None) -> None:
        """Open (and by default truncate) the output file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a" if self.append else "w")
        self.rows_written = 0

    def write(self, row: dict) -> None:
        """Append ``row`` as one canonical-JSON line."""
        if self._fh is None:  # usable standalone, outside run_grid
            self.open()
        self._fh.write(json.dumps(jsonify(row), sort_keys=True) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def result(self) -> pathlib.Path:
        """Return the path of the written JSONL table."""
        return self.path


class SqliteSink(ResultSink):
    """Insert rows into a WAL-mode SQLite database at ``path``.

    The table is ``rows(seq INTEGER PRIMARY KEY, row TEXT)`` with
    ``seq`` preserving job order.  A directory ``path`` stores the
    database as ``rows.db`` inside it.
    """

    DB_NAME = "rows.db"

    def __init__(self, path, append: bool = False):
        """Write to the database at ``path`` (a ``.db`` file or dir)."""
        root = pathlib.Path(path)
        self.path = root if root.suffix == ".db" else root / self.DB_NAME
        self.append = append
        self._conn: sqlite3.Connection | None = None
        self.rows_written = 0

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = connect_wal(self.path)
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS rows ("
                " seq INTEGER PRIMARY KEY, row TEXT NOT NULL)")
        return self._conn

    def open(self, meta: dict | None = None) -> None:
        """Create the ``rows`` table; truncate unless appending."""
        conn = self._connection()
        if not self.append:
            conn.execute("DELETE FROM rows")
        self.rows_written = 0

    def write(self, row: dict) -> None:
        """Insert one row, letting SQLite assign the next ``seq``."""
        blob = json.dumps(jsonify(row), sort_keys=True)
        # seq is the INTEGER PRIMARY KEY: SQLite assigns max+1 itself
        self._connection().execute(
            "INSERT INTO rows (row) VALUES (?)", (blob,))
        self.rows_written += 1

    def write_many(self, rows) -> None:
        """Insert a whole batch with one ``executemany`` round-trip."""
        faults.fire("sink_write", type(self).__name__)
        blobs = [(json.dumps(jsonify(row), sort_keys=True),)
                 for row in rows]
        self._connection().executemany(
            "INSERT INTO rows (row) VALUES (?)", blobs)
        self.rows_written += len(blobs)

    def close(self) -> None:
        """Close the database connection (idempotent)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def result(self) -> pathlib.Path:
        """Return the path of the written database."""
        return self.path


def make_sink(kind: str, path=None, append: bool = False) -> ResultSink:
    """Build a sink from its CLI name (``list``/``jsonl``/``sqlite``).

    ``path`` is required for the file-backed kinds.
    """
    if kind == "list":
        return ListSink()
    if kind == "jsonl":
        if path is None:
            raise ValueError("the jsonl sink needs a path")
        return JsonlSink(path, append=append)
    if kind == "sqlite":
        if path is None:
            raise ValueError("the sqlite sink needs a path")
        return SqliteSink(path, append=append)
    raise ValueError(f"unknown sink kind {kind!r}; choose from "
                     f"{SINK_KINDS}")


def read_jsonl_rows(path) -> list[dict]:
    """Load the rows a :class:`JsonlSink` wrote, in stream order.

    Strict: any unparseable line raises :class:`ValueError`.  The
    lease-queue merge reads crash-prone per-worker logs with its own
    torn-tail rule (:func:`repro.runner.leasequeue.merge_results`).
    """
    with pathlib.Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_sqlite_rows(path) -> list[dict]:
    """Load the rows a :class:`SqliteSink` wrote, in stream order."""
    root = pathlib.Path(path)
    db = root if root.suffix == ".db" else root / SqliteSink.DB_NAME
    conn = sqlite3.connect(db)
    try:
        return [json.loads(blob) for (blob,) in
                conn.execute("SELECT row FROM rows ORDER BY seq")]
    finally:
        conn.close()
