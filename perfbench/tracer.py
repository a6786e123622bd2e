"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent)`` with ``perf_counter``
times.  Spans opened with :meth:`Tracer.span` on the driving thread
nest through a stack; a span opened on another thread (the HTTP
handler thread of the grid service) names its parent explicitly.
Nothing is written until :meth:`Tracer.dump` at the end of the run.
A disabled tracer records nothing, so the same code path serves the
traced and the untraced loop.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time


class Tracer:
    """Record spans in memory; compute self times; dump them as JSON."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        """Id of the innermost span open on the driving thread."""
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, *, parent: int | None = None, **attrs):
        """Time the block as span ``name``.  With ``parent`` the span is
        attached there and does not nest later spans (cross-thread use);
        otherwise it nests under the current span.  Yields the span
        record (``None`` when disabled) so callers can add attributes."""
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        rec = {"id": sid, "name": name,
               "parent": self.current if parent is None else parent,
               **attrs}
        nested = parent is None
        if nested:
            self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if nested:
                self._stack.pop()
            self.spans.append(rec)

    def named(self, prefix: str) -> list[dict]:
        """Spans whose name equals ``prefix`` or starts with
        ``prefix + "."``."""
        return [s for s in self.spans
                if s["name"] == prefix or s["name"].startswith(prefix + ".")]

    def self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus the part of its
        interval covered by its children (overlaps counted once)."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def dump(self, path) -> None:
        """Write every span, times relative to the first span's start."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in sorted(self.spans, key=lambda s: s["start"])]
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter seconds from first span",
                       "spans": spans}, fh, indent=0, sort_keys=True)
