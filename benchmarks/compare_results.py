"""Nightly benchmark regression comparator.

Diffs the machine-readable benchmark JSON of the current run against the
previous run's downloaded artifact and fails (exit 1) when a tracked
metric drifts beyond its tolerance:

* **ratio metrics** (any numeric leaf whose key path contains ``ratio``,
  e.g. the per-algorithm ``mean_ratio`` fingerprints in
  ``BENCH_engine.json``) — tight tolerance; these are *correctness*
  fingerprints, a drift means reproduced results changed;
* **runtime metrics** (key path contains ``seconds``, ``jobs_per_sec``,
  ``speedup`` or the ``timings/`` stats of a pytest-benchmark autosave)
  — loose tolerance; CI machines are noisy, only large regressions
  should fail.

Documents are matched by their **bench identity**, not by filename: a
``BENCH_*.json`` document is keyed by its embedded ``"bench"`` field
(falling back to the basename only when the field is absent), and its
``results`` rows are re-keyed by ``(T, variant)`` — so renaming an
artifact between runs cannot silently drop it from the comparison, and
row insertions don't misalign the diff.  A bench present in the
previous run but missing from the current one fails the gate, and so
does a ``(T, variant)`` row dropped from a document whose ``version``
is unchanged; a row dropped together with a ``version`` bump is
printed but passes (the benchmark's shape changed on purpose).

pytest-benchmark autosave files (machine-suffixed directories, counter
plus commit/timestamp filenames like
``.benchmarks/Linux-CPython-3.12-64bit/0001_xxx_20260727_041500.json``)
are folded in under the normalized identity ``autosave-<counter>``:
the machine directory and the per-run name suffix are stripped, and
each timing is re-keyed by its benchmark ``fullname`` with only the
stable location stats (``mean``/``median``/``min``) tracked.

Usage::

    python benchmarks/compare_results.py previous-results benchmarks/results \
        --ratio-tol 0.05 --time-tol 0.5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

RATIO_MARKERS = ("ratio",)
TIME_MARKERS = ("seconds", "jobs_per_sec", "speedup", "time", "timings/")

#: pytest-benchmark autosave basename: counter, then commit/timestamp noise
_AUTOSAVE_RE = re.compile(r"^(\d{4})_.*\.json$")

#: the per-benchmark stats worth diffing (location, not dispersion)
_AUTOSAVE_STATS = ("mean", "median", "min")


def _numeric_leaves(node, path=()):
    """Yield ``(path, value)`` for every numeric leaf of a JSON tree."""
    if isinstance(node, dict):
        for k, v in sorted(node.items()):
            yield from _numeric_leaves(v, path + (str(k),))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numeric_leaves(v, path + (str(i),))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def _metric_kind(path: tuple) -> str | None:
    """'ratio', 'time' or None (untracked) for a leaf's key path."""
    joined = "/".join(path).lower()
    if joined.startswith("timings/"):
        # autosave wall-clock stats: always runtime, even when the
        # benchmark's own name contains "ratio" (test_e4_ratio_table)
        return "time"
    if any(m in joined for m in RATIO_MARKERS):
        return "ratio"
    if any(m in joined for m in TIME_MARKERS):
        return "time"
    return None


def _is_autosave(doc) -> bool:
    """Whether a JSON document is a pytest-benchmark autosave."""
    return (isinstance(doc, dict) and "benchmarks" in doc
            and "machine_info" in doc)


def _index_rows(doc):
    """Re-key a document's repeated structures by stable identities so
    row order and added rows between runs don't misalign the diff:
    ``results`` lists by (T, variant), pytest-benchmark ``benchmarks``
    lists by the benchmark fullname (location stats only — everything
    machine/run-specific is dropped)."""
    if _is_autosave(doc):
        return {"timings": {
            row.get("fullname", row.get("name", "?")): {
                stat: row["stats"][stat] for stat in _AUTOSAVE_STATS
                if stat in row.get("stats", {})}
            for row in doc["benchmarks"] if isinstance(row, dict)}}
    if isinstance(doc, dict) and isinstance(doc.get("results"), list):
        doc = dict(doc)
        doc["results"] = {
            f"{row.get('T')}-{row.get('variant')}": row
            for row in doc["results"] if isinstance(row, dict)}
    return doc


def compare_docs(previous, current, *, ratio_tol: float,
                 time_tol: float) -> list[str]:
    """Drift messages for tracked metrics present in both documents."""
    prev = dict(_numeric_leaves(_index_rows(previous)))
    cur = dict(_numeric_leaves(_index_rows(current)))
    problems = []
    for path in sorted(set(prev) & set(cur)):
        kind = _metric_kind(path)
        if kind is None:
            continue
        tol = ratio_tol if kind == "ratio" else time_tol
        a, b = prev[path], cur[path]
        scale = max(abs(a), abs(b), 1e-12)
        drift = abs(b - a) / scale
        if drift > tol:
            problems.append(
                f"{'/'.join(path)}: {a:g} -> {b:g} "
                f"({kind} drift {drift:.1%} > {tol:.1%})")
    return problems


def dropped_rows(previous, current) -> list[str]:
    """The ``(T, variant)`` row keys of ``previous`` absent from
    ``current`` (empty for documents without ``results`` rows)."""
    prev, cur = _index_rows(previous), _index_rows(current)
    if not (isinstance(prev, dict) and isinstance(cur, dict)):
        return []
    return sorted(set(prev.get("results", {}))
                  - set(cur.get("results", {})))


def _bench_identity(path: pathlib.Path, doc) -> str:
    """The document's run-stable identity: the embedded bench name for
    ``BENCH_*`` documents, the normalized counter for pytest-benchmark
    autosaves, the basename otherwise."""
    if _is_autosave(doc):
        m = _AUTOSAVE_RE.match(path.name)
        return f"autosave-{m.group(1) if m else path.stem}"
    if isinstance(doc, dict) and isinstance(doc.get("bench"), str):
        return f"bench-{doc['bench']}"
    return path.name


def _bench_files(root: pathlib.Path) -> dict[str, tuple]:
    """Map bench identity -> (path, parsed document) under ``root``."""
    out: dict[str, tuple] = {}
    candidates = sorted(root.rglob("BENCH*.json"))
    candidates += [p for p in sorted(root.rglob("*.json"))
                   if _AUTOSAVE_RE.match(p.name)]
    for path in candidates:
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            print(f"{path}: unreadable ({exc}); skipping")
            continue
        out[_bench_identity(path, doc)] = (path, doc)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("previous", help="previous run's artifact directory")
    ap.add_argument("current", help="current run's results directory")
    ap.add_argument("--ratio-tol", type=float, default=0.05,
                    help="relative tolerance for ratio metrics")
    ap.add_argument("--time-tol", type=float, default=0.5,
                    help="relative tolerance for runtime metrics")
    args = ap.parse_args(argv)
    previous = pathlib.Path(args.previous)
    current = pathlib.Path(args.current)
    if not previous.is_dir():
        print(f"no previous results at {previous}; nothing to compare")
        return 0
    prev_files = _bench_files(previous)
    cur_files = _bench_files(current)
    if not prev_files:
        print("no previous benchmark JSON files; nothing to compare")
        return 0
    failed = False
    missing = sorted(set(prev_files) - set(cur_files))
    if missing:
        # a renamed/dropped artifact must not silently pass the gate
        failed = True
        for name in missing:
            print(f"MISSING from current run: {name} "
                  f"(was {prev_files[name][0]})")
    for name in sorted(set(prev_files) & set(cur_files)):
        prev_doc, cur_doc = prev_files[name][1], cur_files[name][1]
        problems = compare_docs(prev_doc, cur_doc,
                                ratio_tol=args.ratio_tol,
                                time_tol=args.time_tol)
        for key in dropped_rows(prev_doc, cur_doc):
            was, now = prev_doc.get("version"), cur_doc.get("version")
            if was == now:
                problems.append(f"results/{key}: row dropped "
                                f"(version unchanged)")
            else:
                print(f"{name}: row {key} dropped with version "
                      f"{was} -> {now}")
        if problems:
            failed = True
            print(f"REGRESSION in {name}:")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"{name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
