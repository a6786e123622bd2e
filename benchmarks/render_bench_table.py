"""Regenerate the README performance table from BENCH_engine.json.

The README's *Performance* section is generated, not hand-edited: this
script renders the committed ``BENCH_engine.json`` artifact as a
markdown table and splices it between the ``BENCH TABLE`` marker
comments.  CI runs ``--check`` so the committed README can never drift
from the committed benchmark artifact::

    python benchmarks/render_bench_table.py          # rewrite README.md
    python benchmarks/render_bench_table.py --check  # exit 1 on drift

Regenerate the artifact itself with ``benchmarks/bench_engine.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_engine.json"
README = ROOT / "README.md"
BEGIN = "<!-- BEGIN BENCH TABLE (generated by benchmarks/render_bench_table.py) -->"
END = "<!-- END BENCH TABLE -->"

#: human-readable one-liners, keyed by bench_engine.py variant name
VARIANT_LABELS = {
    "rebuild": "per-job instance rebuild (PR 2)",
    "mmap_store": "mmap instance store (PR 3)",
    "pipelined": "+ double-buffered batches (PR 5)",
    "kernel": "+ vectorized kernels, memoized sweep (PR 6)",
    "warm_cache": "warm per-job result cache",
}


def render_table(report: dict) -> str:
    """Render the benchmark report as the README markdown block."""
    rows = {(r["variant"], r["T"]): r for r in report["results"]}
    sizes = sorted({r["T"] for r in report["results"]})
    variants = [v for v in VARIANT_LABELS if any(
        (v, T) in rows for T in sizes)]
    lines = [
        "| Variant | " + " | ".join(f"T={T:,}" for T in sizes) + " |",
        "| --- | " + " | ".join("---:" for _ in sizes) + " |",
    ]
    for v in variants:
        cells = [f"{rows[(v, T)]['jobs_per_sec']:,.2f}"
                 if (v, T) in rows else "—" for T in sizes]
        lines.append(f"| {VARIANT_LABELS[v]} | " + " | ".join(cells)
                     + " |")
    speedup = report.get("speedup_kernel_vs_pipelined", {})
    if speedup:
        per_t = ", ".join(f"{s}x at T={int(T):,}"
                          for T, s in sorted(speedup.items(),
                                             key=lambda kv: int(kv[0])))
        lines += ["",
                  f"Vectorized kernels vs the pipelined scalar baseline: "
                  f"{per_t} (jobs/sec, single worker, best of 3; "
                  f"scenario `{report['scenario']}`, "
                  f"{len(report['algorithms'])} algorithms)."]
    restricted = report.get("restricted_solver", {})
    if restricted:
        per_t = ", ".join(f"{v['speedup']}x at T={int(T):,}"
                          for T, v in sorted(restricted.items(),
                                             key=lambda kv: int(kv[0])))
        lines += ["",
                  f"Restricted-model DP, vectorized vs scalar solver: "
                  f"{per_t} (single instance, best of 3)."]
    return "\n".join(lines)


def spliced_readme(report: dict) -> str:
    """Return the README text with the generated block refreshed."""
    text = README.read_text()
    try:
        head, rest = text.split(BEGIN, 1)
        _stale, tail = rest.split(END, 1)
    except ValueError:
        raise SystemExit(
            f"README.md is missing the {BEGIN!r} / {END!r} markers")
    return head + BEGIN + "\n" + render_table(report) + "\n" + END + tail


def main(argv=None) -> int:
    """CLI entry point: rewrite README.md, or verify it with --check."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 1) if README.md is out of date "
                         "instead of rewriting it")
    args = ap.parse_args(argv)
    report = json.loads(BENCH_JSON.read_text())
    fresh = spliced_readme(report)
    current = README.read_text()
    if args.check:
        if current != fresh:
            print("README.md bench table drifted from BENCH_engine.json;"
                  " run: python benchmarks/render_bench_table.py",
                  file=sys.stderr)
            return 1
        print("README.md bench table is current")
        return 0
    if current == fresh:
        print("README.md already current")
    else:
        README.write_text(fresh)
        print("README.md bench table rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
