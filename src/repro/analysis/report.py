"""Experiment-report assembly.

The benchmarks persist their regenerated tables under
``benchmarks/results/E*.txt``.  This module collects them into a single
report, checks that every experiment of the :data:`EXPERIMENTS` index
(one per claim of the paper) actually produced artifacts, and extracts
headline numbers for quick regression eyeballing.
"""

from __future__ import annotations

import pathlib
import re

__all__ = ["EXPERIMENTS", "load_results", "missing_experiments",
           "assemble_report", "headline_numbers"]

#: experiment ids and the claim each one reproduces
EXPERIMENTS = {
    "E1": "Figure 1 — layered graph construction",
    "E2": "Theorem 1 — offline optimality",
    "E3": "Section 2.2 — O(T log m) scaling",
    "E4": "Theorem 2 — LCP is 3-competitive",
    "E5": "Theorem 3 — randomized 2-competitive",
    "E6": "Theorem 4 — deterministic lower bound 3",
    "E7": "Theorems 5/9 — restricted-model bounds",
    "E8": "Theorem 6 — continuous lower bound 2",
    "E9": "Theorem 8 — randomized lower bound 2",
    "E10": "Theorem 10 — prediction windows",
    "E11": "case study — right-sizing savings",
    "E12": "ablations",
    "E13": "simulator validation",
    "E14": "heterogeneous-fleet extension demo",
}


def load_results(results_dir) -> dict:
    """Map experiment id -> list of (name, table text), sorted by name."""
    results_dir = pathlib.Path(results_dir)
    out: dict[str, list] = {}
    for path in sorted(results_dir.glob("E*.txt")):
        match = re.match(r"(E\d+)", path.stem)
        if not match:
            continue
        out.setdefault(match.group(1), []).append(
            (path.stem, path.read_text().rstrip()))
    return out


def missing_experiments(results_dir) -> list:
    """Experiment ids from the DESIGN index with no artifacts on disk."""
    present = set(load_results(results_dir))
    return [e for e in EXPERIMENTS if e not in present]


def assemble_report(results_dir, title: str = "Experiment report") -> str:
    """One document with every regenerated table, grouped by experiment."""
    results = load_results(results_dir)
    lines = [f"# {title}", ""]
    for exp_id, claim in EXPERIMENTS.items():
        lines.append(f"## {exp_id} — {claim}")
        tables = results.get(exp_id)
        if not tables:
            lines.append("(no artifacts — run `pytest benchmarks/ "
                         "--benchmark-only`)")
        else:
            for name, text in tables:
                lines.append("```")
                lines.append(text)
                lines.append("```")
        lines.append("")
    return "\n".join(lines)


def _column_value(text: str, column_substring: str, row: int = -1):
    """Value of the first column whose name contains ``column_substring``
    in the ``row``-th data row of a rendered table (title, header,
    rule, data...)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        return None
    header = lines[1].split()
    try:
        idx = next(i for i, c in enumerate(header)
                   if column_substring in c)
    except StopIteration:
        return None
    try:
        return float(lines[3:][row].split()[idx])
    except (IndexError, ValueError):
        return None


def headline_numbers(results_dir) -> dict:
    """Extract the convergence headline of each lower-bound curve: the
    ratio column in the final (smallest-eps) row of E6/E8/E9 tables."""
    results = load_results(results_dir)
    out = {}
    wanted = {
        "E6_det_lower_bound": ("det_lb_ratio", "ratio"),
        "E8_continuous_B": ("cont_lb_ratio", "ratio"),
        "E9_randomized_lb": ("rand_lb_ratio", "ratio"),
    }
    for exp_tables in results.values():
        for name, text in exp_tables:
            if name in wanted:
                key, col = wanted[name]
                value = _column_value(text, col)
                if value is not None:
                    out[key] = value
    return out
