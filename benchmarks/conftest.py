"""Shared infrastructure for the experiment benchmarks (E1–E12).

Every benchmark both *times* a representative kernel (pytest-benchmark)
and *regenerates the paper-shaped artifact* — a table or series — which
is printed and persisted under ``benchmarks/results/`` (collected by
:mod:`repro.analysis.report`).  Shape assertions (who wins, where curves converge) are
part of the benchmarks: a silent regression in a reproduced result fails
the bench run.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis import format_table  # noqa: E402
from repro.runner.scenarios import trace_suite  # noqa: E402,F401
from repro.workloads import random_convex_instance  # noqa: E402,F401

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def record(name: str, rows, columns=None, title: str | None = None) -> str:
    """Render, print and persist an experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = format_table(rows, columns, title=title or name)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


@pytest.fixture
def rng():
    return np.random.default_rng(2018)
