"""E3 — Section 2.2: O(T log m) runtime scaling.

Regenerates the runtime comparison implicit in the paper's complexity
claims: the binary-search algorithm scales logarithmically in m while the
DP is linear in m (and the explicit graph quadratic).  Absolute times are
machine-specific; the *shape* — binary search flat in m, DP growing
linearly, crossover at moderate m — is the reproduced result.

The timing grids run in-process through :func:`repro.analysis.sweep`
(never cached, so every timing is fresh), and a ``run_grid`` pass checks
that every exact solver lands on the hoisted per-instance optimum.
"""

import time

import numpy as np

from repro.analysis import sweep
from repro.offline import solve_binary_search, solve_dp, solve_graph
from repro.runner import GridSpec, run_grid

from conftest import random_convex_instance, record


def _time(fn, *args, repeats=3, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _instance_at(T: int, m: int, salt: int):
    """Deterministic random-convex instance per grid point."""
    rng = np.random.default_rng([salt, T, m])
    return random_convex_instance(rng, T, m, 2.0)


def _measure_bs_vs_dp(T: int, m: int) -> dict:
    inst = _instance_at(T, m, salt=11)
    t_bs = _time(solve_binary_search, inst, repeats=2)
    t_dp = _time(lambda i: solve_dp(i, return_schedule=False), inst,
                 repeats=2)
    return {"binary_search_s": t_bs, "dp_s": t_dp,
            "speedup_dp/bs": t_dp / t_bs}


def _measure_bs_vs_dp_in_T(T: int, m: int) -> dict:
    inst = _instance_at(T, m, salt=12)
    return {"binary_search_s": _time(solve_binary_search, inst),
            "dp_s": _time(lambda i: solve_dp(i, return_schedule=False),
                          inst)}


def _measure_graph_vs_dp(T: int, m: int) -> dict:
    inst = _instance_at(T, m, salt=13)
    return {"graph_s": _time(solve_graph, inst, repeats=2),
            "dp_s": _time(lambda i: solve_dp(i, return_schedule=False),
                          inst, repeats=2)}


def test_e3_scaling_in_m(benchmark):
    """Fixed T, growing m: binary search ~log m, DP ~m.

    NumPy's vectorized DP has a tiny per-state constant, so the crossover
    sits at large m (hundreds of thousands of states) — exactly the
    pseudo-polynomial-vs-polynomial story of Section 2: the DP's work is
    linear in m while the binary search pays log m times a fixed
    per-step cost.
    """
    rows = sweep(_measure_bs_vs_dp,
                 {"T": [128], "m": [1024, 8192, 65536, 262144]})
    record("E3_scaling_m", rows, title="E3: runtime vs m (T = 128)")
    # Shape assertions: binary search wins at the largest m, and its
    # growth from the smallest to the largest m is far below the DP's.
    assert rows[-1]["binary_search_s"] < rows[-1]["dp_s"]
    bs_growth = rows[-1]["binary_search_s"] / rows[0]["binary_search_s"]
    dp_growth = rows[-1]["dp_s"] / rows[0]["dp_s"]
    assert bs_growth < dp_growth
    # Benchmark the headline configuration.
    inst = _instance_at(128, 262144, salt=11)
    benchmark.pedantic(solve_binary_search, args=(inst,), rounds=3,
                       iterations=1)


def test_e3_scaling_in_T(benchmark):
    """Fixed m, growing T: both solvers are ~linear in T."""
    rows = sweep(_measure_bs_vs_dp_in_T,
                 {"T": [32, 128, 512, 2048], "m": [512]})
    record("E3_scaling_T", rows, title="E3: runtime vs T (m = 512)")
    # Linearity in T (loose factor-of-4 sanity window around 64x work).
    ratio = rows[-1]["binary_search_s"] / max(rows[0]["binary_search_s"],
                                              1e-9)
    assert ratio < 64 * 8
    inst = _instance_at(2048, 512, salt=12)
    benchmark.pedantic(solve_binary_search, args=(inst,), rounds=3,
                       iterations=1)


def test_e3_graph_quadratic_reference(benchmark):
    """The explicit Figure-1 relaxation is the O(T m^2) strawman."""
    rows = sweep(_measure_graph_vs_dp,
                 {"T": [64], "m": [64, 128, 256]})
    record("E3_graph_reference", rows,
           title="E3: explicit-graph relaxation vs DP")
    assert rows[-1]["dp_s"] < rows[-1]["graph_s"]
    inst = _instance_at(64, 256, salt=13)
    benchmark(solve_graph, inst)


def test_e3_exact_solvers_on_hoisted_optimum(benchmark):
    """Every exact solver reproduces the per-instance optimum the
    two-phase engine hoists in phase 1 (ratio exactly 1)."""
    spec = GridSpec(scenarios=("random-convex",),
                    algorithms=("binary_search", "dp", "graph"),
                    seeds=(0, 1), sizes=(64,))
    rows = run_grid(spec)
    record("E3_exact_grid",
           [{"algorithm": r["algorithm"], "seed": r["seed"],
             "cost": r["cost"], "ratio": r["ratio"]} for r in rows],
           title="E3: exact solvers vs hoisted optimum")
    assert all(abs(r["ratio"] - 1.0) < 1e-9 for r in rows)
    benchmark(run_grid, spec)
