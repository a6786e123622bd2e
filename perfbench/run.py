"""The repo benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-grid --seed 1 \
        --seconds 20 --trace 0

The run sets up the workload (several times; ``setup_s`` is the median),
then runs grids for ``--seconds`` and checks every row.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same seed with
spans around the benchmark's calls into each layer, decomposes grids
layer by layer (see ``decompose.py``), writes the spans to
``.bench_work/spans/`` and reports the per-layer metrics.  Human-readable
lines go first; the last line of standard output is one JSON object.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: scratch space of the benchmark, inside the checkout it runs from
WORK = ROOT / ".bench_work"
END_TO_END = ("jobs_per_s", "grids_per_s", "latency_p50_ms",
              "latency_p90_ms", "setup_s", "peak_rss_mb")
UNITS = {"jobs_per_s": "1/s", "grids_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
#: the ROADMAP's cProfile share of tabulation in a cold T=10k grid
PROFILED_BUILD_SHARE = 0.62


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cold-grid", "warm-store", "served-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(samples):
    """``(value, percentile)``: the 90th percentile, or with fewer than
    100 samples the highest percentile that still has ten samples
    beyond it (the median when even that has fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    if k < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def run_loop(wl, chk, seconds, traced):
    """Closed loop: plan a grid, run it (timed), check it, until
    ``seconds`` have passed.  A traced run traces every other grid, so
    the difference of the two medians is the tracing overhead."""
    tracer = wl.tracer
    plain, with_spans, rows = [], [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not wl.at_boundary():
        spec = wl.next_spec()
        wl.prepare(spec)
        tracer.enabled = traced and wl.ops % 2 == 1
        t0 = time.perf_counter()
        out = wl.execute(spec)
        dt = time.perf_counter() - t0
        (with_spans if tracer.enabled else plain).append(dt)
        tracer.enabled = traced
        wl.check(spec, out, chk)
        wl.ops += 1
        if out is not None:
            rows += len(spec)
    return plain, with_spans, rows


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children
    (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(tmp)
    import tempfile
    tempfile.tempdir = str(tmp)

    from repro.runner import busy_stats

    from tracer import Tracer
    from workloads import WORKLOADS, Checker

    traced = bool(args.trace)
    tracer = Tracer(enabled=traced)
    wl = WORKLOADS[args.workload](args.seed, run_dir, tracer)
    chk = Checker()
    busy_before = busy_stats()["sqlite_busy_retries"]
    setups = []
    try:
        tracer.enabled = False
        for rep in range(wl.setup_reps):
            if rep:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup(rep)
            setups.append(time.perf_counter() - t0)
        seconds = args.seconds / 2 if traced else args.seconds
        plain, with_spans, rows = run_loop(wl, chk, seconds, traced)
        wl.finish(chk)
        if traced:
            layer = trace_layers(wl, args, plain, with_spans, rows,
                                 busy_before, chk)
    finally:
        wl.close()
    if traced:
        metrics = layer
    else:
        lat = plain
        wall = sum(lat)
        p90, pct = tail(lat)
        metrics = {
            "jobs_per_s": rows / wall,
            "grids_per_s": len(lat) / wall,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (metrics[k], UNITS[k]) for k in END_TO_END}
        print(f"workload {args.workload} seed {args.seed}: {len(lat)} grids "
              f"({rows} jobs) in {wall:.2f} s of grid time; "
              f"latency_p90_ms is p{pct:.0f} of {len(lat)} samples; set-ups "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
        print(f"  failed_share = {chk.failed}/{chk.attempted} = "
              f"{chk.failed / max(chk.attempted, 1):.6f}")
    if wl.name == "served-mix":
        print(f"  hit share: planned {wl.planned_hit_share:.2f}, achieved "
              f"{wl.hit_grids / max(wl.grids, 1):.3f} over {wl.grids} "
              f"grids; {wl.requests} requests, {wl.requests_failed} "
              f"failed, {wl.retries} client retries")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for err in chk.errors:
        print(f"CHECK FAILED: {err}")
    shutil.rmtree(run_dir, ignore_errors=True)
    correct = not chk.errors
    print(json.dumps({
        "correct": correct, "attempted": max(chk.attempted, 1),
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def trace_layers(wl, args, plain, with_spans, rows, busy_before, chk):
    """Decompose grids of the same sequence, then compute, print and
    return the per-layer metrics; write the spans file."""
    from repro.runner import busy_stats

    import decompose
    tracer = wl.tracer
    dec = decompose.Decomposition(tracer, wl, wl.work / "decompose")
    for n, spec in enumerate(decomposed_specs(wl)):
        chk.rows(spec, dec.grid(spec, n), f"decomposed grid {n}")
    dec.scaling(wl.rng.randrange(1, 10**6))
    for err in dec.errors:
        chk.error(f"decomposition: {err}")
    if wl.name == "served-mix":
        hit_ratio = wl.job_hits / max(wl.jobs, 1)
        hit_grid_share = wl.hit_grids / max(wl.grids, 1)
    else:
        probes = wl.stats.job_hits + wl.stats.job_misses
        hit_ratio = wl.stats.job_hits / probes if probes else 0.0
        hit_grid_share = 0.0
    overhead = (statistics.median(with_spans) - statistics.median(plain)
                if plain and with_spans else 0.0)
    loop = {"pool_roundtrip_us": dec.pool_roundtrip_us(), "rows": rows,
            "hit_ratio": hit_ratio, "hit_grid_share": hit_grid_share,
            "busy_retries": (busy_stats()["sqlite_busy_retries"]
                             - busy_before),
            "overhead_ms": overhead * 1e3}
    metrics = decompose.metrics(tracer, dec, wl, loop)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{args.workload}-seed{args.seed}.json"
    tracer.dump(path)
    share = metrics["trace.build_share"][0]
    print(f"workload {args.workload} seed {args.seed} (traced): "
          f"{len(plain)} plain + {len(with_spans)} traced grids, "
          f"{len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
    print(f"  tracing overhead {overhead * 1e3:+.3f} ms per grid "
          f"(median traced minus median plain)")
    print(f"  tabulation share of the grid's own layer time {share:.3f} "
          f"(ROADMAP cProfile split: {PROFILED_BUILD_SHARE:.2f})"
          + ("  <-- LARGE GAP" if wl.name == "cold-grid"
             and abs(share - PROFILED_BUILD_SHARE) > 0.10 else ""))
    for what in ("kernels.sweep_scaling_ratio",
                 "offline.binary_search_scaling_ratio"):
        ratio = metrics[what][0]
        if not 2 / 3 <= ratio <= 1.5:
            print(f"  {what} = {ratio:.3f}: per-cell cost drifts with T "
                  "(expected about 1)")
    return metrics


def decomposed_specs(wl):
    """The grids the traced run decomposes: the next grid of the
    workload's sequence; for ``served-mix`` the next hit grid and the
    next grid with a new seed."""
    if wl.name != "served-mix":
        return [wl.next_spec()]
    picked = {}
    while len(picked) < 2:
        spec = wl.next_spec()
        hit = set(spec.seeds) <= set(wl.pool[spec.scenarios[0]])
        picked.setdefault(hit, spec)
    return [picked[True], picked[False]]


if __name__ == "__main__":
    sys.exit(main())
