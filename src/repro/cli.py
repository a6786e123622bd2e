"""Command-line interface.

Subcommands, mirroring the library's pillars:

* ``repro solve``     — optimal offline schedule for a generated (or CSV)
  load trace, with solver selection and cost breakdown.
* ``repro simulate``  — replay online algorithms on a trace and report
  costs and empirical ratios against the offline optimum.
* ``repro sweep``     — batch (scenario x algorithm x seed x size x
  params) grids through the pipelined engine, with caching,
  bounded-memory batches (``--batch-size``), double-buffering
  (``--pipeline-depth``), pluggable result sinks (``--sink
  jsonl/sqlite``) and param-aware ratio aggregation (``--params``,
  ``--group-by``).
* ``repro bench``     — predefined engine grids with wall-clock timing.
* ``repro lowerbound`` — the Section 5 adversarial games as
  `game`-pipeline engine grids; prints the ratio-vs-eps curves.
* ``repro cache``     — administer the per-job result cache: stats,
  prune by age and/or LRU size bound, clear, and JSON-dir → SQLite
  migration.
* ``repro work``      — multi-worker execution on a shared lease
  queue: ``enqueue`` splits a grid into contiguous job leases,
  ``run`` drains them (any number of concurrent workers, crash-safe
  via heartbeat + reclaim), ``merge`` reassembles the per-worker rows
  into one bit-identical result set, ``status`` shows lease counts
  (``--json`` for the machine-readable service payload).
* ``repro serve``     — long-running HTTP grid service over a shared
  lease queue: submits are cache-probed (hits answered instantly,
  only misses enqueued), idempotent by grid digest, admission-
  controlled (429 over budget) and drained cleanly by
  ``POST /shutdown``.

Examples::

    repro solve --workload diurnal -T 96 --peak 20 --beta 6
    repro simulate --workload hotmail -T 168 --algorithms lcp,threshold
    repro sweep --scenarios diurnal,bursty --algorithms lcp,threshold \
        --seeds 0,1,2 -T 168 --n-jobs 4
    repro sweep --scenarios diurnal --algorithms lcp --seeds 0,1,2 \
        -T 168 --sink jsonl --sink-path rows.jsonl --batch-size 4
    repro sweep --scenarios case-msr --algorithms lcp,threshold \
        -T 168 --params '{"beta": 2.0};{"beta": 8.0}' \
        --group-by scenario,algorithm,T,beta
    repro bench --grid traces --n-jobs 4 --store-dir /tmp/store
    repro lowerbound --kind deterministic --eps 0.2,0.1,0.05
    repro solve --loads-csv trace.csv --beta 4 --solver dp
    repro cache stats --cache-dir /tmp/cache
    repro cache migrate --cache-dir /tmp/cache
    repro cache prune --cache-dir /tmp/cache --older-than 30d
    repro cache prune --cache-dir /tmp/cache --max-bytes 100m
    repro work enqueue --queue /tmp/q --scenarios diurnal,bursty \
        --algorithms lcp,threshold --seeds 0,1 -T 96 --lease-jobs 4
    repro work run --queue /tmp/q --cache-dir /tmp/cache  # xN workers
    repro work merge --queue /tmp/q --out merged.jsonl
    repro work status --queue /tmp/q --json
    repro serve --queue /tmp/q --cache-dir /tmp/cache --port 8600
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]

_WORKLOADS = ("diurnal", "msr", "hotmail", "bursty", "onoff", "sawtooth",
              "constant")
_SOLVERS = ("binary_search", "dp", "graph", "lp")
_ALGORITHMS = ("lcp", "threshold", "randomized", "memoryless", "followmin",
               "rhc", "afhc")

#: mirrors of :mod:`repro.runner.leasequeue` defaults, repeated here so
#: help text renders without importing the runner at module load
_DEFAULT_LEASE_JOBS = 8
_DEFAULT_TTL = 60.0

#: predefined engine grids for ``repro bench``
_BENCH_GRIDS = {
    "smoke": dict(scenarios=("diurnal", "bursty", "adversarial-hinge"),
                  algorithms=("lcp", "threshold", "randomized"),
                  seeds=(0,), sizes=(24,)),
    "traces": dict(scenarios=("diurnal", "msr-like", "hotmail-like",
                              "bursty", "onoff"),
                   algorithms=("lcp", "threshold", "randomized",
                               "memoryless"),
                   seeds=(0, 1, 2), sizes=(168,)),
    "solvers": dict(scenarios=("diurnal", "random-convex", "hetero-mix"),
                    algorithms=("binary_search", "dp", "graph", "lp"),
                    seeds=(0, 1), sizes=(96,)),
    "adversarial": dict(scenarios=("adversarial-hinge", "sawtooth",
                                   "regime-switching"),
                        algorithms=("lcp", "threshold", "randomized",
                                    "memoryless"),
                        seeds=(0,), sizes=(168, 1200)),
    "restricted": dict(scenarios=("restricted-diurnal",),
                       algorithms=("restricted", "lcp", "threshold",
                                   "memoryless"),
                       seeds=(0, 1), sizes=(96,)),
    "hetero": dict(scenarios=("hetero-fleet",),
                   algorithms=("dp_hetero", "static_hetero",
                               "greedy_hetero"),
                   seeds=(0, 1, 2), sizes=(96,)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Right-sizing data centers (Albers & Quedenfeld, "
                    "SPAA 2018) — reproduction CLI")
    sub = p.add_subparsers(dest="command", required=True)

    def add_trace_args(sp):
        sp.add_argument("--workload", choices=_WORKLOADS, default="diurnal",
                        help="synthetic trace family")
        sp.add_argument("--loads-csv", metavar="PATH",
                        help="read loads (one per line) instead")
        sp.add_argument("-T", type=int, default=96, help="time steps")
        sp.add_argument("--peak", type=float, default=20.0,
                        help="peak load (server units)")
        sp.add_argument("--beta", type=float, default=6.0,
                        help="switching cost per power-up")
        sp.add_argument("--delay-weight", type=float, default=10.0,
                        help="latency penalty weight")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("solve", help="optimal offline schedule")
    add_trace_args(sp)
    sp.add_argument("--solver", choices=_SOLVERS, default="binary_search")
    sp.add_argument("--show-schedule", action="store_true")
    sp.add_argument("--save-schedule", metavar="PATH",
                    help="write the optimal schedule as CSV")
    sp.add_argument("--save-instance", metavar="PATH",
                    help="write the generated instance as .npz")

    sp = sub.add_parser("simulate", help="online algorithms on a trace")
    add_trace_args(sp)
    sp.add_argument("--algorithms", default="lcp,threshold,randomized",
                    help=f"comma list from {_ALGORITHMS}")
    sp.add_argument("--lookahead", type=int, default=0,
                    help="prediction window w for lcp/rhc/afhc")

    def add_grid_args(sp):
        sp.add_argument("--scenarios",
                        default="diurnal,msr-like,hotmail-like,bursty,onoff",
                        help="comma list of scenario names (see --list)")
        sp.add_argument("--algorithms",
                        default="lcp,threshold,randomized,memoryless",
                        help="comma list of registry names (see --list)")
        sp.add_argument("--seeds", default="0,1,2",
                        help="comma list of integer seeds")
        sp.add_argument("-T", default="168",
                        help="comma list of horizon lengths")
        sp.add_argument("--lookahead", type=int, default=0,
                        help="prediction window for lookahead algorithms")
        sp.add_argument("--params", default=None, metavar="JSON",
                        help="semicolon list of scenario-parameter JSON "
                             "dicts crossed with the grid, e.g. "
                             "'{\"beta\": 2.0};{\"beta\": 8.0}'")

    def add_engine_args(sp, sink: bool = True):
        sp.add_argument("--n-jobs", type=int, default=1,
                        help="worker processes (1 = in-process); the "
                             "pool persists across phases and grids")
        sp.add_argument("--cache-dir", metavar="DIR",
                        help="per-job content-addressed result cache "
                             "under DIR (overlapping grids share work)")
        sp.add_argument("--cache-backend",
                        choices=("auto", "json", "sqlite"), default="auto",
                        help="cache storage backend (auto detects an "
                             "existing cache.db, else JSON dir)")
        sp.add_argument("--store-dir", metavar="DIR",
                        help="write each distinct instance through, "
                             "once, into a shared mmap store under DIR; "
                             "workers map it read-only instead of "
                             "rebuilding")
        sp.add_argument("--force", action="store_true",
                        help="recompute even on a cache hit")
        sp.add_argument("--batch-size", type=int, default=None,
                        metavar="N",
                        help="stream phase-2 jobs in batches of N so "
                             "the parent holds O(N x depth) pending "
                             "rows (default: one batch)")
        sp.add_argument("--pipeline-depth", type=int, default=2,
                        metavar="D",
                        help="batches kept in flight at once: with "
                             "n_jobs > 1, batch N+1's instances "
                             "are built and solved while batch N's "
                             "algorithm jobs still run (1 = barrier "
                             "per batch)")
        sp.add_argument("--max-retries", type=int, default=2,
                        metavar="R",
                        help="per-job retries (exponential backoff) "
                             "before the job is quarantined as a "
                             "status=failed row; the rest of the grid "
                             "always completes (0 disables retries)")
        if not sink:
            return
        sp.add_argument("--sink", choices=("list", "jsonl", "sqlite"),
                        default="list",
                        help="where result rows stream to: an in-memory "
                             "list (printed), a JSONL file or a SQLite "
                             "database")
        sp.add_argument("--sink-path", metavar="PATH",
                        help="output path for --sink jsonl/sqlite "
                             "(default rows.jsonl / rows.db)")

    sp = sub.add_parser("sweep",
                        help="batch a (scenario x algorithm x seed x size) "
                             "grid through the parallel engine")
    add_grid_args(sp)
    sp.add_argument("--group-by", default=None, metavar="COLS",
                    help="comma list of row columns to aggregate on "
                         "(default scenario,algorithm,T); params-axis "
                         "columns work too, e.g. "
                         "scenario,algorithm,T,beta for the E11 "
                         "per-beta tables")
    sp.add_argument("--per-row", action="store_true",
                    help="print every job row, not only aggregates")
    sp.add_argument("--list", action="store_true",
                    help="list scenarios and registered algorithms")
    add_engine_args(sp)

    sp = sub.add_parser("bench",
                        help="run a predefined engine grid with timing")
    sp.add_argument("--grid", choices=sorted(_BENCH_GRIDS),
                    default="smoke")
    sp.add_argument("--group-by", default=None, metavar="COLS",
                    help="comma list of row columns to aggregate on")
    add_engine_args(sp)

    sp = sub.add_parser("lowerbound",
                        help="Section 5 adversarial games (eps grids "
                             "run as game-pipeline engine jobs)")
    sp.add_argument("--kind",
                    choices=("deterministic", "continuous", "randomized",
                             "restricted"),
                    default="deterministic")
    sp.add_argument("--eps", default="0.2,0.1,0.05",
                    help="comma list of adversary slopes")
    sp.add_argument("--max-steps", type=int, default=30000)
    sp.add_argument("--n-jobs", type=int, default=1,
                    help="play the eps grid on a process pool")
    sp.add_argument("--cache-dir", metavar="DIR",
                    help="per-job result cache (eps points persist "
                         "like any other engine job)")

    sp = sub.add_parser("report",
                        help="assemble the experiment report from "
                             "benchmark artifacts")
    sp.add_argument("--results-dir", default="benchmarks/results")
    sp.add_argument("--check", action="store_true",
                    help="exit non-zero if any experiment is missing")

    sp = sub.add_parser("cache",
                        help="administer the per-job result cache")
    cache_sub = sp.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
            ("stats", "entry counts, bytes and backend of a cache"),
            ("prune", "remove records older than a cutoff"),
            ("clear", "remove every record"),
            ("migrate", "convert a JSON cache dir to the SQLite "
                        "backend (cache.db)")):
        csp = cache_sub.add_parser(name, help=help_text)
        csp.add_argument("--cache-dir", metavar="DIR", required=True)
        if name != "migrate":
            csp.add_argument("--cache-backend",
                             choices=("auto", "json", "sqlite"),
                             default="auto")
        if name == "prune":
            csp.add_argument("--older-than",
                             metavar="AGE",
                             help="age cutoff: number plus unit suffix "
                                  "s/m/h/d (plain numbers mean days), "
                                  "e.g. 30d, 12h, 90")
            csp.add_argument("--max-bytes", metavar="SIZE",
                             help="size bound: evict least-recently-"
                                  "accessed records until the cache "
                                  "holds at most SIZE bytes (suffixes "
                                  "k/m/g), e.g. 100m")

    sp = sub.add_parser("work",
                        help="multi-worker grid execution on a shared "
                             "lease queue")
    work_sub = sp.add_subparsers(dest="work_command", required=True)

    wsp = work_sub.add_parser(
        "enqueue", help="split a grid into contiguous job leases")
    wsp.add_argument("--queue", metavar="DIR", required=True,
                     help="queue directory shared by every worker")
    wsp.add_argument("--lease-jobs", type=int, default=None, metavar="N",
                     help="contiguous jobs per lease (default %d)"
                          % _DEFAULT_LEASE_JOBS)
    add_grid_args(wsp)

    wsp = work_sub.add_parser(
        "run", help="claim and run leases until the queue drains")
    wsp.add_argument("--queue", metavar="DIR", required=True)
    wsp.add_argument("--worker", default=None, metavar="ID",
                     help="worker identity (default host-pid); names "
                          "this worker's results file and leases")
    wsp.add_argument("--ttl", type=float, default=None, metavar="SECS",
                     help="lease time-to-live; heartbeats ride each "
                          "batch flush, so pick well above one batch's "
                          "wall time (default %.0fs)" % _DEFAULT_TTL)
    wsp.add_argument("--poll", type=float, default=None, metavar="SECS",
                     help="idle poll interval while waiting for "
                          "reclaimable leases")
    wsp.add_argument("--max-leases", type=int, default=None, metavar="N",
                     help="stop after N leases (default: drain the "
                          "queue)")
    add_engine_args(wsp, sink=False)

    wsp = work_sub.add_parser(
        "merge", help="reassemble per-worker rows into one result set")
    wsp.add_argument("--queue", metavar="DIR", required=True)
    wsp.add_argument("--grid-id", default=None,
                     help="grid to merge (default: the queue's only "
                          "grid)")
    wsp.add_argument("--out", metavar="PATH", default=None,
                     help="write merged rows to a JSONL file instead "
                          "of printing aggregate ratios")

    wsp = work_sub.add_parser(
        "retry-failed",
        help="re-enqueue only the quarantined (status=failed) jobs")
    wsp.add_argument("--queue", metavar="DIR", required=True)
    wsp.add_argument("--grid-id", default=None,
                     help="grid to retry (default: the only one)")

    wsp = work_sub.add_parser("status",
                              help="lease counts per grid, plus "
                                   "quarantined jobs and stale workers")
    wsp.add_argument("--queue", metavar="DIR", required=True)
    wsp.add_argument("--grid-id", default=None,
                     help="report one grid (default: every grid)")
    wsp.add_argument("--json", action="store_true",
                     help="machine-readable status: the same payload "
                          "the grid service's GET /grids/<id> serves")

    sp = sub.add_parser("serve",
                        help="HTTP grid service over a shared lease "
                             "queue (submit grids with POST /grids)")
    sp.add_argument("--queue", metavar="DIR", required=True,
                    help="lease-queue directory the worker fleet "
                         "shares")
    sp.add_argument("--cache-dir", metavar="DIR", default=None,
                    help="job cache probed on submit; hits are "
                         "answered without enqueueing")
    sp.add_argument("--cache-backend", choices=("auto", "json",
                                                "sqlite"),
                    default="auto", help="cache backend (default "
                                         "auto-detect)")
    sp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default %(default)s)")
    sp.add_argument("--port", type=int, default=8600,
                    help="bind port; 0 picks an ephemeral port "
                         "(default %(default)s)")
    sp.add_argument("--budget", type=int, default=None, metavar="N",
                    help="admission control: max outstanding queued "
                         "jobs before submits get 429")
    sp.add_argument("--lease-jobs", type=int, default=None,
                    metavar="N",
                    help="contiguous jobs per enqueued lease "
                         "(default %d)" % _DEFAULT_LEASE_JOBS)
    sp.add_argument("--verbose", action="store_true",
                    help="log every request to stderr")
    return p


def _make_loads(args) -> np.ndarray:
    if args.loads_csv:
        loads = np.loadtxt(args.loads_csv, dtype=np.float64, ndmin=1)
        if loads.ndim != 1:
            raise SystemExit("loads CSV must contain one value per line")
        return loads
    from .workloads import (bursty_loads, constant_loads, diurnal_loads,
                            hotmail_like_loads, msr_like_loads, onoff_loads,
                            sawtooth_loads)
    rng = np.random.default_rng(args.seed)
    T, peak = args.T, args.peak
    return {
        "diurnal": lambda: diurnal_loads(T, peak=peak, rng=rng),
        "msr": lambda: msr_like_loads(T, peak=peak, rng=rng),
        "hotmail": lambda: hotmail_like_loads(T, peak=peak, rng=rng),
        "bursty": lambda: bursty_loads(T, peak=peak, rng=rng),
        "onoff": lambda: onoff_loads(T, peak=peak, rng=rng),
        "sawtooth": lambda: sawtooth_loads(T, peak=peak),
        "constant": lambda: constant_loads(T, peak),
    }[args.workload]()


def _make_instance(args):
    from .workloads import capacity_for, instance_from_loads
    loads = _make_loads(args)
    m = capacity_for(loads)
    return instance_from_loads(loads, m=m, beta=args.beta,
                               delay_weight=args.delay_weight)


def _cmd_solve(args) -> int:
    from .analysis import format_table
    from .core.schedule import cost_breakdown
    from .offline import solve_binary_search, solve_dp, solve_graph, solve_lp
    inst = _make_instance(args)
    solver = {"binary_search": solve_binary_search, "dp": solve_dp,
              "graph": solve_graph, "lp": solve_lp}[args.solver]
    res = solver(inst)
    b = cost_breakdown(inst, res.schedule)
    print(format_table([{
        "solver": res.method, "T": inst.T, "m": inst.m, "beta": inst.beta,
        "total": res.cost, "operating": b["operating"],
        "switching": b["switching"], "peak": b["peak"],
    }], title="offline optimum"))
    if args.show_schedule:
        print("schedule:", res.schedule.tolist())
    if args.save_schedule:
        from .io import save_schedule
        save_schedule(args.save_schedule, res.schedule)
        print(f"schedule written to {args.save_schedule}")
    if args.save_instance:
        from .io import save_instance
        save_instance(args.save_instance, inst)
        print(f"instance written to {args.save_instance}")
    return 0


def _make_algorithm(name: str, lookahead: int):
    from .runner import make_algorithm
    return make_algorithm(name, lookahead=lookahead, seed=0)


def _cmd_simulate(args) -> int:
    from .analysis import format_table, optimal_cost
    from .online import run_online
    inst = _make_instance(args)
    opt = optimal_cost(inst)
    rows = []
    for name in args.algorithms.split(","):
        name = name.strip().lower()
        if name not in _ALGORITHMS:
            raise SystemExit(f"unknown algorithm {name!r}; "
                             f"choose from {_ALGORITHMS}")
        res = run_online(inst, _make_algorithm(name, args.lookahead))
        rows.append({"algorithm": res.name, "cost": res.cost,
                     "opt": opt, "ratio": res.cost / opt})
    print(format_table(rows, title=f"online simulation "
                                   f"(T={inst.T}, m={inst.m}, "
                                   f"beta={inst.beta})"))
    return 0


def _split(csv: str, cast=str) -> tuple:
    try:
        return tuple(cast(part.strip()) for part in csv.split(",")
                     if part.strip())
    except ValueError:
        raise SystemExit(f"could not parse comma list {csv!r}") from None


def _build_spec(scenarios, algorithms, seeds, sizes, lookahead=0,
                instance_seed=None, params=None):
    """Validate names against the catalogs and build a GridSpec."""
    from .runner import (GridSpec, algorithm_names, game_names,
                         scenario_names, solver_names)
    known_scenarios = scenario_names()
    known_algorithms = algorithm_names() + solver_names() + game_names()
    for name in scenarios:
        if name not in known_scenarios:
            raise SystemExit(f"unknown scenario {name!r}; choose from "
                             f"{sorted(known_scenarios)}")
    for name in algorithms:
        if name not in known_algorithms:
            raise SystemExit(f"unknown algorithm {name!r}; choose from "
                             f"{sorted(known_algorithms)}")
    try:
        return GridSpec(scenarios=scenarios, algorithms=algorithms,
                        seeds=seeds, sizes=sizes, lookahead=lookahead,
                        instance_seed=instance_seed,
                        params=params if params else ({},))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _print_grid_results(rows, per_row: bool, title: str,
                        group_by=None) -> None:
    from .analysis import format_table
    from .runner import aggregate_rows
    if per_row:
        print(format_table(rows, title=f"{title} — rows"))
    by = group_by if group_by else ("scenario", "algorithm", "T")
    if group_by:
        # aggregate_rows tolerates missing keys (heterogeneous rows),
        # so a typo'd column would silently group everything under
        # None — catch it here, where the user can see the choices
        known = set().union(*(row.keys() for row in rows)) if rows else set()
        missing = [k for k in by if k not in known]
        if missing:
            raise SystemExit(
                f"unknown --group-by column(s) {', '.join(missing)}; "
                f"rows have {', '.join(sorted(known))}")
    print(format_table(aggregate_rows(rows, by=by),
                       title=f"{title} — aggregate ratios"))


def _print_cache_stats(stats) -> None:
    print(f"cache: {stats.job_hits} hits, {stats.job_misses} misses, "
          f"{stats.opt_solved} optima solved, "
          f"{stats.opt_hits} optima cached")


def _make_cli_sink(args):
    """The result sink selected by --sink/--sink-path (None = list)."""
    if getattr(args, "sink", "list") == "list":
        return None
    from .runner import make_sink
    default = "rows.jsonl" if args.sink == "jsonl" else "rows.db"
    return make_sink(args.sink, args.sink_path or default)


def _print_sink_results(result, args, stats, n_jobs: int,
                        title: str) -> None:
    """Report a file-backed sink's output without re-loading the rows
    into parent memory (that would defeat the streaming core)."""
    print(f"{title}: {stats.rows_written} rows -> {result} "
          f"(sink {args.sink}, {stats.batches} batches, "
          f"max {stats.max_pending} pending rows, n_jobs={n_jobs}, "
          f"{stats.overlapped_batches} overlapped)")


def _store_entries(args) -> int:
    """Payloads in the ``--store-dir`` store (0 without one)."""
    if not getattr(args, "store_dir", None):
        return 0
    from .runner import InstanceStore
    return InstanceStore(args.store_dir).stats()["entries"]


def _print_store_stats(stats, written: int) -> None:
    print(f"store: {written} instances materialized, "
          f"{stats.inst_builds} built in-process, "
          f"{stats.inst_loads} mmap loads, "
          f"{stats.inst_memo_hits} memo hits")


def _open_cache(args):
    """The JobCache selected by --cache-dir/--cache-backend (or None)."""
    if not getattr(args, "cache_dir", None):
        return None
    from .runner import JobCache
    backend = getattr(args, "cache_backend", "auto")
    return JobCache(args.cache_dir,
                    backend=None if backend == "auto" else backend)


def _make_cli_config(args, sink=None):
    """The EngineConfig selected by the shared engine flags."""
    from .runner import EngineConfig
    return EngineConfig(n_jobs=args.n_jobs, cache_dir=_open_cache(args),
                        store_dir=getattr(args, "store_dir", None),
                        force=args.force, sink=sink,
                        batch_size=args.batch_size,
                        pipeline_depth=args.pipeline_depth,
                        max_retries=getattr(args, "max_retries", 2))


def _cmd_sweep(args) -> int:
    if args.list:
        from .runner import algorithm_table, get_scenario, scenario_names
        print("scenarios:")
        for name in scenario_names():
            print(f"  {name:20s} {get_scenario(name).summary}")
        print("\nalgorithms/solvers:\n")
        print(algorithm_table())
        return 0
    from .runner import RunStats, run_grid
    params = None
    if args.params:
        import json as _json
        try:
            params = tuple(_json.loads(part)
                           for part in args.params.split(";") if part)
        except ValueError:
            raise SystemExit(f"could not parse --params {args.params!r}; "
                             "use semicolon-separated JSON dicts"
                             ) from None
    spec = _build_spec(_split(args.scenarios), _split(args.algorithms),
                       _split(args.seeds, int), _split(args.T, int),
                       lookahead=args.lookahead, params=params)
    stats = RunStats()
    stored_before = _store_entries(args)
    result = run_grid(spec, _make_cli_config(args, _make_cli_sink(args)),
                      stats=stats)
    title = f"sweep {len(spec)} jobs (key {spec.cache_key()})"
    if args.sink == "list":
        _print_grid_results(result, args.per_row, title,
                            group_by=_split(args.group_by)
                            if args.group_by else None)
    else:
        _print_sink_results(result, args, stats, args.n_jobs, title)
    if args.cache_dir:
        _print_cache_stats(stats)
    if args.store_dir:
        _print_store_stats(stats, _store_entries(args) - stored_before)
    return 0


def _cmd_bench(args) -> int:
    from .runner import GridSpec, RunStats, run_grid
    spec = GridSpec(**_BENCH_GRIDS[args.grid])
    stats = RunStats()
    stored_before = _store_entries(args)
    start = time.perf_counter()
    result = run_grid(spec, _make_cli_config(args, _make_cli_sink(args)),
                      stats=stats)
    elapsed = time.perf_counter() - start
    if args.sink == "list":
        _print_grid_results(result, per_row=False,
                            title=f"bench grid {args.grid!r}",
                            group_by=_split(args.group_by)
                            if args.group_by else None)
    else:
        _print_sink_results(result, args, stats, args.n_jobs,
                            f"bench grid {args.grid!r}")
    n = stats.rows_written
    print(f"\n{n} jobs in {elapsed:.2f}s "
          f"({n / elapsed:.1f} jobs/s, n_jobs={args.n_jobs})")
    if args.cache_dir:
        _print_cache_stats(stats)
    if args.store_dir:
        _print_store_stats(stats, _store_entries(args) - stored_before)
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_SIZE_UNITS = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def _parse_age(text: str) -> float:
    """Age cutoff in seconds from '30d'/'12h'/'90' (plain = days)."""
    text = text.strip().lower()
    unit = _AGE_UNITS.get(text[-1:], None)
    digits = text[:-1] if unit is not None else text
    try:
        value = float(digits)
    except ValueError:
        raise SystemExit(f"could not parse age {text!r}; use e.g. "
                         "'30d', '12h', '45m', '30s' or plain days"
                         ) from None
    return value * (unit if unit is not None else 86400.0)


def _parse_size(text: str) -> int:
    """Byte size from '100m'/'2g'/'50000' (plain = bytes)."""
    text = text.strip().lower()
    unit = _SIZE_UNITS.get(text[-1:], None)
    digits = text[:-1] if unit is not None else text
    try:
        value = float(digits)
    except ValueError:
        raise SystemExit(f"could not parse size {text!r}; use e.g. "
                         "'500k', '100m', '2g' or plain bytes") from None
    return int(value * (unit if unit is not None else 1))


def _cmd_cache(args) -> int:
    from .runner import JobCache, migrate_cache
    cache = _open_cache(args)
    if args.cache_command == "stats":
        info = cache.stats()
        print(f"backend: {info['backend']}")
        if "auto_vacuum" in info:
            print(f"vacuum:  {info['auto_vacuum']}")
        print(f"root:    {cache.root}")
        for kind in sorted(info["entries"]):
            print(f"  {kind:12s} {info['entries'][kind]} records")
        print(f"total:   {info['total']} records, {info['bytes']} bytes")
        return 0
    if args.cache_command == "prune":
        if not args.older_than and not args.max_bytes:
            raise SystemExit("prune needs --older-than and/or --max-bytes")
        removed = 0
        if args.older_than:
            removed = cache.prune(_parse_age(args.older_than))
            print(f"pruned {removed} records older than {args.older_than}")
        if args.max_bytes:
            evicted = cache.prune_bytes(_parse_size(args.max_bytes))
            print(f"evicted {evicted} least-recently-used records "
                  f"(size bound {args.max_bytes})")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} records")
        return 0
    # migrate: JSON dir -> SQLite cache.db in the same directory
    src = JobCache(args.cache_dir, backend="json")
    if cache.backend == "sqlite":
        raise SystemExit(f"{args.cache_dir} already holds a cache.db")
    dst = JobCache(args.cache_dir, backend="sqlite")
    copied = migrate_cache(src, dst)
    removed = src.clear()
    print(f"migrated {copied} records to {dst.root / 'cache.db'} "
          f"({removed} JSON records removed)")
    return 0


#: (scenario, game player) realizing each historical --kind
_LOWERBOUND_GRIDS = {
    "deterministic": ("lb-deterministic", "game-lcp"),
    "restricted": ("lb-restricted", "game-lcp"),
    "continuous": ("lb-continuous", "game-algorithm-b"),
    "randomized": ("lb-continuous", "game-rounded"),
}


def _cmd_lowerbound(args) -> int:
    """The Section 5 eps grids as `game`-pipeline engine jobs: each
    (kind, eps) point is one grid job, so the eps sweep inherits the
    engine's process pool, per-job cache and deterministic seeding."""
    from .analysis import format_table
    from .runner import EngineConfig, run_grid
    scenario, algorithm = _LOWERBOUND_GRIDS[args.kind]
    spec = _build_spec((scenario,), (algorithm,), (0,), (args.max_steps,),
                       params=tuple({"eps": float(e)}
                                    for e in args.eps.split(",")))
    rows = run_grid(spec, EngineConfig(n_jobs=args.n_jobs,
                                       cache_dir=_open_cache(args)))
    table = [{"eps": r["eps"], "T": r["game_T"], "ratio": r["ratio"],
              "limit": r["limit"]} for r in rows]
    print(format_table(table, title=f"{args.kind} lower-bound game"))
    return 0


def _cmd_work(args) -> int:
    """Multi-worker lease-queue execution (enqueue/run/merge/status)."""
    from .runner import LeaseQueue, merge_results, work
    if args.work_command == "enqueue":
        import json as _json
        params = None
        if args.params:
            try:
                params = tuple(_json.loads(part)
                               for part in args.params.split(";") if part)
            except ValueError:
                raise SystemExit(
                    f"could not parse --params {args.params!r}; use "
                    "semicolon-separated JSON dicts") from None
        spec = _build_spec(_split(args.scenarios), _split(args.algorithms),
                           _split(args.seeds, int), _split(args.T, int),
                           lookahead=args.lookahead, params=params)
        queue = LeaseQueue(args.queue)
        kwargs = ({} if args.lease_jobs is None
                  else {"lease_jobs": args.lease_jobs})
        try:
            grid_id = queue.enqueue(spec, **kwargs)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        counts = queue.counts(grid_id)
        print(f"enqueued grid {grid_id}: {len(spec)} jobs in "
              f"{sum(counts.values())} leases -> {args.queue}")
        return 0
    if args.work_command == "run":
        from .runner.leasequeue import default_worker_id
        worker = args.worker or default_worker_id()
        kwargs = {k: v for k, v in
                  (("ttl", args.ttl), ("poll", args.poll),
                   ("max_leases", args.max_leases)) if v is not None}
        stats = work(args.queue, worker=worker,
                     config=_make_cli_config(args), **kwargs)
        print(f"worker {worker} done: {stats.leases_claimed} leases "
              f"claimed, {stats.leases_completed} completed, "
              f"{stats.leases_lost} lost, {stats.leases_reclaimed} "
              f"reclaimed, {stats.rows_written} rows")
        return 0
    if args.work_command == "merge":
        sink = None
        if args.out:
            from .runner import JsonlSink
            sink = JsonlSink(args.out)
        result = merge_results(args.queue, grid_id=args.grid_id, sink=sink)
        if args.out:
            print(f"merged {sink.rows_written} rows -> {result}")
        else:
            _print_grid_results(result, per_row=False,
                                title=f"merged grid ({len(result)} rows)")
        return 0
    if args.work_command == "retry-failed":
        from .runner import retry_failed
        n_failed, n_leases = retry_failed(args.queue,
                                          grid_id=args.grid_id)
        if n_failed == 0:
            print("no quarantined jobs — nothing to retry")
        else:
            print(f"re-enqueued {n_failed} quarantined jobs "
                  f"({n_leases} leases reopened); run more workers "
                  f"(repro work run) to retry them")
        return 0
    # status: lease counts per grid, plus failure/staleness visibility
    from .runner import failed_jobs
    queue = LeaseQueue(args.queue)
    grids = ([args.grid_id] if args.grid_id is not None
             else queue.grids())
    if args.json:
        # the exact payload the grid service's GET /grids/<id>
        # serves, from the same grid_status function
        import json as _json
        from .runner import grid_status
        payloads = [grid_status(queue, grid_id) for grid_id in grids]
        print(_json.dumps(payloads[0] if args.grid_id is not None
                          else payloads, sort_keys=True))
        return 0
    if not grids:
        print(f"queue {args.queue}: no grids enqueued")
        return 0
    for grid_id in grids:
        counts = queue.counts(grid_id)
        state = "drained" if queue.finished(grid_id) else "in progress"
        print(f"grid {grid_id}: {queue.total(grid_id)} jobs — "
              f"{counts['pending']} pending, {counts['leased']} leased, "
              f"{counts['done']} done leases ({state})")
        failed = failed_jobs(queue, grid_id)
        stale = queue.stale(grid_id)
        if failed:
            print(f"  {len(failed)} quarantined jobs (first: "
                  f"{sorted(failed)[:5]}) — repro work retry-failed "
                  f"re-enqueues them")
        if stale:
            print(f"  {stale} stale workers (heartbeat expired; "
                  f"reclaimed on the next worker loop)")
    return 0


def _cmd_serve(args) -> int:
    """Run the HTTP grid service until a drain shutdown ends it."""
    from .runner import GridService
    kwargs = {}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    if args.lease_jobs is not None:
        kwargs["lease_jobs"] = args.lease_jobs
    service = GridService(
        args.queue, cache_dir=args.cache_dir,
        cache_backend=(None if args.cache_backend == "auto"
                       else args.cache_backend),
        host=args.host, port=args.port, verbose=args.verbose,
        **kwargs)
    print(f"serving grids on {service.url} (queue {args.queue}, "
          f"cache {args.cache_dir or 'disabled'}, "
          f"budget {service.budget})", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    print("grid service drained; exiting")
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import assemble_report, missing_experiments
    print(assemble_report(args.results_dir))
    if args.check:
        missing = missing_experiments(args.results_dir)
        if missing:
            print(f"MISSING EXPERIMENTS: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return {"solve": _cmd_solve, "simulate": _cmd_simulate,
            "sweep": _cmd_sweep, "bench": _cmd_bench,
            "lowerbound": _cmd_lowerbound, "report": _cmd_report,
            "cache": _cmd_cache, "work": _cmd_work,
            "serve": _cmd_serve,
            }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
