"""The benchmark's three workloads.

Each workload turns the benchmark seed into a sequence of
:class:`~repro.runner.GridSpec` grids (the program sees only those
specs), declares its set-up, runs one grid per operation and checks the
rows that come back.  Operations are timed by the caller around
:meth:`Workload.execute` only; planning, per-grid clean-up and checks
stay outside the timed region.

* ``cold-grid`` — what a user pays the first time: a fresh instance
  store, a fresh JSON job cache, a fresh process pool and empty memos
  for every grid, ``n_jobs=2``.
* ``warm-store`` — the paper's algorithm set over instances built
  during set-up: store loads, sweeps, replays and the offline solver,
  ``n_jobs=1``, no job cache.
* ``served-mix`` — a closed loop of one client against ``repro serve``
  over real HTTP, with a job cache warmed during set-up; grid misses
  are drained by ``work(n_jobs=1)`` in the client thread.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from repro import kernels
from repro.runner import (EngineConfig, GridService, GridSpec,
                          InstanceStore, JobCache, RequestError, RunStats,
                          ServiceClient, ServiceUnavailable, instancestore,
                          parallel_map, run_grid, shutdown_pool, work)

#: the ROADMAP's six online algorithms of the cold-grid regime
SIX_ALGORITHMS = ("lcp", "eager-lcp", "threshold", "memoryless",
                  "followmin", "never-off")
#: the paper's algorithm set: LCP, the randomized rounding, a
#: memoryless baseline and the Section 2 offline optimum
PAPER_ALGORITHMS = ("lcp", "randomized", "memoryless", "binary_search")

RATIO_FLOOR = 1.0 - 1e-9
LCP_BOUND = 3.0


class Checker:
    """Tally of attempted and failed operations plus correctness errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = "... more errors omitted"

    def rows(self, spec: GridSpec, rows, where: str) -> None:
        """The per-row gate: every job present, quarantined rows counted
        as failed, every ratio at least 1 (OPT is a lower bound),
        ``binary_search`` exactly optimal, LCP within its factor 3."""
        self.attempted += len(spec)
        if len(rows) != len(spec):
            self.error(f"{where}: {len(rows)} rows for a "
                       f"{len(spec)}-job grid")
        for row in rows:
            if row.get("status") == "failed":
                self.failed += 1
                continue
            ratio, alg = row["ratio"], row["algorithm"]
            tag = f"{where}: {alg} seed {row['seed']}"
            if not ratio >= RATIO_FLOOR:
                self.error(f"{tag} ratio {ratio!r} below 1")
            if alg == "binary_search" and ratio != 1.0:
                self.error(f"{tag} ratio {ratio!r} is not exactly 1")
            if alg == "lcp" and not ratio <= LCP_BOUND:
                self.error(f"{tag} ratio {ratio!r} above 3")


def instance_coords(spec: GridSpec) -> list[tuple]:
    """The distinct general-pipeline instance coordinates of a grid,
    in the form the engine keys its store and memos by."""
    return [(scenario, "general", T, seed, "{}")
            for T in spec.sizes for scenario in spec.scenarios
            for seed in spec.seeds]


def _materialize(task) -> bool:
    """Set-up helper for the pool: build and store one instance."""
    coords, root = task
    return InstanceStore(root).materialize(coords)


def pin_threads(cpus) -> None:
    """Set the CPU affinity of every thread of this process (Linux)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def fresh_process_state() -> None:
    """No pool, no instance memo, no sweep memo."""
    shutdown_pool()
    instancestore.clear_memo()
    kernels.clear_sweep_cache()


class Workload:
    """One workload: set-up, a grid sequence, timed execution, checks."""

    name = ""
    #: set-ups per run; the median is ``setup_s``, the last one is used
    setup_reps = 3
    #: the layer calls (span names of the traced decomposition) that
    #: this workload's engine path makes for a grid
    engine_layers: frozenset = frozenset()

    def __init__(self, seed: int, work, tracer):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work
        self.tracer = tracer
        self.ops = 0
        self.stats = RunStats()
        # HTTP requests made, failed and retried through ServiceClient
        self.requests = 0
        self.requests_failed = 0
        self.retries = 0

    def setup(self, rep: int) -> None:
        """Build the state the workload's operations start from."""

    def teardown(self) -> None:
        """Drop the state of a set-up that will not be used (untimed)."""

    def next_spec(self) -> GridSpec:
        """Plan the next grid (untimed)."""
        raise NotImplementedError

    def prepare(self, spec: GridSpec) -> None:
        """Untimed per-grid preparation."""

    def at_boundary(self) -> bool:
        """Whether the timed loop may stop after the current grid."""
        return True

    def execute(self, spec: GridSpec):
        """Run one grid; returns its rows (timed by the caller)."""
        raise NotImplementedError

    def check(self, spec: GridSpec, rows, chk: Checker) -> None:
        chk.rows(spec, rows, f"{self.name} grid {self.ops}")

    def finish(self, chk: Checker) -> None:
        """Checks that need the whole run (after the timed loop)."""

    def close(self) -> None:
        fresh_process_state()

    def engine_config(self, spec: GridSpec) -> EngineConfig:
        """The workload's engine configuration with ``n_jobs=1`` — what
        the traced run replays a decomposed grid under."""
        raise NotImplementedError

    def client_sleep(self, seconds: float) -> None:
        """``ServiceClient``'s retry backoff, counted."""
        self.retries += 1
        time.sleep(seconds)


class ColdGrid(Workload):
    """Diurnal T=10k, six algorithms x two fresh instance seeds,
    ``n_jobs=2``, fresh store, fresh JSON cache, fresh pool."""

    name = "cold-grid"
    setup_reps = 5
    engine_layers = frozenset({
        "scenarios.build", "instancestore.put", "instancestore.load",
        "kernels.sweep", "online.replay", "offline.binary_search",
        "jobcache.get.json", "jobcache.put.json"})
    T = 10_000
    seeds_per_grid = 2

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.used: set[int] = set()

    def _fresh_seeds(self, k: int) -> tuple[int, ...]:
        seeds = []
        while len(seeds) < k:
            s = self.rng.randrange(1, 10**6)
            if s not in self.used:
                self.used.add(s)
                seeds.append(s)
        return tuple(sorted(seeds))

    def setup(self, rep: int) -> None:
        # import and initialize every layer the grids touch: a small
        # grid of the same shape with a store and a JSON cache, run
        # in-process (every timed grid starts its own pool anyway, and
        # a pool start here would make set-up time mostly process
        # start-up and join, which host CPU steal makes erratic)
        fresh_process_state()
        spec = GridSpec(scenarios=("diurnal",), algorithms=SIX_ALGORITHMS,
                        seeds=(0, 1), sizes=(1_000,))
        self.setup_dir = d = self.work / f"setup-{rep}"
        run_grid(spec, EngineConfig(n_jobs=1, store_dir=d / "store",
                                    cache_dir=str(d / "cache")))
        fresh_process_state()

    def teardown(self) -> None:
        shutil.rmtree(self.setup_dir, ignore_errors=True)

    def next_spec(self) -> GridSpec:
        return GridSpec(scenarios=("diurnal",), algorithms=SIX_ALGORITHMS,
                        seeds=self._fresh_seeds(self.seeds_per_grid),
                        sizes=(self.T,))

    def prepare(self, spec):
        shutil.rmtree(self.work / "grid", ignore_errors=True)
        fresh_process_state()

    def execute(self, spec):
        d = self.work / "grid"
        with self.tracer.span("engine.run_grid", n_jobs=2):
            return run_grid(spec, EngineConfig(n_jobs=2,
                                               store_dir=d / "store",
                                               cache_dir=str(d / "cache")),
                            stats=self.stats)

    def engine_config(self, spec):
        d = self.work / "engine-n1"
        shutil.rmtree(d, ignore_errors=True)
        return EngineConfig(n_jobs=1, store_dir=d / "store",
                            cache_dir=str(d / "cache"))


class WarmStore(Workload):
    """The paper's algorithms on diurnal and hotmail-like at T=50k over
    a store materialized during set-up; ``n_jobs=1``, no job cache."""

    name = "warm-store"
    engine_layers = frozenset({
        "instancestore.load", "kernels.sweep", "online.replay",
        "offline.binary_search"})
    T = 50_000

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.spec = GridSpec(scenarios=("diurnal", "hotmail-like"),
                             algorithms=PAPER_ALGORITHMS,
                             seeds=(self.rng.randrange(1, 10**6),),
                             sizes=(self.T,))
        self.store = None

    def setup(self, rep: int) -> None:
        fresh_process_state()
        self.store = self.work / f"store-{rep}"
        parallel_map(_materialize, [(c, str(self.store))
                                    for c in instance_coords(self.spec)],
                     n_jobs=2)
        fresh_process_state()

    def teardown(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)

    def next_spec(self):
        return self.spec

    def prepare(self, spec):
        fresh_process_state()

    def execute(self, spec):
        with self.tracer.span("engine.run_grid", n_jobs=1):
            return run_grid(spec, EngineConfig(n_jobs=1,
                                               store_dir=self.store),
                            stats=self.stats)

    def engine_config(self, spec):
        return EngineConfig(n_jobs=1, store_dir=self.store)


class _TimedService(GridService):
    """The grid service with its request handler timed as a span whose
    parent is the client request open on the driving thread."""

    tracer = None

    def handle(self, method, path, body=None):
        kind = "submit" if method == "POST" else "status"
        tracer = self.tracer
        with tracer.span(f"service.handle.{kind}", parent=tracer.current):
            return super().handle(method, path, body)


class ServedMix(Workload):
    """Closed loop, one client, ``repro serve`` over real HTTP: grids of
    4 seeds x six algorithms at T=1k against a warm SQLite job cache;
    about 70% of grids are all hits, the rest carry one new seed."""

    name = "served-mix"
    engine_layers = frozenset({
        "jobcache.get.sqlite", "scenarios.build", "kernels.sweep",
        "online.replay", "offline.binary_search", "jobcache.put.sqlite"})
    T = 1_000
    scenarios = ("diurnal", "bursty")
    pool_seeds = 12
    seeds_per_grid = 4
    planned_hit_share = 0.7
    #: grids per queue session.  Each session serves from a fresh lease
    #: queue (swapped in untimed), so the status scan grows the same way
    #: in every session and a faster run does not face a longer queue.
    session_grids = 50
    worker = "bench-client"

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.pool = {sc: sorted(self.rng.sample(range(1, 10**5),
                                                self.pool_seeds))
                     for sc in self.scenarios}
        self.used = {s for seeds in self.pool.values() for s in seeds}
        self.digests: set[str] = set()
        self.plan: list[bool] = []
        self.reference: dict[tuple, dict] = {}
        self.served: list[tuple[GridSpec, list]] = []
        self.service = None
        self.client = None
        self.hit_grids = 0
        self.grids = 0
        self.job_hits = 0
        self.jobs = 0
        self.cpus = os.sched_getaffinity(0)

    # -- set-up --------------------------------------------------------

    def _stop_service(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def _start_service(self, root) -> None:
        self.root = root
        service = _TimedService(root, cache_dir=self.cache_dir,
                                cache_backend="sqlite")
        service.tracer = self.tracer
        self.service = service.start()
        self.client = ServiceClient(self.service.url,
                                    sleep=self.client_sleep)
        self.in_session = 0

    def teardown(self) -> None:
        self._stop_service()
        shutil.rmtree(self.setup_dir, ignore_errors=True)

    def setup(self, rep: int) -> None:
        pin_threads(self.cpus)
        fresh_process_state()
        self.setup_dir = d = self.work / f"serve-{rep}"
        self.cache_dir = d / "cache"
        self.cache = JobCache(self.cache_dir, backend="sqlite")
        reference = {}
        for sc in self.scenarios:
            spec = GridSpec(scenarios=(sc,), algorithms=SIX_ALGORITHMS,
                            seeds=self.pool[sc], sizes=(self.T,))
            for row in run_grid(spec, EngineConfig(n_jobs=2,
                                                   cache_dir=self.cache)):
                reference[_row_key(row)] = row
        fresh_process_state()
        self.reference = reference
        self.sessions = 0
        self._start_service(d / "queue-0")
        # The loop is serial (one client, one request in flight), so one
        # CPU loses no parallelism; it spares every request the thread
        # wake-ups across vCPUs that host CPU steal makes erratic.
        pin_threads({max(self.cpus)})

    def prepare(self, spec):
        if self.at_boundary():
            self._stop_service()
            shutil.rmtree(self.root, ignore_errors=True)
            self.sessions += 1
            self._start_service(self.setup_dir / f"queue-{self.sessions}")

    def at_boundary(self) -> bool:
        return self.in_session == self.session_grids

    # -- the grid sequence ---------------------------------------------

    def next_spec(self) -> GridSpec:
        """Draw a grid whose digest was never submitted: a repeat would
        be answered as a no-op resubmit and time zero work.  Hits and
        misses follow a plan shuffled in blocks of ten, so every run
        keeps the planned hit share."""
        if not self.plan:
            hits = round(10 * self.planned_hit_share)
            self.plan = [True] * hits + [False] * (10 - hits)
            self.rng.shuffle(self.plan)
        hit = self.plan.pop()
        for _attempt in range(1000):
            sc = self.rng.choice(self.scenarios)
            if hit:
                seeds = self.rng.sample(self.pool[sc], self.seeds_per_grid)
            else:
                seeds = self.rng.sample(self.pool[sc],
                                        self.seeds_per_grid - 1)
                new = self.rng.randrange(10**5, 10**6)
                if new in self.used:
                    continue
                self.used.add(new)
                seeds.append(new)
            spec = GridSpec(scenarios=(sc,), algorithms=SIX_ALGORITHMS,
                            seeds=tuple(sorted(seeds)), sizes=(self.T,))
            if spec.cache_key() not in self.digests:
                self.digests.add(spec.cache_key())
                return spec
        raise RuntimeError("served-mix: no unused grid digest left")

    # -- one request ---------------------------------------------------

    def execute(self, spec):
        tracer = self.tracer
        with tracer.span("service.submit"):
            receipt = self._request(self.client.submit, spec)
        if receipt is None:
            return None
        self.grids += 1
        self.in_session += 1
        self.jobs += receipt["total"]
        self.job_hits += receipt["cache_hits"]
        if receipt.get("resubmitted"):
            raise RuntimeError(f"grid {receipt['grid']} was resubmitted")
        if receipt["enqueued"] == 0:
            self.hit_grids += 1
        else:
            with tracer.span("leasequeue.work"):
                work(self.root, worker=self.worker, grid_id=receipt["grid"],
                     poll=0.01,
                     config=EngineConfig(n_jobs=1, cache_dir=self.cache))
        with tracer.span("service.status"):
            status = self._request(self.client.status, receipt["grid"])
        if status is None:
            return None
        return status

    def _request(self, call, arg):
        self.requests += 1
        try:
            return call(arg)
        except (RequestError, ServiceUnavailable):
            self.requests_failed += 1
            return None

    def check(self, spec, status, chk):
        where = f"{self.name} grid {self.ops}"
        if status is None:
            chk.attempted += len(spec)
            chk.failed += len(spec)
            return
        if status.get("state") != "done" or "rows" not in status:
            chk.error(f"{where}: state {status.get('state')!r} after "
                      "the drain")
            chk.attempted += len(spec)
            return
        chk.rows(spec, status["rows"], where)
        self.served.append((spec, status["rows"]))

    def finish(self, chk: Checker) -> None:
        """Invariant 9: merged served rows equal a local ``run_grid`` of
        the same jobs.  Pool seeds come from the set-up's local run;
        the new seeds are run locally here, outside the timed loop."""
        pin_threads(self.cpus)
        # every retried attempt was a refused request or a non-2xx
        # response, so attempts and failures both count it
        chk.attempted += self.requests + self.retries
        chk.failed += self.requests_failed + self.retries
        reference = dict(self.reference)
        for sc in self.scenarios:
            new = sorted({s for spec, _ in self.served
                          if spec.scenarios == (sc,)
                          for s in spec.seeds} - set(self.pool[sc]))
            if new:
                spec = GridSpec(scenarios=(sc,), algorithms=SIX_ALGORITHMS,
                                seeds=new, sizes=(self.T,))
                for row in run_grid(spec, EngineConfig(n_jobs=2)):
                    reference[_row_key(row)] = row
        shutdown_pool()
        for spec, rows in self.served:
            expected = [reference.get((sc, alg, T, seed))
                        for (sc, alg, T, _i, seed, _la, _p)
                        in spec.iter_jobs()]
            if rows != expected:
                chk.error(f"{self.name}: served rows of grid "
                          f"{spec.cache_key()} differ from the local "
                          "run_grid rows")

    def close(self) -> None:
        self._stop_service()
        super().close()

    def engine_config(self, spec):
        return EngineConfig(n_jobs=1, cache_dir=self.cache)


def _row_key(row: dict) -> tuple:
    return (row["scenario"], row["algorithm"], row["T"], row["seed"])


WORKLOADS = {w.name: w for w in (ColdGrid, WarmStore, ServedMix)}
