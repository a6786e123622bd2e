"""The traced run's layer-by-layer decomposition of one grid.

``run_grid`` and ``work`` hide the layers below them, so the traced run
makes those layers' public calls itself, on the same inputs, in one
process (``n_jobs=1``): ``build_instance``, ``InstanceStore.put`` and
``load``, ``kernels.sweep_workfunction``, ``run_online`` and
``make_solver``, ``JobCache`` on both backends, ``JsonlSink.write_many``,
``LeaseQueue`` and ``grid_status``, and for workloads that do not serve
their grids a ``GridService`` submit and status.  Every call is a span;
a span carries ``own=True`` when the workload's own engine path makes
that call for this grid, so ``run_grid`` wall time minus the own spans
is the engine's self time.  Layers the workload does not reach are
still timed on its inputs, so every per-layer metric has a value.
"""

from __future__ import annotations

import statistics
import zlib

from repro import kernels
from repro.online.base import run_online
from repro.runner import (GridSpec, InstanceStore, JobCache,
                          JsonlSink, LeaseQueue, ServiceClient, build_instance,
                          get_spec, grid_status, job_key, make_algorithm,
                          make_solver, parallel_map, run_grid, shutdown_pool)

from workloads import (PAPER_ALGORITHMS, SIX_ALGORITHMS, ServedMix,
                       _TimedService, fresh_process_state, instance_coords)

#: every online algorithm any workload runs; each is replayed on every
#: decomposed instance so ``online.replay_s.<alg>`` always has a value
ONLINE = tuple(dict.fromkeys(
    a for a in SIX_ALGORITHMS + PAPER_ALGORITHMS
    if get_spec(a).kind == "online"))
#: horizons of the O(T m) / O(T log m) scaling check
SCALING_T = (10_000, 50_000)

def _noop(x):
    return x


def _row(job, inst, cost, opt):
    scenario, algorithm, T, _i, seed, _la, _p = job
    return {"scenario": scenario, "algorithm": algorithm,
            "pipeline": "general", "T": T, "m": int(inst.m),
            "beta": float(inst.beta), "seed": seed, "cost": float(cost),
            "opt": float(opt), "ratio": float(cost / opt)}


class Decomposition:
    """Runs and records the decomposition; accumulates the counts the
    per-layer metrics are computed from."""

    def __init__(self, tracer, wl, scratch):
        self.tr = tracer
        self.wl = wl
        self.scratch = scratch
        self.counts = {"cells": 0, "table_bytes": 0, "steps": 0,
                       "builds": 0, "loads": 0, "sweeps": 0,
                       "bs_steps": 0, "replay_steps": {a: 0 for a in ONLINE},
                       "sink_rows": 0, "scanned": 0, "useful": 0}
        self.engine_wall: list[float] = []
        self.engine_own: list[float] = []
        self.engine_rows = 0
        self.errors: list[str] = []
        #: one instance per scaling-check horizon the grids reached
        self.scaling_instances: dict[int, object] = {}
        self.points: dict[int, dict] = {}

    def span(self, name, own=False, **attrs):
        """A span, marked ``own`` when the workload's engine path makes
        this call for this grid."""
        own = own and any(name == layer or name.startswith(layer + ".")
                          for layer in self.wl.engine_layers)
        return self.tr.span(name, own=own, **attrs)

    # -- the grid's compute ------------------------------------------

    def grid(self, spec: GridSpec, n: int):
        """Decompose one grid, then run it through ``run_grid`` under
        the workload's config at ``n_jobs=1``; returns the engine rows."""
        scratch = self.scratch / f"grid-{n}"
        store = InstanceStore(scratch / "store")
        caches = {"json": JobCache(scratch / "cache-json", backend="json"),
                  "sqlite": JobCache(scratch / "cache-sqlite",
                                     backend="sqlite")}
        served = isinstance(self.wl, ServedMix)
        with self.tr.span("decompose", grid=spec.cache_key()) as root:
            hits = set()
            for job in spec.iter_jobs():
                backend = "sqlite" if served else "json"
                cache = self.wl.cache if served else caches["json"]
                with self.span(f"jobcache.get.{backend}", own=True):
                    rec = cache.get("jobs", job_key(job))
                if rec is not None:
                    hits.add(job)
            rows = {}
            for coords in instance_coords(spec):
                jobs = [j for j in spec.iter_jobs()
                        if (j[0], j[2], j[3]) == (coords[0], coords[2],
                                                  coords[3])]
                need = any(j not in hits for j in jobs)
                rows.update(self._instance(coords, jobs, spec, store,
                                           need, hits))
            for job in spec.iter_jobs():
                row = rows[job]
                for backend, cache in caches.items():
                    own = job not in hits and (
                        backend == "sqlite") == served
                    with self.span(f"jobcache.put.{backend}", own=own):
                        cache.put("jobs", job_key(job), row)
                for backend, cache in caches.items():
                    with self.span(f"jobcache.get.{backend}"):
                        if cache.get("jobs", job_key(job)) is None:
                            self.errors.append("decomposed cache get "
                                               "missed its own put")
        own = sum(s["end"] - s["start"] for s in self.tr.spans
                  if s.get("own") and s["start"] >= root["start"])
        fresh_process_state()
        config = self.wl.engine_config(spec)
        with self.tr.span("engine.run_grid", n_jobs=1) as rec:
            engine_rows = run_grid(spec, config)
        self.engine_wall.append(rec["end"] - rec["start"])
        self.engine_own.append(own)
        self.engine_rows += len(engine_rows)
        fresh_process_state()
        for job, row in zip(spec.iter_jobs(), engine_rows):
            mine = rows[job]
            if job[1] != "randomized" and row.get("cost") != mine["cost"]:
                self.errors.append(
                    f"decomposed {job[1]} cost {mine['cost']!r} differs "
                    f"from the engine row's {row.get('cost')!r}")
        self._queue(spec, engine_rows, scratch)
        if not served:
            self._service(spec, caches["sqlite"], scratch)
        return engine_rows

    def _instance(self, coords, jobs, spec, store, need, hits):
        scenario, _pipeline, T, seed, _params = coords
        with self.span("scenarios.build", own=need):
            built = build_instance(scenario, T, seed)
        if T in SCALING_T:
            self.scaling_instances.setdefault(T, built)
        with self.span("instancestore.put", own=True):
            store.put(coords, built)
        with self.span("instancestore.load", own=True):
            inst = store.load(coords)
        cells = inst.F.shape[0] * inst.F.shape[1]
        c = self.counts
        c["builds"] += 1
        c["loads"] += 1
        c["sweeps"] += 1
        c["cells"] += cells
        c["table_bytes"] += inst.F.nbytes
        c["steps"] += T
        with self.span("kernels.sweep", own=need):
            sweep = kernels.sweep_workfunction(inst.F, inst.beta)
        rows = {}
        with self.span("offline.binary_search",
                       own=need and "binary_search" in spec.algorithms):
            res = make_solver("binary_search")(inst)
        c["bs_steps"] += T
        if res.cost != sweep.opt:
            self.errors.append(f"binary_search cost {res.cost!r} differs "
                               f"from the sweep optimum {sweep.opt!r}")
        by_alg = {j[1]: j for j in jobs}
        if "binary_search" in by_alg:
            rows[by_alg["binary_search"]] = _row(
                by_alg["binary_search"], inst, res.cost, sweep.opt)
        for alg in ONLINE:
            job = by_alg.get(alg)
            seed_ = zlib.crc32(f"{coords}|{alg}".encode())
            algo = make_algorithm(alg, seed=seed_)
            bounds = (sweep if get_spec(alg).shares_workfunction
                      and algo.consumes_bounds else None)
            with self.span(f"online.replay.{alg}",
                           own=need and job is not None and job not in hits):
                out = run_online(inst, algo, bounds=bounds)
            c["replay_steps"][alg] += T
            if job is not None:
                rows[job] = _row(job, inst, out.cost, sweep.opt)
        return rows

    # -- queue, sink and service ------------------------------------

    def _queue(self, spec, rows, scratch):
        """``work``'s lease cycle and ``grid_status`` made directly: on
        the service's live queue for ``served-mix`` (so the status scan
        sees every envelope of the run), else on a fresh queue."""
        served = isinstance(self.wl, ServedMix)
        root = self.wl.root if served else scratch / "queue"
        queue = LeaseQueue(root)
        try:
            with self.tr.span("leasequeue.enqueue"):
                gid = queue.enqueue(spec)
            while True:
                with self.tr.span("leasequeue.claim"):
                    lease = queue.claim("decompose", grid_id=gid)
                if lease is None:
                    break
                sink = JsonlSink(queue.worker_path("decompose"),
                                 append=True)
                sink.open()
                envelopes = [{"seq": seq, "grid": gid, "row": rows[seq]}
                             for seq in range(lease.start, lease.stop)]
                with self.tr.span("sinks.write_many", rows=len(envelopes)):
                    sink.write_many(envelopes)
                    sink.close()
                self.counts["sink_rows"] += len(envelopes)
                with self.tr.span("leasequeue.complete"):
                    queue.complete(lease)
            with self.tr.span("leasequeue.status"):
                status = grid_status(queue, gid)
            if status["state"] != "done" or status["rows"] != rows:
                self.errors.append(f"decomposed lease cycle of grid {gid} "
                                   "did not merge back to its rows")
            # a drained grid's status parses every envelope twice: once
            # for the counts and once more to merge the rows
            envelopes = 0
            for path in queue.results_dir.glob("*.jsonl"):
                with path.open() as fh:
                    envelopes += sum(1 for _ in fh)
            self.counts["scanned"] += 2 * envelopes
            self.counts["useful"] += len(spec)
        finally:
            queue.close()

    def _service(self, spec, cache, scratch):
        """Serve the decomposed grid from a cache holding all its rows."""
        service = _TimedService(scratch / "service", cache_dir=cache.root,
                                cache_backend="sqlite")
        service.tracer = self.tr
        service.start()
        try:
            client = ServiceClient(service.url, sleep=self.wl.client_sleep)
            with self.tr.span("service.submit"):
                receipt = client.submit(spec)
            with self.tr.span("service.status"):
                status = client.status(receipt["grid"])
            if status.get("state") != "done":
                self.errors.append("decomposed service grid not done")
        finally:
            service.stop()

    # -- pool and scaling --------------------------------------------

    def pool_roundtrip_us(self, reps: int = 30) -> float:
        parallel_map(_noop, [0, 1], n_jobs=2)
        samples = []
        for _ in range(reps):
            with self.tr.span("engine.pool_roundtrip") as rec:
                parallel_map(_noop, [0, 1], n_jobs=2)
            samples.append((rec["end"] - rec["start"]) * 1e6)
        shutdown_pool()
        return statistics.median(samples)

    def scaling(self, seed: int, reps: int = 5) -> None:
        """The O(T m) / O(T log m) check: sweep ns per cell (median of
        ``reps``) and binary_search ns per step at each horizon of
        ``SCALING_T``, on a built (not mmap-loaded) grid instance of
        that horizon, or on a diurnal instance built for the check.  Spans
        are named ``scaling.*`` so they stay out of the layer totals."""
        for T in SCALING_T:
            inst = self.scaling_instances.get(T)
            if inst is None:
                with self.tr.span("scaling.build", T=T):
                    inst = build_instance("diurnal", T, seed)
            pts = self.points[T] = {"sweep": [], "bs": []}
            for _ in range(reps):
                with self.tr.span("scaling.sweep", T=T) as rec:
                    kernels.sweep_workfunction(inst.F, inst.beta)
                pts["sweep"].append((rec["end"] - rec["start"])
                                    / inst.F.size * 1e9)
            with self.tr.span("scaling.binary_search", T=T) as rec:
                make_solver("binary_search")(inst)
            pts["bs"].append((rec["end"] - rec["start"]) / T * 1e9)


def metrics(tr, dec: Decomposition, wl, loop: dict) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    self_times = tr.self_times()

    def total(prefix):
        return sum(s["end"] - s["start"] for s in tr.named(prefix))

    def self_total(prefix):
        return sum(self_times[s["id"]] for s in tr.named(prefix))

    def med_us(prefix):
        spans = tr.named(prefix)
        return (statistics.median((s["end"] - s["start"]) * 1e6
                                  for s in spans) if spans else 0.0)

    c = dec.counts
    build_s, load_s = total("scenarios.build"), total("instancestore.load")
    sweep_s, bs_s = total("kernels.sweep"), total("offline.binary_search")
    out = {
        "scenarios.build_s": (build_s, "s"),
        "scenarios.builds": (c["builds"], "count"),
        "scenarios.cells_per_s": (c["cells"] / build_s, "1/s"),
        "instancestore.put_s": (total("instancestore.put"), "s"),
        "instancestore.bytes_written": (c["table_bytes"], "B"),
        "instancestore.load_s": (load_s, "s"),
        "instancestore.loads": (c["loads"], "count"),
        "instancestore.load_to_build_ratio": (load_s / build_s, "ratio"),
        "kernels.sweep_s": (sweep_s, "s"),
        "kernels.sweeps": (c["sweeps"], "count"),
        "kernels.sweep_ns_per_cell": (sweep_s / c["cells"] * 1e9, "ns"),
        # the sweep reads the (T, m+1) table once and writes the two
        # int64 bound trajectories
        "kernels.sweep_bytes": (c["table_bytes"] + 16 * c["steps"], "B"),
        "offline.binary_search_s": (bs_s, "s"),
        "offline.binary_search_ns_per_step": (bs_s / c["bs_steps"] * 1e9,
                                              "ns"),
    }
    for alg in ONLINE:
        s = total(f"online.replay.{alg}")
        out[f"online.replay_s.{alg}"] = (s, "s")
        out[f"online.replay_ns_per_step.{alg}"] = (
            s / c["replay_steps"][alg] * 1e9, "ns")
    for T in SCALING_T:
        pts = dec.points[T]
        out[f"kernels.sweep_ns_per_cell.T{T}"] = (
            statistics.median(pts["sweep"]), "ns")
        out[f"offline.binary_search_ns_per_step.T{T}"] = (
            statistics.median(pts["bs"]), "ns")
    lo, hi = SCALING_T
    out["kernels.sweep_scaling_ratio"] = (
        out[f"kernels.sweep_ns_per_cell.T{hi}"][0]
        / out[f"kernels.sweep_ns_per_cell.T{lo}"][0], "ratio")
    out["offline.binary_search_scaling_ratio"] = (
        out[f"offline.binary_search_ns_per_step.T{hi}"][0]
        / out[f"offline.binary_search_ns_per_step.T{lo}"][0], "ratio")
    wall = statistics.median(dec.engine_wall)
    out.update({
        "engine.wall_s": (wall, "s"),
        "engine.self_s": (statistics.median(
            w - o for w, o in zip(dec.engine_wall, dec.engine_own)), "s"),
        "engine.pool_roundtrip_us": (loop["pool_roundtrip_us"], "us"),
        "engine.rows": (loop["rows"] + dec.engine_rows, "count"),
        "jobcache.get_us.json": (med_us("jobcache.get.json"), "us"),
        "jobcache.get_us.sqlite": (med_us("jobcache.get.sqlite"), "us"),
        "jobcache.put_us.json": (med_us("jobcache.put.json"), "us"),
        "jobcache.put_us.sqlite": (med_us("jobcache.put.sqlite"), "us"),
        "jobcache.hit_ratio": (loop["hit_ratio"], "ratio"),
        "jobcache.busy_retries": (loop["busy_retries"], "count"),
        "sinks.write_us_per_row": (total("sinks.write_many") * 1e6
                                   / c["sink_rows"], "us"),
        "leasequeue.enqueue_ms": (med_us("leasequeue.enqueue") / 1e3, "ms"),
        "leasequeue.claim_ms": (med_us("leasequeue.claim") / 1e3, "ms"),
        "leasequeue.complete_ms": (med_us("leasequeue.complete") / 1e3,
                                   "ms"),
        "leasequeue.status_ms": (med_us("leasequeue.status") / 1e3, "ms"),
        "leasequeue.envelopes_scanned_per_status": (
            c["scanned"] / len(tr.named("leasequeue.status")), "count"),
        "leasequeue.scan_useful_ratio": (c["useful"] / c["scanned"],
                                         "ratio"),
        "service.submit_ms": (med_us("service.handle.submit") / 1e3, "ms"),
        "service.status_ms": (med_us("service.handle.status") / 1e3, "ms"),
        "service.http_overhead_ms": (_http_overhead_ms(tr, self_times),
                                     "ms"),
        "service.client_retries": (wl.retries, "count"),
        "service.requests_failed": (wl.requests_failed, "count"),
        "service.hit_grid_share": (loop["hit_grid_share"], "ratio"),
    })
    for layer in ("scenarios", "instancestore", "kernels", "offline",
                  "online", "jobcache", "sinks", "leasequeue", "service"):
        out[f"{layer}.self_s"] = (self_total(layer), "s")
    # the cross-check against the ROADMAP's cProfile split of a cold
    # grid: tabulation's share of the time the grid's own layers take
    own = [s for s in tr.spans if s.get("own")]
    own_total = sum(s["end"] - s["start"] for s in own)
    own_build = sum(s["end"] - s["start"] for s in own
                    if s["name"] == "scenarios.build")
    out["trace.build_share"] = (own_build / own_total if own_total
                                else 0.0, "ratio")
    out["trace.overhead_ms"] = (loop["overhead_ms"], "ms")
    out["trace.spans"] = (len(tr.spans), "count")
    return out


def _http_overhead_ms(tr, self_times) -> float:
    """Median client round trip minus its handler span: HTTP, JSON and
    the client's own work."""
    samples = [self_times[s["id"]] * 1e3
               for s in tr.spans
               if s["name"] in ("service.submit", "service.status")]
    return statistics.median(samples) if samples else 0.0
