"""Tests for the pipelined engine core: double-buffered batches, fused
chunk dispatch, the LCP-family registry flags, and the drain/validation
satellites."""

import pytest

from repro.runner import (EngineConfig, GridSpec, InstanceStore, JobCache,
                          ListSink, RunStats, aggregate_rows, run_grid,
                          shutdown_pool)
from repro.runner import engine as engine_mod
from repro.runner import executor as executor_mod
from repro.runner.registry import _REGISTRY, get_spec

GRID = GridSpec(scenarios=("diurnal", "sawtooth"),
                algorithms=("lcp", "eager-lcp", "threshold", "memoryless"),
                seeds=(0, 1), sizes=(24,))

RESTRICTED = GridSpec(scenarios=("restricted-diurnal",),
                      algorithms=("restricted", "lcp", "eager-lcp"),
                      seeds=(0, 1), sizes=(16,))

HETERO = GridSpec(scenarios=("hetero-fleet",),
                  algorithms=("dp_hetero", "greedy_hetero"),
                  seeds=(0, 1), sizes=(16,))

GAME = GridSpec(scenarios=("lb-deterministic",),
                algorithms=("game-lcp", "game-followmin"),
                seeds=(0,), sizes=(1200,),
                params=({"eps": 0.2}, {"eps": 0.1}))


class TestPipelinedBitIdentity:
    """The acceptance property: the pipelined engine is bit-identical
    to the barrier engine on every pipeline, for every combination of
    n_jobs, batch_size and pipeline_depth."""

    @pytest.mark.parametrize("spec", [GRID, RESTRICTED, HETERO, GAME],
                             ids=["general", "restricted", "hetero",
                                  "game"])
    def test_pipelined_matches_barrier(self, spec):
        barrier = run_grid(spec,
                           EngineConfig(batch_size=3, pipeline_depth=1))
        assert run_grid(spec, EngineConfig(batch_size=3,
                                           pipeline_depth=2)) == barrier
        for n_jobs in (1, 2):
            assert run_grid(spec,
                            EngineConfig(n_jobs=n_jobs, batch_size=5,
                                         pipeline_depth=3)) == barrier
        assert run_grid(spec) == barrier
        shutdown_pool()

    @pytest.mark.parametrize("spec", [GRID, GAME],
                             ids=["general", "game"])
    def test_parallel_pipelined_matches_serial(self, spec):
        serial = run_grid(spec, EngineConfig(batch_size=3, pipeline_depth=1))
        assert run_grid(spec, EngineConfig(n_jobs=2, batch_size=3,
                                           pipeline_depth=2)) == serial
        shutdown_pool()

    def test_chunked_dispatch_preserves_row_order(self):
        reference = run_grid(GRID)
        jobs = GRID.jobs()
        for n_jobs in (1, 2):
            for batch_size in (1, 5, 100):
                rows = run_grid(GRID, EngineConfig(n_jobs=n_jobs,
                                                   batch_size=batch_size))
                assert rows == reference
                assert [(r["scenario"], r["algorithm"], r["seed"])
                        for r in rows] == [(j[0], j[1], j[4]) for j in jobs]
        shutdown_pool()

    def test_store_and_cache_under_pipelining(self, tmp_path):
        from repro.runner.instancestore import clear_memo
        reference = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID,
                        EngineConfig(n_jobs=2, batch_size=3,
                                     cache_dir=tmp_path / "cache",
                                     store_dir=tmp_path / "store"),
                        stats=stats)
        assert rows == reference
        assert stats["opt_solved"] == 4  # still exactly once per instance
        clear_memo()
        stats2 = RunStats()
        rows2 = run_grid(GRID,
                         EngineConfig(n_jobs=2, batch_size=3,
                                      cache_dir=tmp_path / "cache",
                                      store_dir=tmp_path / "store"),
                         stats=stats2)
        assert rows2 == reference
        assert stats2["job_hits"] == len(GRID)
        assert stats2["inst_builds"] == 0
        shutdown_pool()


class TestOverlap:
    def test_overlap_counters_prove_pipelining(self):
        stats = RunStats()
        run_grid(GRID, EngineConfig(n_jobs=2, batch_size=4), stats=stats)
        assert stats["overlapped_batches"] > 0
        assert stats["inflight_max"] >= 2
        shutdown_pool()

    def test_serial_path_never_overlaps(self):
        stats = RunStats()
        run_grid(GRID, EngineConfig(batch_size=4), stats=stats)
        assert stats["overlapped_batches"] == 0
        assert stats["inflight_max"] == 1
        assert stats["max_pending"] == 4  # O(batch) preserved in-process

    def test_depth_one_is_a_barrier(self):
        stats = RunStats()
        run_grid(GRID, EngineConfig(n_jobs=2, batch_size=4, pipeline_depth=1),
                 stats=stats)
        assert stats["overlapped_batches"] == 0
        assert stats["inflight_max"] == 1
        shutdown_pool()

    def test_pending_rows_bounded_by_depth_times_batch(self):
        stats = RunStats()
        run_grid(GRID, EngineConfig(n_jobs=2, batch_size=4, pipeline_depth=2),
                 stats=stats)
        assert stats["max_pending"] <= 2 * 4
        shutdown_pool()

    def test_invalid_pipeline_depth_rejected(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            run_grid(GRID, EngineConfig(pipeline_depth=0))


class _KillSink(ListSink):
    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def write(self, row):
        if len(self.rows) >= self.n:
            raise KeyboardInterrupt("killed mid-pipeline")
        super().write(row)


class TestMidPipelineKill:
    def test_kill_resumes_paying_only_missing_jobs(self, tmp_path):
        """A pipelined grid killed mid-flush resumes from the per-job
        cache; rows cached by in-flight chunks before the kill count."""
        cache = JobCache(tmp_path)
        killed = _KillSink(5)
        with pytest.raises(KeyboardInterrupt):
            run_grid(GRID,
                     EngineConfig(cache_dir=cache, n_jobs=2, batch_size=3,
                                  pipeline_depth=2, sink=killed))
        survivors = len(killed.rows)
        assert 0 < survivors < len(GRID)
        stats = RunStats()
        rows = run_grid(GRID,
                        EngineConfig(cache_dir=cache, n_jobs=2, batch_size=3,
                                     pipeline_depth=2),
                        stats=stats)
        assert len(rows) == len(GRID)
        assert stats["job_hits"] >= survivors
        assert stats["job_hits"] + stats["job_misses"] == len(GRID)
        assert rows == run_grid(GRID)
        shutdown_pool()


def _lcp_family():
    return [name for name, spec in _REGISTRY.items()
            if spec.shares_workfunction]


class TestSharedReplay:
    def test_lcp_family_is_registered_for_sharing(self):
        family = _lcp_family()
        assert "lcp" in family and "eager-lcp" in family
        assert "backward_lcp" in family  # offline sweep sharer
        for name in family:
            spec = get_spec(name)
            assert spec.pipeline == "general"
            if spec.kind == "online":
                assert spec.make().consumes_bounds
            else:
                # offline sharers take the precomputed sweep directly
                assert spec.kind == "offline"

    def test_nonconsumer_rejects_step_bounds(self):
        from repro.online import ThresholdFractional
        algorithm = ThresholdFractional()
        assert not algorithm.consumes_bounds
        with pytest.raises(NotImplementedError):
            algorithm.step_bounds(0, 1)


class TestPromiseRace:
    def test_owner_harvest_survives_borrower_preresolution(self,
                                                           monkeypatch):
        """A borrowing batch may resolve a shared solve promise before
        the owning batch's poll; the owner must still do its own
        bookkeeping (records/window/cache/opt_solved), not crash.

        The interleaving is forced deterministically: the promise
        reports not-ready for the owner's first polls, so the borrower
        (admitted meanwhile) resolves it first.
        """
        real_ready = engine_mod._Promise.ready
        calls = {"n": 0}

        def laggy_ready(self):
            calls["n"] += 1
            return False if calls["n"] <= 3 else real_ready(self)

        monkeypatch.setattr(engine_mod._Promise, "ready", laggy_ready)
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "eager-lcp"),
                        seeds=(0,), sizes=(16,))
        stats = RunStats()
        rows = run_grid(spec, EngineConfig(batch_size=1, pipeline_depth=2),
                        stats=stats)
        monkeypatch.setattr(engine_mod._Promise, "ready", real_ready)
        assert rows == run_grid(spec)
        assert stats["opt_solved"] == 1  # owner counted it exactly once

    def test_overlapping_batches_materialize_each_instance_once(
            self, tmp_path):
        """An instance whose optimum is a cache hit while its payload
        is missing (warm cache, cold store) is built by whichever
        phase-2 worker first needs it — possibly once per worker, as
        no phase-1 solve builds it first — yet the atomic rename of the
        write-through leaves exactly one payload in the store."""
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "threshold", "memoryless"),
                        seeds=(0,), sizes=(48,))
        cache = JobCache(tmp_path / "cache")
        run_grid(spec, EngineConfig(cache_dir=cache))   # warm optima + rows
        extended = GridSpec(scenarios=("diurnal",),
                            algorithms=("lcp", "threshold", "memoryless",
                                        "followmin", "never-off"),
                            seeds=(0,), sizes=(48,))
        stats = RunStats()
        rows = run_grid(extended,
                        EngineConfig(cache_dir=cache, n_jobs=2, batch_size=1,
                                     pipeline_depth=2,
                                     store_dir=tmp_path / "store"),
                        stats=stats)
        assert InstanceStore(tmp_path / "store").stats()["entries"] == 1
        assert rows == run_grid(extended)
        shutdown_pool()

    def test_abort_flushes_completed_head_batches(self, monkeypatch):
        """A worker error in batch N must not discard earlier batches'
        fully computed rows from the sink (the serial engine had
        always flushed N-1 before starting N).

        The loss window — head batches completing in the same pump
        pass that surfaces the error — is forced deterministically: the
        head's phase-2 future hides its completion until the failing
        batch has been admitted.
        """
        from concurrent.futures import Future
        state = {"release": False}

        class GatedFuture(Future):
            def done(self):
                return state["release"] and super().done()

        real_submit = executor_mod.submit_task

        def fake_submit(fn, arg, n_jobs):
            if fn is engine_mod._run_chunk_retry:
                tasks, _policy = arg
                algorithms = {job[1] for job, _r, _s in tasks}
                if "memoryless" in algorithms:
                    state["release"] = True
                    future: Future = Future()
                    future.set_exception(RuntimeError("worker died"))
                    return future
                if "lcp" in algorithms:
                    future = GatedFuture()
                    future.set_result(engine_mod._run_chunk_retry(arg))
                    return future
            return real_submit(fn, arg, n_jobs)

        monkeypatch.setattr(executor_mod, "submit_task", fake_submit)
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "threshold", "memoryless"),
                        seeds=(0,), sizes=(16,))
        sink = ListSink()
        with pytest.raises(RuntimeError, match="worker died"):
            run_grid(spec,
                     EngineConfig(batch_size=1, pipeline_depth=3, sink=sink))
        # lcp and threshold completed before the error: still flushed
        assert [r["algorithm"] for r in sink.rows] == ["lcp",
                                                       "threshold"]

    def test_salvage_counts_dropped_cache_writes(self):
        """The abort path writes salvaged rows through the same
        best-effort cache seam as a normal harvest: a failing ``put``
        is absorbed *and* counted in ``cache_put_failures``."""
        from concurrent.futures import Future

        class BrokenCache:
            def put(self, kind, key, record):
                raise OSError("disk full")

        spec = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        seeds=(0,), sizes=(16,))
        job = spec.jobs()[0]
        row = run_grid(spec)[0]
        stats = RunStats()
        run = engine_mod._GridRun(spec, EngineConfig(), BrokenCache(),
                                  ListSink(), stats, None)
        st = engine_mod._BatchState(run, [job])
        future: Future = Future()
        future.set_result({"rows": [row], "retries": 0})
        st.run_futures = [([(0, job, engine_mod.job_key(job))], future)]
        st.salvage()
        assert st.rows == [row] and st.run_futures == []
        assert stats.cache_put_failures == 1

    def test_sink_failure_stops_all_flushing(self, tmp_path):
        """When the *sink* is what failed, the drain must not keep
        writing later batches after the torn one (kill+resume relies
        on a clean row prefix)."""
        killed = _KillSink(1)
        with pytest.raises(KeyboardInterrupt):
            run_grid(GRID,
                     EngineConfig(batch_size=1, pipeline_depth=2, sink=killed))
        assert len(killed.rows) == 1  # nothing written past the kill

    def test_cross_batch_instance_shares_one_solve(self):
        """Batch boundaries splitting one instance's jobs reuse the
        in-flight solve instead of re-submitting it (pool path)."""
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "eager-lcp", "threshold"),
                        seeds=(0,), sizes=(64,))
        stats = RunStats()
        rows = run_grid(spec,
                        EngineConfig(n_jobs=2, batch_size=1, pipeline_depth=2),
                        stats=stats)
        assert stats["opt_solved"] == 1
        assert rows == run_grid(spec)
        shutdown_pool()


class TestBatchValidation:
    def test_bad_batch_size_raises_before_consuming_iterator(self):
        consumed = []

        def jobs():
            consumed.append(1)
            yield from ()

        with pytest.raises(ValueError, match="batch_size"):
            executor_mod.iter_batches(jobs(), 0)
        assert not consumed

    def test_bad_batch_size_raises_before_sink_opens(self):
        class Sink(ListSink):
            opened = False

            def open(self, meta=None):
                self.opened = True

        sink = Sink()
        with pytest.raises(ValueError, match="batch_size"):
            run_grid(GRID, EngineConfig(batch_size=-2, sink=sink))
        assert not sink.opened


class TestParamAwareAggregation:
    def test_params_ride_along_as_row_columns(self):
        spec = GridSpec(scenarios=("case-msr",), algorithms=("static",),
                        seeds=(0,), sizes=(16,),
                        params=({"beta": 1.0}, {"beta": 8.0}))
        rows = run_grid(spec)
        assert [r["beta"] for r in rows] == [1.0, 8.0]

    def test_group_by_beta_emits_per_beta_tables(self):
        spec = GridSpec(scenarios=("case-msr",),
                        algorithms=("lcp", "static"),
                        seeds=(0, 1), sizes=(16,),
                        params=({"beta": 2.0}, {"beta": 6.0}))
        rows = run_grid(spec)
        agg = aggregate_rows(rows, by=("scenario", "algorithm", "T",
                                       "beta"))
        assert len(agg) == 4  # 2 algorithms x 2 betas
        assert {a["beta"] for a in agg} == {2.0, 6.0}
        assert all(a["n"] == 2 for a in agg)

    def test_missing_group_key_groups_under_none(self):
        agg = aggregate_rows([{"scenario": "s", "algorithm": "a",
                               "T": 8, "ratio": 1.5, "cost": 3.0}],
                             by=("scenario", "algorithm", "T", "eps"))
        assert agg[0]["eps"] is None and agg[0]["n"] == 1

    def test_cli_group_by_rejects_unknown_columns(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="algoritm"):
            main(["sweep", "--scenarios", "diurnal", "--algorithms",
                  "lcp", "--seeds", "0", "-T", "16",
                  "--group-by", "scenario,algoritm,T"])

    def test_cli_group_by(self, capsys):
        from repro.cli import main
        rc = main(["sweep", "--scenarios", "case-msr", "--algorithms",
                   "static", "--seeds", "0", "-T", "16", "--params",
                   '{"beta": 2.0};{"beta": 6.0}',
                   "--group-by", "scenario,algorithm,T,beta"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta" in out and out.count("case-msr") >= 2


class TestSinkWriteMany:
    def test_sqlite_bulk_path_matches_per_row(self, tmp_path):
        from repro.runner import (SqliteSink, read_sqlite_rows)
        bulk = SqliteSink(tmp_path / "bulk.db")
        bulk.open()
        bulk.write_many([{"a": 1}, {"a": 2}])
        bulk.close()
        single = SqliteSink(tmp_path / "single.db")
        single.open()
        single.write({"a": 1})
        single.write({"a": 2})
        single.close()
        assert (read_sqlite_rows(bulk.result())
                == read_sqlite_rows(single.result()))
        assert bulk.rows_written == 2

    def test_default_write_many_respects_write_overrides(self):
        sink = _KillSink(1)
        sink.open()
        with pytest.raises(KeyboardInterrupt):
            sink.write_many([{"a": 1}, {"a": 2}])
        assert len(sink.rows) == 1
