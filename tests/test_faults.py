"""Chaos suite: the fault-tolerance layer under deterministic faults.

Every test drives :func:`repro.runner.run_grid` (or the lease queue)
through :mod:`repro.runner.faults` plans and asserts the central
invariant — the fault-free subset of rows is bit-identical to a
fault-free run — plus the bookkeeping around it: retry counts,
quarantine rows, pool respawns and the merge's prefer-ok rule.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import (EngineConfig, FaultPlan, FaultSpec,
                          InjectedFault, InstanceStore, JobCache,
                          MergeError, RunStats, failed_jobs, merge_results,
                          retry_failed, run_grid, work)
from repro.runner.engine import GridSpec
from repro.runner import engine as engine_mod
from repro.runner import faults, instancestore
from repro.runner.leasequeue import LeaseQueue
from repro.runner.sinks import read_jsonl_rows

GRID = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                seeds=(0, 1), sizes=(16,))

#: fault-token prefix of the (diurnal, lcp, seed 0) job
LCP0 = "diurnal|lcp|16|0|0"

#: zero-backoff config so retry loops never sleep in tests
FAST = dict(retry_backoff=0.0)


def plan_of(*specs, state_dir=None) -> FaultPlan:
    return FaultPlan(specs=tuple(specs), state_dir=state_dir)


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="no_such_site")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="run_job", kind="melt")

    def test_json_round_trip(self):
        plan = plan_of(
            FaultSpec(site="run_job", match="x", nth=(1, 3)),
            FaultSpec(site="worker_exit", kind="exit", nth=None,
                      once=True),
            state_dir="/tmp/somewhere")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_accepts_bare_spec_list(self):
        plan = FaultPlan.from_json(
            '[{"site": "run_job", "match": "abc"}]')
        assert plan.specs == (FaultSpec(site="run_job", match="abc"),)

    def test_as_plan_coercions(self):
        spec = FaultSpec(site="cache_put")
        plan = plan_of(spec)
        assert faults.as_plan(plan) is plan
        assert faults.as_plan(plan.to_json()) == plan
        assert faults.as_plan([spec.to_dict()]) == plan
        assert faults.as_plan(
            {"specs": [spec], "state_dir": None}) == plan

    def test_env_var_activates_lazily(self, monkeypatch):
        plan = plan_of(FaultSpec(site="cache_put", match="k", nth=None))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.reset()
        with pytest.raises(InjectedFault):
            faults.fire("cache_put", "key-1")
        faults.fire("cache_put", "other")  # match not a substring

    def test_nth_counts_per_site_match_key(self):
        faults.activate(plan_of(
            FaultSpec(site="run_job", match="a", nth=(2,))))
        faults.fire("run_job", "a1")      # first invocation: no fire
        with pytest.raises(InjectedFault):
            faults.fire("run_job", "a2")  # second: fires
        faults.fire("run_job", "a3")      # third: done
        assert faults.counters() == {("run_job", "a"): 3}

    def test_once_fires_a_single_time(self, tmp_path):
        faults.activate(plan_of(
            FaultSpec(site="run_job", nth=None, once=True),
            state_dir=str(tmp_path)))
        with pytest.raises(InjectedFault):
            faults.fire("run_job", "x")
        faults.fire("run_job", "x")  # marker file claimed: silent now


class TestRetryAndQuarantine:
    def test_transient_fault_retries_then_succeeds(self):
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=(1,))),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.retries == 1 and stats.quarantined == 0

    def test_retry_then_succeed_exact_attempt_count(self, monkeypatch):
        """Two injected failures burn exactly two retries; the job body
        itself runs once — attempt three, the first one the injection
        lets through."""
        runs = []
        real = engine_mod._run_job

        def counting(task):
            runs.append(task[0])
            return real(task)

        monkeypatch.setattr(engine_mod, "_run_job", counting)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=(1, 2))),
            max_retries=2, **FAST), stats=stats)
        assert stats.retries == 2 and stats.quarantined == 0
        assert sum(1 for job in runs if LCP0 in "|".join(
            str(p) for p in job)) == 1
        assert all(r.get("status") != "failed" for r in rows)

    def test_poison_job_quarantined_others_bit_identical(self):
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=None)),
            max_retries=2, **FAST), stats=stats)
        failed = [r for r in rows if r.get("status") == "failed"]
        assert len(failed) == 1 and stats.quarantined == 1
        assert stats.retries == 2  # both retries burned before giving up
        (row,) = failed
        assert row["error"] == "InjectedFault"
        assert row["phase"] == "run_job" and row["attempts"] == 3
        assert row["cost"] is None and row["ratio"] is None
        assert row["error_digest"]
        survivors = [r for r in rows if r.get("status") != "failed"]
        assert survivors == [r for r in clean
                             if not (r["algorithm"] == "lcp"
                                     and r["seed"] == 0)]

    def test_failed_rows_never_cached(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        run_grid(GRID, EngineConfig(
            cache_dir=cache,
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=None)),
            **FAST))
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(cache_dir=cache),
                        stats=stats)
        assert stats.job_hits == 3 and stats.job_misses == 1
        assert rows == run_grid(GRID)

    def test_solve_failure_quarantines_dependents_without_running(self):
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "threshold"),
                        seeds=(0,), sizes=(16,))
        stats = RunStats()
        rows = run_grid(spec, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="solve_instance", nth=None)),
            **FAST), stats=stats)
        assert stats.quarantined == 2
        assert all(r["status"] == "failed"
                   and r["phase"] == "solve_instance" for r in rows)

    def test_transient_solve_fault_is_invisible(self):
        spec = GridSpec(scenarios=("diurnal",),
                        algorithms=("lcp", "threshold"),
                        seeds=(0,), sizes=(16,))
        clean = run_grid(spec)
        stats = RunStats()
        rows = run_grid(spec, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="solve_instance", nth=(1,))),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.retries == 1 and stats.quarantined == 0

    def test_quarantined_rows_skipped_by_aggregate(self):
        rows = run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=None)),
            **FAST))
        agg = engine_mod.aggregate_rows(rows)
        lcp = [a for a in agg if a["algorithm"] == "lcp"]
        assert lcp[0]["n"] == 1  # only the surviving lcp row


class TestInfrastructureFaults:
    def test_cache_put_failure_absorbed_and_counted(self, tmp_path):
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            cache_dir=JobCache(tmp_path / "cache"),
            fault_plan=plan_of(
                FaultSpec(site="cache_put", nth=(1,))),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.cache_put_failures == 1 and stats.quarantined == 0

    def test_sqlite_lock_during_put_healed_by_busy_retry(self,
                                                         tmp_path):
        # A transient lock on the first put is retried inside the
        # backend (the shared SQLITE_BUSY wrapper), so the record IS
        # written: no dropped put, and the retry is counted in stats.
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            cache_dir=JobCache(tmp_path / "cache", backend="sqlite"),
            fault_plan=plan_of(
                FaultSpec(site="sqlite_lock", nth=(1,),
                          kind="lock")),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.cache_put_failures == 0
        assert stats.sqlite_busy_retries >= 1

    def test_persistent_sqlite_lock_still_absorbed(self, tmp_path,
                                                   monkeypatch):
        # A lock that outlives the whole retry budget degrades back to
        # the old behavior: the put is dropped, the run stays clean.
        from repro.runner import jobcache
        monkeypatch.setattr(jobcache, "_BUSY_SLEEP", lambda s: None)
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            cache_dir=JobCache(tmp_path / "cache", backend="sqlite"),
            fault_plan=plan_of(
                FaultSpec(site="sqlite_lock", nth=None,
                          kind="lock")),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.cache_put_failures >= 1
        assert stats.sqlite_busy_retries >= 1

    def test_materialize_failure_absorbed(self, tmp_path):
        clean = run_grid(GRID)
        store = InstanceStore(tmp_path / "store")
        rows = run_grid(GRID, EngineConfig(
            store_dir=store.root,
            fault_plan=plan_of(
                FaultSpec(site="materialize", nth=None)),
            **FAST))
        assert rows == clean  # the live builds served phases 1/2
        assert store.stats()["entries"] == 0  # every write was faulted
        instancestore.clear_memo()
        assert run_grid(GRID, EngineConfig(store_dir=store.root)) == clean
        assert store.stats()["entries"] == 2  # one per distinct instance

    def test_sink_write_failure_stays_fatal(self):
        with pytest.raises(InjectedFault):
            run_grid(GRID, EngineConfig(
                fault_plan=plan_of(
                    FaultSpec(site="sink_write", nth=(1,))),
                **FAST))


class TestPoolCrashRecovery:
    def test_sigkilled_worker_respawns_and_completes(self, tmp_path):
        clean = run_grid(GRID)
        stats = RunStats()
        rows = run_grid(GRID, EngineConfig(
            n_jobs=2,
            fault_plan=plan_of(
                FaultSpec(site="worker_exit", kind="exit", nth=None,
                          once=True),
                state_dir=str(tmp_path / "faults")),
            **FAST), stats=stats)
        assert rows == clean
        assert stats.pool_restarts >= 1 and stats.quarantined == 0

    def test_crash_loop_is_bounded(self, tmp_path):
        with pytest.raises(RuntimeError, match="giving up"):
            run_grid(GRID, EngineConfig(
                n_jobs=2, max_pool_restarts=1,
                fault_plan=plan_of(
                    FaultSpec(site="worker_exit", kind="exit",
                              nth=None)),
                **FAST))

    def test_exit_fault_is_inert_inline(self):
        # n_jobs=1 must never SIGKILL the caller's process
        rows = run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="worker_exit", kind="exit", nth=None)),
            **FAST))
        assert rows == run_grid(GRID)


class TestLeaseQueueChaos:
    def _drain(self, queue, config=None, worker="w1"):
        return work(queue, worker=worker,
                    config=config or EngineConfig(), poll=0.01)

    def test_failed_job_does_not_poison_the_lease(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(GRID, lease_jobs=2)
        stats = self._drain(queue, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=None)),
            **FAST))
        assert stats.leases_completed == 2 and stats.leases_lost == 0
        merged = merge_results(queue)
        assert sum(1 for r in merged
                   if r.get("status") == "failed") == 1
        clean = run_grid(GRID)
        assert [r for r in merged if r.get("status") != "failed"] == \
            [r for r in clean if not (r["algorithm"] == "lcp"
                                      and r["seed"] == 0)]

    def test_retry_failed_reruns_only_quarantined(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(GRID, lease_jobs=2)
        self._drain(queue, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=None)),
            **FAST))
        assert sorted(failed_jobs(queue)) == [0]
        n_failed, n_leases = retry_failed(queue)
        assert (n_failed, n_leases) == (1, 1)
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["done"] == 1
        # a healthy worker retries the reopened range; prefer-ok merge
        # supersedes the stale failure envelope
        self._drain(queue, worker="w2")
        assert failed_jobs(queue) == {}
        assert merge_results(queue) == run_grid(GRID)
        assert retry_failed(queue) == (0, 0)

    def test_merge_prefers_ok_row_over_failed(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(GRID, lease_jobs=4)
        self._drain(queue)
        clean = merge_results(queue)
        # a stale quarantine envelope for job 0 from a flaky worker
        queue.results_dir.mkdir(exist_ok=True)
        (queue.results_dir / "flaky.jsonl").write_text(json.dumps(
            {"seq": 0, "grid": grid_id,
             "row": {"status": "failed", "error": "Boom"}}) + "\n")
        assert merge_results(queue) == clean
        # two failed rows for one seq never conflict either
        (queue.results_dir / "flaky2.jsonl").write_text(json.dumps(
            {"seq": 0, "grid": grid_id,
             "row": {"status": "failed", "error": "Other"}}) + "\n")
        assert merge_results(queue) == clean

    def test_stale_worker_visible_until_reclaimed(self, tmp_path):
        now = [0.0]
        queue = LeaseQueue(tmp_path / "q", clock=lambda: now[0])
        queue.enqueue(GRID, lease_jobs=2)
        queue.claim("w1", ttl=10.0)
        assert queue.stale() == 0
        now[0] = 11.0
        assert queue.stale() == 1
        queue.reclaim_expired()
        assert queue.stale() == 0


class TestMergeErrorReporting:
    def test_mid_file_corruption_names_worker_and_line(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(GRID, lease_jobs=4)
        work(queue, worker="w1", poll=0.01)
        target = next(iter(queue.results_dir.glob("*.jsonl")))
        lines = target.read_text().splitlines()
        lines[1] = '{"seq": 1, "gri'  # torn in the MIDDLE of the log
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(MergeError, match=r"line 2"):
            merge_results(queue)

    def test_mid_file_corruption_raises_in_tolerant_mode(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"a": 1}\n{"torn\n{"b": 2}\n')
        with pytest.raises(ValueError):
            read_jsonl_rows(path)  # strict mode: plain parse error


class TestRunGridHygiene:
    def test_fault_plan_never_leaks(self):
        run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=(1,))),
            **FAST))
        import os
        assert faults.ENV_VAR not in os.environ
        assert faults.active_plan() is None
        assert run_grid(GRID) == run_grid(GRID)

    def test_stats_counters_reported_in_dict_form(self):
        stats = RunStats()
        run_grid(GRID, EngineConfig(
            fault_plan=plan_of(
                FaultSpec(site="run_job", match=LCP0, nth=(1,))),
            **FAST), stats=stats)
        assert stats["retries"] == 1
        assert stats["quarantined"] == 0
        assert stats["pool_restarts"] == 0
