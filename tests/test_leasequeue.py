"""Tests for the multi-host lease queue: claim/heartbeat/expiry/reclaim
lifecycle, concurrent workers draining one grid without executing any
job twice, crash recovery after a SIGKILL'd worker, and the merge step's
bit-identity with a single-process run_grid."""

import json
import subprocess
import sys
import threading

import pytest

from repro.runner import (EngineConfig, GridSpec, LeaseLost, LeaseQueue,
                          merge_results, run_grid, work)

SMALL = GridSpec(scenarios=("diurnal", "bursty"),
                 algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLeaseQueue:
    def test_enqueue_partitions_grid_and_is_idempotent(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        assert queue.enqueue(SMALL, lease_jobs=3) == grid_id
        assert queue.grids() == [grid_id]
        assert queue.total(grid_id) == len(SMALL)
        # the ranges tile [0, total) exactly, in order
        ranges = []
        worker = "w"
        while (lease := queue.claim(worker)) is not None:
            ranges.append((lease.start, lease.stop))
        assert ranges[0][0] == 0 and ranges[-1][1] == len(SMALL)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert queue.counts(grid_id)["leased"] == len(ranges)
        # idempotent enqueue did not add leases
        assert sum(queue.counts(grid_id).values()) == len(ranges)

    def test_enqueue_rejects_nonpositive_lease_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="lease_jobs"):
            LeaseQueue(tmp_path).enqueue(SMALL, lease_jobs=0)

    def test_enqueue_rejects_spec_run_grid_refuses(self, tmp_path):
        # a lease for such a spec would fail every worker that claims
        # it, be reclaimed after its TTL, and never finish
        queue = LeaseQueue(tmp_path)
        for spec, exc in [
                (GridSpec(scenarios=("diurnal",),
                          algorithms=("dp_hetero",)), ValueError),
                (GridSpec(scenarios=("diurnal",),
                          algorithms=("no-such-alg",)), KeyError),
                (GridSpec(scenarios=("no-such-scenario",),
                          algorithms=("lcp",)), KeyError)]:
            with pytest.raises(exc):
                queue.enqueue(spec)
        assert queue.grids() == []

    def test_cli_enqueue_rejects_pipeline_mismatch(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc_info:
            main(["work", "enqueue", "--queue", str(tmp_path),
                  "--scenarios", "diurnal", "--algorithms", "dp_hetero",
                  "-T", "16"])
        assert exc_info.value.code not in (0, None)
        assert "pipeline" in str(exc_info.value.code)
        assert LeaseQueue(tmp_path).grids() == []

    def test_cli_enqueue_rejects_non_integer_seeds_and_sizes(self, tmp_path):
        from repro.cli import main
        for flag, value in (("--seeds", "2.9"), ("-T", "16.7")):
            with pytest.raises(SystemExit) as exc_info:
                main(["work", "enqueue", "--queue", str(tmp_path),
                      "--scenarios", "diurnal", "--algorithms", "lcp",
                      "-T", "16", flag, value])
            assert exc_info.value.code not in (0, None)
        assert LeaseQueue(tmp_path).grids() == []

    def test_spec_roundtrips(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL)
        assert queue.spec(grid_id) == SMALL
        with pytest.raises(KeyError):
            queue.spec("no-such-grid")

    def test_spec_rejects_engine_version_mismatch(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL)
        d = queue.spec_dict(grid_id)
        d["engine_version"] = 999
        queue._conn.execute(
            "UPDATE grids SET spec = ? WHERE grid_id = ?",
            (json.dumps(d, sort_keys=True), grid_id))
        with pytest.raises(ValueError, match="engine version"):
            queue.spec(grid_id)

    def test_two_claims_never_share_a_range(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue(SMALL, lease_jobs=4)
        a = queue.claim("alice")
        b = queue.claim("bob")
        assert a.start != b.start
        assert (a.start, a.stop) != (b.start, b.stop)

    def test_heartbeat_renews_and_reclaim_expires(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        lease = queue.claim("w1", ttl=10.0)
        assert lease.deadline == 10.0
        clock.now = 8.0
        assert queue.reclaim_expired() == 0   # still alive
        queue.heartbeat(lease, ttl=10.0)      # deadline -> 18.0
        clock.now = 15.0
        assert queue.reclaim_expired() == 0   # renewal held it
        clock.now = 19.0
        assert queue.reclaim_expired() == 1   # now it lapsed
        assert queue.counts(grid_id)["leased"] == 0

    def test_lost_lease_raises_on_heartbeat_and_complete(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.enqueue(SMALL, lease_jobs=4)
        lease = queue.claim("w1", ttl=5.0)
        clock.now = 6.0
        assert queue.reclaim_expired() == 1
        with pytest.raises(LeaseLost):
            queue.heartbeat(lease)
        with pytest.raises(LeaseLost):
            queue.complete(lease)
        # the range is claimable again — by anyone
        again = queue.claim("w2", ttl=5.0)
        assert (again.start, again.stop) == (lease.start, lease.stop)

    def test_complete_marks_done_and_finished(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=len(SMALL))
        lease = queue.claim("w1")
        assert not queue.finished(grid_id)
        queue.complete(lease)
        assert queue.finished(grid_id)
        assert queue.counts(grid_id) == {"pending": 0, "leased": 0,
                                         "done": 1}


class TestWorkAndMerge:
    def test_single_worker_drains_and_merge_is_bit_identical(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        stats = work(tmp_path / "q", worker="solo",
                     config=EngineConfig(batch_size=2))
        assert queue.finished(grid_id)
        n_leases = -(-len(SMALL) // 3)
        assert stats.leases_claimed == n_leases
        assert stats.leases_completed == n_leases
        assert stats.leases_lost == 0
        assert stats.rows_written == len(SMALL)
        assert merge_results(tmp_path / "q") == run_grid(SMALL)

    def test_max_leases_bounds_the_drain(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=3)
        stats = work(tmp_path / "q", worker="w1", max_leases=1)
        assert stats.leases_claimed == 1
        assert not queue.finished(grid_id)

    def test_merge_refuses_an_undrained_grid(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(SMALL, lease_jobs=3)
        with pytest.raises(ValueError, match="not drained"):
            merge_results(tmp_path / "q")

    def test_merge_detects_missing_rows(self, tmp_path):
        # leases completed without rows: coverage check must fire
        queue = LeaseQueue(tmp_path / "q")
        queue.enqueue(SMALL, lease_jobs=len(SMALL))
        queue.complete(queue.claim("cheater"))
        with pytest.raises(ValueError, match="missing"):
            merge_results(tmp_path / "q")

    def test_merge_detects_conflicting_duplicates(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=len(SMALL))
        work(tmp_path / "q", worker="honest")
        evil = queue.results_dir / "evil.jsonl"
        evil.write_text(json.dumps(
            {"seq": 0, "grid": grid_id, "row": {"bogus": 1}}) + "\n")
        with pytest.raises(ValueError, match="determinism"):
            merge_results(tmp_path / "q")

    def test_merge_ignores_torn_tails_and_foreign_grids(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        work(tmp_path / "q", worker="w1")
        extra = queue.results_dir / "crashed.jsonl"
        extra.write_text(
            json.dumps({"seq": 0, "grid": "other-grid",
                        "row": {"x": 1}}) + "\n"
            + '{"seq": 1, "grid": "' + grid_id + '", "ro')  # torn tail
        assert merge_results(tmp_path / "q") == run_grid(SMALL)

    def test_two_workers_drain_one_grid_without_running_a_job_twice(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=2)
        config = EngineConfig(cache_dir=tmp_path / "cache", batch_size=2)
        results = {}

        def drain(name):
            results[name] = work(tmp_path / "q", worker=name,
                                 config=config, poll=0.01)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert queue.finished(grid_id)
        total_claimed = sum(s.leases_claimed for s in results.values())
        assert total_claimed == -(-len(SMALL) // 2)
        # shared cache proves no job executed twice: every job was a
        # miss exactly once across both workers
        assert sum(s.job_misses for s in results.values()) == len(SMALL)
        assert sum(s.job_hits for s in results.values()) == 0
        assert merge_results(tmp_path / "q") == run_grid(SMALL)


_DOOMED_WORKER = """
import os, signal, sys
from repro.runner import EngineConfig, LeaseQueue, run_grid
from repro.runner import leasequeue as lq

root, cache = sys.argv[1], sys.argv[2]
queue = LeaseQueue(root)
lease = queue.claim("doomed", ttl=0.5)
assert lease is not None

class DoomedSink(lq._LeaseSink):
    def write_many(self, rows):
        super().write_many(rows)
        # leave a torn tail, then die without warning
        self._fh.write('{"seq": %d, "grid": "' % self.lease.start)
        self._fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

run_grid(queue.spec(lease.grid_id),
         EngineConfig(sink=DoomedSink(queue, lease, 0.5), batch_size=2,
                      cache_dir=cache),
         job_slice=(lease.start, lease.stop))
"""


class TestCrashRecovery:
    def test_sigkilled_worker_lease_is_reclaimed_and_merge_matches(
            self, tmp_path):
        queue = LeaseQueue(tmp_path / "q")
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        cache = tmp_path / "cache"
        proc = subprocess.run(
            [sys.executable, "-c", _DOOMED_WORKER,
             str(tmp_path / "q"), str(cache)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -9, proc.stderr
        assert queue.counts(grid_id)["leased"] == 1
        with pytest.raises(ValueError, match="not drained"):
            merge_results(tmp_path / "q")
        # the survivor polls until the doomed lease's TTL lapses,
        # reclaims it, and finishes the grid
        stats = work(tmp_path / "q", worker="survivor", poll=0.05,
                     config=EngineConfig(cache_dir=cache, batch_size=2))
        assert queue.finished(grid_id)
        assert stats.leases_reclaimed == 1
        assert stats.leases_lost == 0
        # the doomed worker cached its first batch before dying, so the
        # survivor replays those jobs from cache instead of recomputing
        assert stats.job_hits >= 2
        # duplicate seqs (doomed's flushed batch + survivor's re-run)
        # and the torn tail are both absorbed; rows are bit-identical
        # to a single-process run
        assert merge_results(tmp_path / "q") == run_grid(SMALL)


class TestSubsetEnqueueAndStatus:
    """Partial enqueue (cache-aware submits) and the shared
    ``grid_status`` payload the CLI and the grid service both serve."""

    def test_contiguous_runs_groups_and_caps(self):
        from repro.runner.leasequeue import _contiguous_runs
        assert _contiguous_runs([0, 1, 2, 5, 6, 9], 2) == \
            [(0, 2), (2, 3), (5, 7), (9, 10)]
        assert _contiguous_runs([], 4) == []
        assert _contiguous_runs([3], 4) == [(3, 4)]

    def test_enqueue_subset_leases_only_those_jobs(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=4, jobs=[0, 1, 2, 5])
        # grid total is still the full spec; only the subset is leased
        assert queue.total(grid_id) == len(SMALL)
        assert queue.outstanding_jobs() == 4
        ranges = []
        while (lease := queue.claim("w")) is not None:
            ranges.append((lease.start, lease.stop))
        assert ranges == [(0, 3), (5, 6)] or ranges == [(0, 4), (5, 6)]

    def test_enqueue_subset_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            LeaseQueue(tmp_path).enqueue(SMALL, jobs=[0, len(SMALL)])

    def test_enqueue_empty_subset_is_immediately_drained(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, jobs=[])
        assert queue.claim("w") is None
        assert queue.finished(grid_id)
        assert queue.outstanding_jobs() == 0

    def test_grid_status_transitions(self, tmp_path):
        from repro.runner import grid_status
        queue = LeaseQueue(tmp_path)
        grid_id = queue.enqueue(SMALL, lease_jobs=4)
        status = grid_status(tmp_path)
        assert status["grid"] == grid_id
        assert status["state"] == "pending"
        assert status["jobs"]["pending"] == len(SMALL)
        assert "rows" not in status
        work(tmp_path, worker="w", config=EngineConfig(batch_size=4))
        done = grid_status(tmp_path, grid_id)
        assert done["state"] == "done"
        assert done["jobs"]["done"] == len(SMALL)
        assert done["jobs"]["pending"] == 0
        assert done["rows"] == run_grid(SMALL)
        assert grid_status(tmp_path, grid_id,
                           include_rows=False).get("rows") is None

    def test_grid_status_degraded_on_stale_heartbeat(self, tmp_path):
        from repro.runner import grid_status
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.enqueue(SMALL, lease_jobs=len(SMALL))
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0  # the worker never heartbeats again
        status = grid_status(queue)
        assert status["state"] == "degraded"
        assert status["stale"] >= 1

    def test_queue_claim_lock_fault_heals_via_busy_retry(self, tmp_path):
        from repro.runner import FaultPlan, FaultSpec, busy_stats
        from repro.runner import faults as faults_mod
        queue = LeaseQueue(tmp_path)
        queue.enqueue(SMALL, lease_jobs=4)
        faults_mod.activate(FaultPlan(specs=(
            FaultSpec(site="queue_claim", nth=(1,), kind="lock"),)))
        before = busy_stats()["sqlite_busy_retries"]
        lease = queue.claim("w")
        assert lease is not None  # the transient lock healed in-place
        assert busy_stats()["sqlite_busy_retries"] > before
