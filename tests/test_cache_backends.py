"""Tests for the JobCache backends (JSON dir vs SQLite), the `repro
cache` admin CLI, and the nightly benchmark comparator."""

import json
import time

import pytest

from repro.runner import (EngineConfig, GridSpec, JobCache, RunStats,
                          migrate_cache, run_grid)
from repro.runner.jobcache import DB_NAME

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


def _cache_stats(stats):
    return {k: stats[k] for k in ("job_hits", "job_misses", "opt_hits",
                                  "opt_solved")}


class TestSqliteBackend:
    def test_hit_miss_parity_with_json(self, tmp_path):
        json_cache = JobCache(tmp_path / "json", backend="json")
        sq_cache = JobCache(tmp_path / "sq", backend="sqlite")
        stats = {j: RunStats() for j in ("json1", "json2", "sq1", "sq2")}
        rows_j1 = run_grid(SMALL, EngineConfig(cache_dir=json_cache),
                           stats=stats["json1"])
        rows_j2 = run_grid(SMALL, EngineConfig(cache_dir=json_cache),
                           stats=stats["json2"])
        rows_s1 = run_grid(SMALL, EngineConfig(cache_dir=sq_cache),
                           stats=stats["sq1"])
        rows_s2 = run_grid(SMALL, EngineConfig(cache_dir=sq_cache),
                           stats=stats["sq2"])
        assert rows_j1 == rows_j2 == rows_s1 == rows_s2
        assert _cache_stats(stats["json1"]) == _cache_stats(stats["sq1"])
        assert _cache_stats(stats["json2"]) == _cache_stats(stats["sq2"])
        assert stats["sq2"]["job_hits"] == len(SMALL)

    def test_parallel_rows_bit_identical_under_both_backends(self,
                                                            tmp_path):
        # Hermetic by construction (the PR 7 full-suite-only flake):
        # every combo forks its pool from an identical parent state —
        # no inherited pool, no warm sweep/instance memos — so a state
        # leak from an earlier test cannot skew one combo against the
        # in-process reference.  The status check turns a silent
        # wrong-row mismatch into a diagnosable quarantine report.
        from repro import kernels
        from repro.runner import instancestore, shutdown_pool
        rows = {}
        for backend in ("json", "sqlite"):
            for n_jobs in (1, 4):
                shutdown_pool()
                kernels.clear_sweep_cache()
                instancestore.clear_memo()
                cache = JobCache(tmp_path / f"{backend}-{n_jobs}",
                                 backend=backend)
                config = EngineConfig(n_jobs=n_jobs, cache_dir=cache)
                rows[(backend, n_jobs)] = run_grid(SMALL, config)
        shutdown_pool()
        for combo, combo_rows in rows.items():
            failed = [r for r in combo_rows
                      if r.get("status") == "failed"]
            assert not failed, (combo, failed)
        reference = rows[("json", 1)]
        assert all(r == reference for r in rows.values())

    def test_get_put_roundtrip_and_miss(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        assert cache.get("jobs", "k1") is None
        cache.put("jobs", "k1", {"cost": 1.5, "n": 2})
        assert cache.get("jobs", "k1") == {"cost": 1.5, "n": 2}
        cache.put("jobs", "k1", {"cost": 2.5})  # overwrite: last wins
        assert cache.get("jobs", "k1") == {"cost": 2.5}
        assert cache.get("instances", "k1") is None  # kind-scoped

    def test_corrupt_database_is_miss_then_heals(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k1", {"cost": 1.0})
        del cache
        db = tmp_path / DB_NAME
        db.write_bytes(b"this is not a sqlite database at all")
        for wal in (tmp_path / f"{DB_NAME}-wal", tmp_path / f"{DB_NAME}-shm"):
            wal.unlink(missing_ok=True)
        reopened = JobCache(tmp_path)  # auto-detects sqlite by filename
        assert reopened.backend == "sqlite"
        assert reopened.get("jobs", "k1") is None  # corruption = miss
        reopened.put("jobs", "k2", {"cost": 2.0})  # heals: fresh db
        assert reopened.get("jobs", "k2") == {"cost": 2.0}
        assert list(tmp_path.glob(f"{DB_NAME}.corrupt.*"))

    def test_corrupt_record_is_miss(self, tmp_path):
        import sqlite3
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k1", {"cost": 1.0})
        with sqlite3.connect(tmp_path / DB_NAME) as conn:
            conn.execute("UPDATE records SET record = '{broken'")
        assert cache.get("jobs", "k1") is None

    def test_concurrent_writers_same_key(self, tmp_path):
        a = JobCache(tmp_path, backend="sqlite")
        b = JobCache(tmp_path, backend="sqlite")
        for i in range(20):
            a.put("jobs", "shared", {"writer": "a", "i": i})
            b.put("jobs", "shared", {"writer": "b", "i": i})
        assert a.get("jobs", "shared") == {"writer": "b", "i": 19}
        assert b.get("jobs", "shared") == {"writer": "b", "i": 19}

    def test_stats_prune_clear(self, tmp_path):
        cache = JobCache(tmp_path, backend="sqlite")
        now = time.time()
        cache.put("jobs", "old", {"v": 1}, created=now - 100 * 86400)
        cache.put("jobs", "new", {"v": 2})
        cache.put("instances", "i1", {"v": 3})
        info = cache.stats()
        assert info["backend"] == "sqlite"
        assert info["entries"] == {"jobs": 2, "instances": 1}
        assert info["total"] == 3 and info["bytes"] > 0
        assert cache.prune(30 * 86400) == 1  # only 'old' goes
        assert cache.get("jobs", "old") is None
        assert cache.get("jobs", "new") == {"v": 2}
        assert cache.clear() == 2
        assert cache.stats()["total"] == 0

    def test_json_stats_prune_clear(self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        now = time.time()
        cache.put("jobs", "old", {"v": 1}, created=now - 100 * 86400)
        cache.put("jobs", "new", {"v": 2})
        info = cache.stats()
        assert info["backend"] == "json"
        assert info["entries"] == {"jobs": 2} and info["bytes"] > 0
        assert cache.prune(30 * 86400) == 1
        assert cache.get("jobs", "old") is None
        assert cache.clear() == 1
        assert cache.stats()["total"] == 0

    def test_read_operations_do_not_create_database(self, tmp_path):
        """A read-only op on the sqlite backend must not materialize an
        empty cache.db — that would flip a JSON dir's auto-detection
        and hide its records."""
        json_cache = JobCache(tmp_path, backend="json")
        json_cache.put("jobs", "k1", {"v": 1})
        sq_view = JobCache(tmp_path, backend="sqlite")
        assert sq_view.get("jobs", "k1") is None
        assert sq_view.stats()["total"] == 0
        assert sq_view.prune(0) == 0 and sq_view.clear() == 0
        assert list(sq_view.iter_records()) == []
        assert not (tmp_path / DB_NAME).exists()
        assert JobCache(tmp_path).backend == "json"  # detection intact
        assert JobCache(tmp_path).get("jobs", "k1") == {"v": 1}

    def test_path_only_for_json(self, tmp_path):
        assert JobCache(tmp_path, backend="json").path("jobs", "ab12")
        with pytest.raises(ValueError, match="json backend"):
            JobCache(tmp_path, backend="sqlite").path("jobs", "ab12")

    def test_old_database_without_accessed_column_still_opens(self,
                                                              tmp_path):
        """Databases written before the LRU column existed migrate in
        place (ALTER TABLE) on first open."""
        import sqlite3
        db = tmp_path / DB_NAME
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE records (kind TEXT NOT NULL, key TEXT "
                     "NOT NULL, record TEXT NOT NULL, created REAL NOT "
                     "NULL, PRIMARY KEY (kind, key))")
        conn.execute("INSERT INTO records VALUES ('jobs', 'k1', "
                     "'{\"v\": 1}', 1.0)")
        conn.commit()
        conn.close()
        cache = JobCache(tmp_path, backend="sqlite")
        assert cache.get("jobs", "k1") == {"v": 1}
        cache.put("jobs", "k2", {"v": 2})
        assert cache.prune_bytes(10 ** 9) == 0  # under bound: no-op

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            JobCache(tmp_path, backend="mongodb")


class TestPruneBytes:
    """Size-bounded LRU eviction (`repro cache prune --max-bytes`)."""

    def _fill(self, cache, n=24):
        for i in range(n):
            cache.put("jobs", f"k{i:02d}", {"v": i, "pad": "x" * 4000})

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_bounds_the_cache(self, tmp_path, backend):
        cache = JobCache(tmp_path, backend=backend)
        self._fill(cache)
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        before = cache.stats()
        bound = before["bytes"] // 3
        removed = cache.prune_bytes(bound)
        after = cache.stats()
        assert removed > 0
        assert after["total"] == before["total"] - removed
        assert after["total"] > 0  # bound keeps part of the cache
        assert after["bytes"] <= bound

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_noop_under_bound(self, tmp_path, backend):
        cache = JobCache(tmp_path, backend=backend)
        self._fill(cache, n=3)
        assert cache.prune_bytes(10 ** 9) == 0
        assert cache.stats()["total"] == 3

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_prune_bytes_evicts_least_recently_accessed(self, tmp_path,
                                                        backend):
        cache = JobCache(tmp_path, backend=backend)
        now = time.time()
        # k0 written longest ago but *read* recently; k1 written later
        # but never read since -> k1 is the LRU victim
        cache.put("jobs", "k0", {"v": 0, "pad": "x" * 300},
                  created=now - 1000)
        cache.put("jobs", "k1", {"v": 1, "pad": "x" * 300},
                  created=now - 500)
        if backend == "json":
            # file timestamps need a visible gap on coarse filesystems
            import os
            p0 = cache.path("jobs", "k0")
            p1 = cache.path("jobs", "k1")
            os.utime(p0, (now - 1000, now - 1000))
            os.utime(p1, (now - 500, now - 500))
        assert cache.get("jobs", "k0") == {"v": 0, "pad": "x" * 300}
        removed = cache.prune_bytes(1)  # evict down toward empty
        assert removed >= 1
        victims = {key for _kind, key, _rec, _c in cache.iter_records()}
        # eviction order followed last-access: k1 left before k0
        if cache.stats()["total"] == 1:
            assert victims == {"k0"}

    def test_new_databases_use_incremental_vacuum(self, tmp_path):
        """Satellite acceptance: caches created by this backend keep a
        free-page map, so eviction rounds reclaim space with
        ``PRAGMA incremental_vacuum`` instead of a full VACUUM."""
        import sqlite3
        cache = JobCache(tmp_path, backend="sqlite")
        self._fill(cache)
        assert cache.stats()["auto_vacuum"] == "incremental"
        mode = sqlite3.connect(tmp_path / DB_NAME).execute(
            "PRAGMA auto_vacuum").fetchone()[0]
        assert mode == 2  # INCREMENTAL
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        before = cache.stats()
        bound = before["bytes"] // 3
        removed = cache.prune_bytes(bound)
        after = cache.stats()
        assert removed > 0
        assert after["bytes"] <= bound  # pages actually came back

    def test_legacy_database_falls_back_to_full_vacuum(self, tmp_path):
        """A cache.db from before the incremental mode still prunes
        (full VACUUM per round) and reports its vacuum mode."""
        from repro.runner.jobcache import connect_wal
        conn = connect_wal(tmp_path / DB_NAME)  # auto_vacuum=NONE
        conn.execute("CREATE TABLE records (kind TEXT NOT NULL, key "
                     "TEXT NOT NULL, record TEXT NOT NULL, created "
                     "REAL NOT NULL, accessed REAL, "
                     "PRIMARY KEY (kind, key))")
        conn.close()
        cache = JobCache(tmp_path)
        self._fill(cache)
        assert cache.stats()["auto_vacuum"] == "none"
        cache.prune_bytes(10 ** 18)  # no-op bound, drains the WAL
        bound = cache.stats()["bytes"] // 3
        assert cache.prune_bytes(bound) > 0
        assert cache.stats()["bytes"] <= bound

    def test_json_backend_reports_no_vacuum_mode(self, tmp_path):
        cache = JobCache(tmp_path, backend="json")
        self._fill(cache, n=2)
        assert "auto_vacuum" not in cache.stats()

    def test_stats_cli_reports_vacuum_mode(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "k", {"v": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "vacuum:  incremental" in capsys.readouterr().out

    def test_prune_bytes_cli(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="json")
        self._fill(cache)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-bytes", "1k"]) == 0
        out = capsys.readouterr().out
        assert "least-recently-used" in out
        assert JobCache(tmp_path).stats()["bytes"] <= 1024
        with pytest.raises(SystemExit, match="older-than"):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="could not parse size"):
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--max-bytes", "huge"])

    def test_prune_age_and_bytes_compose(self, tmp_path, capsys):
        from repro.cli import main
        cache = JobCache(tmp_path, backend="sqlite")
        cache.put("jobs", "old", {"v": 1},
                  created=time.time() - 100 * 86400)
        self._fill(cache, n=6)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "30d", "--max-bytes", "1g"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 records" in out
        assert "evicted 0" in out


class TestMigration:
    def test_migrate_preserves_records_and_timestamps(self, tmp_path):
        src = JobCache(tmp_path, backend="json")
        old = time.time() - 50 * 86400
        src.put("jobs", "k1", {"cost": 1.0}, created=old)
        src.put("instances", "k2", {"opt": 3.5})
        dst = JobCache(tmp_path, backend="sqlite")
        assert migrate_cache(src, dst) == 2
        assert dst.get("jobs", "k1") == {"cost": 1.0}
        assert dst.get("instances", "k2") == {"opt": 3.5}
        assert dst.prune(30 * 86400) == 1  # old timestamp survived
        # auto-detect now prefers the migrated cache.db
        assert JobCache(tmp_path).backend == "sqlite"

    def test_engine_reads_migrated_cache(self, tmp_path):
        rows = run_grid(SMALL, EngineConfig(
            cache_dir=JobCache(tmp_path, backend="json")))
        migrate_cache(JobCache(tmp_path, backend="json"),
                      JobCache(tmp_path, backend="sqlite"))
        stats = RunStats()
        again = run_grid(SMALL, EngineConfig(cache_dir=JobCache(tmp_path)),
                         stats=stats)
        assert again == rows
        assert stats["job_hits"] == len(SMALL)


class TestCacheCLI:
    def _populate(self, tmp_path):
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path))

    def test_stats(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "backend: json" in out and "jobs" in out
        assert "instances" in out

    def test_migrate_then_stats(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "migrate", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 6 records" in out  # 4 jobs + 2 instance optima
        assert (tmp_path / DB_NAME).exists()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "backend: sqlite" in capsys.readouterr().out
        # second migrate refuses (already sqlite)
        with pytest.raises(SystemExit, match="already holds"):
            main(["cache", "migrate", "--cache-dir", str(tmp_path)])

    def test_prune_and_clear(self, tmp_path, capsys):
        from repro.cli import main
        self._populate(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "30d"]) == 0
        assert "pruned 0 records" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--older-than", "0s"]) == 0
        assert "pruned 6 records" in capsys.readouterr().out
        self._populate(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 6 records" in capsys.readouterr().out

    def test_bad_age_rejected(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="could not parse age"):
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--older-than", "soon"])

    def test_sweep_accepts_backend_and_store(self, tmp_path, capsys):
        from repro.cli import main
        args = ["sweep", "--scenarios", "diurnal", "--algorithms",
                "lcp,threshold", "--seeds", "0", "-T", "16",
                "--cache-dir", str(tmp_path / "c"),
                "--cache-backend", "sqlite",
                "--store-dir", str(tmp_path / "s")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 2 misses" in out and "store:" in out
        assert (tmp_path / "c" / DB_NAME).exists()
        assert main(args) == 0
        assert "cache: 2 hits, 0 misses" in capsys.readouterr().out


class TestComparator:
    def _write(self, root, name, doc):
        root.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(json.dumps(doc))

    def _doc(self, ratio=1.1, jps=100.0):
        return {"results": [{"T": 1000, "variant": "rebuild",
                             "jobs_per_sec": jps, "seconds": 1.0,
                             "mean_ratio": {"lcp": ratio}}]}

    def test_no_previous_dir_passes(self, tmp_path, capsys):
        import benchmarks.compare_results as cr
        cur = tmp_path / "cur"
        self._write(cur, "BENCH_engine.json", self._doc())
        assert cr.main([str(tmp_path / "missing"), str(cur)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_identical_passes(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc())
        self._write(cur, "BENCH_engine.json", self._doc())
        assert cr.main([str(prev), str(cur)]) == 0

    def test_ratio_drift_fails(self, tmp_path, capsys):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(ratio=1.1))
        self._write(cur, "BENCH_engine.json", self._doc(ratio=1.3))
        assert cr.main([str(prev), str(cur)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_runtime_noise_within_tolerance_passes(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(jps=100.0))
        self._write(cur, "BENCH_engine.json", self._doc(jps=80.0))
        assert cr.main([str(prev), str(cur)]) == 0  # 20% < 50% time tol

    def test_runtime_collapse_fails(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc(jps=100.0))
        self._write(cur, "BENCH_engine.json", self._doc(jps=20.0))
        assert cr.main([str(prev), str(cur)]) == 1

    def test_added_rows_do_not_misalign(self, tmp_path):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._doc())
        extended = self._doc()
        extended["results"].insert(0, {"T": 500, "variant": "rebuild",
                                       "jobs_per_sec": 9999.0,
                                       "mean_ratio": {"lcp": 9.9}})
        self._write(cur, "BENCH_engine.json", extended)
        assert cr.main([str(prev), str(cur)]) == 0  # keyed by (T, variant)

    def _two_rows(self, version):
        doc = self._doc()
        doc["version"] = version
        doc["results"].append({"T": 1000, "variant": "batched",
                               "jobs_per_sec": 50.0, "seconds": 2.0,
                               "mean_ratio": {"lcp": 1.1}})
        return doc

    def test_dropped_row_fails_when_version_unchanged(self, tmp_path,
                                                      capsys):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._two_rows(4))
        current = self._two_rows(4)
        del current["results"][1]
        self._write(cur, "BENCH_engine.json", current)
        assert cr.main([str(prev), str(cur)]) == 1
        assert "1000-batched" in capsys.readouterr().out

    def test_dropped_row_reported_when_version_changed(self, tmp_path,
                                                       capsys):
        import benchmarks.compare_results as cr
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        self._write(prev, "BENCH_engine.json", self._two_rows(4))
        current = self._two_rows(5)
        del current["results"][1]
        self._write(cur, "BENCH_engine.json", current)
        assert cr.main([str(prev), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "1000-batched" in out and "dropped" in out
