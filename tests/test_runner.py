"""Tests for the batch runner: registry, scenarios, engine, cache, CLI."""

import json
import pathlib

import numpy as np
import pytest

import repro.offline
import repro.online
from repro.online.base import OnlineAlgorithm
from repro.runner import (EngineConfig, GridSpec, JobCache, RunStats,
                          aggregate_rows, algorithm_names, algorithm_table,
                          build_instance, get_scenario, get_spec,
                          instance_key, job_key, make_algorithm,
                          make_solver, run_grid, scenario_names,
                          solver_names, trace_suite)
from repro.runner import engine as engine_mod
from tests.conftest import random_convex_instance


class TestRegistry:
    def test_every_online_name_resolves(self):
        for name in algorithm_names():
            algo = make_algorithm(name, lookahead=2, seed=7)
            assert isinstance(algo, OnlineAlgorithm), name

    def test_every_general_solver_name_resolves_and_solves(self, rng):
        inst = random_convex_instance(rng, 5, 3, 1.5)
        for name in solver_names("general"):
            res = make_solver(name)(inst)
            assert res.cost >= 0, name
            assert res.schedule.shape == (inst.T,), name

    def test_exact_solvers_agree_with_dp(self, rng):
        from repro.offline import solve_dp
        inst = random_convex_instance(rng, 6, 4, 2.0)
        opt = solve_dp(inst).cost
        for name in solver_names("general"):
            spec = get_spec(name)
            if spec.optimal and spec.discrete:
                assert make_solver(name)(inst).cost == pytest.approx(opt), \
                    name

    def test_registry_covers_every_exported_online_algorithm(self):
        covered = {type(make_algorithm(name)) for name in algorithm_names()}
        for export in repro.online.__all__:
            obj = getattr(repro.online, export)
            if (isinstance(obj, type) and issubclass(obj, OnlineAlgorithm)
                    and obj is not OnlineAlgorithm):
                assert obj in covered, f"{export} missing from registry"

    def test_registry_covers_every_exported_solver(self):
        # includes solve_restricted, which runs under the restricted
        # pipeline on RestrictedInstance inputs
        resolved = {make_solver(name) for name in solver_names()}
        for export in repro.offline.__all__:
            if export.startswith("solve_"):
                assert getattr(repro.offline, export) in resolved, \
                    f"{export} missing from registry"

    def test_pipeline_entries(self):
        assert get_spec("restricted").pipeline == "restricted"
        for name in ("dp_hetero", "static_hetero", "greedy_hetero"):
            assert get_spec(name).pipeline == "hetero", name
        assert get_spec("lcp").pipeline == "general"
        assert "restricted" in solver_names("restricted")
        assert "dp_hetero" not in solver_names("general")

    def test_kind_mixups_rejected(self):
        with pytest.raises(ValueError, match="offline solver"):
            make_algorithm("dp")
        with pytest.raises(ValueError, match="online algorithm"):
            make_solver("lcp")
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_spec("nope")

    def test_table_lists_every_name(self):
        table = algorithm_table()
        for name in algorithm_names() + solver_names():
            assert f"`{name}`" in table


class TestScenarios:
    def test_every_scenario_builds_reproducibly(self):
        for name in scenario_names():
            sc = get_scenario(name)
            assert sc.pipelines, name
            for pipeline in sc.pipelines:
                a = build_instance(name, 12, seed=3, pipeline=pipeline)
                b = build_instance(name, 12, seed=3, pipeline=pipeline)
                assert a.T == 12
                payload = {"restricted": "loads",
                           "game": None}.get(pipeline, "F")
                if payload is None:  # games: compare the dense payloads
                    pa, pb = a.store_payload(), b.store_payload()
                    if pa is None:  # adaptive game: dataclass equality
                        assert a == b
                    else:
                        for key in pa[0]:
                            np.testing.assert_array_equal(pa[0][key],
                                                          pb[0][key])
                else:
                    np.testing.assert_array_equal(getattr(a, payload),
                                                  getattr(b, payload))

    def test_seeds_vary_random_scenarios(self):
        a = build_instance("random-convex", 12, seed=0)
        b = build_instance("random-convex", 12, seed=1)
        assert not np.array_equal(a.F, b.F)

    def test_tag_filter(self):
        assert "adversarial-hinge" in scenario_names("adversarial")
        assert "diurnal" not in scenario_names("adversarial")

    def test_unsupported_pipeline_rejected(self):
        with pytest.raises(ValueError, match="no 'hetero' builder"):
            build_instance("diurnal", 12, pipeline="hetero")
        with pytest.raises(ValueError, match="no 'general' builder"):
            build_instance("hetero-fleet", 12)

    def test_restricted_encoding_agrees_with_structural_view(self):
        """The general-pipeline encoding of restricted-diurnal and its
        structural RestrictedInstance share loads and optimum."""
        from repro.analysis import optimal_cost
        from repro.offline import solve_restricted
        ri = build_instance("restricted-diurnal", 16, seed=1,
                            pipeline="restricted")
        enc = build_instance("restricted-diurnal", 16, seed=1)
        assert optimal_cost(enc) == pytest.approx(solve_restricted(ri).cost)

    def test_trace_suite_families(self):
        suite = trace_suite(T=24)
        assert [name for name, _ in suite] == [
            "diurnal", "msr-like", "hotmail-like", "bursty", "onoff"]
        assert all(inst.T == 24 for _, inst in suite)

    def test_benchmarks_conftest_reuses_catalog(self):
        # the benchmark suite must not re-grow its own copy
        root = pathlib.Path(__file__).resolve().parent.parent
        text = (root / "benchmarks" / "conftest.py").read_text()
        assert "from repro.runner.scenarios import trace_suite" in text
        assert "from repro.workloads import random_convex_instance" in text


SMALL = GridSpec(scenarios=("diurnal", "random-convex"),
                 algorithms=("lcp", "randomized"),
                 seeds=(0, 1), sizes=(24,))


def _cache_stats(stats: RunStats) -> dict:
    """Just the result-cache counters (instance-resolution counters are
    process-wide and depend on what earlier tests left in the memo)."""
    return {k: stats[k] for k in ("job_hits", "job_misses", "opt_hits",
                                  "opt_solved")}


def _count_calls(monkeypatch, name):
    """Wrap a module-level engine function, recording its arguments."""
    calls = []
    real = getattr(engine_mod, name)
    monkeypatch.setattr(engine_mod, name,
                        lambda arg: calls.append(arg) or real(arg))
    return calls


class TestEngine:
    def test_rows_match_jobs(self):
        rows = run_grid(SMALL)
        assert len(rows) == len(SMALL) == 8
        assert all(1.0 - 1e-9 <= r["ratio"] for r in rows)
        assert all(r["pipeline"] == "general" for r in rows)

    def test_parallel_identical_to_serial(self):
        rows1 = run_grid(SMALL, EngineConfig(n_jobs=1))
        rows4 = run_grid(SMALL, EngineConfig(n_jobs=4))
        assert rows1 == rows4  # bit-identical, including float fields

    def test_offline_solver_jobs_have_ratio_one(self):
        rows = run_grid(GridSpec(scenarios=("diurnal",),
                                 algorithms=("binary_search", "dp"),
                                 seeds=(0,), sizes=(16,)))
        assert all(r["ratio"] == pytest.approx(1.0) for r in rows)

    def test_instance_seed_pins_the_instance(self):
        rows = run_grid(GridSpec(scenarios=("diurnal",),
                                 algorithms=("randomized",),
                                 seeds=(0, 1, 2), sizes=(24,),
                                 instance_seed=4))
        assert len({r["opt"] for r in rows}) == 1   # same instance
        assert len({r["cost"] for r in rows}) == 3  # different rounding

    def test_opt_solved_once_per_instance(self, monkeypatch):
        """Phase 1 computes each distinct instance's optimum exactly
        once, however many algorithms the grid fans out."""
        solves = _count_calls(monkeypatch, "_solve_instance")
        spec = GridSpec(scenarios=("diurnal", "sawtooth"),
                        algorithms=("lcp", "threshold", "memoryless"),
                        seeds=(0, 1), sizes=(16,))
        rows = run_grid(spec)
        assert len(rows) == 12          # 2 scenarios x 3 algorithms x 2
        assert len(solves) == 4         # 2 scenarios x 2 seeds: once each
        assert len(set(solves)) == 4

    def test_hoisted_opt_matches_per_job_recompute(self):
        """The phase-1 hoisted optimum equals what each job would have
        computed for itself (the pre-two-phase behavior)."""
        from repro.analysis import optimal_cost
        rows = run_grid(GridSpec(scenarios=("diurnal", "bursty"),
                                 algorithms=("lcp", "followmin"),
                                 seeds=(0, 1), sizes=(20,)))
        for row in rows:
            inst = build_instance(row["scenario"], row["T"], row["seed"])
            assert row["opt"] == optimal_cost(inst), row

    def test_mismatched_pipeline_fails_fast(self):
        with pytest.raises(ValueError, match="needs the 'restricted'"):
            run_grid(GridSpec(scenarios=("diurnal",),
                              algorithms=("restricted",)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            GridSpec(scenarios=(), algorithms=("lcp",))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                     seeds=(-1,))
        with pytest.raises(ValueError, match="positive horizon"):
            GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                     sizes=(0,))

    def test_lookahead_must_be_nonnegative_integer(self):
        # each of these used to build, then quarantine every job at run
        # time (or, for True, key the cache apart from lookahead=1)
        for bad in (-1, "2", 1.5, True):
            with pytest.raises(ValueError, match="lookahead"):
                GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                         lookahead=bad)
        spec = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        lookahead=np.int64(2))
        assert type(spec.lookahead) is int and spec.lookahead == 2
        assert GridSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            == spec

    def test_seeds_sizes_and_instance_seed_must_be_integers(self):
        # int() used to truncate 2.9 and 16.7, and True / 1.5 were kept
        # as given (True keyed the job cache apart from 1)
        base = {"scenarios": ("diurnal",), "algorithms": ("lcp",)}
        for field, bad in [("seeds", (2.9,)), ("seeds", (True,)),
                           ("seeds", ("1",)), ("sizes", (16.7,)),
                           ("sizes", (True,)), ("sizes", ("16",)),
                           ("instance_seed", True),
                           ("instance_seed", 1.5),
                           ("instance_seed", -1)]:
            with pytest.raises(ValueError, match=field.split("_")[-1]):
                GridSpec(**base, **{field: bad})
        spec = GridSpec(**base, seeds=(np.int64(3),), sizes=(np.int32(16),),
                        instance_seed=np.int64(1))
        assert (type(spec.seeds[0]), type(spec.sizes[0]),
                type(spec.instance_seed)) == (int, int, int)
        plain = GridSpec(**base, seeds=(3,), sizes=(16,), instance_seed=1)
        assert spec == plain and spec.cache_key() == plain.cache_key()
        assert [job_key(j) for j in spec.iter_jobs()] == \
            [job_key(j) for j in plain.iter_jobs()]

    def test_aggregate_keeps_sizes_apart(self):
        rows = run_grid(GridSpec(scenarios=("sawtooth",),
                                 algorithms=("lcp",), seeds=(0,),
                                 sizes=(16, 32)))
        agg = aggregate_rows(rows)
        assert [a["T"] for a in agg] == [16, 32]  # never averaged across T

    def test_aggregate_rows(self):
        rows = run_grid(SMALL)
        agg = aggregate_rows(rows)
        assert len(agg) == 4  # 2 scenarios x 2 algorithms
        first = agg[0]
        assert first["n"] == 2
        assert first["max_ratio"] >= first["mean_ratio"] >= 1.0 - 1e-9


class TestPipelines:
    def test_restricted_rows_flow_through_aggregates(self):
        spec = GridSpec(scenarios=("restricted-diurnal",),
                        algorithms=("restricted", "lcp"),
                        seeds=(0, 1), sizes=(16,))
        rows = run_grid(spec)
        by_alg = {r["algorithm"]: r for r in rows}
        assert by_alg["restricted"]["pipeline"] == "restricted"
        assert by_alg["lcp"]["pipeline"] == "general"
        # the structural DP *is* the restricted optimum
        assert all(r["ratio"] == pytest.approx(1.0) for r in rows
                   if r["algorithm"] == "restricted")
        # both pipelines see the same loads, so their optima agree and
        # lcp's ratio is comparable across the mixed table
        assert all(r["ratio"] >= 1.0 - 1e-9 for r in rows)
        agg = aggregate_rows(rows)
        assert {a["algorithm"] for a in agg} == {"restricted", "lcp"}
        assert all(a["n"] == 2 for a in agg)

    def test_hetero_rows_flow_through_aggregates(self):
        spec = GridSpec(scenarios=("hetero-fleet",),
                        algorithms=("dp_hetero", "static_hetero",
                                    "greedy_hetero"),
                        seeds=(0,), sizes=(24,))
        rows = run_grid(spec)
        assert all(r["pipeline"] == "hetero" for r in rows)
        by_alg = {r["algorithm"]: r for r in rows}
        assert by_alg["dp_hetero"]["ratio"] == pytest.approx(1.0)
        assert by_alg["static_hetero"]["ratio"] >= 1.0 - 1e-9
        assert by_alg["greedy_hetero"]["ratio"] >= 1.0 - 1e-9
        agg = aggregate_rows(rows)
        assert {a["algorithm"] for a in agg} == set(spec.algorithms)

    def test_hetero_parallel_identical_to_serial(self):
        spec = GridSpec(scenarios=("hetero-fleet",),
                        algorithms=("dp_hetero", "greedy_hetero"),
                        seeds=(0, 1), sizes=(16,))
        assert run_grid(spec, EngineConfig(n_jobs=1)) == run_grid(spec,
                                                    EngineConfig(n_jobs=4))

    def test_pipeline_opt_solver_not_resolved_twice(self, monkeypatch):
        """The solver that defines a pipeline's optimum runs once, in
        phase 1 — its phase-2 job reuses the hoisted value."""
        import repro.extensions
        calls = []
        real = repro.extensions.solve_dp_hetero
        monkeypatch.setattr(repro.extensions, "solve_dp_hetero",
                            lambda inst: calls.append(1) or real(inst))
        rows = run_grid(GridSpec(scenarios=("hetero-fleet",),
                                 algorithms=("dp_hetero",
                                             "greedy_hetero"),
                                 seeds=(0,), sizes=(12,)))
        assert len(calls) == 1  # phase 1 only, not again for the job
        assert rows[0]["algorithm"] == "dp_hetero"
        assert rows[0]["cost"] == rows[0]["opt"] and rows[0]["ratio"] == 1.0
        assert rows[1]["ratio"] >= 1.0 - 1e-9


class TestJobCache:
    def test_cache_hit_skips_all_recomputation(self, tmp_path,
                                               monkeypatch):
        rows = run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        runs = _count_calls(monkeypatch, "_run_job")
        solves = _count_calls(monkeypatch, "_solve_instance")
        cached = run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        assert cached == rows and not runs and not solves
        forced = run_grid(SMALL, EngineConfig(cache_dir=tmp_path, force=True))
        assert forced == rows and len(runs) == len(SMALL)

    def test_stats_counters(self, tmp_path):
        first, second = RunStats(), RunStats()
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path), stats=first)
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path), stats=second)
        assert _cache_stats(first) == {"job_hits": 0, "job_misses": 8,
                                       "opt_hits": 0, "opt_solved": 4}
        assert _cache_stats(second) == {"job_hits": 8, "job_misses": 0,
                                        "opt_hits": 0, "opt_solved": 0}
        # instance-resolution counters ride along
        assert {"inst_builds", "inst_loads",
                "inst_memo_hits"} <= set(first.as_dict())

    def test_extending_grid_pays_only_new_jobs(self, tmp_path,
                                               monkeypatch):
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        extended = GridSpec(scenarios=SMALL.scenarios,
                            algorithms=SMALL.algorithms,
                            seeds=(0, 1, 2), sizes=SMALL.sizes)
        runs = _count_calls(monkeypatch, "_run_job")
        solves = _count_calls(monkeypatch, "_solve_instance")
        stats = RunStats()
        rows = run_grid(extended, EngineConfig(cache_dir=tmp_path),
                        stats=stats)
        assert len(rows) == 12
        # only the new seed's jobs executed: 2 scenarios x 2 algorithms
        assert len(runs) == 4
        assert all(job[4] == 2 for job, _rec, _store in runs)
        assert len(solves) == 2
        assert all(coords[3] == 2 for coords, _store in solves)
        assert _cache_stats(stats) == {"job_hits": 8, "job_misses": 4,
                                       "opt_hits": 0, "opt_solved": 2}

    def test_overlapping_grids_share_instance_optima(self, tmp_path):
        run_grid(GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                          seeds=(0,), sizes=(16,)),
                 EngineConfig(cache_dir=tmp_path))
        stats = RunStats()
        run_grid(GridSpec(scenarios=("diurnal",),
                          algorithms=("threshold",),
                          seeds=(0,), sizes=(16,)),
                 EngineConfig(cache_dir=tmp_path), stats=stats)
        # different job, same instance: the optimum is reused, not resolved
        assert _cache_stats(stats) == {"job_hits": 0, "job_misses": 1,
                                       "opt_hits": 1, "opt_solved": 0}

    def test_corrupt_job_record_recomputes_and_heals(self, tmp_path):
        good = run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        cache = JobCache(tmp_path)
        key = job_key(SMALL.jobs()[0])
        path = cache.path("jobs", key)
        path.write_text(path.read_text()[:25])  # truncate mid-record
        assert cache.get("jobs", key) is None
        stats = RunStats()
        rows = run_grid(SMALL, EngineConfig(cache_dir=tmp_path), stats=stats)
        assert rows == good
        assert stats["job_misses"] == 1 and stats["job_hits"] == 7
        assert cache.get("jobs", key) == good[0]  # rewritten

    def test_foreign_content_treated_as_miss(self, tmp_path):
        cache = JobCache(tmp_path)
        key = job_key(SMALL.jobs()[0])
        path = cache.path("jobs", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # valid JSON, wrong embedded key: content does not match address
        path.write_text(json.dumps({"key": "somebody-else",
                                    "record": {"cost": -1.0}}))
        assert cache.get("jobs", key) is None
        rows = run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        assert all(r["cost"] >= 0 for r in rows)

    def test_corrupt_instance_record_recomputes(self, tmp_path):
        run_grid(SMALL, EngineConfig(cache_dir=tmp_path))
        cache = JobCache(tmp_path)
        coords = engine_mod._instance_coords(SMALL.jobs()[0])
        path = cache.path("instances", instance_key(coords))
        assert path.exists()
        path.write_text("{not json")
        stats = RunStats()
        # force job misses so phase 1 runs again; the damaged instance
        # record is re-solved, the healthy one is reused
        rows = run_grid(SMALL, EngineConfig(cache_dir=tmp_path, force=True),
                        stats=stats)
        assert len(rows) == len(SMALL)
        assert stats["opt_solved"] == 4  # force bypasses reads entirely

    def test_job_keys_are_coordinate_stable(self):
        jobs = SMALL.jobs()
        assert job_key(jobs[0]) == job_key(jobs[0])
        assert len({job_key(j) for j in jobs}) == len(jobs)

    def test_cache_is_spec_shape_independent(self, tmp_path):
        """The same job reached through two different grid shapes hits."""
        run_grid(GridSpec(scenarios=("diurnal", "bursty"),
                          algorithms=("lcp",), seeds=(0,), sizes=(16,)),
                 EngineConfig(cache_dir=tmp_path))
        stats = RunStats()
        run_grid(GridSpec(scenarios=("diurnal",),
                          algorithms=("lcp", "threshold"),
                          seeds=(0,), sizes=(16,)),
                 EngineConfig(cache_dir=tmp_path), stats=stats)
        assert stats["job_hits"] == 1 and stats["job_misses"] == 1


class TestCLI:
    def test_sweep_runs_grid(self, capsys):
        from repro.cli import main
        rc = main(["sweep", "--scenarios", "diurnal,bursty,sawtooth",
                   "--algorithms", "lcp,threshold,randomized,memoryless",
                   "--seeds", "0,1,2", "-T", "16", "--per-row"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate ratios" in out and "sawtooth" in out
        assert "36 jobs" in out

    def test_sweep_list(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "adversarial-hinge" in out and "`binary_search`" in out
        assert "hetero-fleet" in out and "`restricted`" in out

    def test_sweep_rejects_unknown_names(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["sweep", "--scenarios", "nope"])
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["sweep", "--algorithms", "oracle"])

    def test_sweep_cache_stats_line(self, tmp_path, capsys):
        from repro.cli import main
        args = ["sweep", "--scenarios", "diurnal",
                "--algorithms", "lcp,threshold", "--seeds", "0",
                "-T", "16", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "cache: 0 hits, 2 misses, 1 optima solved" \
            in capsys.readouterr().out
        assert main(args) == 0
        assert "cache: 2 hits, 0 misses, 0 optima solved" \
            in capsys.readouterr().out

    def test_bench_smoke_grid(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["bench", "--grid", "smoke",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs/s" in out and "cache:" in out
        assert list(tmp_path.glob("jobs/*/*.json"))
        assert list(tmp_path.glob("instances/*/*.json"))

    def test_bench_pipeline_grids(self, capsys):
        from repro.cli import main
        for grid, marker in (("restricted", "restricted"),
                             ("hetero", "dp_hetero")):
            assert main(["bench", "--grid", grid]) == 0
            assert marker in capsys.readouterr().out


class TestReadmeTable:
    def test_readme_algorithm_table_is_current(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        text = (root / "README.md").read_text()
        begin = text.index("BEGIN ALGORITHM TABLE")
        end = text.index("<!-- END ALGORITHM TABLE -->")
        block = text[text.index("\n", begin) + 1:end].strip()
        assert block == algorithm_table(), \
            "README table stale — regenerate with " \
            "`python -m repro.runner.registry`"
