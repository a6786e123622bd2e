"""Tests for the shared pipelined executor: the run_pipeline contract
(in-order flush, overlap counters, abort drain), EngineConfig, typed
RunStats, and job_slice."""

import dataclasses
import threading
from concurrent.futures import Future

import pytest

from repro.runner import EngineConfig, GridSpec, RunStats, run_grid, work
from repro.runner.executor import (PipelineBatch, chunk_list, iter_batches,
                                   run_pipeline)

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


# ----------------------------------------------------------------------
# run_pipeline contract, driven by stub batches.
# ----------------------------------------------------------------------

class _FutureBatch(PipelineBatch):
    """Stub batch backed by real futures the test completes on timers."""

    def __init__(self, name, futures, log, rows=1):
        self.name = name
        self.futures = list(futures)
        self._all = list(futures)
        self.log = log
        self.size = rows
        self.salvaged = False

    def advance(self):
        progressed = False
        remaining = []
        for f in self.futures:
            if f.done():
                f.result()  # propagate worker exceptions
                progressed = True
            else:
                remaining.append(f)
        self.futures = remaining
        return progressed

    def done(self):
        return not self.futures

    def unfinished_futures(self):
        return [f for f in self.futures if not f.done()]

    def all_futures(self):
        return self._all

    def flush(self):
        self.log.append(self.name)
        return self.size

    def salvage(self):
        self.salvaged = True


def _timed_future(delay, value=None):
    f = Future()
    threading.Timer(delay, f.set_result, args=(value,)).start()
    return f


class TestRunPipeline:
    def test_heads_flush_in_admission_order(self):
        # batch 1 finishes long before batch 0; the sink must still see
        # batch 0 first
        log = []
        delays = {0: 0.25, 1: 0.01}

        def plan(i):
            return _FutureBatch(i, [_timed_future(delays[i])], log,
                                rows=i + 1)

        stats = run_pipeline(iter([0, 1]), plan, pipeline_depth=2)
        assert log == [0, 1]
        assert stats.batches == 2
        assert stats.rows_written == 3
        assert stats.overlapped_batches == 1
        assert stats.inflight_max == 2
        assert stats.max_pending == 3

    def test_depth_one_is_a_barrier(self):
        log = []

        def plan(i):
            return _FutureBatch(i, [_timed_future(0.01)], log)

        stats = run_pipeline(iter([0, 1, 2]), plan, pipeline_depth=1)
        assert log == [0, 1, 2]
        assert stats.overlapped_batches == 0
        assert stats.inflight_max == 1

    def test_empty_iterable_is_a_no_op(self):
        stats = run_pipeline(iter([]), lambda b: None, pipeline_depth=2)
        assert stats.batches == 0 and stats.rows_written == 0

    def test_depth_validated(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            run_pipeline(iter([]), lambda b: None, pipeline_depth=0)

    def test_stall_without_outstanding_work_raises(self):
        class Stuck(PipelineBatch):
            def done(self):
                return False

        with pytest.raises(RuntimeError, match="stalled"):
            run_pipeline(iter([0]), lambda b: Stuck(), pipeline_depth=1)

    def test_abort_salvages_all_and_flushes_completed_heads(self):
        # batch 0 completes during the same pump in which batch 1's
        # advance raises: the drain must salvage both, then still flush
        # batch 0 (a killed run keeps a clean in-order row prefix)
        log = []

        class Slow(PipelineBatch):
            size = 1
            calls = 0

            def advance(self):
                Slow.calls += 1
                return Slow.calls == 2

            def done(self):
                return Slow.calls >= 2

            def flush(self):
                log.append("flush-b0")
                return 1

            def salvage(self):
                log.append("salvage-b0")

        class Boom(PipelineBatch):
            size = 1

            def advance(self):
                raise RuntimeError("boom")

            def done(self):
                return False

            def salvage(self):
                log.append("salvage-b1")

        batches = [Slow(), Boom()]
        with pytest.raises(RuntimeError, match="boom"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert log == ["salvage-b0", "salvage-b1", "flush-b0"]

    def test_abort_cancels_outstanding_futures(self):
        log = []
        pending = Future()  # never completes; must be cancelled
        b0 = _FutureBatch(0, [pending], log)

        class Boom(PipelineBatch):
            def advance(self):
                raise RuntimeError("boom")

            def done(self):
                return False

        batches = {0: b0, 1: Boom()}
        with pytest.raises(RuntimeError, match="boom"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert pending.cancelled()
        assert b0.salvaged
        assert log == []  # b0 never completed, so it must not flush

    def test_failing_sink_stops_all_flushing(self):
        # once a flush itself raises, the drain must not write later
        # batches (kill+resume relies on an untorn row prefix)
        log = []

        class BadFlush(_FutureBatch):
            def flush(self):
                raise IOError("sink refused")

        done = Future()
        done.set_result(None)
        done2 = Future()
        done2.set_result(None)
        batches = {0: BadFlush(0, [done], log),
                   1: _FutureBatch(1, [done2], log)}
        with pytest.raises(IOError, match="sink refused"):
            run_pipeline(iter([0, 1]), lambda i: batches[i],
                         pipeline_depth=2)
        assert log == []


class TestBatchingHelpers:
    def test_iter_batches_validates_eagerly(self):
        def explode():
            raise AssertionError("iterable must not be consumed")
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="batch_size"):
            iter_batches(explode(), 0)

    def test_iter_batches_splits(self):
        assert list(iter_batches(range(5), 2)) == [[0, 1], [2, 3], [4]]
        assert list(iter_batches(range(3), None)) == [[0, 1, 2]]
        assert list(iter_batches([], None)) == []

    def test_chunk_list_in_process_fuses_everything(self):
        assert chunk_list([1, 2, 3], n_jobs=1) == [[1, 2, 3]]
        # on the pool: about two contiguous chunks per worker
        assert chunk_list([1, 2, 3], n_jobs=2) == [[1], [2], [3]]
        assert chunk_list(range(8), n_jobs=2) == \
            [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert chunk_list([], n_jobs=4) == []


# ----------------------------------------------------------------------
# EngineConfig: the one call style of run_grid and work.
# ----------------------------------------------------------------------

class TestEngineConfig:
    def test_unknown_kwarg_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="bogus"):
            work(tmp_path, bogus=1)

    def test_disallowed_kwarg_raises_type_error(self):
        # the pre-EngineConfig keyword style is gone, not deprecated
        with pytest.raises(TypeError, match="n_jobs"):
            run_grid(SMALL, n_jobs=2)

    def test_non_config_positional_raises(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            run_grid(SMALL, {"n_jobs": 2})

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().n_jobs = 2

    def test_run_grid_unknown_kwarg(self):
        with pytest.raises(TypeError, match="bogus"):
            run_grid(SMALL, bogus=1)


# ----------------------------------------------------------------------
# RunStats: typed counters, dict-style reads, accumulation.
# ----------------------------------------------------------------------

class TestRunStats:
    def test_as_dict_covers_every_counter(self):
        stats = RunStats(job_hits=2, batches=1)
        d = stats.as_dict()
        assert d["job_hits"] == 2 and d["batches"] == 1
        assert set(d) == {f.name for f in dataclasses.fields(RunStats)}

    def test_getitem_and_keyerror(self):
        stats = RunStats(rows_written=7)
        assert stats["rows_written"] == 7
        with pytest.raises(KeyError):
            stats["nope"]

    def test_merge_max(self):
        stats = RunStats(max_pending=4)
        stats.merge_max("max_pending", 2)
        assert stats.max_pending == 4
        stats.merge_max("max_pending", 9)
        assert stats.max_pending == 9

    def test_run_grid_accepts_and_accumulates_run_stats(self):
        stats = RunStats()
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        first_batches = stats.batches
        assert first_batches == 2 and stats.rows_written == len(SMALL)
        run_grid(SMALL, EngineConfig(batch_size=2), stats=stats)
        assert stats.batches == 2 * first_batches   # counts accumulate
        assert stats.rows_written == 2 * len(SMALL)



# ----------------------------------------------------------------------
# job_slice: the lease seam on run_grid.
# ----------------------------------------------------------------------

class TestJobSlice:
    def test_full_slice_matches_unsliced(self):
        assert run_grid(SMALL, job_slice=(0, len(SMALL))) == run_grid(SMALL)

    def test_slices_concatenate_bit_identically(self):
        full = run_grid(SMALL)
        parts = (run_grid(SMALL, job_slice=(0, 3))
                 + run_grid(SMALL, job_slice=(3, len(SMALL))))
        assert parts == full

    def test_empty_slice_is_empty(self):
        assert run_grid(SMALL, job_slice=(2, 2)) == []

    def test_out_of_range_slice_raises(self):
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(0, len(SMALL) + 1))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(-1, 2))
        with pytest.raises(ValueError):
            run_grid(SMALL, job_slice=(3, 2))
