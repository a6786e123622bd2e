"""Tests for the serving layer: GridService routing, admission control,
idempotent submits, drain shutdown, the ServiceClient retry loop, and
the end-to-end chaos run (SIGKILL'd worker + transient HTTP and SQLite
faults) whose merged rows must stay bit-identical to a local run_grid."""

import json
import subprocess
import sys
import threading
import urllib.parse

import pytest

from repro.runner import (EngineConfig, FaultPlan, FaultSpec, GridService,
                          GridSpec, LeaseQueue, RequestError, RetryPolicy,
                          ServiceClient, ServiceUnavailable, busy_stats,
                          run_grid, work)
from repro.runner import faults
from repro.runner.executor import backoff_delay
from repro.runner.service import SERVICE_WORKER, ServiceError

SMALL = GridSpec(scenarios=("diurnal",), algorithms=("lcp", "threshold"),
                 seeds=(0, 1), sizes=(16,))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def handle_transport(service, calls=None):
    """A ServiceClient transport that talks straight to
    GridService.handle — the real routing, no sockets."""
    def transport(method, url, body, timeout):
        if calls is not None:
            calls.append((method, url))
        path = urllib.parse.urlsplit(url).path
        try:
            status, payload, _headers = service.handle(method, path, body)
        except ServiceError as exc:
            return exc.status, json.dumps(exc.envelope()).encode()
        return status, json.dumps(payload).encode()
    return transport


class TestRouting:
    def test_submit_enqueues_misses_and_reports_receipt(self, tmp_path):
        service = GridService(tmp_path / "q")
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202
        assert payload["grid"] == SMALL.cache_key()
        assert payload["total"] == len(SMALL)
        assert payload["cache_hits"] == 0
        assert payload["enqueued"] == len(SMALL)
        assert not payload["resubmitted"]

    def test_resubmit_known_digest_never_reenqueues(self, tmp_path):
        service = GridService(tmp_path / "q")
        service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q")
        before = queue.counts(SMALL.cache_key())
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 200
        assert payload["resubmitted"]
        assert payload["enqueued"] == 0
        assert queue.counts(SMALL.cache_key()) == before

    def test_client_errors_are_envelopes_never_500(self, tmp_path):
        service = GridService(tmp_path / "q", cache_dir=tmp_path / "c")
        # well-formed specs run_grid would refuse: each must be answered
        # before the cache probe and never reach the lease queue
        refused = [{**SMALL.to_dict(), **patch} for patch in (
            {"algorithms": ["dp_hetero"]},      # pipeline mismatch
            {"algorithms": ["no-such-alg"]},
            {"scenarios": ["no-such-scenario"]},
            {"lookahead": -1}, {"lookahead": "2"},
            {"lookahead": 1.5}, {"lookahead": True},
            {"seeds": [2.9]}, {"sizes": [16.7]},
            {"instance_seed": True}, {"instance_seed": 1.5})]
        for method, path, body, code in [
                ("POST", "/grids", [1, 2], "bad_request"),
                ("POST", "/grids", {"nope": 1}, "bad_spec"),
                *(("POST", "/grids", spec, "bad_spec") for spec in refused),
                ("GET", "/grids/unknown-digest", None, "unknown_grid"),
                ("GET", "/grids/", None, "bad_request"),
                ("DELETE", "/grids", None, "not_found")]:
            with pytest.raises(ServiceError) as exc_info:
                service.handle(method, path, body)
            assert exc_info.value.code == code, body
            assert 400 <= exc_info.value.status < 500
            envelope = exc_info.value.envelope()
            assert envelope["error"]["code"] == code
        assert LeaseQueue(tmp_path / "q").grids() == []

    def test_healthz_and_readyz(self, tmp_path):
        service = GridService(tmp_path / "q", cache_dir=tmp_path / "c")
        assert service.handle("GET", "/healthz")[1]["ok"]
        status, payload, _ = service.handle("GET", "/readyz")
        assert status == 200 and payload["ready"]

    def test_draining_refuses_submits_and_fails_readyz(self, tmp_path):
        service = GridService(tmp_path / "q", drain_timeout=0.5)
        service._draining = True  # flag only; no serve loop to stop
        status, payload, _ = service.handle("GET", "/readyz")
        assert status == 503 and not payload["ready"]
        with pytest.raises(ServiceError) as exc_info:
            service.handle("POST", "/grids", SMALL.to_dict())
        assert exc_info.value.status == 503
        assert exc_info.value.code == "draining"

    def test_over_budget_submit_gets_429_with_retry_after(self, tmp_path):
        service = GridService(tmp_path / "q", budget=len(SMALL) - 1)
        with pytest.raises(ServiceError) as exc_info:
            service.handle("POST", "/grids", SMALL.to_dict())
        assert exc_info.value.status == 429
        assert exc_info.value.code == "over_budget"
        assert exc_info.value.headers["Retry-After"]
        # the refused grid was not partially enqueued
        assert LeaseQueue(tmp_path / "q").grids() == []


class TestCacheProbingSubmit:
    def test_warm_cache_submit_is_instantly_done_and_identical(
            self, tmp_path):
        local = run_grid(SMALL,
                         EngineConfig(cache_dir=tmp_path / "cache"))
        service = GridService(tmp_path / "q",
                              cache_dir=tmp_path / "cache")
        status, payload, _ = service.handle("POST", "/grids",
                                            SMALL.to_dict())
        assert status == 202
        assert payload["cache_hits"] == len(SMALL)
        assert payload["enqueued"] == 0
        _, done, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert done["state"] == "done"
        assert done["rows"] == local

    def test_partial_cache_enqueues_only_misses(self, tmp_path):
        half = GridSpec(scenarios=("diurnal",), algorithms=("lcp",),
                        seeds=(0, 1), sizes=(16,))
        run_grid(half, EngineConfig(cache_dir=tmp_path / "cache"))
        service = GridService(tmp_path / "q",
                              cache_dir=tmp_path / "cache")
        _, payload, _ = service.handle("POST", "/grids", SMALL.to_dict())
        assert payload["cache_hits"] == len(half)
        assert payload["enqueued"] == len(SMALL) - len(half)
        # a worker drains the misses; the merge is bit-identical
        work(tmp_path / "q", worker="w",
             config=EngineConfig(cache_dir=tmp_path / "cache"))
        _, done, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert done["state"] == "done"
        assert done["rows"] == run_grid(SMALL)
        # the hits came through the synthetic service worker file
        queue = LeaseQueue(tmp_path / "q")
        assert queue.worker_path(SERVICE_WORKER).exists()

    def test_degraded_state_when_worker_fleet_dies(self, tmp_path):
        clock = FakeClock()
        service = GridService(tmp_path / "q", clock=clock)
        _, payload, _ = service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q", clock=clock)
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0  # fleet dead: heartbeat deadline long past
        _, status_payload, _ = service.handle(
            "GET", f"/grids/{payload['grid']}", None)
        assert status_payload["state"] == "degraded"
        assert status_payload["stale"] >= 1
        assert "rows" not in status_payload


class TestDrainShutdown:
    def test_shutdown_waits_for_inflight_lease_then_exits(self, tmp_path):
        service = GridService(tmp_path / "q", drain_timeout=30.0).start()
        service.handle("POST", "/grids", SMALL.to_dict())
        queue = LeaseQueue(tmp_path / "q")
        lease = queue.claim("w")
        status, payload, _ = service.handle("POST", "/shutdown")
        assert status == 200 and payload["draining"]
        # in-flight lease: the serve loop must still be alive
        service.join(timeout=0.3)
        assert service._thread.is_alive()
        queue.complete(lease)
        service.join(timeout=10.0)
        assert not service._thread.is_alive()
        assert queue.counts()["leased"] == 0  # no orphaned leases

    def test_shutdown_is_idempotent(self, tmp_path):
        service = GridService(tmp_path / "q").start()
        for _ in range(2):
            status, payload, _ = service.handle("POST", "/shutdown")
            assert status == 200 and payload["draining"]
        service.join(timeout=10.0)
        assert not service._thread.is_alive()


class TestServiceClientRetry:
    POLICY = RetryPolicy(max_retries=2, backoff=0.05, backoff_max=2.0)

    def make_client(self, transport, sleeps):
        return ServiceClient("http://svc", policy=self.POLICY,
                             transport=transport, sleep=sleeps.append)

    def test_transport_failures_retry_with_deterministic_backoff(self):
        attempts = []

        def flaky(method, url, body, timeout):
            attempts.append(method)
            if len(attempts) < 3:
                raise OSError("connection refused")
            return 200, b'{"ok": true}'

        sleeps = []
        client = self.make_client(flaky, sleeps)
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(attempts) == 3
        assert sleeps == [backoff_delay(self.POLICY, 1),
                          backoff_delay(self.POLICY, 2)]

    def test_attempts_are_bounded_then_service_unavailable(self):
        attempts = []

        def dead(method, url, body, timeout):
            attempts.append(method)
            raise OSError("connection refused")

        sleeps = []
        client = self.make_client(dead, sleeps)
        with pytest.raises(ServiceUnavailable):
            client.request("GET", "/healthz")
        assert len(attempts) == self.POLICY.max_retries + 1
        assert len(sleeps) == self.POLICY.max_retries

    def test_429_and_5xx_retry_but_4xx_raises_immediately(self):
        responses = [(429, b'{"error": {"code": "over_budget"}}'),
                     (503, b'{"error": {"code": "draining"}}'),
                     (200, b'{"ok": true}')]
        attempts = []

        def busy(method, url, body, timeout):
            attempts.append(method)
            return responses[len(attempts) - 1]

        sleeps = []
        client = self.make_client(busy, sleeps)
        assert client.request("POST", "/grids") == {"ok": True}
        assert len(attempts) == 3

        calls = []

        def bad_request(method, url, body, timeout):
            calls.append(method)
            return 400, b'{"error": {"code": "bad_spec", "message": "no"}}'

        client = self.make_client(bad_request, sleeps=[])
        with pytest.raises(RequestError) as exc_info:
            client.request("POST", "/grids")
        assert exc_info.value.status == 400
        assert len(calls) == 1  # no retry on a client error

    def test_injected_http_faults_bounded_and_counted(self, tmp_path):
        service = GridService(tmp_path / "q")
        sleeps = []
        client = ServiceClient("http://svc", policy=self.POLICY,
                               transport=handle_transport(service),
                               sleep=sleeps.append)
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="GET /healthz",
                      nth=(1, 2)),)))
        assert client.healthz()["ok"]
        assert sleeps == [backoff_delay(self.POLICY, 1),
                          backoff_delay(self.POLICY, 2)]
        # a poisoned site exhausts the bounded budget, then surfaces
        faults.reset()
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="GET /healthz",
                      nth=None),)))
        with pytest.raises(ServiceUnavailable):
            client.healthz()

    def test_retried_submit_never_double_enqueues(self, tmp_path):
        service = GridService(tmp_path / "q")
        calls = []
        sleeps = []
        client = ServiceClient("http://svc", policy=self.POLICY,
                               transport=handle_transport(service, calls),
                               sleep=sleeps.append)
        # the first POST attempt dies before the wire; the retry lands
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="POST /grids",
                      nth=(1,)),)))
        receipt = client.submit(SMALL)
        assert not receipt["resubmitted"]
        assert len(sleeps) == 1
        queue = LeaseQueue(tmp_path / "q")
        leases_after_first = sum(queue.counts(receipt["grid"]).values())
        # a full client-level duplicate (response lost, app retried)
        again = client.submit(SMALL)
        assert again["resubmitted"] and again["enqueued"] == 0
        assert sum(queue.counts(receipt["grid"]).values()) == \
            leases_after_first

    def test_wait_returns_on_degraded_instead_of_hanging(self, tmp_path):
        clock = FakeClock()
        service = GridService(tmp_path / "q", clock=clock)
        client = ServiceClient("http://svc",
                               transport=handle_transport(service),
                               sleep=lambda s: None, clock=clock)
        receipt = client.submit(SMALL)
        queue = LeaseQueue(tmp_path / "q", clock=clock)
        assert queue.claim("doomed", ttl=10.0) is not None
        clock.now = 1000.0
        payload = client.wait(receipt["grid"], timeout=5.0)
        assert payload["state"] == "degraded"


_DOOMED_SERVICE_WORKER = """
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
        os.kill(os.getpid(), signal.SIGKILL)

run_grid(queue.spec(lease.grid_id),
         EngineConfig(sink=DoomedSink(queue, lease, 0.5), batch_size=1,
                      cache_dir=cache),
         job_slice=(lease.start, lease.stop))
"""


class TestEndToEndChaos:
    def test_served_grid_survives_chaos_bit_identical(self, tmp_path):
        """The acceptance chaos run, over real HTTP: a SIGKILL'd
        worker, a transient http_request fault and transient lock
        faults on the queue and cache must not change a single byte of
        the merged rows, and the drain must exit with no orphans."""
        reference = run_grid(SMALL)  # fault-free local baseline
        cache = tmp_path / "cache"
        service = GridService(tmp_path / "q", cache_dir=cache,
                              lease_jobs=2, drain_timeout=30.0).start()
        client = ServiceClient(
            service.url, policy=RetryPolicy(backoff=0.01))
        faults.activate(FaultPlan(specs=(
            FaultSpec(site="http_request", match="POST /grids",
                      nth=(1,)),
            FaultSpec(site="queue_claim", nth=(1,), kind="lock"),
            FaultSpec(site="sqlite_lock", nth=(1,), kind="lock"),)))
        busy_before = busy_stats()["sqlite_busy_retries"]

        receipt = client.submit(SMALL)  # first POST attempt is injected
        assert receipt["enqueued"] == len(SMALL)
        grid_id = receipt["grid"]

        # one worker is SIGKILL'd mid-lease...
        proc = subprocess.run(
            [sys.executable, "-c", _DOOMED_SERVICE_WORKER,
             str(tmp_path / "q"), str(cache)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -9, proc.stderr
        # ...and a survivor reclaims and finishes (its first claim
        # eats the injected queue lock; the busy retry heals it)
        survivor = threading.Thread(target=work, args=(tmp_path / "q",),
                                    kwargs=dict(worker="survivor",
                                                poll=0.05,
                                                config=EngineConfig(
                                                    cache_dir=cache)))
        survivor.start()
        done = client.wait(grid_id, timeout=60.0)
        survivor.join(timeout=30.0)
        assert done["state"] == "done"
        assert done["rows"] == reference
        assert busy_stats()["sqlite_busy_retries"] > busy_before

        # resubmit to a FRESH queue with the warm cache: every job is
        # a hit, nothing is re-enqueued, rows stay identical
        faults.deactivate()
        faults.reset()
        service2 = GridService(tmp_path / "q2", cache_dir=cache).start()
        client2 = ServiceClient(service2.url)
        receipt2 = client2.submit(SMALL)
        assert receipt2["cache_hits"] == len(SMALL)
        assert receipt2["enqueued"] == 0
        done2 = client2.wait(receipt2["grid"], timeout=10.0)
        assert done2["state"] == "done"
        assert done2["rows"] == reference

        # clean drain on both replicas: exit the serve loop, and no
        # lease anywhere is left orphaned
        for svc, cli in ((service, client), (service2, client2)):
            assert cli.shutdown()["draining"]
            svc.join(timeout=15.0)
            assert not svc._thread.is_alive()
        for root in (tmp_path / "q", tmp_path / "q2"):
            assert LeaseQueue(root).counts()["leased"] == 0
