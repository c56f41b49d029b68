"""HTTP round-trip tests: ServiceClient against a live AnalysisServer."""

import pytest

from repro.core import BackDroidConfig, analyze_spec
from repro.service import AnalysisServer, ServiceClient, StoreAwareScheduler
from repro.workload.corpus import benchmark_app_spec

SCALE = 0.05


@pytest.fixture
def service(tmp_path):
    """A running server over a store pre-warmed with bench app 0."""
    config = BackDroidConfig(
        search_backend="indexed",
        store_dir=str(tmp_path / "store"),
        store_mode="full",
    )
    outcome = analyze_spec(benchmark_app_spec(0, scale=SCALE), config)
    assert outcome.ok, outcome.error
    scheduler = StoreAwareScheduler(config, workers=2, fast_lane_workers=1)
    with AnalysisServer(scheduler, port=0) as server:
        yield ServiceClient(*server.address)


class TestEndpoints:
    def test_healthz(self, service):
        assert service.health() == {"ok": True}

    def test_submit_poll_done_round_trip(self, service):
        job = service.submit({"app": "bench:0", "scale": SCALE})
        assert job["state"] in ("queued", "running", "done")
        assert job["lane"] == "fast" and job["warm"] is True
        assert job["package"] == "com.bench.app000"

        done = service.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        assert done["result"]["package"] == "com.bench.app000"
        assert done["result"]["store_hit"] is True
        assert done["result"]["index_build_seconds"] == 0.0
        assert done["wait_seconds"] >= 0.0

    def test_cold_submission_rides_main_lane(self, service):
        job = service.submit({"app": "bench:2", "scale": SCALE})
        assert job["lane"] == "main" and job["warm"] is False
        done = service.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        assert done["result"]["store_hit"] is False

    def test_year_submission_shape(self, service):
        job = service.submit({"year": 2015, "index": 0, "scale": SCALE})
        assert job["package"] == "com.corpus.y2015.app00000"
        assert service.wait(job["id"], timeout=60)["state"] == "done"

    def test_duplicate_http_submissions_share_one_result(
        self, tmp_path, monkeypatch
    ):
        # Hold the analysis until both submissions are accepted, so the
        # concurrent-duplicate path is exercised deterministically.
        import threading

        import repro.service.scheduler as scheduler_module

        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(config, workers=1)
        with AnalysisServer(scheduler, port=0) as server:
            client = ServiceClient(*server.address)
            first = client.submit({"app": "bench:3", "scale": SCALE})
            second = client.submit({"app": "bench:3", "scale": SCALE})
            assert second["coalesced_into"] == first["id"]
            release.set()
            first_done = client.wait(first["id"], timeout=60)
            second_done = client.wait(second["id"], timeout=60)
            assert first_done["state"] == second_done["state"] == "done"
            assert first_done["result"] == second_done["result"]
            stats = client.stats()
        assert stats["jobs"]["dedup_hits"] == 1
        assert stats["analyses_run"] == 1  # one analysis, two done jobs

    def test_jobs_listing_and_stats(self, service):
        submitted = service.submit({"app": "bench:0", "scale": SCALE})
        service.wait(submitted["id"], timeout=60)
        listed = {job["id"] for job in service.jobs()}
        assert submitted["id"] in listed
        stats = service.stats()
        assert {"lanes", "jobs", "store", "warm_hit_rate"} <= set(stats)


class TestRequestOverrides:
    def test_per_job_rules_override(self, service):
        job = service.submit(
            {"app": "bench:1", "scale": SCALE, "rules": ["crypto-ecb"]}
        )
        assert job["request"]["rules"] == ["crypto-ecb"]
        done = service.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        rules = {rule for rule, _ in done["result"]["findings"]}
        assert rules <= {"crypto-ecb"}

    def test_override_validation_is_400(self, service):
        with pytest.raises(ValueError, match="unknown rule"):
            service.submit(
                {"app": "bench:0", "scale": SCALE, "rules": ["nope"]}
            )
        with pytest.raises(ValueError, match="'rules'"):
            service.submit({"app": "bench:0", "scale": SCALE, "rules": []})
        with pytest.raises(ValueError, match="'backend'"):
            service.submit(
                {"app": "bench:0", "scale": SCALE, "backend": "quantum"}
            )
        with pytest.raises(ValueError, match="'max_frames'"):
            service.submit(
                {"app": "bench:0", "scale": SCALE, "max_frames": 0}
            )
        with pytest.raises(ValueError, match="'hierarchy'"):
            service.submit(
                {"app": "bench:0", "scale": SCALE, "hierarchy": "yes"}
            )

    def test_default_submission_carries_no_request(self, service):
        job = service.submit({"app": "bench:0", "scale": SCALE})
        assert job["request"] is None
        service.wait(job["id"], timeout=60)

    def test_rules_override_clears_configured_explicit_targets(self, tmp_path):
        # A config pinning explicit sinks must not shadow a per-job
        # rules override (sink_specs gives targets precedence).
        from repro.android.framework import sinks_for_rules

        config = BackDroidConfig(sinks=sinks_for_rules(("ssl-verifier",)))
        scheduler = StoreAwareScheduler(config, workers=1)
        with AnalysisServer(scheduler, port=0) as server:
            client = ServiceClient(*server.address)
            job = client.submit(
                {"app": "bench:1", "scale": SCALE, "rules": ["crypto-ecb"]}
            )
            assert job["request"]["targets"] is None
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            rules = {rule for rule, _ in done["result"]["findings"]}
            assert rules == {"crypto-ecb"}  # bench:1 has crypto findings

    def test_partial_override_keeps_service_configured_defaults(self, tmp_path):
        # A body naming only max_frames must not reset the operator's
        # --rules selection back to the package defaults.
        config = BackDroidConfig(
            sink_rules=("open-port",), search_backend="indexed"
        )
        scheduler = StoreAwareScheduler(config, workers=1)
        with AnalysisServer(scheduler, port=0) as server:
            client = ServiceClient(*server.address)
            job = client.submit(
                {"app": "bench:0", "scale": SCALE, "max_frames": 2000}
            )
            assert job["request"]["rules"] == ["open-port"]
            assert job["request"]["max_frames"] == 2000
            assert job["request"]["backend"] == "indexed"
            assert client.wait(job["id"], timeout=60)["state"] == "done"


class TestCancellation:
    def test_cancel_unknown_job_is_404(self, service):
        with pytest.raises(KeyError):
            service.cancel("job-424242")

    def test_cancel_finished_job_is_409(self, service):
        job = service.submit({"app": "bench:0", "scale": SCALE})
        service.wait(job["id"], timeout=60)
        with pytest.raises(ValueError, match="already done"):
            service.cancel(job["id"])

    def test_cancel_queued_job_round_trip(self, tmp_path, monkeypatch):
        import threading

        import repro.service.scheduler as scheduler_module

        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(config, workers=1)
        with AnalysisServer(scheduler, port=0) as server:
            client = ServiceClient(*server.address)
            blocker = client.submit({"app": "bench:0", "scale": SCALE})
            queued = client.submit({"app": "bench:1", "scale": SCALE})
            snapshot = client.cancel(queued["id"])
            assert snapshot["state"] == "cancelled"
            assert snapshot["error"] == "cancelled by client"
            # DELETE is not idempotent-successful: the second call is 409.
            with pytest.raises(ValueError, match="already cancelled"):
                client.cancel(queued["id"])
            release.set()
            assert client.wait(blocker["id"], timeout=60)["state"] == "done"
            # wait() resolves cancelled as terminal over HTTP too.
            assert client.wait(queued["id"], timeout=5)["state"] == "cancelled"
            stats = client.stats()
            lanes = stats["lanes"]
            assert sum(l["cancelled"] for l in lanes.values()) == 1

    def test_cancel_bad_path_is_404(self, service):
        status, _ = service._request("DELETE", "/v1/stats")
        assert status == 404


class TestErrors:
    def test_unknown_job_is_404(self, service):
        assert service.job("job-424242") is None

    def test_bad_spec_is_400(self, service):
        with pytest.raises(ValueError, match="bench:<index>"):
            service.submit({"app": "not-a-spec"})
        with pytest.raises(ValueError, match="must be one of"):
            service.submit({"year": 1999})
        with pytest.raises(ValueError, match="'scale'"):
            service.submit({"app": "bench:0", "scale": -1})
        # Client-supplied scale is bounded: huge or non-finite values
        # must be a 400, not a wedged worker or a handler crash.
        with pytest.raises(ValueError, match="'scale'"):
            service.submit({"app": "bench:0", "scale": 1e308})
        with pytest.raises(ValueError, match="'scale'"):
            service.submit({"app": "bench:0", "scale": 11})
        with pytest.raises(ValueError, match="needs 'app'"):
            service.submit({})

    def test_unknown_endpoint_is_404(self, service):
        status, payload = service._request("GET", "/v1/nope")
        assert status == 404 and "error" in payload
        status, _ = service._request("POST", "/v1/nope", {"x": 1})
        assert status == 404

    def test_empty_body_is_400(self, service):
        status, payload = service._request("POST", "/v1/jobs")
        assert status == 400 and "error" in payload


class TestShutdownDrain:
    def test_shutdown_drains_accepted_jobs(self, tmp_path):
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(config, workers=2)
        server = AnalysisServer(scheduler, port=0).start()
        client = ServiceClient(*server.address)
        jobs = [
            client.submit({"app": f"bench:{i}", "scale": SCALE})
            for i in range(4)
        ]
        server.shutdown(drain=True)  # stop listening, finish the queue
        states = {scheduler.queue.get(job["id"]).state for job in jobs}
        assert states == {"done"}


class TestGracefulDrain:
    def test_drain_rejects_submissions_but_serves_reads(
        self, tmp_path, monkeypatch
    ):
        import threading

        import repro.service.scheduler as scheduler_module

        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(config, workers=1)
        server = AnalysisServer(scheduler, port=0).start()
        try:
            client = ServiceClient(*server.address)
            accepted = client.submit({"app": "bench:0", "scale": SCALE})
            # Drain on a helper thread: it blocks until the gated
            # analysis releases, and flips the 503 flag immediately.
            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(server.drain(timeout=30))
            )
            drainer.start()
            deadline = __import__("time").monotonic() + 5
            while not server.api.draining:
                assert __import__("time").monotonic() < deadline
            with pytest.raises(ValueError, match="draining"):
                client.submit({"app": "bench:1", "scale": SCALE})
            # Reads keep working so clients can collect the drain.
            assert client.health() == {"ok": True}
            assert client.job(accepted["id"]) is not None
            assert client.stats()["server"]["draining"] is True
            release.set()
            drainer.join(timeout=30)
            assert drained == [True]
            assert client.wait(accepted["id"], timeout=30)["state"] == "done"
        finally:
            release.set()
            server.shutdown(drain=True)

    def test_drain_timeout_reports_failure(self, tmp_path, monkeypatch):
        import threading

        import repro.service.scheduler as scheduler_module

        release = threading.Event()
        real = scheduler_module.analyze_spec

        def gated(spec, config=None, **kwargs):
            release.wait(timeout=30)
            return real(spec, config, **kwargs)

        monkeypatch.setattr(scheduler_module, "analyze_spec", gated)
        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(config, workers=1)
        server = AnalysisServer(scheduler, port=0).start()
        try:
            client = ServiceClient(*server.address)
            client.submit({"app": "bench:0", "scale": SCALE})
            assert server.drain(timeout=0.2) is False
        finally:
            release.set()
            server.shutdown(drain=True)


class TestServerStats:
    def test_stats_report_front_end_health(self, service):
        import time

        time.sleep(0.15)  # let the lag monitor collect a few samples
        stats = service.stats()
        server_stats = stats["server"]
        assert server_stats["loop"] == "asyncio"
        assert server_stats["draining"] is False
        lag = server_stats["event_loop_lag_seconds"]
        assert set(lag) == {"p50", "p99", "max"}
        assert 0.0 <= lag["p50"] <= lag["max"]
        # Per-lane pool observability rides the same payload.
        for lane in stats["lanes"].values():
            assert lane["kind"] == "in-process"
            assert "utilization" in lane and "depth_percentiles" in lane


class TestClientRetries:
    def test_connection_refused_is_retried_then_raised(self, monkeypatch):
        import socket
        import urllib.error

        import repro.service.server as server_module

        # A bound-but-unaccepting port: connections are refused after
        # close, exercising the retry path deterministically.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        monkeypatch.setattr(
            server_module.time, "sleep", lambda s: sleeps.append(s)
        )
        client = ServiceClient(
            "127.0.0.1", port, timeout=2, retries=2, backoff_seconds=0.05
        )
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            client.health()
        assert client.retries_used == 2
        # Exponential backoff: each wait doubles.
        assert sleeps == [0.05, 0.1]

    def test_http_errors_are_not_retried(self, service):
        before = service.retries_used
        with pytest.raises(ValueError):
            service.submit({})  # 400: a client error, never a retry
        assert service.retries_used == before

    def test_retry_recovers_when_the_server_comes_back(
        self, service, monkeypatch
    ):
        import urllib.error

        import repro.service.server as server_module

        real_urlopen = server_module.urlrequest.urlopen
        failures = {"left": 2}

        def flaky(req, timeout=None):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise urllib.error.URLError(ConnectionRefusedError(111))
            return real_urlopen(req, timeout=timeout)

        monkeypatch.setattr(server_module.urlrequest, "urlopen", flaky)
        monkeypatch.setattr(server_module.time, "sleep", lambda s: None)
        assert service.health() == {"ok": True}
        assert service.retries_used == 2


class TestClientEndpointFailover:
    @staticmethod
    def _dead_port():
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_rotates_to_next_endpoint_without_burning_a_retry(
        self, service
    ):
        # First endpoint refuses connections; the client must rotate to
        # the live one immediately — no backoff sleep, no retry spent.
        live = service.endpoints[0]
        client = ServiceClient(
            endpoints=[("127.0.0.1", self._dead_port()), live],
            timeout=2,
            retries=0,
        )
        assert client.health() == {"ok": True}
        assert client.rotations >= 1
        assert client.retries_used == 0
        # Subsequent requests stay on the endpoint that worked.
        assert client.health() == {"ok": True}

    def test_all_endpoints_dead_still_raises(self, monkeypatch):
        import urllib.error

        import repro.service.server as server_module

        monkeypatch.setattr(
            server_module.time, "sleep", lambda s: None
        )
        client = ServiceClient(
            endpoints=[
                ("127.0.0.1", self._dead_port()),
                ("127.0.0.1", self._dead_port()),
            ],
            timeout=2,
            retries=1,
        )
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            client.health()
        # Every endpoint was tried each cycle before a retry was spent.
        assert client.retries_used == 1
        assert client.rotations >= 2

    def test_endpoint_list_requires_at_least_one(self):
        with pytest.raises(ValueError):
            ServiceClient(endpoints=[])


class TestRouterTransport:
    def test_serves_any_router_with_handle(self):
        # The cluster front end relies on this: the transport only ever
        # calls handle(method, path, body) and flips ``draining``.
        class Echo:
            draining = False

            def handle(self, method, path, body=None):
                return 200, {"method": method, "path": path}, False

        router = Echo()
        with AnalysisServer(router=router, port=0) as server:
            client = ServiceClient(*server.address)
            assert client.health() == {"method": "GET", "path": "/healthz"}
            assert server.drain(timeout=1) is True
            assert router.draining

    def test_needs_exactly_one_of_scheduler_or_router(self):
        with pytest.raises(ValueError, match="exactly one"):
            AnalysisServer()


class TestProcessColdLaneOverHttp:
    def test_serve_default_stack_round_trip_and_drain(self, tmp_path):
        # ``backdroid serve`` defaults to process cold workers behind
        # the asyncio transport; the same API must hold end to end.
        import os

        config = BackDroidConfig(
            search_backend="indexed", store_dir=str(tmp_path / "store")
        )
        scheduler = StoreAwareScheduler(
            config, workers=1, fast_lane_workers=1, cold_executor="process"
        )
        with AnalysisServer(scheduler, port=0) as server:
            client = ServiceClient(*server.address)
            job = client.submit({"app": "bench:1", "scale": SCALE})
            assert job["lane"] == "main" and job["warm"] is False
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            assert done["result"]["package"] == "com.bench.app001"
            assert done["worker_pid"] not in (None, os.getpid())
            stats = client.stats()
            assert stats["server"]["loop"] == "asyncio"
            assert stats["lanes"]["main"]["kind"] == "process"
            assert done["worker_pid"] in stats["cold"]["worker_pids"]
            assert server.drain(timeout=30) is True
            with pytest.raises(ValueError, match="draining"):
                client.submit({"app": "bench:2", "scale": SCALE})
            assert client.health() == {"ok": True}
