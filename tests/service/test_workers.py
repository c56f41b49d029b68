"""Tests for the process-isolated worker substrate (`repro.service.workers`)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import BackDroidConfig
from repro.core.batch import analyze_spec, outcome_payload
from repro.service.workers import ProcessLane, run_analysis, run_analysis_payload
from repro.workload.corpus import benchmark_app_spec

SCALE = 0.05


def _config(tmp_path=None):
    kwargs = {"search_backend": "indexed"}
    if tmp_path is not None:
        kwargs["store_dir"] = str(tmp_path / "store")
    return BackDroidConfig(**kwargs)


class TestWorkerEntryPoints:
    def test_run_analysis_matches_analyze_spec(self, tmp_path):
        spec = benchmark_app_spec(0, scale=SCALE)
        config = _config(tmp_path)
        ours = run_analysis(spec, config)
        reference = analyze_spec(spec, config)
        assert ours.ok and reference.ok
        assert ours.package == reference.package
        assert ours.findings == reference.findings

    def test_run_analysis_payload_is_the_outcome_payload(self):
        spec = benchmark_app_spec(1, scale=SCALE)
        config = _config()
        payload = run_analysis_payload(spec, config)
        reference = outcome_payload(analyze_spec(spec, config))
        assert payload["package"] == reference["package"]
        assert payload["findings"] == reference["findings"]
        assert payload["schema_version"] == reference["schema_version"]
        assert payload["error"] is None


class TestProcessLane:
    def test_execute_runs_out_of_process_with_identical_results(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        config = _config()
        with ProcessLane(workers=1) as lane:
            result = lane.execute("job-1", spec, config, None)
            assert result.payload is not None
            assert not result.killed and not result.died
            assert result.pid != os.getpid()
            assert result.pid in lane.pids()
        reference = run_analysis_payload(spec, config)
        assert result.payload["package"] == reference["package"]
        assert result.payload["findings"] == reference["findings"]

    def test_lane_has_one_process_per_worker(self):
        with ProcessLane(workers=2) as lane:
            pids = lane.pids()
            assert len(pids) == 2
            assert os.getpid() not in pids

    def test_kill_running_reaps_worker_and_respawns(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        config = _config()
        with ProcessLane(workers=1) as lane:
            (original_pid,) = lane.pids()
            import threading

            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    lane.execute("job-1", spec, config, None, stall_seconds=30)
                )
            )
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not lane.kill("job-1"):
                time.sleep(0.01)
            thread.join(timeout=10)
            assert results, "execute never returned after kill"
            result = results[0]
            assert result.killed and not result.died
            assert result.payload is None
            assert result.pid == original_pid
            # Capacity is invariant: a replacement worker was forked.
            assert lane.workers_restarted == 1
            replacement = lane.pids()
            assert len(replacement) == 1
            assert replacement != [original_pid]
            # The replacement actually serves work.
            again = lane.execute("job-2", spec, config, None)
            assert again.payload is not None
            assert again.pid == replacement[0]

    def test_kill_before_dispatch_refuses_the_work(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        with ProcessLane(workers=1) as lane:
            assert lane.kill("job-1") is False  # not bound yet: remembered
            result = lane.execute("job-1", spec, _config(), None)
            assert result.killed and result.payload is None
            # The lane is unharmed for other tokens.
            ok = lane.execute("job-2", spec, _config(), None)
            assert ok.payload is not None

    def test_worker_crash_reports_died_and_respawns(self):
        spec = benchmark_app_spec(0, scale=SCALE)
        with ProcessLane(workers=1) as lane:
            (pid,) = lane.pids()
            import threading

            results = []
            thread = threading.Thread(
                target=lambda: results.append(
                    lane.execute("job-1", spec, _config(), None,
                                 stall_seconds=30)
                )
            )
            thread.start()
            time.sleep(0.2)  # let the task land on the worker
            os.kill(pid, signal.SIGKILL)  # simulate an OOM-style death
            thread.join(timeout=10)
            assert results
            result = results[0]
            assert result.died and not result.killed
            assert result.payload is None
            assert lane.workers_restarted == 1
            assert len(lane.pids()) == 1

    def test_shutdown_stops_every_worker(self):
        lane = ProcessLane(workers=2)
        processes = [w.process for w in lane._all]
        lane.shutdown(wait=True)
        assert all(not p.is_alive() for p in processes)
        assert lane.pids() == []

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessLane(workers=0)

    def test_unknown_start_method_is_rejected(self):
        with pytest.raises(ValueError, match="start method"):
            ProcessLane(workers=1, start_method="teleport")


def _process_alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state field follows the parenthesized command name.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_LANE_HOST = """
import threading, time
from repro.service.workers import ProcessLane
from repro.workload.corpus import benchmark_app_spec
lane = ProcessLane(2)
# One worker stays idle; the other sits in a long fault-injection stall.
threading.Thread(
    target=lane.execute,
    args=("stalled", benchmark_app_spec(0, scale=0.05), None, None, 60.0),
    daemon=True,
).start()
time.sleep(0.5)
print(" ".join(str(pid) for pid in lane.pids()), flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="process states are read from /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_their_service_is_sigkilled(self):
        # A SIGKILLed service runs no shutdown code; its forked workers,
        # idle or stalled, must notice on their own and exit.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        host = subprocess.Popen(
            [sys.executable, "-c", _LANE_HOST],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids = []
        try:
            pids = [int(p) for p in host.stdout.readline().split()]
            assert len(pids) == 2
            host.kill()
            host.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                _process_alive(pid) for pid in pids
            ):
                time.sleep(0.05)
            assert not [pid for pid in pids if _process_alive(pid)]
        finally:
            if host.poll() is None:
                host.kill()
                host.wait(timeout=10)
            host.stdout.close()
            for pid in pids:  # never leak workers from a failing run
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
