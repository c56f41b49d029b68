#!/usr/bin/env python
"""Sustained-traffic latency under zero-copy shard restores.

Two phases, both with enforced acceptance bars (the script exits
nonzero when any bar fails, so CI can run it directly):

**Phase A — warm restore microbenchmark.**  The same multi-library app
is published into a store, then warm-restored and queried with a
single-group needle two ways: lazily (mmap-backed, decoding only the
group the needle touches) and eagerly (the same restore followed by
``LazyTokenIndex.materialize()``, the full composition the program
still performs when a caller needs every group).  Bars:

* lazy restore+query is **>= 2x faster** than the eager path;
* the subset query **decodes strictly fewer bytes** than it maps
  (``bytes_decoded < bytes_mapped``), i.e. untouched groups stay raw.

**Phase B — sustained HTTP traffic, in-process vs process cold lane.**
A pre-warmed corpus plus a trickle of cold submissions is pushed over
HTTP (keep-alive) through the asyncio ``AnalysisServer`` until
saturation, twice:

* the **in-process baseline** — ``cold_executor="thread"`` (what
  ``backdroid serve --cold-workers 0`` runs): warm restores share the
  GIL with cold disassembly/index folds;
* the **process cold lane** — ``cold_executor="process"``: the service
  interpreter only runs the event loop and warm mmap-backed restores.

Both runs share the transport, so the comparison isolates the GIL.
Each run gets its own store directory and its own pre-warm, so cold
submissions in one run never warm the other.  Bars (enforced on the
process cold lane; the in-process run is the comparison baseline):

* p99 warm **service time** (queue wait excluded — turnaround at
  saturation is dominated by queue depth; measured over steady-state
  warm jobs, i.e. those started after the submission burst, for both
  runs alike) beats the mean **cold turnaround**: even the worst
  warm job finishes its work before an average cold submission gets
  through the system;
* submission ingest sustains **>= 100 submissions/sec** over HTTP —
  probes are stat-only, so enqueueing must never parse shard payloads;
* warm p99 service time under the saturating cold load is **>= 2x
  better** with the process cold lane than in-process — the
  GIL-isolation payoff, measured end to end;
* **telemetry overhead**: a third process-lane run with tracing and the
  metrics registry disabled; warm p99 service time with telemetry ON
  must stay within 5% (plus a 1ms timer-resolution grace) of the
  disabled run.

Usage::

    PYTHONPATH=src python benchmarks/bench_sustained_traffic.py
    PYTHONPATH=src python benchmarks/bench_sustained_traffic.py --smoke

``--smoke`` shrinks the corpus and job count for CI while keeping every
bar enforced.
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.conftest import emit_table, render_table  # noqa: E402
from repro.core import BackDroidConfig, analyze_spec  # noqa: E402
from repro.search.backends.indexed import TokenIndex  # noqa: E402
from repro.service import AnalysisServer, StoreAwareScheduler  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.workload.corpus import benchmark_app_spec  # noqa: E402
from repro.workload.generator import (  # noqa: E402
    AppSpec,
    LibrarySpec,
    generate_app,
)

#: Warm-restore speedup bar (lazy vs lazy + full materialization).
RESTORE_SPEEDUP_BAR = 2.0
#: Submission ingest bar: probes are stat-only, enqueue must be cheap.
INGEST_BAR = 100.0
#: Warm-p99 isolation bar: process cold lane vs in-process (GIL-shared).
WARM_ISOLATION_BAR = 2.0
#: Telemetry overhead bar: warm p99 service time with tracing+metrics
#: ON must land within this factor of the disabled run.
TELEMETRY_OVERHEAD_BAR = 1.05
#: Absolute grace on the overhead bar (seconds): at smoke scale the
#: p99 window is a handful of millisecond-sized samples, where timer
#: resolution and scheduler jitter alone exceed 5% of the value.
TELEMETRY_OVERHEAD_GRACE_S = 0.001


# ======================================================================
# Phase A — warm restore comparison
# ======================================================================

def _restore_app(n_libs: int, classes: int):
    libs = tuple(
        LibrarySpec(package=f"org.bench{i}.sdk", seed=60 + i,
                    classes=classes)
        for i in range(n_libs)
    )
    return generate_app(
        AppSpec(package="com.traffic.host", seed=3, libraries=libs)
    ).apk


def _needle(index: TokenIndex) -> str:
    """A descriptor only one library group's shard can answer."""
    return next(t for t in index.vocab
                if t.startswith("Lorg/bench1/") and t.endswith(";"))


def _time_warm_restores(store, disassembly, needle, repeats, eager):
    """Best-of-N warm restore (+ full materialization when ``eager``)
    and single-group query, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        index = store.load_index(disassembly)
        if eager:
            index.materialize()
        index.token_lines(needle)
        best = min(best, time.perf_counter() - started)
        assert index is not None and index.restored
    return best


def run_restore_comparison(root: str, smoke: bool) -> dict:
    n_libs, classes = (8, 6) if smoke else (14, 8)
    repeats = 3 if smoke else 5
    apk = _restore_app(n_libs, classes)
    fresh = TokenIndex.for_disassembly(apk.disassembly)
    needle = _needle(fresh)
    expected = fresh.token_lines(needle)

    store = ArtifactStore(Path(root) / "restore")
    store.save_index(apk.disassembly, fresh)
    eager_s = _time_warm_restores(
        store, apk.disassembly, needle, repeats, eager=True
    )
    lazy_s = _time_warm_restores(
        store, apk.disassembly, needle, repeats, eager=False
    )
    lazy = store.load_index(apk.disassembly)
    assert getattr(lazy, "lazy", False), \
        "warm restore must take the lazy path"
    assert lazy.token_lines(needle) == expected
    decoded, mapped = lazy.bytes_decoded, lazy.bytes_mapped
    groups = (lazy.materialized_groups, lazy.groups_total)

    speedup = eager_s / lazy_s
    return {
        "eager_s": eager_s,
        "lazy_s": lazy_s,
        "speedup": speedup,
        "bytes_decoded": decoded,
        "bytes_mapped": mapped,
        "groups": groups,
    }


# ======================================================================
# Phase B — sustained HTTP traffic, in-process vs process cold lane
# ======================================================================

def run_sustained_traffic(
    root: str, smoke: bool, cold_executor: str, telemetry: bool = True
) -> dict:
    corpus = 3 if smoke else 8
    n_jobs = 30 if smoke else 600
    cold_every = 5  # one cold submission per five warm ones
    scale = 0.05 if smoke else 0.1
    # Cold submissions are deliberately heavy: the bar measures warm
    # latency under a *saturating* cold load, so the cold lane must
    # stay busy for the whole warm stream.
    cold_scale = 0.3 if smoke else 0.4
    # Per-variant store: cold submissions warm the store as they
    # finish, so a shared directory would hand a later run a warmer
    # corpus.
    variant = cold_executor if telemetry else f"{cold_executor}-notelemetry"
    store_dir = str(Path(root) / f"service-store-{variant}")
    config = BackDroidConfig(
        search_backend="indexed", store_dir=store_dir, store_mode="full"
    )
    for i in range(corpus):
        outcome = analyze_spec(benchmark_app_spec(i, scale=scale), config)
        assert outcome.ok, outcome.error

    scheduler = StoreAwareScheduler(
        config,
        workers=2,
        fast_lane_workers=1,
        max_finished_jobs=n_jobs + 16,
        cold_executor=cold_executor,
        tracing_enabled=telemetry,
        enable_metrics=telemetry,
    )
    with AnalysisServer(scheduler, port=0) as server:
        host, port = server.address
        # One keep-alive connection: the ingest bar measures the
        # service's submission path, not TCP handshakes.
        conn = http.client.HTTPConnection(host, port, timeout=60)
        jobs = []
        started = time.perf_counter()
        cold_seq = corpus  # spec ids beyond the pre-warmed corpus are cold
        for n in range(n_jobs):
            if n % cold_every == cold_every - 1:
                app_index, job_scale = cold_seq, cold_scale
                cold_seq += 1
            else:
                app_index, job_scale = n % corpus, scale
            conn.request(
                "POST",
                "/v1/jobs",
                json.dumps({"app": f"bench:{app_index}",
                            "scale": job_scale}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 202, body
            # Hold the live Job records: they are mutated in place as
            # jobs run (followers included), which keeps the timing
            # reads free of per-job HTTP polling.
            jobs.append(scheduler.queue.get(body["id"]))
        submitted = time.perf_counter() - started
        # Steady-state cutoff: while the submission burst is being
        # parsed, router threads GIL-compete with the warm lane in
        # *both* runs, adding the same latency to each.  The warm
        # bars compare jobs started after the burst, when the only
        # remaining contention is the one under test: the saturated
        # cold lane (threads vs nice'd processes).
        ingest_done = time.time()
        drained = server.drain(timeout=1200)
        assert drained, "drain timed out"
        wall = time.perf_counter() - started
        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()

    finished = jobs
    failed = [job for job in finished if job.state != "done"]
    assert not failed, [(job.id, job.error) for job in failed]
    warm = [job for job in finished if job.warm]
    cold = [job for job in finished if not job.warm]

    def turnaround(job):
        return job.finished_at - job.submitted_at

    def service(job):
        return job.finished_at - job.started_at

    def p99(values):
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    loop_lag = (stats.get("server") or {}).get("event_loop_lag_seconds")
    warm_turn = sorted(turnaround(job) for job in warm)
    steady = [job for job in warm if job.started_at >= ingest_done]
    if len(steady) < 10:  # tiny smoke corpus: keep every sample
        steady = warm
    return {
        "cold_executor": cold_executor,
        "jobs": n_jobs,
        "warm": len(warm),
        "cold": len(cold),
        "steady_warm": len(steady),
        "p50_warm": warm_turn[len(warm_turn) // 2],
        "p99_warm": p99(warm_turn),
        # Queue-free job cost: at saturation, turnaround is dominated
        # by queue depth, so the latency bar compares service times,
        # over the steady-state (post-burst) warm population.
        "p99_warm_service": p99(service(job) for job in steady),
        "mean_cold_service": statistics.fmean(service(job) for job in cold),
        "mean_cold": statistics.fmean(turnaround(job) for job in cold),
        "ingest_rate": n_jobs / submitted,
        "drain_rate": n_jobs / wall,
        "loop_lag_p99": loop_lag["p99"] if loop_lag else None,
        "stats": stats,
    }


# ======================================================================
# Driver
# ======================================================================

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized corpus and job count (every bar still enforced)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bdtraffic-") as root:
        restore = run_restore_comparison(root, args.smoke)
        in_process = run_sustained_traffic(root, args.smoke, "thread")
        traffic = run_sustained_traffic(root, args.smoke, "process")
        # Telemetry overhead: the same process-lane run with tracing
        # and the metrics registry disabled.  The default-on run above
        # is the "on" sample.
        no_telemetry = run_sustained_traffic(
            root, args.smoke, "process", telemetry=False
        )

    isolation = (
        in_process["p99_warm_service"] / traffic["p99_warm_service"]
        if traffic["p99_warm_service"] > 0
        else float("inf")
    )
    touched, total = restore["groups"]
    rows = [
        ["warm restore, eager (lazy + materialize)",
         f"{restore['eager_s'] * 1e3:.2f}ms"],
        ["warm restore, lazy mmap", f"{restore['lazy_s'] * 1e3:.2f}ms"],
        ["restore speedup", f"{restore['speedup']:.1f}x"],
        ["groups touched / total", f"{touched} / {total}"],
        ["bytes decoded / mapped",
         f"{restore['bytes_decoded']} / {restore['bytes_mapped']}"],
        ["jobs per run (warm + cold)",
         f"{traffic['jobs']} ({traffic['warm']} + {traffic['cold']})"],
        ["steady-state warm samples (in-process / process)",
         f"{in_process['steady_warm']} / {traffic['steady_warm']}"],
        ["warm service p99, in-process cold lane",
         f"{in_process['p99_warm_service'] * 1e3:.1f}ms"],
        ["warm service p99, process cold lane",
         f"{traffic['p99_warm_service'] * 1e3:.1f}ms"],
        ["warm p99 isolation gain", f"{isolation:.1f}x"],
        ["warm turnaround p50 / p99 (process)",
         f"{traffic['p50_warm'] * 1e3:.1f}ms / "
         f"{traffic['p99_warm'] * 1e3:.1f}ms"],
        ["cold turnaround / service mean (process)",
         f"{traffic['mean_cold'] * 1e3:.1f}ms / "
         f"{traffic['mean_cold_service'] * 1e3:.1f}ms"],
        ["submission ingest (process, HTTP)",
         f"{traffic['ingest_rate']:.0f}/s"],
        ["drain throughput (process)",
         f"{traffic['drain_rate']:.1f} jobs/s"],
        ["event-loop lag p99 (process)",
         f"{traffic['loop_lag_p99'] * 1e3:.2f}ms"
         if traffic["loop_lag_p99"] is not None else "n/a"],
        ["warm service p99, telemetry on / off",
         f"{traffic['p99_warm_service'] * 1e3:.1f}ms / "
         f"{no_telemetry['p99_warm_service'] * 1e3:.1f}ms"],
    ]
    emit_table(
        "sustained_traffic",
        render_table(
            "Sustained HTTP traffic: in-process vs process cold lane"
            + (" (smoke)" if args.smoke else ""),
            ["Metric", "Value"],
            rows,
        ),
    )

    bars = [
        (
            restore["speedup"] >= RESTORE_SPEEDUP_BAR,
            f"warm restore speedup {restore['speedup']:.2f}x "
            f"(bar: >= {RESTORE_SPEEDUP_BAR:.1f}x)",
        ),
        (
            0 < restore["bytes_decoded"] < restore["bytes_mapped"],
            f"subset query decoded {restore['bytes_decoded']} of "
            f"{restore['bytes_mapped']} mapped bytes (bar: strict subset)",
        ),
        (
            touched < total,
            f"{touched} of {total} groups materialized "
            f"(bar: untouched groups stay raw)",
        ),
        (
            traffic["p99_warm_service"] < traffic["mean_cold"],
            f"p99 warm service {traffic['p99_warm_service'] * 1e3:.1f}ms "
            f"vs mean cold turnaround {traffic['mean_cold'] * 1e3:.1f}ms "
            f"(bar: worst warm job beats an average cold submission)",
        ),
        (
            traffic["ingest_rate"] >= INGEST_BAR,
            f"ingest {traffic['ingest_rate']:.0f}/s over HTTP "
            f"(bar: >= {INGEST_BAR:.0f}/s, stat-only probes)",
        ),
        (
            isolation >= WARM_ISOLATION_BAR,
            f"warm p99 service {isolation:.2f}x better with the process "
            f"cold lane ({in_process['p99_warm_service'] * 1e3:.1f}ms -> "
            f"{traffic['p99_warm_service'] * 1e3:.1f}ms; "
            f"bar: >= {WARM_ISOLATION_BAR:.1f}x)",
        ),
        (
            traffic["p99_warm_service"]
            <= no_telemetry["p99_warm_service"] * TELEMETRY_OVERHEAD_BAR
            + TELEMETRY_OVERHEAD_GRACE_S,
            f"telemetry overhead: warm p99 service "
            f"{traffic['p99_warm_service'] * 1e3:.1f}ms on vs "
            f"{no_telemetry['p99_warm_service'] * 1e3:.1f}ms off "
            f"(bar: <= {(TELEMETRY_OVERHEAD_BAR - 1) * 100:.0f}% + "
            f"{TELEMETRY_OVERHEAD_GRACE_S * 1e3:.0f}ms grace)",
        ),
    ]
    failures = 0
    for ok, label in bars:
        print(("PASS  " if ok else "FAIL  ") + label)
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
