"""The three benchmark workloads.

Each workload drives only public entry points (``run_batch``,
``AnalysisSession``, ``ArtifactStore`` and ``backdroid serve`` over
HTTP) and returns a :class:`Outcome`.  With ``trace`` off it measures
the end-to-end metrics; with ``trace`` on it runs every operation twice,
once plain and once under :class:`~perfbench.layers.Tracer` (alternating
which goes first), and reports the per-layer metrics instead.

* ``cold_corpus`` — the paper's setting: one-shot targeted analysis of
  distinct apps, ``run_batch`` serial over default settings (linear
  backend, crypto-ecb + ssl-verifier, no store), one app in flight.
  Dominated by app generation and text disassembly; bypasses the store
  and the service entirely.
* ``warm_store`` — set-up ingests the corpus into a fresh store (the
  write path); each timed operation opens a fresh session on the
  indexed backend over that store (generate, disassemble, lazy restore,
  analyse), then sends one re-targeted request on the live session with
  the full rule catalogue.  The re-target does no generation or
  disassembly, so search and core are its whole cost.
* ``serve_mixed`` — an open loop of jittered arrivals against a
  ``backdroid serve`` subprocess: hot re-targets on live sessions,
  store-warm first touches, and never-seen cold apps.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import http.client
import inspect
import itertools
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.registry import builtin_rules
from repro.api.request import AnalysisRequest
from repro.api.session import AnalysisSession
from repro.core import batch
from repro.core.backdroid import BackDroidConfig
from repro.store import ArtifactStore, store_key
from repro.workload import generator
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import spec_fingerprint

from perfbench import layers
from perfbench.speed import (
    KERNEL_ITERATIONS, Speed, kernel_seconds, reference_factor,
)
from perfbench.corpus import SERVICE_SEED, VerdictGate, spec_stream

ROOT = Path(__file__).resolve().parent.parent

#: A run reports p90 only over at least this many samples.
MIN_SAMPLES = 100

DEFAULT_RULES = AnalysisRequest().rules
ALL_RULES = builtin_rules()

COLD_SCALE = 1.0
#: Apps per second ``cold_corpus`` was sized with on a 2-core box.
COLD_RATE = 4.0
WARM_SCALE = 0.4
#: Apps ingested by ``warm_store`` set-up; the timed phase cycles
#: through them, each visit a fresh session and store handle, and visits
#: each the same number of times.
WARM_APPS = 32
#: Visits per second ``warm_store`` was sized with on a 2-core box.
WARM_RATE = 5.0
#: Fresh interpreters timed for ``cold_corpus`` set-up (median taken).
IMPORT_RUNS = 5
#: Ingestions timed by ``warm_store``, each into a fresh store, and
#: server starts timed by ``serve_mixed`` (median taken; the last one
#: serves the timed phase).
SETUP_RUNS = 3
#: Reference-kernel runs taken at each calibration point outside the
#: timed loop (inside it, one per operation).
KERNELS_PER_PHASE = 5

SERVE_SCALE = 0.2
SERVE_RATE = 4.0  # offered requests per second
#: Requests in one run at the least: enough that the warm and cold
#: classes (25% and 15% of them) have 35 and 21 samples.
SERVE_MIN_REQUESTS = 140
SERVE_MIX = (("hot", 0.60), ("warm", 0.25), ("cold", 0.15))
HOT_APPS = 16
#: Candidate pool and strata of each of the three ``serve_mixed`` input
#: streams: smaller than the in-process workloads' pools, since the
#: server's peak RSS does not follow the run's largest app.
SERVE_POOL, SERVE_STRATA = 2048, 256
SESSION_CACHE = 32  # > HOT_APPS, < the warm apps one run touches
#: Latency limit behind ``within_slo_ratio``.
SLO_SECONDS = 1.0
#: Seconds between reference-kernel runs during the open loop, and the
#: free time before the next arrival a kernel run needs.
KERNEL_INTERVAL = 0.25
KERNEL_GAP = 0.05
#: Longest a run waits for its last jobs after the final arrival.
DRAIN_LIMIT_SECONDS = 60.0


@dataclass
class Outcome:
    """What one workload run measured."""

    #: ``{metric: (value, unit, samples or None, reported)}``; only
    #: reported metrics enter the result line, the rest are printed
    #: above it for reference.
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate: VerdictGate = field(default_factory=VerdictGate)
    #: Reference seconds per measured second, over set-up and over the
    #: timed phase; an untraced run scales each timing by the factor of
    #: the phase it was taken in (see ``perfbench/speed.py``).
    setup_factor: float = 1.0
    speed_factor: float = 1.0

    def add(self, name: str, value: float, unit: str, samples=None,
            reported: bool = True) -> None:
        self.metrics[name] = (value, unit, samples, reported)

    def add_percentiles(self, prefix: str, values: list, p90: bool,
                        reported: bool = False) -> None:
        """``<prefix>_p50`` (and ``_p90`` when asked) of ``values``; only
        a p50 is ever ``reported``."""
        if not values:
            raise RuntimeError(f"no samples for {prefix}")
        self.add(f"{prefix}_p50", statistics.median(values), "s", len(values),
                 reported)
        if p90:
            if len(values) < MIN_SAMPLES:
                raise RuntimeError(
                    f"{prefix}_p90 needs {MIN_SAMPLES} samples, "
                    f"got {len(values)}"
                )
            self.add(f"{prefix}_p90", nearest_rank(values, 0.90), "s",
                     len(values), reported=False)

    def add_layers(self, values: dict) -> None:
        units = {name: unit for name, unit, _, _ in layers.per_layer_catalogue()}
        for name, value in values.items():
            self.add(name, value, units[name])


def nearest_rank(values: list, q: float) -> float:
    """The nearest-rank ``q`` quantile (the benchmark keeps its own, so a
    change to the program's telemetry helpers cannot move its numbers)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def render_envelope(envelope) -> str:
    """The envelope as the JSON every client of a session receives."""
    return json.dumps(envelope.as_dict())


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


class Paired:
    """Runs operations plain or traced, alternating which comes first.

    ``trace`` off: each operation runs once, untraced.  ``trace`` on:
    each runs twice — once under the tracer, once without — and the
    summed walls of the two give ``trace.overhead_ratio``.

    A full garbage collection precedes every execution, outside its
    timing, so each operation starts from a collected heap instead of
    paying at random for the cyclic garbage of the ones before it.
    """

    def __init__(self, trace: bool) -> None:
        self.tracer = layers.Tracer() if trace else None
        #: Wall under the tracer: traced set-up plus traced operations.
        self.traced_wall = 0.0
        self.traced_ops_wall = 0.0
        self.plain_ops_wall = 0.0
        self._count = 0

    def run(self, op):
        """``op()`` once per mode; returns the traced (or only) result."""
        if self.tracer is None:
            gc.collect()
            return op()
        self._count += 1
        result = None
        for traced in ((False, True) if self._count % 2 else (True, False)):
            gc.collect()
            if traced:
                self.tracer.install()
            started = time.perf_counter()
            try:
                value = op()
            finally:
                elapsed = time.perf_counter() - started
                if traced:
                    self.tracer.uninstall()
            if traced:
                self.traced_wall += elapsed
                self.traced_ops_wall += elapsed
                result = value
            else:
                self.plain_ops_wall += elapsed
        return result

    def traced_setup(self, fn):
        """Run ``fn()`` once, traced when tracing, and return its result."""
        if self.tracer is not None:
            self.tracer.install()
        started = time.perf_counter()
        try:
            return fn()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
                self.traced_wall += time.perf_counter() - started

    def layer_metrics(self, counters: dict) -> dict:
        counters = dict(counters)
        counters["trace.overhead_ratio"] = (
            self.traced_ops_wall / self.plain_ops_wall
            if self.plain_ops_wall else 0.0
        )
        return layers.layer_metrics(self.tracer, self.traced_wall, counters)


def operation_count(rate: float, seconds: float, trace: bool) -> int:
    """Operations in one run: ``seconds`` of work at the sizing ``rate``,
    and at least the p90 sample floor.

    The count depends only on ``--seconds``, never on how fast this
    machine happens to run, so a seed always names the same inputs.  A
    traced run does each operation twice, so it does half as many.
    """
    count = max(MIN_SAMPLES, math.ceil(rate * seconds))
    return count // 2 if trace else count


# ----------------------------------------------------------------------
# cold_corpus
# ----------------------------------------------------------------------

# The probe times the reference kernel itself, before its imports (and
# imports nothing else first): the parent's kernel runs did not follow
# the child's speed.
_IMPORT_PROBE = f"""
import time
KERNEL_ITERATIONS = {KERNEL_ITERATIONS}
{inspect.getsource(kernel_seconds)}
kernel = sorted(kernel_seconds() for _ in range({KERNELS_PER_PHASE}))[
    {KERNELS_PER_PHASE // 2}
]
started = time.perf_counter()
import repro.core.batch, repro.api.session
from repro.android.framework import framework_pool
framework_pool()
print(time.perf_counter() - started, kernel)
"""


def _import_seconds() -> tuple[float, float]:
    """Imports plus the first framework-model build, in a fresh
    interpreter, and the reference factor taken there just before."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    seconds, kernel = done.stdout.split()[-2:]
    return float(seconds), reference_factor(float(kernel))


def cold_corpus(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    speed = Speed()
    probes = [_import_seconds() for _ in range(IMPORT_RUNS)]
    config = BackDroidConfig()
    paired = Paired(trace)
    times: list[tuple[int, float]] = []
    outcomes = []
    count = operation_count(COLD_RATE, seconds, trace)
    if not trace:
        speed.sample()
    for i, (_, spec) in enumerate(spec_stream(seed, COLD_SCALE)[:count]):

        def op(spec=spec):
            t0 = time.perf_counter()
            result = batch.run_batch([spec], config, executor="serial")
            return time.perf_counter() - t0, result.outcomes[0]

        elapsed, outcome = paired.run(op)
        if not trace:
            speed.sample()
        out.attempted += 1
        if not outcome.ok:
            out.failed += 1
            continue
        times.append((i, elapsed))
        out.gate.record("app", spec, DEFAULT_RULES, outcome.findings)
        outcomes.append(outcome)

    if trace:
        out.add_layers(paired.layer_metrics(_outcome_counters(outcomes)))
        return out
    out.setup_factor = statistics.median(factor for _, factor in probes)
    out.speed_factor = speed.factor()
    app_s = [elapsed * speed.factor_at(i) for i, elapsed in times]
    out.add("setup_s",
            statistics.median(seconds * factor for seconds, factor in probes),
            "s", IMPORT_RUNS)
    out.add("peak_rss_mb", own_peak_rss_mb(), "MB")
    out.add_percentiles("app_s", app_s, p90=True, reported=True)
    out.add("apps_per_s", len(app_s) / sum(app_s), "1/s", reported=False)
    return out


def _outcome_counters(outcomes) -> dict:
    mapped = sum(o.bytes_mapped for o in outcomes)
    return {
        "store.groups_materialized": sum(
            o.materialized_groups for o in outcomes
        ),
        "store.bytes_decoded_ratio": (
            sum(o.bytes_decoded for o in outcomes) / mapped if mapped else 0.0
        ),
        "search.cache_hit_ratio": _mean([o.search_cache_rate for o in outcomes]),
        "core.sink_cache_hit_ratio": _mean(
            [o.sink_cache_rate for o in outcomes]
        ),
    }


# ----------------------------------------------------------------------
# warm_store
# ----------------------------------------------------------------------


def ingest(store_dir: Path, specs) -> None:
    """Publish each app's sharded index and specmap entry (the write path
    ``backdroid store warm`` takes in index mode)."""
    store = ArtifactStore(str(store_dir))
    for spec in specs:
        apk = generator.generate_app(spec).apk
        store.save_index(apk.disassembly)
        store.save_spec_key(spec_fingerprint(spec), store_key(apk.disassembly))


def warm_store(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    apps = [spec for _, spec in spec_stream(seed, WARM_SCALE)[:WARM_APPS]]
    paired = Paired(trace)
    setup_speed, speed = Speed(), Speed()
    setup_speed.sample(KERNELS_PER_PHASE)
    ingests = []
    for attempt in range(1 if trace else SETUP_RUNS):
        if attempt:
            shutil.rmtree(store_dir)
        store_dir = workdir / f"store{attempt}"
        t0 = time.perf_counter()
        paired.traced_setup(lambda: ingest(store_dir, apps))
        ingests.append(time.perf_counter() - t0)
        setup_speed.sample(KERNELS_PER_PHASE)
        # Write dirty pages back now, outside setup_s, so the kernel's
        # deferred write-back does not land inside the next timing.
        os.sync()
    setup_s = statistics.median(ingests)

    def op(spec):
        t0 = time.perf_counter()
        apk = generator.generate_app(spec).apk
        session = AnalysisSession(
            apk, default_backend="indexed", store=str(store_dir)
        )
        first = session.run(AnalysisRequest())
        render_envelope(first)
        t1 = time.perf_counter()
        second = session.run(AnalysisRequest(rules=ALL_RULES))
        render_envelope(second)
        return t1 - t0, time.perf_counter() - t1, first.report, second.report

    app_times: list[tuple[int, float]] = []
    retarget_times: list[tuple[int, float]] = []
    reports = []
    passes = math.ceil(operation_count(WARM_RATE, seconds, trace) / WARM_APPS)
    visits = passes * WARM_APPS
    if not trace:
        speed.sample()
    for visit in range(visits):
        spec = apps[visit % len(apps)]
        out.attempted += 2
        try:
            first_s, second_s, first, second = paired.run(
                lambda spec=spec: op(spec)
            )
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            print(f"warm_store {spec.package}: {exc!r}", file=sys.stderr)
            out.failed += 2
            continue
        finally:
            if not trace:
                speed.sample()
        app_times.append((visit, first_s))
        retarget_times.append((visit, second_s))
        out.gate.record("first", spec, DEFAULT_RULES, _findings(first))
        out.gate.record("retarget", spec, ALL_RULES, _findings(second))
        reports.append((first, second))

    if trace:
        out.add_layers(paired.layer_metrics(_report_counters(reports)))
        return out
    out.setup_factor = setup_speed.factor()
    out.speed_factor = speed.factor()
    app_s = [elapsed * speed.factor_at(i) for i, elapsed in app_times]
    retarget_s = [elapsed * speed.factor_at(i) for i, elapsed in retarget_times]
    out.add("setup_s", setup_s * out.setup_factor, "s", SETUP_RUNS)
    out.add("peak_rss_mb", own_peak_rss_mb(), "MB")
    out.add_percentiles("app_s", app_s, p90=True, reported=True)
    # Apps completed per second of visit time (first touch plus re-target).
    out.add("apps_per_s", len(app_s) / (sum(app_s) + sum(retarget_s)), "1/s",
            reported=False)
    out.add_percentiles("retarget_s", retarget_s, p90=True)
    return out


def _findings(report) -> list:
    return [(f.rule, f.method.class_name) for f in report.findings]


def _report_counters(reports) -> dict:
    every = [r for pair in reports for r in pair]
    mapped = sum(first.backend_stats.get("bytes_mapped", 0) for first, _ in reports)
    decoded = sum(r.backend_stats.get("bytes_decoded", 0) for r in every)
    return {
        "store.groups_materialized": sum(
            r.backend_stats.get("materialized_groups", 0) for r in every
        ),
        "store.bytes_decoded_ratio": decoded / mapped if mapped else 0.0,
        "search.cache_hit_ratio": _mean([r.search_cache_rate for r in every]),
        "core.sink_cache_hit_ratio": _mean([r.sink_cache_rate for r in every]),
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


_BANNER = re.compile(r"backdroid service listening on http://([\d.]+):(\d+)")


class Server:
    """One ``backdroid serve`` subprocess."""

    def __init__(self, store_dir: Path, log_path: Path) -> None:
        self.store_dir = store_dir
        self.log_path = log_path
        self.proc = None
        self.address = None

    def start(self) -> float:
        """Start the server; seconds from spawn to its listening banner."""
        log = open(self.log_path, "a")
        try:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro.cli", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--backend", "indexed", "--store", str(self.store_dir),
                    "--cold-workers", "1", "--fast-lane-workers", "1",
                    "--session-cache", str(SESSION_CACHE),
                    "--retain-jobs", "4096", "--drain-timeout", "10",
                ],
                cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        finally:
            log.close()
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"server exited before its banner; see {self.log_path}"
            )
        self.address = (match.group(1), int(match.group(2)))
        return elapsed

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it overstays.

        The server stops its cold workers itself; any that outlive it
        (a killed server cannot) are killed and waited for here.
        """
        if self.proc is None:
            return
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + 10
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)


def _children(pid: int) -> list[int]:
    """Direct children of a live process, from /proc."""
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += [int(k) for k in task.read_text().split()]
        except OSError:
            continue
    return kids


def _alive(pid: int) -> bool:
    """Whether ``pid`` still exists and is not a zombie awaiting reaping."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _request(address, method: str, path: str, body=None):
    """One request on its own connection (an idle keep-alive connection
    would be closed by the server's read timeout during a long run)."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _vm_hwm_mb(pid: int) -> float:
    """Peak RSS of one live process, from /proc (0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def _wait_terminal(address, job_ids: set, limit: float) -> dict:
    """The record of every job in ``job_ids`` once all are terminal (or
    the limit passes).  Only pending jobs are polled, one by one, so the
    server does not serialize every retained job while the last arrivals
    run.  Latencies come from the records' own timestamps, so the poll
    interval never enters a measurement."""
    deadline = time.monotonic() + limit
    jobs = {}
    pending = set(job_ids)
    while True:
        for job_id in sorted(pending):
            status, job = _request(address, "GET", f"/v1/jobs/{job_id}")
            if status != 200:
                raise RuntimeError(f"GET /v1/jobs/{job_id} returned {status}")
            jobs[job_id] = job
            if job["state"] in ("done", "failed", "cancelled"):
                pending.discard(job_id)
        if not pending or time.monotonic() > deadline:
            return jobs
        time.sleep(0.1)


@dataclass
class Arrival:
    due_offset: float
    kind: str
    index: int
    rules: tuple
    due: float = 0.0
    sent: float = 0.0
    submit_s: float = 0.0
    job_id: str = ""
    error: str = ""


def _schedule(seed: int, seconds: float):
    """Hot/warm/cold app indices and the seeded arrival schedule.

    Arrivals are jittered, not Poisson: request ``i`` falls due at a
    seeded uniform point of its own ``1 / SERVE_RATE`` slot.  The classes
    are interleaved evenly (a 60/25/15 split repeating every 20 requests
    from a seeded phase, exact when the count is a multiple of 20), and
    hot requests cycle through the hot apps in a seeded order, so each
    hot app gets the same share of them.
    With Poisson arrivals and a shuffled class order, whether a seed's
    schedule happened to bunch large first touches together on the one
    fast-lane worker decided the run's tail: ``request_s_p90`` and
    the warm class's median latency moved by up to 2x across seeds.
    """
    rng = random.Random(seed)
    first = rng.randrange(1_000_000)
    streams = [
        [index for index, _ in spec_stream(
            SERVICE_SEED, SERVE_SCALE, first + k * SERVE_POOL,
            SERVE_POOL, SERVE_STRATA,
        )]
        for k in range(3)
    ]
    hot_apps = streams[0][:HOT_APPS]
    count = max(SERVE_MIN_REQUESTS, round(SERVE_RATE * seconds))
    kinds = _interleaved(SERVE_MIX, count, phase=rng.randrange(20))
    offsets = [(i + rng.random()) / SERVE_RATE for i in range(count)]
    hot_iter = itertools.cycle(rng.sample(hot_apps, len(hot_apps)))
    warm_iter, cold_iter = iter(streams[1]), iter(streams[2])
    arrivals = []
    for offset, kind in zip(offsets, kinds):
        if kind == "hot":
            arrivals.append(Arrival(offset, kind, next(hot_iter), ALL_RULES))
        elif kind == "warm":
            arrivals.append(Arrival(offset, kind, next(warm_iter), DEFAULT_RULES))
        else:
            arrivals.append(Arrival(offset, kind, next(cold_iter), DEFAULT_RULES))
    warm_apps = [a.index for a in arrivals if a.kind == "warm"]
    return hot_apps, warm_apps, arrivals


def _interleaved(mix, count: int, phase: int) -> list:
    """``count`` class names in ``mix`` proportions, spread evenly: each
    step takes the class furthest behind its share (``phase`` steps are
    drawn and dropped first)."""
    credit = {kind: 0.0 for kind, _ in mix}
    kinds = []
    for _ in range(phase + count):
        for kind, share in mix:
            credit[kind] += share
        kind = max(credit, key=credit.get)
        credit[kind] -= 1.0
        kinds.append(kind)
    return kinds[phase:]


def _body(index: int, rules: tuple) -> dict:
    body = {"app": f"bench:{index}", "scale": SERVE_SCALE}
    if rules != DEFAULT_RULES:
        body["rules"] = list(rules)
    return body


async def _post(address, body: dict) -> tuple[int, dict]:
    """One ``POST /v1/jobs`` on its own connection (no retries)."""
    payload = json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(
            b"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(content)


async def _drive(address, arrivals: list, speed) -> None:
    """The open loop: every arrival is POSTed at its due time, whether or
    not earlier requests have been answered.

    With ``speed`` given, the reference kernel also runs every
    ``KERNEL_INTERVAL`` seconds, but only where no arrival falls due for
    ``KERNEL_GAP`` seconds, so it never delays a send.  It runs on the
    core the server's single-threaded fast lane leaves free.
    """
    dues = [arrival.due for arrival in arrivals]

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(KERNEL_INTERVAL)
            now = time.time()
            upcoming = bisect.bisect_right(dues, now)
            if upcoming == len(dues):
                return
            if dues[upcoming] - now > KERNEL_GAP:
                speed.sample()

    async def send(arrival: Arrival) -> None:
        delay = arrival.due - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        arrival.sent = time.time()
        try:
            status, job = await _post(
                address, _body(arrival.index, arrival.rules)
            )
        except (OSError, ValueError, IndexError) as exc:
            arrival.error = repr(exc)
            return
        arrival.submit_s = time.time() - arrival.sent
        if status == 202:
            arrival.job_id = job["id"]
        else:
            arrival.error = f"HTTP {status}: {job.get('error')}"

    samplers = [calibrate()] if speed is not None else []
    await asyncio.gather(*samplers, *(send(arrival) for arrival in arrivals))


def _service_seconds(stats: dict) -> dict:
    """Per-lane summed service time from the metrics snapshot."""
    series = stats["metrics"]["backdroid_job_service_seconds"]["series"]
    return {s["labels"]["lane"]: s["sum"] for s in series}


def serve_mixed(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    hot_apps, warm_apps, arrivals = _schedule(seed, seconds)
    specs = [benchmark_app_spec(i, SERVICE_SEED, SERVE_SCALE)
             for i in hot_apps + warm_apps]
    store_dir = workdir / "store"
    setup_speed, speed = Speed(), Speed()
    setup_speed.sample(KERNELS_PER_PHASE)
    t0 = time.perf_counter()
    ingest(store_dir, specs)
    ingest_s = time.perf_counter() - t0
    setup_speed.sample(KERNELS_PER_PHASE)
    # As in warm_store: flush the ingest's dirty pages outside the timings.
    os.sync()

    log_path = workdir / "serve.log"
    banner_times = []
    server = None
    try:
        for _ in range(SETUP_RUNS):
            if server is not None:
                server.stop()
            server = Server(store_dir, log_path)
            banner_times.append(server.start())
            setup_speed.sample(KERNELS_PER_PHASE)
        address = server.address
        _prime(address, hot_apps)
        stats_before = _request(address, "GET", "/v1/stats")[1]
        base = time.time() + 0.2
        for arrival in arrivals:
            arrival.due = base + arrival.due_offset
        asyncio.run(_drive(address, arrivals, None if trace else speed))
        jobs = _wait_terminal(
            address, {a.job_id for a in arrivals if a.job_id},
            DRAIN_LIMIT_SECONDS,
        )
        stats_after = _request(address, "GET", "/v1/stats")[1]
        rss = _vm_hwm_mb(server.proc.pid) + sum(
            _vm_hwm_mb(pid) for pid in stats_after["cold"]["worker_pids"]
        )
    finally:
        if server is not None:
            server.stop()

    latency = {"hot": [], "warm": [], "cold": []}
    late = [a.sent - a.due for a in arrivals]
    spans = {name: [] for name, _ in layers.SERVICE_SPANS}
    wall_end = base
    for arrival in arrivals:
        out.attempted += 1
        job = jobs.get(arrival.job_id)
        spans["service.submit"].append(arrival.submit_s)
        if arrival.error or job is None or job["state"] != "done":
            out.failed += 1
            continue
        latency[arrival.kind].append(job["finished_at"] - arrival.due)
        wall_end = max(wall_end, job["finished_at"])
        spans[f"service.queue_wait.{job['lane']}"].append(
            job["started_at"] - job["submitted_at"]
        )
        spans[f"service.exec.{job['lane']}"].append(
            job["finished_at"] - job["started_at"]
        )
        out.gate.record(
            arrival.kind,
            benchmark_app_spec(arrival.index, SERVICE_SEED, SERVE_SCALE),
            arrival.rules,
            job["result"]["findings"],
        )
    everything = latency["hot"] + latency["warm"] + latency["cold"]
    wall = wall_end - base

    if trace:
        values = {}
        for name, samples in spans.items():
            values[f"{name}.calls"] = len(samples)
            values[f"{name}.self_s"] = sum(samples)
            values[f"{name}.share"] = sum(samples) / wall
        before, after = _service_seconds(stats_before), _service_seconds(stats_after)
        for lane in ("fast", "main"):
            busy = after.get(lane, 0.0) - before.get(lane, 0.0)
            workers = stats_after["lanes"][lane]["workers"]
            values[f"service.lane_utilization.{lane}"] = busy / (wall * workers)
        values["service.cold_restarts"] = stats_after["cold"]["workers_restarted"]
        values["loadgen.late_s_p90"] = nearest_rank(late, 0.90)
        # The in-process layers run inside the server, untraced here; the
        # timestamps cover queue wait and execution of every request.
        server_side = sum(
            sum(spans[name])
            for name in spans if not name.startswith("service.submit")
        )
        metrics = layers.layer_metrics(None, 0.0, {"trace.overhead_ratio": 1.0})
        metrics.update(values)
        metrics["trace.coverage"] = server_side / sum(everything) if everything else 0.0
        out.add_layers(metrics)
        return out

    out.setup_factor = setup_speed.factor()
    k = out.speed_factor = speed.factor()
    out.add("setup_s",
            (ingest_s + statistics.median(banner_times)) * out.setup_factor,
            "s", SETUP_RUNS)
    out.add("peak_rss_mb", rss, "MB")
    # Warm (store-warm) and cold (never-seen) requests are the first
    # touches: no live session holds their app.
    out.add_percentiles("app_s",
                        [v * k for v in latency["warm"] + latency["cold"]],
                        p90=False, reported=True)
    out.add_percentiles("request_s", [v * k for v in everything], p90=True)
    # The limit applies to the latency as measured, not as scaled.
    out.add(
        "within_slo_ratio",
        sum(1 for v in everything if v <= SLO_SECONDS) / out.attempted,
        "ratio", reported=False,
    )
    for kind in ("hot", "warm", "cold"):
        out.add_percentiles(f"{kind}_s", [v * k for v in latency[kind]],
                            p90=False)
    return out


def _prime(address, hot_apps: list) -> None:
    """Open a live session per hot app (first touch, then one re-target),
    so timed hot requests are steady-state re-targets."""
    for rules in (DEFAULT_RULES, ALL_RULES):
        ids = set()
        for index in hot_apps:
            status, job = _request(address, "POST", "/v1/jobs", _body(index, rules))
            if status != 202:
                raise RuntimeError(f"priming POST returned {status}")
            ids.add(job["id"])
        jobs = _wait_terminal(address, ids, DRAIN_LIMIT_SECONDS)
        if any(jobs[i]["state"] != "done" for i in ids):
            raise RuntimeError("priming a hot app failed")


WORKLOADS = {
    "cold_corpus": cold_corpus,
    "warm_store": warm_store,
    "serve_mixed": serve_mixed,
}
