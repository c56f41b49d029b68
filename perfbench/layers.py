"""Per-layer tracing for the benchmark's traced runs.

Spans are recorded from outside the program: :class:`Tracer` swaps a
timing wrapper in for each layer's public function at the module or
class attribute its callers look up (for example
``repro.search.engine.basic_search``, where the caller-resolution engine
imported it, not ``repro.search.basic.basic_search``).  Spans live in
memory and are reduced once, after the traced phase ends.

A span's self time is its duration minus the durations of its direct
child spans.  Spans nest per thread; the in-process workloads run on one
thread, so self times add up to the traced wall minus untraced gaps,
which is what ``trace.coverage`` reports.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: Every traced layer span: ``(span name, call sites, e2e metrics it
#: should move)``.  A call site is ``"module:attr"`` or
#: ``"module:Class.method"``; the wrapper replaces that attribute.
LAYER_SPANS = (
    ("workload.generate",
     ("repro.core.batch:generate_app", "repro.workload.generator:generate_app"),
     "app_s_p50, apps_per_s, cold_s_p50"),
    ("dex.disassemble",
     ("repro.android.apk:disassemble",),
     "app_s_p50, apps_per_s, cold_s_p50"),
    # Ingestion folds each shard group through ``fold_group`` (which
    # delegates to TokenIndex); app-level builds go through
    # ``for_disassembly``.  Both are the one fold.
    ("search.backends.fold",
     ("repro.search.backends.indexed:TokenIndex.for_disassembly",
      "repro.store.sharding:fold_group"),
     "warm_store/setup_s, cold_s_p50"),
    ("search.backends.scan",
     tuple(
         f"repro.search.backends.{module}:{cls}.{method}"
         for module, cls in (("linear", "LinearScanBackend"),
                             ("indexed", "InvertedIndexBackend"))
         for method in ("literal_lines", "pattern_lines", "token_lines")
     ),
     "cold_corpus/app_s_p50"),
    ("store.load_index",
     ("repro.store.artifacts:ArtifactStore.load_index",),
     "warm_store/app_s_p50, serve_mixed/app_s_p50"),
    ("store.save_index",
     ("repro.store.artifacts:ArtifactStore.save_index",),
     "setup_s"),
    ("store.probe",
     ("repro.store.artifacts:ArtifactStore.probe",),
     "serve_mixed/app_s_p50"),
    ("search.sinks",
     ("repro.api.session:find_sink_call_sites",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("search.resolve",
     ("repro.search.engine:CallerResolutionEngine.resolve",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("search.resolve.basic",
     ("repro.search.engine:basic_search",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("search.resolve.advanced",
     ("repro.search.engine:advanced_search",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("search.resolve.icc",
     ("repro.search.engine:icc_search",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("search.resolve.clinit",
     ("repro.search.engine:clinit_reachability_search",),
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("core.slice",
     ("repro.core.slicer:BackwardSlicer.slice_sink",),
     "retarget_s_p50, retarget_s_p90"),
    ("core.forward",
     ("repro.core.forward:ForwardPropagation.run",),
     "retarget_s_p50, retarget_s_p90"),
    ("core.detect",
     tuple(
         f"repro.core.detectors:{cls}.evaluate"
         for cls in ("CryptoEcbDetector", "SslVerifierDetector",
                     "OpenPortDetector", "SmsSendDetector")
     ),
     "retarget_s_p50, retarget_s_p90"),
    ("core.batch",
     ("repro.core.batch:run_batch", "repro.core.batch:analyze_spec"),
     "cold_corpus/app_s_p50, apps_per_s"),
    ("api.session",
     ("repro.api.session:AnalysisSession.run",),
     "retarget_s_p50, hot_s_p50"),
    # The envelope's dict + JSON rendering happens in the benchmark's
    # own ``render_envelope`` (the step every client of a session runs).
    ("api.envelope",
     ("perfbench.workloads:render_envelope",),
     "retarget_s_p50, hot_s_p50"),
)

#: Layer counters: ``(name, unit, better, e2e metrics it should move)``.
LAYER_COUNTERS = (
    ("store.groups_materialized", "count", "lower",
     "warm_store/app_s_p50, serve_mixed/app_s_p50"),
    ("store.bytes_decoded_ratio", "ratio", "lower",
     "warm_store/app_s_p50, serve_mixed/app_s_p50"),
    ("search.cache_hit_ratio", "ratio", "higher",
     "retarget_s_p50, retarget_s_p90, hot_s_p50"),
    ("core.sink_cache_hit_ratio", "ratio", "higher",
     "retarget_s_p50, retarget_s_p90"),
)

#: Service spans (from job timestamps and the POST round trip).
SERVICE_SPANS = (
    ("service.submit", "request_s_p50, request_s_p90, hot_s_p50"),
    ("service.queue_wait.fast",
     "request_s_p50, hot_s_p50, serve_mixed/app_s_p50"),
    ("service.queue_wait.main", "request_s_p90, cold_s_p50"),
    ("service.exec.fast", "hot_s_p50, serve_mixed/app_s_p50"),
    ("service.exec.main", "cold_s_p50"),
)

#: Service gauges read from ``/v1/stats`` and the load generator.
SERVICE_COUNTERS = (
    ("service.lane_utilization.fast", "ratio", "lower",
     "hot_s_p50, serve_mixed/app_s_p50, within_slo_ratio"),
    ("service.lane_utilization.main", "ratio", "lower",
     "cold_s_p50, within_slo_ratio"),
    ("service.cold_restarts", "count", "lower", "ok_ratio"),
    ("loadgen.late_s_p90", "s", "lower", "hot_s_p50, request_s_p90"),
)

TRACE_COUNTERS = (
    ("trace.coverage", "ratio", "higher", "-"),
    ("trace.overhead_ratio", "ratio", "lower", "-"),
)


def per_layer_catalogue() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric: ``(name, unit, better, should move)``."""
    rows = []
    for span, _, moves in LAYER_SPANS:
        rows += _span_rows(span, moves)
    rows += LAYER_COUNTERS
    for span, moves in SERVICE_SPANS:
        rows += _span_rows(span, moves)
    rows += SERVICE_COUNTERS
    rows += TRACE_COUNTERS
    return rows


def _span_rows(span: str, moves: str) -> list[tuple[str, str, str, str]]:
    return [
        (f"{span}.calls", "count", "lower", moves),
        (f"{span}.self_s", "s", "lower", moves),
        (f"{span}.share", "ratio", "lower", moves),
    ]


def _resolve(site: str):
    """``(owner, attr)`` for one call site string."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs span wrappers at every layer call site; records spans."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per finished-or-open span.
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Swap the wrappers in; :meth:`uninstall` swaps them back out."""
        for name, sites, _ in LAYER_SPANS:
            for site in sites:
                owner, attr = _resolve(site)
                raw = owner.__dict__[attr] if isinstance(owner, type) else (
                    getattr(owner, attr)
                )
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over finished spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return totals


def layer_metrics(
    tracer: Tracer | None, traced_wall: float, counters: dict
) -> dict[str, float]:
    """Every per-layer metric, from the in-process spans.

    ``counters`` supplies the :data:`LAYER_COUNTERS` values and
    ``trace.overhead_ratio``; coverage is derived from the spans.
    """
    totals = tracer.self_times() if tracer is not None else {}
    # Layers this workload does not reach (the service, for in-process
    # workloads) read 0.
    metrics = {name: 0 for name, *_ in per_layer_catalogue()}
    covered = 0.0
    for span, _, _ in LAYER_SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        covered += self_s
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
        metrics[f"{span}.share"] = self_s / traced_wall if traced_wall else 0.0
    for name, *_ in LAYER_COUNTERS:
        metrics[name] = counters.get(name, 0.0)
    metrics["trace.coverage"] = covered / traced_wall if traced_wall else 0.0
    metrics["trace.overhead_ratio"] = counters["trace.overhead_ratio"]
    return metrics
